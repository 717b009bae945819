"""The image-lattice engine: one-array walks, the quadrature rule past them, bounded memory
and cost, 2-D kernels, its call shape."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from platevac import ALL_KINDS, EvalPoint, Geometry, correlators, dispersion_exact
from platevac.correlators import _N_RULE, _TAIL_TARGET, _grouped_image_sum, _k_normal, _k_parallel
from platevac.kernels import _K, _SCALED, _SERIES, _image_values, _nearest_cone, horizon
from platevac.quantities import DispersionKind

_EPS = np.finfo(float).eps
# A series with every coefficient 0, so that the returned value is the explicit sum alone.
_NO_TAIL = (np.zeros_like(_K), 0, 4, 0, 0.5)


def offset_kernel(kind, t):
    """The per-image values of ``kind`` at time t and their large-offset series, as the
    dispersions' lattice takes them."""
    key = (kind.axis, kind.observable)
    return (lambda x: _image_values(key, x, t)), (*_SERIES[key], 0.5 * t)


def _plain_sum(fvec, sign, a, z, N):
    """One np.sum over the images the engine sums explicitly, and the sum of their moduli."""
    base = np.arange(1, N + 1, dtype=float) * a
    terms = np.concatenate([sign * fvec(np.array([z])), 2.0 * fvec(base), sign * fvec(base + z),
                            sign * fvec(base - z)])
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def _sensitivity(fvec, sign, a, z, N, h):
    """Sum of |f| + |x f'(x)| over the same images, weights taken in modulus: rounding an
    offset x to a float moves its term by up to eps |x f'(x)|, and the rule and the walk
    round theirs differently. f' is a central difference with a step 1e-4 of the distance
    to x = 0 or to the cone x = h, whichever is nearer."""
    base = np.arange(1, N + 1, dtype=float) * a
    total = 0.0
    for x, weight in [(np.array([z]), sign)] + [(base + s, w) for s, w in ((0.0, 2.0), (z, sign),
                                                                           (-z, sign))]:
        step = 1e-4 * np.minimum(x, np.abs(x - h))
        x_df = x * (fvec(x + step) - fvec(x - step)) / (2.0 * step)
        total += abs(weight) * float(np.sum(np.abs(fvec(x)) + np.abs(x_df)))
    return total


@pytest.mark.parametrize("n", [_N_RULE - 2, _N_RULE, _N_RULE + 2])
@pytest.mark.parametrize("kind", ["dx2-parallel", "dv2-normal", "photon"])
def test_the_walk_is_one_plain_sum_up_to_the_rule(monkeypatch, kind, n):
    # Up to N = _N_RULE the engine makes one fvec call on the n = 0 image and the
    # (families x N) array, and its value is one plain sum; past it, it takes the rule.
    # N is 2 horizon at time t.
    a, z = 1.0, 0.3123
    t = 2.0 * ((n // 2 - 1.5) * a - z)
    assert horizon(a, z, t) == n // 2
    fvec, sign, _ = _lattice(kind, t, z)
    sizes, ruled = [], []
    rule = correlators._rule_sum  # _rule_sum(fvec, sign, a, z, h, N, ...)
    monkeypatch.setattr(correlators, "_rule_sum", lambda *args: ruled.append(args[5]) or
                        rule(*args))
    series = (*_NO_TAIL[:-1], 0.5 * t)
    value, tail, n_used = _grouped_image_sum(lambda x: sizes.append(x.size) or fvec(x), sign, a,
                                             z, series, n // 2)
    assert n_used == n
    if n > _N_RULE:
        assert ruled == [n] and tail > 0.0
        return
    reference, moduli = _plain_sum(fvec, sign, a, z, n)
    assert not ruled and tail == 0.0 and sizes == [3 * n + 1]
    assert abs(value - reference) <= 4.0 * _EPS * moduli


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_memory_is_bounded_by_one_block_not_by_t(kind):
    # At t = 1e6 a the engine sums 1,000,004 shells; whole-length arrays peaked at 64-97 MB.
    point = EvalPoint(Geometry(1.0, 0.3123), 1e6 + 0.37)
    tracemalloc.start()
    try:
        result = dispersion_exact(kind, point, window=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_used == 1_000_004
    assert peak < 4e6


@pytest.mark.parametrize("key", list(_SCALED))
def test_scaled_kernels_on_a_block_equal_their_rows(key):
    scaled, _ = _SCALED[key]
    k = 256  # an even count, so that no u is 1, the light cone
    u = np.stack([
        np.geomspace(1e-3, 1e3, k)[::-1],  # every branch, descending as a lattice row is
        np.random.default_rng(7).uniform(0.0, 10.0, k),
        np.linspace(0.5, 3.9, k),  # the closed branch alone
    ])
    block = scaled(u)
    assert block.shape == u.shape
    for row, values in zip(u, block):
        assert np.array_equal(values, scaled(row))


def test_the_call_shape_the_layer_counters_read():
    # bench/tracing.py counts a grouped sum by its horizon, args[5], and its explicit
    # range N, result[2]; N = max(8, 2 horizon). Past _N_RULE the rule places the light
    # cone at t/2, so that case takes the t whose horizon it is.
    assert list(inspect.signature(_grouped_image_sum).parameters)[:6] == [
        "fvec", "sign", "a", "z", "series", "horizon_n"]
    assert horizon(1.0, 0.3123, 4094.37) == 2049 > _N_RULE // 2
    for horizon_n, t in ((1, 10.37), (4, 10.37), (6, 10.37), (2049, 4094.37)):
        fvec, series = offset_kernel(DispersionKind.coerce("dv2-normal"), t)
        args = (fvec, 1.0, 1.0, 0.3123, series, horizon_n)
        result = _grouped_image_sum(*args)
        assert len(result) == 3
        assert result[2] == max(8, 2 * args[5])
        assert math.isfinite(result[0]) and math.isfinite(result[1])


def _lattice(name, t, z):
    """(fvec, sign, families for the cone scan) of a lattice the engine sums at time t: its
    plain offsets are n a, its shifted ones n a +/- z."""
    families = (("plain", 0.0, 1), ("shifted", z, 0), ("shifted", -z, 1))
    if name == "photon":  # 1/(A - 4 x**2) at A = t**2 and z' = z: a first-order cone pole
        return (lambda x: 1.0 / (t * t - 4.0 * x * x)), -1.0, families
    if name in ("efield-parallel", "efield-normal"):
        kvec, sign = (_k_parallel, -1.0) if name == "efield-parallel" else (_k_normal, 1.0)
        return (lambda x: kvec(4.0 * x * x, t)), sign, families
    kind = DispersionKind.coerce(name)
    return offset_kernel(kind, t)[0], kind.image_sign, families


@seed(20041201)
@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(ALL_KINDS + ("efield-parallel", "efield-normal", "photon")),
       a=st.sampled_from((0.5, 1.0, 2.0)), t_over_a=st.floats(3.62, 5.4).map(lambda p: 10.0**p),
       z_over_a=st.floats(0.01, 0.99))
def test_the_quadrature_rule_matches_the_walk_within_its_bound(name, a, t_over_a, z_over_a):
    t, z = a * t_over_a, a * z_over_a
    fvec, sign, families = _lattice(name, t, z)
    assume(_nearest_cone(families, a, t, 0.0).distance >= 1e-9)
    # Zero series coefficients: the value is the sum over shells 1..N and the tail is the
    # rule's own bound. The last entry, h = t/2, places the cones.
    series = (*_NO_TAIL[:-1], 0.5 * t)
    value, bound, n = _grouped_image_sum(fvec, sign, a, z, series, horizon(a, z, t))
    walk = _plain_sum(fvec, sign, a, z, n)[0]
    sensitivity = _sensitivity(fvec, sign, a, z, n, 0.5 * t)
    assert abs(value - walk) <= bound + 4.0 * _EPS * sensitivity
    assert bound <= _TAIL_TARGET * abs(value)
    assert (bound > 0.0) == (n > _N_RULE)


@pytest.mark.parametrize("t", [5000.37, 1e6 + 0.37])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_late_lattice_costs_a_few_thousand_kernel_points(kind, t):
    # At t = 1e6 a the walk passed 3,000,012 offsets to fvec, one per image; at t = 5,000 a
    # a walk in blocks of 4,096 shells made three calls on 15,013.
    a, z = 1.0, 0.3123
    fvec, series = offset_kernel(kind, t)
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return fvec(x)

    _, _, n_used = _grouped_image_sum(counted, kind.image_sign, a, z, series, horizon(a, z, t))
    assert n_used == 2 * horizon(a, z, t) > _N_RULE
    assert sum(sizes) < 5_000
    assert len(sizes) == 1
