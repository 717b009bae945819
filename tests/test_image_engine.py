"""The image-lattice engine: one-array walks, the late-time expansion past them, bounded
memory and cost, 2-D kernels, its call shape."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from platevac import ALL_KINDS, EvalPoint, Geometry, dispersion_exact
from platevac import dispersions
from platevac.correlators import _N_WALK, _ROUNDING, _grouped_image_sum
from platevac.kernels import _K, _SCALED, _SERIES, _image_values, horizon
from platevac.quantities import DispersionKind

_EPS = np.finfo(float).eps
# A series with every coefficient 0, so that the returned value is the explicit sum alone.
_NO_TAIL = (np.zeros_like(_K), 0, 0.5)


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


@pytest.mark.parametrize("n", [_N_WALK - 2, _N_WALK, _N_WALK + 2, 4094, 4096, 4098])
@pytest.mark.parametrize("kind", ["dx2-parallel", "dv2-normal", "photon"])
def test_the_walk_is_one_plain_sum_with_its_rounding_bound(kind, n):
    # The engine makes one fvec call on the n = 0 image and the (families x N) array, and
    # its value is one plain sum, whose tail estimate with a zero series is its rounding
    # bound alone. N is 2 horizon at time t; the dispersions take it up to N = _N_WALK, and
    # the comparisons with the late-time expansion call it directly to about 4,000.
    a, z = 1.0, 0.3123
    t = 2.0 * ((n // 2 - 1.5) * a - z)
    assert horizon(a, z, t) == n // 2
    fvec, sign = _lattice(kind, t)
    sizes = []
    series = (*_NO_TAIL[:-1], 0.5 * t)
    value, tail, n_used = _grouped_image_sum(lambda x: sizes.append(x.size) or fvec(x), sign, a,
                                             z, series, n // 2)
    assert n_used == n
    reference, moduli = _plain_sum(fvec, sign, a, z, n)
    assert tail == pytest.approx(_ROUNDING * _EPS * moduli) and sizes == [3 * n + 1]
    assert abs(value - reference) <= 4.0 * _EPS * moduli


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_memory_is_bounded_by_one_block_not_by_t(kind):
    # At t = 1e6 a a walk would sum 1,000,004 shells, and whole-length arrays peaked at
    # 64-97 MB; the late-time expansion sums none.
    point = EvalPoint(Geometry(1.0, 0.3123), 1e6 + 0.37)
    tracemalloc.start()
    try:
        result = dispersion_exact(kind, point, window=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_used == 0
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
    # range N, result[2]; N = max(8, 2 horizon). The last case walks just past _N_WALK,
    # as only a direct call does, at the t whose horizon it is.
    assert list(inspect.signature(_grouped_image_sum).parameters)[:6] == [
        "fvec", "sign", "a", "z", "series", "horizon_n"]
    assert horizon(1.0, 0.3123, 4094.37) == 2049 > _N_WALK // 2
    for horizon_n, t in ((1, 10.37), (4, 10.37), (6, 10.37), (2049, 4094.37)):
        fvec, series = offset_kernel(DispersionKind.coerce("dv2-normal"), t)
        args = (fvec, 1.0, 1.0, 0.3123, series, horizon_n)
        result = _grouped_image_sum(*args)
        assert len(result) == 3
        assert result[2] == max(8, 2 * args[5])
        assert math.isfinite(result[0]) and math.isfinite(result[1])


def _lattice(name, t):
    """(fvec, sign) of a lattice the engine sums at time t."""
    if name == "photon":  # 1/(A - 4 x**2) at A = t**2 and z' = z: a first-order cone pole
        return (lambda x: 1.0 / (t * t - 4.0 * x * x)), -1.0
    kind = DispersionKind.coerce(name)
    return offset_kernel(kind, t)[0], kind.image_sign


@pytest.mark.parametrize("t", [5000.37, 1e6 + 0.37])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_late_lattice_evaluates_no_kernel_point(monkeypatch, kind, t):
    # At t = 1e6 a the walk passed 3,000,012 offsets to fvec, one per image, and at
    # t = 5,000 a the quadrature rule passed 4,000 to 5,000 in one call. Past _N_WALK the
    # late-time expansion evaluates no kernel point.
    a, z = 1.0, 0.3123
    assert 2 * horizon(a, z, t) > _N_WALK
    calls = []
    monkeypatch.setattr(dispersions, "_image_values", lambda *args: calls.append(args))
    monkeypatch.setattr(dispersions, "_grouped_image_sum", lambda *args: calls.append(args))
    result = dispersion_exact(kind, EvalPoint(Geometry(a, z), t), window=1e-9)
    assert calls == [] and result.n_used == 0
    assert math.isfinite(result.value) and 0.0 < result.tail_estimate
