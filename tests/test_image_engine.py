"""The image-lattice engine: blocked sums, bounded memory, 2-D kernels, its call shape."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from platevac import ALL_KINDS, EvalPoint, Geometry, correlators, dispersion_exact
from platevac.correlators import _grouped_image_sum
from platevac.kernels import _K, _SCALED, offset_kernel
from platevac.quantities import DispersionKind

_EPS = np.finfo(float).eps
# A series with every coefficient 0, so that the returned value is the explicit sum alone.
_NO_TAIL = (np.zeros_like(_K), 0, 4, 0, 0.5)


def _plain_sum(fvec, sign, a, z, N, d):
    """One np.sum over the images the engine sums explicitly, and the sum of their moduli."""
    base = np.arange(1, N + 1, dtype=float) * a
    if d == 0.0:
        rows = [2.0 * fvec(base)]
    else:
        rows = [fvec(base + d), fvec(base - d)]
    terms = np.concatenate([sign * fvec(np.array([z])), *rows, sign * fvec(base + z),
                            sign * fvec(base - z)])
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def _photon_like(x):
    return 1.0 / (2000.3**2 - 4.0 * x * x)


# (block, N): N = B - 1, B, B + 1 and 3B + 1, each with N even, as every N of the engine is.
@pytest.mark.parametrize("block, n", [(4097, 4096), (4096, 4096), (4095, 4096), (4095, 12286)])
@pytest.mark.parametrize("kind", ["dx2-parallel", "dv2-normal", "photon"])
def test_blocked_sum_is_one_plain_sum_at_the_block_edges(monkeypatch, block, n, kind):
    monkeypatch.setattr(correlators, "_BLOCK", block)
    a, z = 1.0, 0.3123
    if kind == "photon":  # four rows: the plain pair at +/-d
        fvec, sign, d = _photon_like, -1.0, 0.1
    else:
        fvec, sign, d = offset_kernel(DispersionKind.coerce(kind), 2000.37)[0], 1.0, 0.0
    value, tail, n_used = _grouped_image_sum(fvec, sign, a, z, _NO_TAIL, n // 2, d)
    reference, moduli = _plain_sum(fvec, sign, a, z, n, d)
    assert n_used == n and tail == 0.0
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
    # range N, result[2]; N = max(8, 2 horizon).
    assert list(inspect.signature(_grouped_image_sum).parameters)[:6] == [
        "fvec", "sign", "a", "z", "series", "horizon_n"]
    fvec, series = offset_kernel(DispersionKind.coerce("dv2-normal"), 10.37)
    for horizon_n in (1, 4, 6, 2049):
        args = (fvec, 1.0, 1.0, 0.3123, series, horizon_n)
        result = _grouped_image_sum(*args)
        assert len(result) == 3
        assert result[2] == max(8, 2 * args[5])
        assert math.isfinite(result[0]) and math.isfinite(result[1])
