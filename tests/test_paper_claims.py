"""The abstract's three claims, each checked where it holds.

* Normal motion is reinforced: the second plate adds a positive correction
  to both normal dispersions.
* The negative parallel dispersions acquire positive corrections from the
  second plate, checked before its first image cone, t < 2(a - z).
* "Three times": the late-time ratio to the single-plate normal velocity
  dispersion is (pi d/a)**2 (1/3 + csc(pi z/a)**2), d = min(z, a - z), which is
  pi**2/3 = 3.29 at the midplane.

Each correction must exceed the tail estimate of the value it comes from;
points are drawn with a fixed seed and kept 1e-9 (relative) off every cone.
"""

import math
import random

import pytest

import platevac as pv
from platevac import EvalPoint, Geometry

_WINDOW = 1e-9
_DRAWS = 300


def _second_plate_correction(kind, z, t):
    value = pv.dispersion_exact(kind, EvalPoint(Geometry(1.0, z), t), window=_WINDOW)
    return value.value - pv.single_plate_reference(kind, z, t, window=_WINDOW), value.tail_estimate


@pytest.mark.parametrize("kind", ["dv2-normal", "dx2-normal"])
def test_normal_motion_is_reinforced(kind):
    rng = random.Random(1)
    for _ in range(_DRAWS):
        z, t = rng.uniform(0.01, 0.99), 10.0 ** rng.uniform(-2.0, 3.0)
        correction, tail = _second_plate_correction(kind, z, t)
        assert correction > tail, (z, t)


@pytest.mark.parametrize("kind", ["dv2-parallel", "dx2-parallel"])
def test_parallel_dispersions_gain_a_positive_correction(kind):
    rng = random.Random(2)
    for _ in range(_DRAWS):
        z = rng.uniform(0.01, 0.99)
        t = 10.0 ** rng.uniform(-2.0, math.log10(2.0 * (1.0 - z)))
        correction, tail = _second_plate_correction(kind, z, t)
        assert correction > tail, (z, t)


@pytest.mark.parametrize("z", [0.1, 0.3, 0.5])
def test_late_amplification_against_the_nearer_plate_law(z):
    # amplification_ratio divides by the single plate at distance z, the nearer one here;
    # the late law holds to O((a/t)**2) relative.
    t = 1000.37
    d = min(z, 1.0 - z)
    law = (math.pi * d) ** 2 * (1.0 / 3.0 + 1.0 / math.sin(math.pi * z) ** 2)
    ratio = pv.amplification_ratio(EvalPoint(Geometry(1.0, z), t))
    assert ratio == pytest.approx(law, rel=(1.0 / t) ** 2)
    if z == 0.5:
        assert law == pytest.approx(math.pi**2 / 3.0, rel=1e-15)
