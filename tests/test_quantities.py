import math

import pytest

from platevac import GeometryError
from platevac.quantities import (
    ALL_KINDS,
    DispersionKind,
    EvalPoint,
    Geometry,
    ReducedValue,
)


def test_geometry_basic():
    g = Geometry(2.0, 0.5)
    assert g.a == 2.0
    assert g.z == 0.5
    assert g.zbar == 1.5
    r = g.reflected()
    assert (r.a, r.z) == (2.0, 1.5)


@pytest.mark.parametrize(
    "a,z",
    [(1.0, 0.0), (1.0, 1.0), (1.0, -0.1), (1.0, 1.5), (0.0, 0.5), (-1.0, 0.5), (math.inf, 0.5), (math.nan, 0.5)],
)
def test_geometry_rejects_bad_placement(a, z):
    with pytest.raises(GeometryError):
        Geometry(a, z)


def test_eval_point_gamma():
    pt = EvalPoint(Geometry(2.0, 0.5), 6.0)
    assert pt.gamma == pytest.approx(1.5)
    with pytest.raises(GeometryError):
        EvalPoint(Geometry(2.0, 0.5), -1.0)


def test_kind_tokens_round_trip():
    assert len(ALL_KINDS) == 4
    tokens = {k.token for k in ALL_KINDS}
    assert tokens == {"dv2-parallel", "dv2-normal", "dx2-parallel", "dx2-normal"}
    for kind in ALL_KINDS:
        again = DispersionKind.from_token(kind.token)
        assert again == kind


def test_kind_coerce_accepts_all_spellings():
    kind = DispersionKind("normal", "velocity")
    assert DispersionKind.coerce(kind) is kind
    assert DispersionKind.coerce("dv2-normal") == kind
    assert DispersionKind.coerce(("normal", "velocity")) == kind
    with pytest.raises(GeometryError):
        DispersionKind.coerce("dv2-sideways")
    with pytest.raises(GeometryError):
        DispersionKind.coerce(("sideways", "velocity"))


def test_kind_image_sign():
    assert DispersionKind("parallel", "velocity").image_sign == -1.0
    assert DispersionKind("parallel", "position").image_sign == -1.0
    assert DispersionKind("normal", "velocity").image_sign == 1.0
    assert DispersionKind("normal", "position").image_sign == 1.0


def test_kind_validation():
    with pytest.raises(GeometryError):
        DispersionKind.from_token("dv2-sideways")
    with pytest.raises(GeometryError):
        DispersionKind("sideways", "velocity")
    with pytest.raises(GeometryError):
        DispersionKind("parallel", "momentum")


def test_reduced_value_is_floatlike():
    rv = ReducedValue(1.25, tail_estimate=1e-12, n_used=17)
    assert float(rv) == 1.25
    assert rv.tail_estimate == 1e-12
    assert rv.n_used == 17
    assert rv.singularity is None
