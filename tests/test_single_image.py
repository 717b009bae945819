"""One window rule for a single image, and one place that raises the window error."""

import ast
import math
import pathlib

import pytest

from platevac import (
    GeometryError,
    SingularWindowError,
    correlator_term_normal,
    correlator_term_parallel,
    image_position_integral,
    image_velocity_integral,
    position_kernel_normal,
    position_kernel_parallel,
    single_plate_reference,
    velocity_kernel_normal,
    velocity_kernel_parallel,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "platevac"

# (name, f(x, t, window), even in t): the nine entry points that evaluate one image.
# The correlator terms take no window and are even in dt.
ENTRIES = [
    ("velocity_kernel_parallel", lambda x, t, w: velocity_kernel_parallel(x, t, window=w), False),
    ("velocity_kernel_normal", lambda x, t, w: velocity_kernel_normal(x, t, window=w), False),
    ("position_kernel_parallel", lambda x, t, w: position_kernel_parallel(x, t, window=w), False),
    ("position_kernel_normal", lambda x, t, w: position_kernel_normal(x, t, window=w), False),
    (
        "single_plate_reference",
        lambda x, t, w: single_plate_reference("dv2-normal", x, t, window=w),
        False,
    ),
    ("correlator_term_parallel", lambda x, t, w: correlator_term_parallel(x, t), True),
    ("correlator_term_normal", lambda x, t, w: correlator_term_normal(x, t), True),
    (
        "image_velocity_integral",
        lambda x, t, w: image_velocity_integral("normal", x, t, window=w),
        False,
    ),
    (
        "image_position_integral",
        lambda x, t, w: image_position_integral("parallel", x, t, window=w),
        False,
    ),
]


@pytest.mark.parametrize("name, entry, even", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_single_image_window_rule(name, entry, even):
    # single_plate_reference takes a plate distance, which is positive
    x = 0.5 if name == "single_plate_reference" else -0.5
    with pytest.raises(SingularWindowError) as info:
        entry(x, 1.0, 0.0)
    report = info.value.report
    assert report.distance == 0.0
    assert report.nearest_time == 2.0 * abs(x)
    assert report.family is None and report.n is None
    for bad_x in (math.inf, math.nan):
        with pytest.raises(GeometryError):
            entry(bad_x, 0.3, 1e-6)
    for bad_t in (math.nan, math.inf, -math.inf if even else -1.0):
        with pytest.raises(GeometryError):
            entry(0.5, bad_t, 1e-6)


def _raised_name(exc):
    target = exc.func if isinstance(exc, ast.Call) else exc
    return getattr(target, "id", None) or getattr(target, "attr", None)


def test_singular_window_error_is_raised_in_three_places():
    raisers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    if _raised_name(node.exc) == "SingularWindowError":
                        raisers.add(f"{path.stem}.{func.name}")
    assert raisers == {
        "kernels.checked_report",
        "correlators.minkowski_two_point",
        "correlators.empty_space_efield",
    }


def test_singularity_reports_are_built_only_by_the_kernels():
    # One module decides whether a point is on or near a light cone.
    builders = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _raised_name(node) == "SingularityReport":
                builders.add(path.name)
    assert builders == {"kernels.py"}
