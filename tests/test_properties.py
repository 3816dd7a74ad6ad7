"""Hypothesis properties of the volume routes, the axis ordering and the CLI.

Every volume property is checked on both exact routes. Runs are
derandomized, so the suite tests the same examples on every run.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from trivol import (
    Box3Bounds,
    cli,
    closed_form_volume,
    omega_check,
    omega_normalize,
    ordering_values,
    pipeline_volume,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=40)

SMALL = st.fractions(min_value=0, max_value=40, max_denominator=12)
WIDTH = st.fractions(min_value=F(1, 12), max_value=20, max_denominator=12)
SCALE = st.fractions(min_value=F(1, 30), max_value=30, max_denominator=30)


@st.composite
def boxes(draw, lower=SMALL, width=WIDTH):
    a = [draw(lower) for _ in range(3)]
    return Box3Bounds(tuple(a), tuple(lo + draw(width) for lo in a))


def both_volumes(box):
    """(pipeline, formula) volumes of ``box``, which must agree."""
    report = pipeline_volume(box)
    formula = closed_form_volume(box)
    assert report.vol_pipeline == report.vol_formula == formula
    return report.vol_pipeline, formula


@PROPERTY_SETTINGS
@given(boxes(), st.permutations([0, 1, 2]))
def test_volume_is_invariant_under_axis_permutation(box, order):
    permuted = Box3Bounds(tuple(box.a[i] for i in order), tuple(box.b[i] for i in order))
    assert both_volumes(permuted) == both_volumes(box)


@PROPERTY_SETTINGS
@given(boxes(), st.integers(0, 2), SCALE)
def test_scaling_one_axis_scales_the_volume_by_its_square(box, axis, lam):
    # y = x1*x2*x3 scales with x_axis too, so the 4-volume gains lam twice
    a, b = list(box.a), list(box.b)
    a[axis] *= lam
    b[axis] *= lam
    scaled = both_volumes(Box3Bounds(tuple(a), tuple(b)))
    assert scaled == tuple(lam * lam * v for v in both_volumes(box))


@st.composite
def extreme_boxes(draw):
    """Boxes whose axes have their own denominators and magnitudes near
    10^50, 1 or 1/10^50."""
    a, b = [], []
    for _ in range(3):
        scale = F(10) ** draw(st.sampled_from((-50, 0, 50)))
        den = draw(st.integers(1, 10**6))
        lo = F(draw(st.integers(0, 10**6)), den) * scale
        a.append(lo)
        b.append(lo + F(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))) * scale)
    return Box3Bounds(tuple(a), tuple(b))


@PROPERTY_SETTINGS
@given(extreme_boxes())
def test_routes_agree_at_extreme_magnitudes(box):
    assert both_volumes(box)[0] > 0


@st.composite
def tied_boxes(draw):
    """Boxes whose axes often tie in the ordering: each lower bound is 0,
    a ratio shared by all axes times its upper bound, or free."""
    shared = draw(st.fractions(min_value=0, max_value=F(5, 6), max_denominator=6))
    a, b = [], []
    for _ in range(3):
        hi = draw(WIDTH)
        ratio = draw(
            st.sampled_from((F(0), shared))
            | st.fractions(min_value=0, max_value=F(5, 6), max_denominator=6)
        )
        a.append(ratio * hi)
        b.append(hi)
    return Box3Bounds(tuple(a), tuple(b))


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(tied_boxes())
def test_normalize_is_the_stable_sort_by_ordering_values(box):
    keys = ordering_values(box)
    order = sorted(range(3), key=lambda i: keys[i])
    norm = omega_normalize(box)
    assert norm.perm == tuple(order.index(i) + 1 for i in range(3))
    assert norm.bounds == Box3Bounds(
        tuple(box.a[i] for i in order), tuple(box.b[i] for i in order)
    )
    assert omega_check(norm.bounds)


# bound-like text: well-formed nonnegative values, signed values with
# exponents of up to nine digits, and anything
UNSIGNED = st.from_regex(
    r"[0-9]{1,3}(\.[0-9]{1,2})?([eE]-?[0-9]{1,2})?|[0-9]{1,3}/[1-9]", fullmatch=True
)
NUMBER = st.from_regex(r" ?[-+]?[0-9]{0,3}(\.[0-9]{0,2})?([eE][-+]?[0-9]{1,9})? ?", fullmatch=True)
FIELD = UNSIGNED | NUMBER | st.text(max_size=4)


@st.composite
def box_text(draw):
    """Six unsigned values with each axis's pair in increasing order:
    mostly valid boxes."""
    pairs = [sorted((draw(UNSIGNED), draw(UNSIGNED)), key=F) for _ in range(3)]
    return ",".join(x for pair in pairs for x in pair)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(st.text() | st.lists(FIELD, min_size=5, max_size=7).map(",".join) | box_text())
def test_cli_volume_never_tracebacks_on_bounds_text(text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["volume", f"--bounds={text}"])
    assert code in (0, 2)
    if code == 0:
        assert json.loads(out.getvalue())["agree"] is True
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
