"""parse_rational, the one reader of outside numbers, and the exact entry
points that read theirs through it."""

import json
import sys
import time
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest

from trivol import (
    Box3Bounds,
    InvalidBounds,
    cli,
    closed_form_volume,
    cross_section_volume,
    fit_cubic,
    hull_volume_formula,
    integrate_cross_sections,
    parse_rational,
    volume_cubic,
)

SIMPLEX = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _cli_formula_volume(capsys, bounds):
    assert cli.main(["volume", "--bounds", bounds, "--method", "formula"]) == 0
    return parse_rational(json.loads(capsys.readouterr().out)["vol_formula"])


def test_a_float_bound_is_read_as_the_cli_reads_its_text(capsys):
    for x in (0.1, 0.3, 2.675, 1e-05):
        text = repr(x)
        box = Box3Bounds((x, 0, 0), (3, 1, 1))
        assert box == Box3Bounds((text, 0, 0), (3, 1, 1))
        assert box.a[0] == F(text)
        expected = _cli_formula_volume(capsys, f"{text},3,0,1,0,1")
        assert closed_form_volume(box) == expected
        # the same box already in the ordering condition's axis order
        assert hull_volume_formula((0, 0, x), (1, 1, 3)) == expected
    assert closed_form_volume(Box3Bounds((0.1, 0, 0), (1, 1, 1))) == F(147, 800)


def test_float_arguments_of_the_exact_entry_points_read_as_their_text():
    box = Box3Bounds((1, 1, 1), (2, 2, 2))
    assert cross_section_volume(box, 1.1) == cross_section_volume(box, "1.1")
    assert cross_section_volume(box, 1.1) == cross_section_volume(box, F(11, 10))
    cubic = volume_cubic(SIMPLEX, [(2 * x, 2 * y, 2 * z) for x, y, z in SIMPLEX])
    assert cubic.value_at(0.1) == cubic.value_at("0.1") == cubic.value_at(F(1, 10))
    assert integrate_cross_sections(0.1, 0.2, 0.2, 0.3, 0, 1) == F(1, 5)
    assert integrate_cross_sections(0, 0, 0, 1, 0.1, 0.2) == F(1, 40)


def test_fit_cubic_and_integration_return_fractions_for_float_input():
    cubic = fit_cubic([0, 1, 2, 3], [0.1, 0.2, 0.3, 0.5])
    assert cubic.coefficients == (F(1, 10), F(2, 15), F(-1, 20), F(1, 60))
    assert cubic == fit_cubic([0.0, 1.0, 2.0, 3.0], ["0.1", "0.2", "0.3", "0.5"])
    assert all(type(c) is F for c in cubic.coefficients)
    result = integrate_cross_sections(0.1, 0.2, 0.2, 0.3, 0, 1)
    assert type(result) is F


NOT_FINITE = [float("nan"), float("inf"), float("-inf"), Decimal("NaN"), Decimal("-Infinity")]


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), *NOT_FINITE, None, [1]])
def test_bools_non_finite_values_and_non_numbers_raise_value_error(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)
    with pytest.raises(ValueError):
        Box3Bounds((bad, 0, 0), (2, 1, 1))
    with pytest.raises(ValueError):
        cross_section_volume(Box3Bounds((1, 1, 1), (2, 2, 2)), bad)
    with pytest.raises(ValueError):
        fit_cubic([0, 1, 2, 3], [1, 2, 3, bad])
    with pytest.raises(ValueError):
        integrate_cross_sections(1, 1, 1, 1, bad, 2)


def test_box_keeps_its_length_check_first():
    with pytest.raises(InvalidBounds, match="^bounds need exactly three intervals$"):
        Box3Bounds((True, 0), (2, 1, 1))


def test_a_fraction_is_returned_as_is():
    x = F(1, 3)
    assert parse_rational(x) is x


def test_decimals_and_numpy_integers_are_read_exactly():
    assert parse_rational(Decimal("0.1")) == F(1, 10)
    assert parse_rational(Decimal("-2.50E+3")) == -2500
    for value in (np.int64(-7), np.uint8(200), np.int32(2**31 - 1)):
        x = parse_rational(value)
        assert x == int(value) and type(x.numerator) is int
    box = Box3Bounds((np.int64(1), Decimal("0.5"), 0), (np.int64(2**40), 1, 1))
    assert box.a == (1, F(1, 2), 0) and box.b == (2**40, 1, 1)
    assert all(type(x.numerator) is int for x in box.a + box.b)


def test_a_huge_decimal_exponent_is_refused_at_once():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^decimal exponent beyond 4300 in '1e2000000'$"):
            Box3Bounds(("1e2000000", 0, 0), ("1e2000001", 1, 1))
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(limit)
