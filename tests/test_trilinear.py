"""Normalization, slice tetrahedra, support maxima, integration, volumes."""

import copy
import pickle
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest

from trivol import (
    Box3Bounds,
    DegenerateTetrahedron,
    InternalDisagreement,
    InvalidBounds,
    OmegaViolated,
    closed_form_volume,
    extreme_points,
    pipeline_volume,
)
from trivol import trilinear
from trivol.geometry import support
from trivol.mixed_volume import mixed_volume_against
from trivol.trilinear import (
    OmegaBox,
    build_Q,
    build_R,
    hull_volume_formula,
    integrate_cross_sections,
    omega_check,
    omega_dprime_check,
    omega_normalize,
    omega_prime_check,
    ordering_values,
)

from reference import q_vertex_points
from testutil import SHIFTED, UNIT


def box(a, b):
    return Box3Bounds(tuple(map(F, a)), tuple(map(F, b)))


class TestBounds:
    def test_rejects_reversed_interval(self):
        with pytest.raises(InvalidBounds):
            box((0, 2, 0), (1, 1, 1))

    def test_rejects_empty_interval(self):
        with pytest.raises(InvalidBounds):
            box((1, 0, 0), (1, 1, 1))

    def test_rejects_negative_lower_bound(self):
        with pytest.raises(InvalidBounds):
            box((-1, 0, 0), (1, 1, 1))

    def test_coerces_mixed_inputs(self):
        b = Box3Bounds((0, "1/2", 1), (1, 1, "3/2"))
        assert b.a == (0, F(1, 2), 1)
        assert b.b == (1, 1, F(3, 2))

    def test_clears_each_axis_by_the_lcm_of_its_denominators(self):
        b = box((F(1, 2), 0, F(2, 3)), (F(3, 4), 5, 1))
        assert b.cleared == ((2, 0, 2), (3, 5, 3), (4, 1, 3))


class TestNormalization:
    def test_ordering_values_examples(self):
        assert ordering_values(UNIT) == (0, 0, 0)
        assert ordering_values(box((0, 1, 2), (1, 2, 3))) == (2, 3, 4)
        assert ordering_values(box((1, 2, 3), (2, 4, 6))) == (36, 36, 36)

    def test_symmetric_ties_break_stably(self):
        norm = omega_normalize(UNIT)
        assert norm.perm == (1, 2, 3)
        assert norm.bounds == UNIT
        assert omega_normalize(box((1, 2, 3), (2, 4, 6))).perm == (1, 2, 3)

    def test_axis_order_is_the_stable_argsort_of_its_keys(self):
        for keys in product(range(3), repeat=3):
            order = sorted(range(3), key=keys.__getitem__)
            perm = tuple(order.index(axis) + 1 for axis in range(3))
            assert trilinear._axis_order(keys) == (tuple(order), perm), keys

    @pytest.mark.parametrize(
        "a, b, perm",
        [
            ((1, 1, 0), (2, 2, 1), (2, 3, 1)),  # a1/b1 = a2/b2 > a3/b3
            ((1, 0, 1), (2, 1, 2), (2, 1, 3)),  # a1/b1 = a3/b3 > a2/b2
            ((2, 1, 1), (3, 3, 3), (3, 1, 2)),  # a2/b2 = a3/b3 < a1/b1
            ((1, 2, 3), (2, 4, 6), (1, 2, 3)),  # all three equal
        ],
    )
    def test_tied_axes_keep_their_input_order(self, a, b, perm):
        assert omega_normalize(box(a, b)).perm == perm

    def test_already_ordered_box_is_untouched(self):
        norm = omega_normalize(box((0, 1, 2), (1, 2, 3)))
        assert norm.perm == (1, 2, 3)
        assert norm.bounds.a == (0, 1, 2)

    def test_reverse_labeling_is_reversed(self):
        norm = omega_normalize(box((2, 1, 0), (3, 2, 1)))
        assert norm.perm == (3, 2, 1)
        assert norm.bounds.a == (0, 1, 2)
        assert norm.bounds.b == (1, 2, 3)

    def test_omega_box_rejects_unordered_bounds(self):
        with pytest.raises(OmegaViolated):
            OmegaBox(box((1, 1, 1), (2, 3, 4)), (1, 2, 3))
        message = (
            "bounds do not satisfy the ordering condition: Box3Bounds(a=(Fraction(1, 1), "
            "Fraction(1, 2), Fraction(1, 1)), b=(Fraction(2, 1), Fraction(3, 1), Fraction(4, 1)))"
        )
        with pytest.raises(OmegaViolated, match=f"^{re.escape(message)}$"):
            OmegaBox(box((1, F(1, 2), 1), (2, 3, 4)), (1, 2, 3))
        with pytest.raises(ValueError):
            OmegaBox(UNIT, (1, 1, 3))

    def test_omega_box_stores_perm_as_a_tuple(self):
        b = box((1, 2, 1), (3, 5, 2))  # a_i/b_i = 1/3 < 2/5 < 1/2: already ordered
        listed = OmegaBox(b, [1, 2, 3])
        assert listed == omega_normalize(b) and hash(listed) == hash(omega_normalize(b))


class TestOrderingChecks:
    def test_zero_lower_corner_always_ordered(self):
        for b in (UNIT, box((0, 0, 0), (5, 2, 9))):
            assert omega_check(b) and omega_prime_check(b) and omega_dprime_check(b)

    def test_decreasing_ratios_fail_all_three(self):
        b = box((1, 1, 1), (2, 3, 4))
        assert not omega_check(b)
        assert not omega_prime_check(b)
        assert not omega_dprime_check(b)

    def test_increasing_ratios_pass_all_three(self):
        b = box((1, 1, 1), (4, 3, 2))
        assert omega_check(b) and omega_prime_check(b) and omega_dprime_check(b)


class TestSliceTetrahedra:
    def test_vertices_of_shifted_box(self):
        norm = omega_normalize(SHIFTED)
        q = build_Q(norm)
        assert sorted(q.vertices) == sorted(
            [(F(4), F(2), F(2)), (F(1), F(1), F(1)), (F(2), F(2), F(1)), (F(2), F(1), F(2))]
        )

    def test_unit_box_top_slice(self):
        norm = omega_normalize(UNIT)
        r = build_R(norm)
        assert sorted(r.vertices) == sorted(
            [(F(1), F(1), F(1)), (F(0), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
        )

    def test_unit_box_bottom_slice_is_degenerate(self):
        with pytest.raises(DegenerateTetrahedron):
            build_Q(omega_normalize(UNIT))

    def test_support_against_slice_direction(self):
        nb = omega_normalize(SHIFTED).bounds
        assert trilinear._slice_directions(nb.a, nb.b, nb.a[2])[0] == (1, -1, -2)
        assert support(q_vertex_points(nb), (F(1), F(-1), F(-2))) == -2


class TestSupportMaxZ:
    def test_closed_form_values(self):
        shifted = omega_normalize(SHIFTED).bounds
        z = trilinear._z_values(shifted.a, shifted.b)
        assert (z[0], z[3]) == (2, 0)
        unit = omega_normalize(UNIT).bounds
        assert trilinear._z_values(unit.a, unit.b)[6] == 2


class TestMixedVolumesQR:
    def test_shifted_box_value(self):
        nb = omega_normalize(SHIFTED).bounds
        assert trilinear._mixed_volumes6_from_z(nb.a, nb.b) == (6, 6)
        assert trilinear._mixed_volume6(nb.a, nb.b) == 6

    def test_unequal_edge_box_generic_agreement(self):
        norm = omega_normalize(box((1, 2, 3), (2, 4, 6)))
        nb = norm.bounds
        v_qqr6, _ = trilinear._mixed_volumes6_from_z(nb.a, nb.b)
        assert 6 * mixed_volume_against(build_Q(norm), list(build_R(norm).vertices)) == v_qqr6


class TestIntegration:
    def test_constant_cross_section_is_a_prism(self):
        c = F(7, 3)
        assert integrate_cross_sections(c, c, c, c, F(2), F(5)) == 3 * c

    def test_pure_cone_growth(self):
        c = F(9, 4)
        assert integrate_cross_sections(F(0), F(0), F(0), c, F(0), F(1)) == c / 4

    def test_shifted_box_inputs_reproduce_the_volume(self):
        got = integrate_cross_sections(F(1, 6), F(1), F(1), F(1, 3), F(1), F(2))
        assert got == closed_form_volume(SHIFTED) == F(5, 8)

    def test_bad_interval_and_method(self):
        with pytest.raises(InvalidBounds):
            integrate_cross_sections(F(1), F(1), F(1), F(1), F(2), F(2))


class TestClosedForm:
    def test_reference_values(self):
        assert closed_form_volume(UNIT) == F(5, 24)
        assert closed_form_volume(box((0, 0, 0), (2, 1, 1))) == F(5, 6)
        assert closed_form_volume(SHIFTED) == F(5, 8)

    @pytest.mark.parametrize(
        "a, b, volume",
        [
            ((F(1, 3), F(2, 5), F(3, 7)), (F(1, 2), F(7, 10), F(11, 14)), F(311, 1128960)),
            ((F(5, 6), 1, F(1, 4)), (F(7, 4), F(9, 8), F(5, 9)), F(206305, 95551488)),
            ((0, F(1, 9), F(2, 3)), (F(1, 5), F(4, 7), 2), F(638, 127575)),
        ],
    )
    def test_pinned_values_with_a_denominator_per_axis(self, a, b, volume):
        bx = box(a, b)
        nb = omega_normalize(bx).bounds
        assert closed_form_volume(bx) == volume
        assert hull_volume_formula(nb.a, nb.b) == volume
        # the division-free kernel evaluated on the Fraction bounds themselves
        assert F(trilinear._hull_volume24(nb.a, nb.b), 24) == volume

    def test_extreme_magnitudes_match_the_fraction_kernel(self):
        big, tiny = F(10**50), F(1, 10**50)
        for a, b in [
            ((tiny, big, F(3, 7)), (3 * tiny, big + F(1, 3), F(5, 2))),
            ((F(1, 3) * tiny, F(2, 9), big / 7), (F(1, 2) * tiny, F(5, 11), big)),
        ]:
            bx = box(a, b)
            nb = omega_normalize(bx).bounds
            expected = F(trilinear._hull_volume24(nb.a, nb.b), 24)
            assert hull_volume_formula(nb.a, nb.b) == expected
            assert closed_form_volume(bx) == expected == pipeline_volume(bx).vol_pipeline

    def test_int_bounds(self):
        assert hull_volume_formula((0, 0, 0), (1, 1, 1)) == F(5, 24)
        assert hull_volume_formula((1, 1, 1), (2, 2, 2)) == F(5, 8)


class TestPipeline:
    def test_unit_box_report(self):
        report = pipeline_volume(UNIT)
        assert report.vol_formula == report.vol_pipeline == F(5, 24)
        assert report.agree is True
        inter = report.intermediates
        assert (inter.vol_q, inter.vol_r) == (0, F(1, 6))
        assert (inter.v_qqr, inter.v_qrr) == (F(1, 3), F(1, 3))

    def test_shifted_box_report(self):
        report = pipeline_volume(SHIFTED)
        assert report.vol_pipeline == F(5, 8)
        inter = report.intermediates
        assert (inter.vol_q, inter.vol_r) == (F(1, 6), F(1, 3))
        assert (inter.v_qqr, inter.v_qrr) == (1, 1)


W = 10**20

# one box per benchmark box class, with the reports the Fraction
# implementation of the pipeline produced: (a, b), then vol_pipeline,
# vol_q, vol_r and the two (equal) mixed volumes
PINNED_REPORTS = {
    "int": (((3, 1, 2), (7, 5, 4)), "1600/3", "256/3", "512/3", "1216/3"),
    "rational": (
        ((F(5, 2), F(1, 3), F(7, 4)), (F(9, 2), F(8, 5), F(13, 6))),
        "12331/9720",
        "2527/1350",
        "4693/2025",
        "32357/8100",
    ),
    "wide": (
        (
            (F(W + 7, 3 * W + 1), F(1, W), F(2 * W + 9, W - 3)),
            (F(5 * W + 3, 3 * W + 1), F(W + 1, 7), F(3)),
        ),
        "58333333333333333320166666666666666667002500000000000000029358333333333333332810666666"
        "66666666664894083333333333333356185000000000000000366449999999999999996031/"
        "27562499999999999998530000000000000000014087500000000000000147000000000000000000275625"
        "000000000000000000000000000000000000",
        "66666666666666666669666666666666666666559999999999999999996133333333333333333418000000"
        "000000000001173333333333333333303000000000000000000147/"
        "5512499999999999999871374999999999999998958749999999999999998162500000000000000000000"
        "00000000000000000",
        "99999999999999999999999999999999999999840000000000000000001400000000000000000063999999"
        "9999999999988800000000000000000049/"
        "5512500000000000000036750000000000000000061250000000000000000000000000000000000000",
        "10714285714285714284952380952380952380920714285714285714286604761904761904761926904761"
        "904761904761578333333333333333327575000000000000000063/"
        "3937499999999999999908124999999999999999256249999999999999998687500000000000000000000"
        "0000000000000000",
    ),
    "flat": (((0, 0, 0), (F(3, 2), 4, F(2, 5))), "6/5", "0", "12/5", "24/5"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_REPORTS))
def test_pipeline_report_is_pinned(kind):
    (a, b), vol, vol_q, vol_r, mixed = PINNED_REPORTS[kind]
    report = pipeline_volume(Box3Bounds(a, b))
    assert report.box == Box3Bounds(a, b)
    assert report.vol_pipeline == report.vol_formula == F(vol)
    assert report.agree is True
    inter = report.intermediates
    assert (inter.vol_q, inter.vol_r, inter.v_qqr, inter.v_qrr) == tuple(
        map(F, (vol_q, vol_r, mixed, mixed))
    )
    assert all(type(v) is F for v in (report.vol_pipeline, report.vol_formula, inter.vol_q))


def _plus_one(value):
    return value + 1


def _perturb(monkeypatch, route, call, bump=_plus_one):
    """Make the pipeline see ``bump`` applied to the result of the
    ``call``-th (0-based) call of trilinear's ``route``; returns the list
    that counts the calls."""
    original = getattr(trilinear, route)
    calls = []

    def perturbed(*args):
        calls.append(args)
        value = original(*args)
        return bump(value) if len(calls) - 1 == call else value

    monkeypatch.setattr(trilinear, route, perturbed)
    return calls


def _det_plus_one(tet):
    """A copy of ``tet`` whose stored determinant is one too large, which
    the constructor, computing its own, cannot build."""
    bumped = copy.copy(tet)
    object.__setattr__(bumped, "det", tet.det + 1)
    return bumped


# (route as trilinear sees it, which call, how its value is bumped, the
# check that must fire); the first four are the generic geometry routes
PIPELINE_CHECKS = [
    ("orient", 0, _det_plus_one, "top slice volume vs determinant"),
    ("orient", 1, _det_plus_one, "bottom slice volume vs determinant"),
    ("_support_sum6", 0, _plus_one, "V(Q,Q,R) vs generic support sum"),
    ("_support_sum6", 1, _plus_one, "V(Q,R,R) vs generic support sum"),
    ("_mixed_volume6", 0, _plus_one, "bottom-slice mixed volume vs product form"),
    (
        "_mixed_volumes6_from_z",
        0,
        lambda v: (v[0], v[1] + 1),
        "top-slice mixed volume vs product form",
    ),
    ("_simpson48", 0, _plus_one, "analytic integral vs Simpson"),
]


# 40- to 42-digit rational bounds, a3 > 0 once normalized, so that every
# check runs
WIDE = Box3Bounds(
    (F(10**40 + 1, 10**40 + 3), 10**41 + 7, F(3 * 10**40 + 1, 7)),
    (F(10**41 + 9, 10**40 + 3), 2 * 10**41 + 11, F(5 * 10**40 + 3, 3)),
)


@pytest.mark.parametrize("route, call, bump, message", PIPELINE_CHECKS)
def test_each_pipeline_cross_check_can_fire(monkeypatch, route, call, bump, message):
    for bx in (SHIFTED, WIDE):
        with monkeypatch.context() as patch:
            _perturb(patch, route, call, bump)
            with pytest.raises(InternalDisagreement, match=f"^{re.escape(message)}: "):
                pipeline_volume(bx)


def test_flat_bottom_runs_one_check_per_generic_route(monkeypatch):
    flat = box((0, 0, 0), (F(3, 2), 4, F(2, 5)))
    expected = pipeline_volume(flat)
    for route, bump, message in (
        ("orient", _det_plus_one, "top slice volume vs determinant"),
        ("_support_sum6", _plus_one, "V(Q,R,R) vs generic support sum"),
    ):
        with monkeypatch.context() as patch:
            _perturb(patch, route, 0, bump)
            with pytest.raises(InternalDisagreement, match=f"^{re.escape(message)}: "):
                pipeline_volume(flat)
        with monkeypatch.context() as patch:
            calls = _perturb(patch, route, 1)
            assert pipeline_volume(flat) == expected
            assert len(calls) == 1


class TestExtremePoints:
    def test_corner_products(self):
        pts = extreme_points(UNIT)
        assert len(pts) == 8
        assert pts[0] == (0, 0, 0, 0)
        assert pts[-1] == (1, 1, 1, 1)
        shifted = extreme_points(SHIFTED)
        assert (8, 2, 2, 2) in shifted
        assert (1, 1, 1, 1) in shifted

    def test_lexicographic_choice_order(self):
        b = box((0, 1, 2), (1, 2, 3))
        pts = extreme_points(b)
        assert pts[0] == (0 * 1 * 2, 0, 1, 2)
        assert pts[1] == (0 * 1 * 3, 0, 1, 3)  # last axis toggles first
        assert pts[2] == (0 * 2 * 2, 0, 2, 2)
        assert pts[-1] == (1 * 2 * 3, 1, 2, 3)


def _upper_bound(rng):
    """A small rational, or 2 times in 5 one of 20-40 digits."""
    if rng.random() < 0.4:
        return F(rng.randrange(10**19, 10**40), rng.randrange(10**19, 10**40))
    return F(rng.randint(1, 30), rng.randint(1, 7))


def _tie_boxes(seed):
    """Seeded boxes whose ratios a_i/b_i tie two or three ways or are 0,
    with small and 20-40-digit rational bounds."""
    rng = random.Random(seed)
    boxes = []
    for n in range(160):
        ratios = [F(rng.randint(0, 4), rng.randint(5, 9)) for _ in range(3)]
        i, j = rng.sample(range(3), 2)
        if n % 4 == 0:
            ratios[j] = ratios[i]
        elif n % 4 == 1:
            ratios = [ratios[i]] * 3
        elif n % 4 == 2:
            ratios[i] = ratios[j] = F(0)
        b = [_upper_bound(rng) for _ in range(3)]
        boxes.append(Box3Bounds(tuple(r * x for r, x in zip(ratios, b)), tuple(b)))
    return boxes


TIE_BOXES = _tie_boxes(17)


def test_tie_boxes_hold_ties_zero_bounds_and_wide_rationals():
    ratio_sets = [{x / y for x, y in zip(b.a, b.b)} for b in TIE_BOXES]
    assert sum(len(r) == 2 for r in ratio_sets) >= 40
    assert sum(len(r) == 1 for r in ratio_sets) >= 40
    assert sum(b.a.count(0) >= 2 for b in TIE_BOXES) >= 40
    assert sum(any(x.denominator >= 10**19 for x in b.a + b.b) for b in TIE_BOXES) >= 40


def test_normalize_is_the_stable_sort_on_ratios():
    for b in TIE_BOXES:
        ratios = [b.a[i] / b.b[i] for i in range(3)]
        order = sorted(range(3), key=ratios.__getitem__)
        norm = omega_normalize(b)
        assert norm.perm == tuple(order.index(i) + 1 for i in range(3))
        assert norm.bounds.a == tuple(b.a[i] for i in order)
        assert norm.bounds.b == tuple(b.b[i] for i in order)
        assert norm.bounds.cleared == Box3Bounds(norm.bounds.a, norm.bounds.b).cleared
        assert omega_check(norm.bounds)
        # normalizing twice changes nothing further
        again = omega_normalize(norm.bounds)
        assert again.perm == (1, 2, 3)
        assert again.bounds == norm.bounds


def test_extreme_points_are_the_corner_products():
    for b in TIE_BOXES + [UNIT, SHIFTED]:
        expected = tuple((v1 * v2 * v3, v1, v2, v3) for v1, v2, v3 in product(*zip(b.a, b.b)))
        pts = extreme_points(b)
        assert pts == expected
        assert all(type(x) is F for p in pts for x in p)


def test_cleared_field_is_invisible_to_eq_hash_repr_and_pickle():
    for b in TIE_BOXES:
        nb = omega_normalize(b).bounds
        fresh = Box3Bounds(nb.a, nb.b)
        assert repr(nb) == repr(fresh) == f"Box3Bounds(a={nb.a!r}, b={nb.b!r})"
        assert nb == fresh and hash(nb) == hash(fresh)
        loaded = pickle.loads(pickle.dumps(nb))
        assert loaded == nb and hash(loaded) == hash(nb) and loaded.cleared == nb.cleared
        stale = Box3Bounds(b.a, b.b)
        stale.__dict__["cleared"] = None
        assert stale == b and hash(stale) == hash(b) and repr(stale) == repr(b)
