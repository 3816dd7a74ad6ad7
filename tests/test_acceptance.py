"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Every equality below is exact rational equality. The regression
constants were frozen only after the independent brute-force hull oracle
reproduced them.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import permutations, product

from trivol import (
    Box3Bounds,
    build_Q,
    build_R,
    closed_form_volume,
    cross_section_volume,
    extreme_points,
    fit_cubic,
    hull_volume_3d,
    hull_volume_4d,
    minkowski_sum_vertices,
    monte_carlo_volume,
    omega_normalize,
    pipeline_volume,
    tetra_volume,
    volume_cubic,
)
from trivol import verify

from testutil import random_box

UNIT = Box3Bounds((0, 0, 0), (1, 1, 1))
UNIT_VOLUME = F(5, 24)  # frozen after formula and 4D hull oracle agreed


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL: {summary}")
        raise
    print(f"criterion {num} PASS: {summary}")


def test_criterion_01_three_way_agreement_on_200_boxes():
    with criterion(1, "three-way exact agreement on 200 seeded boxes, under 60 s"):
        rng = random.Random(1)
        start = time.monotonic()
        boxes = (random_box(rng, max_bound=10) for _ in range(200))
        assert verify.three_way_agreement(boxes) == (200, None)
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f} s"


def test_criterion_02_unit_box_value():
    with criterion(2, "unit box volume is 5/24 by formula, pipeline and oracle"):
        assert closed_form_volume(UNIT) == UNIT_VOLUME
        assert pipeline_volume(UNIT).vol_pipeline == UNIT_VOLUME
        assert hull_volume_4d(list(extreme_points(UNIT))) == UNIT_VOLUME


def test_criterion_03_support_max_closed_forms_on_1000_boxes():
    with criterion(3, "all 8 support-max closed forms equal the generic maxima, 1000 boxes"):
        rng = random.Random(3)
        assert verify.support_maxima(random_box(rng) for _ in range(1000)) == (8000, None)


def test_criterion_04_ordering_condition_equivalence_on_1000_tuples():
    with criterion(4, "the three ordering-condition forms agree on 1000 bound tuples"):
        rng = random.Random(4)
        assert verify.ordering_equivalence(random_box(rng) for _ in range(1000)) == (1000, None)


def test_criterion_05_mixed_volume_symmetry():
    with criterion(5, "V(Q,Q,R) equals V(Q,R,R) on 300 boxes with full-dimensional Q"):
        rng = random.Random(5)
        boxes = (random_box(rng, nonzero_lower=True) for _ in range(300))
        assert verify.mixed_volume_symmetry(boxes) == (300, None)


def test_criterion_06_cube_octahedron_volume_polynomial():
    with criterion(6, "cube+octahedron cubic is (8, 24, 12, 4/3) and predicts t=5"):
        cube = [tuple(map(F, p)) for p in product((-1, 1), repeat=3)]
        octa = [
            tuple(F(s) if i == j else F(0) for i in range(3))
            for j in range(3)
            for s in (1, -1)
        ]
        cubic = volume_cubic(cube, octa)
        assert cubic.coefficients == (F(8), F(24), F(12), F(4, 3))
        at5 = [tuple(5 * c for c in p) for p in octa]
        assert cubic.value_at(5) == hull_volume_3d(minkowski_sum_vertices(cube, at5))


def test_criterion_07_cross_section_cubicity_and_bernstein_coefficients():
    with criterion(7, "cross-sections of 20 boxes fit a cubic with the pipeline's Bernstein coefficients"):
        rng = random.Random(7)
        for _ in range(20):
            box = random_box(rng, nonzero_lower=True)
            nb = omega_normalize(box).bounds
            a3, b3 = nb.a[2], nb.b[2]
            h = b3 - a3
            nodes = [a3 + k * h / 4 for k in range(5)]
            values = [cross_section_volume(box, t) for t in nodes]
            cubic = fit_cubic(nodes[:4], values[:4])
            assert cubic.value_at(nodes[4]) == values[4], box
            c0, c1, c2, c3 = cubic.coefficients

            def derivative(t):
                return c1 + 2 * c2 * t + 3 * c3 * t * t

            beta0 = cubic.value_at(a3)
            beta3 = cubic.value_at(b3)
            beta1 = beta0 + h * derivative(a3) / 3
            beta2 = beta3 - h * derivative(b3) / 3
            inter = pipeline_volume(box).intermediates
            assert (beta0, beta1, beta2, beta3) == (
                inter.vol_q,
                inter.v_qqr,
                inter.v_qrr,
                inter.vol_r,
            ), box


def test_criterion_08_invariance_suite():
    with criterion(8, "axis-permutation, last-two-axes and s^6 scaling invariances, 100 boxes each"):
        rng = random.Random(8)
        for _ in range(100):
            box = random_box(rng)
            base = closed_form_volume(box)
            for perm in permutations(range(3)):
                shuffled = Box3Bounds(
                    tuple(box.a[i] for i in perm), tuple(box.b[i] for i in perm)
                )
                assert closed_form_volume(shuffled) == base, (box, perm)
        from trivol import hull_volume_formula

        for _ in range(100):
            nb = omega_normalize(random_box(rng)).bounds
            swapped_a = (nb.a[0], nb.a[2], nb.a[1])
            swapped_b = (nb.b[0], nb.b[2], nb.b[1])
            assert hull_volume_formula(nb.a, nb.b) == hull_volume_formula(
                swapped_a, swapped_b
            ), nb
        for _ in range(100):
            box = random_box(rng)
            s = F(rng.randint(1, 12), rng.randint(1, 7))
            scaled = Box3Bounds(
                tuple(s * x for x in box.a), tuple(s * x for x in box.b)
            )
            assert closed_form_volume(scaled) == s**6 * closed_form_volume(box), (box, s)


def test_criterion_09_cross_section_endpoint_identities():
    with criterion(9, "sections at the interval ends equal the slice tetrahedron volumes, 50 boxes"):
        rng = random.Random(9)
        for _ in range(50):
            box = random_box(rng, nonzero_lower=True)
            norm = omega_normalize(box)
            a3, b3 = norm.bounds.a[2], norm.bounds.b[2]
            assert cross_section_volume(box, a3) == tetra_volume(build_Q(norm)), box
            assert cross_section_volume(box, b3) == tetra_volume(build_R(norm)), box


def test_criterion_10_monte_carlo_smoke():
    with criterion(10, "unit-box Monte Carlo lands within 3 standard errors, deterministically"):
        pts = list(extreme_points(UNIT))
        estimate, stderr = monte_carlo_volume(pts, 1_000_000, seed=0)
        assert stderr > 0
        assert abs(estimate - float(UNIT_VOLUME)) <= 3 * stderr, (estimate, stderr)
        assert (estimate, stderr) == monte_carlo_volume(pts, 1_000_000, seed=0)
