"""The 4D hull oracle and its Monte Carlo check, and the geometric cross-sections.

The cross-sections are the tests' own reference (``reference.py``); they
are tested here because, like the oracle, they measure the hull by
brute-force hulls.
"""

import ast
import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import permutations, product
from math import gcd

import pytest

from trivol import geometry, oracle, trilinear
from trivol import (
    Box3Bounds,
    DegenerateHull,
    InvalidBounds,
    closed_form_volume,
    extreme_points,
    hull_volume_4d,
)
from trivol.geometry import tetra_volume
from trivol.oracle import Facet4, hull_facets_4d, monte_carlo_volume
from trivol.trilinear import build_Q, build_R, omega_normalize

from reference import cross_section_volume
from testutil import SHIFTED, UNIT, random_box, random_wide_box, trivol_calls

UNIT_4CUBE = [tuple(map(F, p)) for p in product((0, 1), repeat=4)]
SIMPLEX_4D = [(F(0),) * 4] + [
    tuple(F(1) if i == j else F(0) for i in range(4)) for j in range(4)
]


def test_hull_volume_4d_reference_polytopes():
    assert hull_volume_4d(UNIT_4CUBE) == 1
    assert hull_volume_4d(SIMPLEX_4D) == F(1, 24)


def test_hull_volume_4d_unit_box_graph():
    assert hull_volume_4d(list(extreme_points(UNIT))) == F(5, 24)


def test_hull_volume_4d_tolerates_duplicates_and_interior_points():
    noisy = UNIT_4CUBE + UNIT_4CUBE[:5] + [(F(1, 2),) * 4, (F(1, 3), F(1, 2), F(1, 4), F(2, 3))]
    assert hull_volume_4d(noisy) == 1


def test_hull_volume_4d_rejects_flat_input():
    flat = [p for p in UNIT_4CUBE if p[0] == 0]
    with pytest.raises(DegenerateHull):
        hull_volume_4d(flat)
    with pytest.raises(DegenerateHull):
        hull_volume_4d(SIMPLEX_4D[:4])
    # eight rational points on the tilted hyperplane w = x1 + x2 / 2 - x3 / 3
    tilted = [(a + F(b, 2) - F(c, 3), F(a), F(b), F(c)) for a, b, c in product((0, 1), repeat=3)]
    with pytest.raises(DegenerateHull):
        hull_volume_4d(tilted)
    with pytest.raises(DegenerateHull):
        hull_facets_4d(tilted)


def test_facets_are_outward_and_supported():
    pts, facets = hull_facets_4d(list(extreme_points(SHIFTED)))
    assert len(facets) >= 5
    for facet in facets:
        assert len(facet.incident) >= 4
        for idx, p in enumerate(pts):
            s = sum(n * c for n, c in zip(facet.normal, p))
            assert s <= facet.offset
            assert (s == facet.offset) == (idx in facet.incident)


def test_facets_of_shifted_box_are_pinned():
    # (normal, offset, incident) of every facet, frozen from the
    # brute-force hull that predates the integer kernel
    pinned = [
        ((0, -1, 0, 0), -1, (0, 1, 2, 3)),
        ((-1, 1, 1, 1), 2, (0, 1, 2, 4)),
        ((1, -4, -2, -1), -6, (0, 1, 3, 7)),
        ((0, 0, -1, 0), -1, (0, 1, 4, 5)),
        ((1, -2, -4, -1), -6, (0, 1, 5, 7)),
        ((1, -4, -1, -2), -6, (0, 2, 3, 7)),
        ((0, 0, 0, -1), -1, (0, 2, 4, 6)),
        ((1, -2, -1, -4), -6, (0, 2, 6, 7)),
        ((1, -1, -4, -2), -6, (0, 4, 5, 7)),
        ((1, -1, -2, -4), -6, (0, 4, 6, 7)),
        ((-1, 2, 2, 2), 6, (1, 2, 3, 4, 5, 6)),
        ((0, 0, 0, 1), 2, (1, 3, 5, 7)),
        ((0, 0, 1, 0), 2, (2, 3, 6, 7)),
        ((-1, 4, 4, 4), 16, (3, 5, 6, 7)),
        ((0, 1, 0, 0), 2, (4, 5, 6, 7)),
    ]
    pts, facets = hull_facets_4d(list(extreme_points(SHIFTED)))
    assert pts == list(extreme_points(SHIFTED))
    assert set(facets) == {Facet4(tuple(map(F, n)), F(c), inc) for n, c, inc in pinned}
    assert len(facets) == len(pinned)
    assert all(type(x) is int for f in facets for x in (*f.normal, f.offset))


def test_hull_volume_4d_exact_at_extreme_magnitudes():
    big = 10**50
    boxes = [
        Box3Bounds((big, big + 3, 2 * big), (big + 1, big + 7, 2 * big + 5)),
        Box3Bounds((0, F(big + 7, big - 3), 1), (big, 2 * big, F(3 * big + 1, 3))),
        Box3Bounds((F(1, big), F(2, big + 1), 0), (F(3, big), F(5, big - 7), F(1, big))),
        Box3Bounds((F(1, big), F(1, 3), 1), (F(2, big + 9), F(1, 2), big)),
    ]
    for b in boxes:
        assert hull_volume_4d(list(extreme_points(b))) == closed_form_volume(b), b


def test_wide_rational_boxes_agree_and_their_facets_hold_exactly():
    rng = random.Random(113)
    for _ in range(12):
        box = random_wide_box(rng)
        pts = list(extreme_points(box))
        assert hull_volume_4d(pts) == closed_form_volume(box)
        dpts, facets = hull_facets_4d(pts)
        assert dpts == pts
        for facet in facets:
            assert gcd(*facet.normal, facet.offset) == 1
            for idx, p in enumerate(dpts):
                s = sum(n * c for n, c in zip(facet.normal, p))
                assert s <= facet.offset
                assert (s == facet.offset) == (idx in facet.incident)


def test_oracle_needs_no_trilinear_function(monkeypatch):
    boxes = [SHIFTED, UNIT, Box3Bounds((F(1, 2), 0, 3), (F(7, 3), 5, F(9, 2)))]
    points = [list(extreme_points(b)) for b in boxes]
    expected = [closed_form_volume(b) for b in boxes]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "trivol"]
    for name in trilinear.__all__:
        original = getattr(trilinear, name)
        if not inspect.isfunction(original):
            continue

        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"the oracle called trilinear.{_name}")

        for mod in modules:
            if mod.__dict__.get(name) is original:
                monkeypatch.setattr(mod, name, forbidden)
    with pytest.raises(AssertionError):
        trilinear.closed_form_volume(SHIFTED)
    assert [hull_volume_4d(p) for p in points] == expected


def test_oracle_imports_only_geometry_from_the_package():
    # the oracle shares no formula with the formula and pipeline routes
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    package = [
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "trivol")
    ] + [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "trivol"
    ]
    assert package == [".geometry"]


def test_oracle_shares_only_allowed_kernels_with_the_other_routes():
    """The oracle route reaches no function of the formula or the pipeline
    routes but the coordinate reader, on a generic, a tied, a flat-bottomed
    and a wide rational box. The README says why it is shared."""
    allowed = {geometry._read_points.__code__}
    boxes = [
        Box3Bounds((1, 2, 3), (4, 5, 7)),
        Box3Bounds((1, 1, 2), (2, 2, 4)),
        Box3Bounds((0, 0, 0), (2, 3, 5)),
        random_wide_box(random.Random(29)),
    ]
    for box in boxes:
        oracle_calls = trivol_calls(lambda: hull_volume_4d(list(extreme_points(box)))).keys()
        others = (
            trivol_calls(lambda: closed_form_volume(box)).keys()
            | trivol_calls(lambda: trilinear.pipeline_volume(box)).keys()
        )
        assert hull_volume_4d.__code__ in oracle_calls and geometry._edge_det.__code__ in others
        shared = sorted(
            f"{c.co_filename}:{c.co_firstlineno} {c.co_name}" for c in (oracle_calls & others) - allowed
        )
        assert not shared, f"the oracle shares {shared} with the other routes on {box}"


def test_hull_4d_reads_an_iterator_once():
    pts = list(extreme_points(UNIT))
    assert hull_volume_4d(p for p in pts) == F(5, 24)
    assert hull_facets_4d(p for p in pts) == hull_facets_4d(pts)


def test_facet_set_stable_under_point_reordering():
    pts = list(extreme_points(UNIT))
    base_pts, base_facets = hull_facets_4d(pts)

    def geometric(facets, dpts):
        return {
            (f.normal, f.offset, frozenset(dpts[i] for i in f.incident)) for f in facets
        }

    base = geometric(base_facets, base_pts)
    rng = random.Random(103)
    for _ in range(5):
        shuffled = pts[:]
        rng.shuffle(shuffled)
        dpts, facets = hull_facets_4d(shuffled)
        assert geometric(facets, dpts) == base


def test_hull_volume_4d_invariant_under_coordinate_permutation():
    rng = random.Random(107)
    for _ in range(6):
        b = random_box(rng)
        pts = list(extreme_points(b))
        base = hull_volume_4d(pts)
        for perm in permutations(range(3)):
            permuted = [
                (p[0], p[1 + perm[0]], p[1 + perm[1]], p[1 + perm[2]]) for p in pts
            ]
            assert hull_volume_4d(permuted) == base


def test_cross_section_midpoint_values():
    assert cross_section_volume(SHIFTED, F(3, 2)) == F(13, 16)
    assert cross_section_volume(UNIT, F(1, 2)) == F(13, 48)


def test_cross_section_endpoints():
    norm = omega_normalize(SHIFTED)
    assert cross_section_volume(SHIFTED, 1) == tetra_volume(build_Q(norm))
    assert cross_section_volume(SHIFTED, 2) == tetra_volume(build_R(norm))
    # flat bottom section of the unit box is the one permitted zero
    assert cross_section_volume(UNIT, 0) == 0
    assert cross_section_volume(UNIT, 1) == tetra_volume(build_R(omega_normalize(UNIT)))


def test_cross_section_position_is_checked():
    with pytest.raises(InvalidBounds):
        cross_section_volume(UNIT, F(3, 2))
    with pytest.raises(InvalidBounds):
        cross_section_volume(SHIFTED, F(1, 2))


def test_cross_section_uses_normalized_axis():
    # the third axis after reordering is the original first axis here
    b = Box3Bounds((2, 1, 0), (3, 2, 1))
    nb = omega_normalize(b).bounds
    assert (nb.a[2], nb.b[2]) == (2, 3)
    assert cross_section_volume(b, F(5, 2)) > 0
    with pytest.raises(InvalidBounds):
        cross_section_volume(b, F(1, 2))


def test_monte_carlo_is_deterministic_and_sane():
    run1 = monte_carlo_volume(UNIT_4CUBE, 100_000, seed=5)
    run2 = monte_carlo_volume(UNIT_4CUBE, 100_000, seed=5)
    assert run1 == run2
    estimate, stderr = run1
    # the hull fills its own bounding box, so every sample must hit
    assert estimate == 1.0
    assert stderr == 0.0
    with pytest.raises(ValueError):
        monte_carlo_volume(UNIT_4CUBE, 0, seed=1)
    with pytest.raises(DegenerateHull):
        monte_carlo_volume(SIMPLEX_4D[:4], 100, seed=1)


@pytest.mark.parametrize("bad", [True, 2.5, "10", None])
def test_monte_carlo_takes_only_int_samples_and_seed(bad):
    # checked before the points are read: a flat point set still gets the argument error
    for points in (UNIT_4CUBE, SIMPLEX_4D[:4]):
        with pytest.raises(ValueError, match="samples and seed must be ints"):
            monte_carlo_volume(points, bad, seed=1)
        with pytest.raises(ValueError, match="samples and seed must be ints"):
            monte_carlo_volume(points, 100, seed=bad)


def test_monte_carlo_brackets_the_exact_volume():
    pts = list(extreme_points(SHIFTED))
    estimate, stderr = monte_carlo_volume(pts, 200_000, seed=11)
    exact = float(closed_form_volume(SHIFTED))
    assert stderr > 0
    assert abs(estimate - exact) <= 3 * stderr


def test_importing_the_package_and_cli_leaves_numpy_unloaded():
    # only monte_carlo_volume imports numpy; a fresh interpreter shows it
    src = os.path.dirname(os.path.dirname(trilinear.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, trivol, trivol.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert done.stdout.strip() == "False"
