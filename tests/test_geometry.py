"""Exact linear algebra and polytope primitives."""

import random
import warnings
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations, product
from math import factorial, gcd
from operator import add, mul, ne, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivol import (
    Box3Bounds,
    DegenerateHull,
    DegenerateTetrahedron,
    EmptyPolytope,
    closed_form_volume,
    extreme_points,
)
from trivol.geometry import (
    Tetrahedron,
    _edge_det,
    _facet_spec,
    _hull_facets,
    _lattice_points,
    _pulling_simplices,
    _pulling_volume,
    cross3,
    dot3,
    facet_normal_set,
    hull_volume_3d,
    orient,
    sub3,
    support,
    tetra_volume,
)
from trivol.mixed_volume import minkowski_sum_vertices, mixed_volume_against, volume_cubic
from trivol.oracle import hull_facets_4d, hull_volume_4d, monte_carlo_volume

from reference import _reference_facets, add3, det_by_permutation_sum
from testutil import (
    SHIFTED,
    SIMPLEX,
    UNIT,
    hull_shapes,
    random_box,
    random_points,
    random_rational_box,
    random_tetrahedron,
    random_wide_box,
)

ORIGIN = (F(0), F(0), F(0))
E1 = (F(1), F(0), F(0))
E2 = (F(0), F(1), F(0))
E3 = (F(0), F(0), F(1))


def test_det_small_3x3_cases():
    """``_edge_det`` of the origin and three rows is their determinant;
    dependent rows raise."""
    identity = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert _edge_det((ORIGIN, *identity)) == 1
    repeated = [(F(1), F(2), F(3)), (F(1), F(2), F(3)), (F(4), F(5), F(6))]
    with pytest.raises(DegenerateTetrahedron, match="^affinely dependent vertices: "):
        _edge_det((ORIGIN, *repeated))
    m = [(F(1), F(2), F(3)), (F(0), F(1), F(4)), (F(5), F(6), F(0))]
    assert _edge_det((ORIGIN, *m)) == 1


def test_det4_small_cases():
    """A one-simplex ``_pulling_volume`` from the origin is |det| of its
    four rows."""

    def abs_det4(rows):
        return _pulling_volume([(0, 0, 0, 0), *rows], [(0, 1, 2, 3, 4)])

    identity = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert abs_det4(identity) == 1
    # an odd permutation matrix (single transposition of rows 0 and 1), det -1
    swap = [identity[1], identity[0], identity[2], identity[3]]
    assert abs_det4(swap) == 1
    ones = (1,) * 4
    lifted = [ones] + [tuple(int(v[i]) for v in SIMPLEX) for i in range(3)]
    assert abs_det4(lifted) == 1
    assert abs_det4([tuple(k * x for x in row) for k, row in enumerate(identity, 1)]) == 24
    assert abs_det4([identity[0], identity[1], identity[0], identity[3]]) == 0


def test_determinants_match_permutation_expansion():
    """``_edge_det`` against the permutation expansion of its edge rows, on
    small and 40-digit ints, with the rows in both orientations (the first
    two swapped) and the tetrahedron moved off the origin; a zero
    determinant raises."""
    rng = random.Random(31)
    signs = set()
    for span in (4, 10**40):
        for _ in range(100):
            rows = [tuple(rng.randint(-span, span) for _ in range(3)) for _ in range(3)]
            base = tuple(rng.randint(-span, span) for _ in range(3))
            for m in (rows, [rows[1], rows[0], rows[2]]):
                expected = det_by_permutation_sum(m)
                vertices = (base, *(add3(base, r) for r in m))
                if expected == 0:
                    with pytest.raises(DegenerateTetrahedron):
                        _edge_det(vertices)
                else:
                    assert _edge_det(vertices) == expected
                signs.add((span, (expected > 0) - (expected < 0)))
    assert signs == {(4, -1), (4, 0), (4, 1), (10**40, -1), (10**40, 1)}


def test_pulling_volume_matches_the_generic_determinant():
    """The written-out determinants of ``_pulling_volume`` against the
    absolute permutation expansion of the rows p - pts[0], simplex by
    simplex and summed, in d = 3 and 4: small and 40-digit integer
    coordinates, each simplex in both orientations (its first two rows
    swapped), and simplices through a point in the plane of points 0, 1
    and 2, whose determinant is 0."""
    rng = random.Random(37)
    signs = set()
    for d in (3, 4):
        for span in (4, 10**40):
            for _ in range(40):
                pts = [tuple(rng.randint(-span, span) for _ in range(d)) for _ in range(d + 3)]
                pts.append(tuple(b + c - a for a, b, c in zip(*pts[:3])))
                simplices = [(0, *rng.sample(range(1, len(pts)), d)) for _ in range(4)]
                simplices += [(0, s[2], s[1], *s[3:]) for s in simplices]
                simplices.append((0, 1, 2, len(pts) - 1, *rng.sample(range(3, len(pts) - 1), d - 3)))
                rows = [tuple(map(sub, p, pts[0])) for p in pts]
                dets = [det_by_permutation_sum([rows[i] for i in s[1:]]) for s in simplices]
                assert [_pulling_volume(pts, [s]) for s in simplices] == list(map(abs, dets))
                assert _pulling_volume(pts, simplices) == sum(map(abs, dets))
                signs.update((d, (det > 0) - (det < 0)) for det in dets)
    assert signs == {(d, sign) for d in (3, 4) for sign in (-1, 0, 1)}


def test_orient_keeps_positive_input():
    t = orient(SIMPLEX)
    assert t.vertices == tuple(SIMPLEX)


def test_orient_repairs_by_swapping_first_pair():
    t = orient([E1, ORIGIN, E2, E3])
    assert t.vertices == (ORIGIN, E1, E2, E3)


def test_orient_rejects_coplanar_points():
    flat = [ORIGIN, E1, E2, (F(1), F(1), F(0))]
    with pytest.raises(DegenerateTetrahedron):
        orient(flat)


def test_tetrahedron_constructor_rejects_negative_orientation():
    with pytest.raises(ValueError):
        Tetrahedron((E1, ORIGIN, E2, E3))


def test_tetrahedron_computes_its_det_and_rejects_malformed_vertices():
    t = Tetrahedron(tuple(SIMPLEX))
    assert t.det == orient(SIMPLEX).det == 1
    # a vertex list is stored as a tuple, so it hashes and equals orient's result
    listed = Tetrahedron(SIMPLEX)
    assert listed == orient(SIMPLEX) and hash(listed) == hash(orient(SIMPLEX))
    with pytest.raises(TypeError):
        Tetrahedron(tuple(SIMPLEX), 5)  # a given det is not trusted
    for build in (Tetrahedron, orient):
        for vertices in (SIMPLEX[:3], SIMPLEX + [E1]):
            with pytest.raises(ValueError, match=f"^expected 4 vertices, got {len(vertices)}$"):
                build(tuple(vertices))
        for vertices in ([v[:2] for v in SIMPLEX], [(*v, F(1)) for v in SIMPLEX]):
            message = f"expected points of dimension 3, got one of dimension {len(vertices[0])}"
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(tuple(vertices))


def test_facet_normals_of_standard_simplex():
    got = sorted(facet_normal_set(orient(SIMPLEX)))
    want = sorted(
        [
            (F(0), F(0), F(-1, 2)),
            (F(0), F(-1, 2), F(0)),
            (F(-1, 2), F(0), F(0)),
            (F(1, 2), F(1, 2), F(1, 2)),
        ]
    )
    assert got == want


def test_facet_normals_sum_to_zero_and_carry_facet_area():
    rng = random.Random(7)
    for _ in range(100):
        t = random_tetrahedron(rng)
        normals = facet_normal_set(t)
        assert len(normals) == 4
        total = (F(0), F(0), F(0))
        for n in normals:
            total = add3(total, n)
        assert total == (0, 0, 0)
        # squared length of each normal = squared area of its facet
        v0, v1, v2, v3 = t.vertices
        facets = [(v0, v1, v2), (v3, v0, v1), (v2, v3, v0), (v1, v2, v3)]
        for n, (p, q, r) in zip(normals, facets):
            twice_area = cross3(sub3(q, p), sub3(r, p))
            assert 4 * dot3(n, n) == dot3(twice_area, twice_area)


def test_facet_normals_invariant_under_translation_and_even_permutation():
    rng = random.Random(8)
    for _ in range(25):
        t = random_tetrahedron(rng)
        base = sorted(facet_normal_set(t))
        shift = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        moved = Tetrahedron(tuple(add3(v, shift) for v in t.vertices))
        assert sorted(facet_normal_set(moved)) == base
        v0, v1, v2, v3 = t.vertices
        # one 3-cycle and one double transposition cover both even classes
        rotated = Tetrahedron((v1, v2, v0, v3))
        assert sorted(facet_normal_set(rotated)) == base
        swapped = Tetrahedron((v1, v0, v3, v2))
        assert sorted(facet_normal_set(swapped)) == base


def test_support_on_cube_and_octahedron():
    cube = [tuple(map(F, c)) for c in product((0, 1), repeat=3)]
    assert support(cube, (F(1), F(1), F(1))) == 3
    octa = [E1, E2, E3, (F(-1), F(0), F(0)), (F(0), F(-1), F(0)), (F(0), F(0), F(-1))]
    assert support(octa, (F(2), F(-5), F(1))) == 5


def test_support_is_positively_homogeneous():
    rng = random.Random(11)
    for _ in range(50):
        pts = random_points(rng, 6)
        u = tuple(F(rng.randint(-5, 5)) for _ in range(3))
        lam = F(rng.randint(0, 7), rng.randint(1, 4))
        assert support(pts, tuple(lam * c for c in u)) == lam * support(pts, u)


def test_support_of_nothing_is_an_error():
    with pytest.raises(EmptyPolytope):
        support([], (F(1), F(0), F(0)))


def test_support_rejects_points_and_directions_that_are_not_3d():
    for bad in ((1, 2), (1, 2, 3, 4)):
        for vertices, u in (([bad], (1, 1, 1)), ([E1, bad], (1, 1, 1)), ([E1], bad)):
            with pytest.raises(ValueError):
                support(vertices, u)


def test_tetra_volume_values():
    assert tetra_volume(orient(SIMPLEX)) == F(1, 6)
    # bottom slice shape with a1 = a2 = 0, b1 = b2 = 1 has volume level/6
    level = F(5, 7)
    slice_pts = [(level, F(1), F(1)), ORIGIN, (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert tetra_volume(orient(slice_pts)) == level / 6


def test_tetra_volume_matches_hull_volume():
    rng = random.Random(13)
    for _ in range(50):
        t = random_tetrahedron(rng)
        assert tetra_volume(t) == hull_volume_3d(list(t.vertices))


def test_hull_volume_3d_cube_and_simplex():
    cube = [tuple(map(F, c)) for c in product((0, 1), repeat=3)]
    assert hull_volume_3d(cube) == 1
    assert hull_volume_3d(SIMPLEX) == F(1, 6)


def test_hull_volume_3d_ignores_duplicates_and_interior_points():
    cube = [tuple(map(F, c)) for c in product((0, 1), repeat=3)]
    noisy = cube + cube[:3] + [(F(1, 2), F(1, 2), F(1, 2)), (F(1, 4), F(1, 2), F(3, 4))]
    assert hull_volume_3d(noisy) == 1


def test_hull_volume_3d_ignores_duplicate_and_interior_points_of_tetrahedra():
    rng = random.Random(17)
    for _ in range(40):
        t = random_tetrahedron(rng)
        v = t.vertices
        # strict convex combinations lie inside; a repeated vertex is a duplicate
        weights = [F(rng.randint(1, 9)) for _ in range(4)]
        inner = tuple(sum(w * p[i] for w, p in zip(weights, v)) / sum(weights) for i in range(3))
        edge_mid = tuple((a + b) / 2 for a, b in zip(v[0], v[1]))
        noisy = [inner, v[2], *v, edge_mid, v[0]]
        rng.shuffle(noisy)
        assert hull_volume_3d(noisy) == tetra_volume(t)


def _unit_simplex(d):
    return [(F(0),) * d] + [tuple(F(i == j) for i in range(d)) for j in range(d)]


# the hull volume entry of each kernel dimension
HULL_VOLUME = {3: hull_volume_3d, 4: hull_volume_4d}


def test_hull_volume_unit_simplex_and_cube_in_dimensions_3_and_4():
    for d, hull in HULL_VOLUME.items():
        assert hull(_unit_simplex(d)) == F(1, factorial(d))
        cube = [tuple(map(F, c)) for c in product((0, 1), repeat=d)]
        assert hull(cube) == 1


def test_hull_volume_rejects_dimensions_outside_3_to_4():
    for dim, hull in HULL_VOLUME.items():
        with pytest.raises(ValueError, match=f"dimension {dim}, got one of dimension 0"):
            hull([(), ()])
        # 7 - dim: each entry rejects the other kernel dimension too
        for d in (1, 2, 7 - dim):
            cube = [tuple(map(F, c)) for c in product((0, 1), repeat=d)]
            for points in (_unit_simplex(d), cube):
                with pytest.raises(ValueError, match=f"dimension {dim}, got one of dimension {d}"):
                    hull(points)
        with pytest.raises(ValueError, match=f"dimension {dim}, got one of dimension 5"):
            hull(_unit_simplex(5))


def _facet_sizes(points):
    """Incident point counts of the hull's facets, in scan order."""
    _, ipts, _ = _lattice_points(points, len(points[0]))
    return [len(incident) for _, incident in _hull_facets(ipts)]


def test_hull_volume_with_simplex_and_non_simplex_facets():
    square = [(F(x), F(y), F(0)) for x, y in product((0, 1), repeat=2)]
    pyramid = square + [(F(1, 2), F(1, 2), F(1))]
    assert sorted(_facet_sizes(pyramid)) == [3, 3, 3, 3, 4]
    assert hull_volume_3d(pyramid) == F(1, 3)

    # a pyramid of height 1 over the unit cube: no facet is a simplex, and
    # the square pyramids among them have both kinds of 2-face
    cube = [tuple(map(F, c)) + (F(0),) for c in product((0, 1), repeat=3)]
    cube_pyramid = cube + [(F(1, 2), F(1, 3), F(1, 4), F(1))]
    assert sorted(_facet_sizes(cube_pyramid)) == [5] * 6 + [8]
    assert hull_volume_4d(cube_pyramid) == F(1, 4)

    cross = [tuple(F(s * (i == j)) for i in range(4)) for j in range(4) for s in (1, -1)]
    assert _facet_sizes(cross) == [4] * 16
    assert hull_volume_4d(cross) == F(2, 3)

    # apexes at w = -1 and w = 1 over the square pyramid, through an
    # interior point of it: 2 * (1/3) / 4
    base = [p + (F(0),) for p in pyramid]
    bipyramid = base + [(F(1, 2), F(1, 2), F(1, 4), F(w)) for w in (-1, 1)]
    assert sorted(_facet_sizes(bipyramid)) == [4] * 8 + [5] * 2
    assert hull_volume_4d(bipyramid) == F(1, 6)


def _pulled_dets(points):
    """|det| of each simplex of the pulling triangulation of the hull of
    ``points``, on their lattice form, in triangulation order."""
    _, ipts, _ = _lattice_points(points, len(points[0]))
    facets = [incident for _, incident in _hull_facets(ipts)]
    rows = [tuple(map(sub, p, ipts[0])) for p in ipts]
    return [
        abs(det_by_permutation_sum([rows[i] for i in simplex[1:]]))
        for simplex in _pulling_simplices(tuple(facets), len(ipts[0]))
    ]


def test_pulling_splits_a_cube_into_d_factorial_unit_simplices():
    for d in (3, 4):
        cube = [tuple(map(F, c)) for c in product((0, 1), repeat=d)]
        assert _pulled_dets(cube) == [1] * factorial(d)


def test_pulling_from_a_point_inside_an_edge():
    cube = [tuple(map(F, c)) for c in product((0, 1), repeat=3)]
    # the midpoint of the edge x = z = 1 is the lowest-index point of the
    # facets x = 1 and z = 1, neither of which holds the origin, point 0
    pts = [cube[0], (F(1), F(1, 2), F(1)), *cube[1:]]
    assert hull_volume_3d(pts) == hull_volume_3d(cube) == 1
    # on the lattice the y axis is doubled: 3! times volume 2
    dets = _pulled_dets(pts)
    assert all(dets) and sum(dets) == 12


def _box_graph_with_non_vertex_points(box, rng):
    """The box graph's eight points, after points in the relative
    interiors of an edge, a 2-face and a facet of its hull and one inside
    it, in random order.

    The faces come from the box: the graph points over a box edge span a
    hull edge, three corners of a box face a triangle of its hull face
    (a tetrahedral facet, or a square 2-face at a zero bound), a box face
    at an upper bound b_k > 0 a tetrahedral facet, and all eight corners
    the hull. Each new point is the centroid of its face's points.
    """
    vertices = list(extreme_points(box))

    def centroid(points):
        return tuple(sum(c) / len(points) for c in zip(*points))

    k, side = rng.randrange(3), rng.choice((0, 1))
    bound = (box.a, box.b)[side][k]
    face = [v for v in vertices if v[1 + k] == bound]
    upper = [v for v in vertices if v[1 + k] == box.b[k]]
    u = rng.choice(vertices)
    # a corner one box edge away from u
    w = rng.choice([v for v in vertices if sum(map(ne, v[1:], u[1:])) == 1])
    extra = [centroid([u, w]), centroid(rng.sample(face, 3)), centroid(upper), centroid(vertices)]
    rng.shuffle(extra)
    return extra + vertices


def test_pulling_from_non_vertex_points_of_box_graphs():
    rng = random.Random(43)
    boxes = [random_box(rng) for _ in range(10)] + [random_rational_box(rng) for _ in range(10)]
    boxes.append(Box3Bounds((0, 0, 0), (1, 2, 3)))
    for box in boxes:
        pts = _box_graph_with_non_vertex_points(box, rng)
        volume = closed_form_volume(box)
        assert hull_volume_4d(pts) == hull_volume_4d(pts[4:]) == volume
        dets = _pulled_dets(pts)
        assert all(dets) and F(sum(dets), 24) == hull_volume_4d(_lattice_points(pts, 4)[1])


def test_points_of_another_dimension_raise_value_error():
    mixed = [
        (SIMPLEX + [(F(1), F(1))], "dimension 3, got one of dimension 2"),
        (SIMPLEX + [(F(1),) * 4], "dimension 3, got one of dimension 4"),
        (_unit_simplex(4) + [(F(1),) * 3], "dimension 4, got one of dimension 3"),
        (_unit_simplex(4) + [(F(1),) * 5], "dimension 4, got one of dimension 5"),
    ]
    for points, message in mixed:
        with pytest.raises(ValueError, match=message):
            HULL_VOLUME[len(points[0])](points)
    cube = [tuple(map(F, c)) for c in product((0, 1), repeat=3)]
    for points in (SIMPLEX, cube, _unit_simplex(5), _unit_simplex(4) + [(F(1),) * 3]):
        message = f"dimension 4, got one of dimension {len(points[-1])}"
        with pytest.raises(ValueError, match=message):
            hull_volume_4d(points)
        with pytest.raises(ValueError, match=message):
            hull_facets_4d(points)


SIMPLEX4 = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

# every public entry that takes points: (a valid point set, the call on it);
# each has its own set where it takes two, or a point set and a direction
POINT_ENTRIES = {
    "orient": (SIMPLEX, orient),
    "Tetrahedron": (SIMPLEX, Tetrahedron),
    "support points": (SIMPLEX, lambda pts: support(pts, (1, 2, 3))),
    "support direction": ([(1, 2, 3)], lambda pts: support(SIMPLEX, *pts)),
    "mixed_volume_against": (SIMPLEX, lambda pts: mixed_volume_against(orient(SIMPLEX), pts)),
    "minkowski_sum_vertices k": (SIMPLEX, lambda pts: minkowski_sum_vertices(pts, SIMPLEX)),
    "minkowski_sum_vertices l": (SIMPLEX, lambda pts: minkowski_sum_vertices(SIMPLEX, pts)),
    "hull_volume_3d": (SIMPLEX, hull_volume_3d),
    "hull_volume_4d": (SIMPLEX4, hull_volume_4d),
    "hull_facets_4d": (SIMPLEX4, hull_facets_4d),
    "monte_carlo_volume": (SIMPLEX4, lambda pts: monte_carlo_volume(pts, 10, 0)),
    "volume_cubic k": (SIMPLEX, lambda pts: volume_cubic(pts, SIMPLEX)),
    "volume_cubic l": (SIMPLEX, lambda pts: volume_cubic(SIMPLEX, pts)),
}


def _planted(points, at, coordinate):
    """The points with coordinate ``at`` of the first or the last point
    (``at`` is 0 or -1) replaced by ``coordinate``."""
    points = [list(p) for p in points]
    points[at][at] = coordinate
    return [tuple(p) for p in points]


def test_every_point_entry_reads_coordinates_by_one_rule():
    """A float (an inexact det or volume), a Decimal, a str or a bool
    coordinate, and a point of another dimension, raise ValueError with
    the one message of ``_read_points`` at every entry, wherever they sit."""
    for entry, (points, call) in POINT_ENTRIES.items():
        dim = len(points[0])
        call(points)
        cases = [
            (_planted(points, at, bad), f"coordinate {bad!r} is not an int or a Fraction")
            for bad in (0.5, 1.0, Decimal("0.5"), "1/2", "1", True, False)
            for at in (0, -1)
        ]
        for other in (dim - 1, dim + 1, 0):
            for at in (0, -1):
                bad = [list(p) for p in points]
                bad[at] = (bad[at] * 2)[:other]
                cases.append((bad, f"expected points of dimension {dim}, got one of dimension {other}"))
        for bad, message in cases:
            with pytest.raises(ValueError) as caught:
                call(bad)
            assert str(caught.value) == message, (entry, bad)


def test_numpy_integer_points_are_read_exactly():
    """numpy integers are exact rationals, read as Python ints: a product
    of three 10**7 legs overflows int64, but no volume here sees it."""
    import numpy as np

    leg = np.int64(10**7)
    zero = np.int64(0)
    simplex3 = [(zero, zero, zero), (leg, zero, zero), (zero, leg, zero), (zero, zero, leg)]
    simplex4 = [(zero,) * 4] + [tuple(leg if i == j else zero for i in range(4)) for j in range(4)]
    volume = F(10**21, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tetra_volume(orient(simplex3)) == volume
        t = Tetrahedron(simplex3)
        assert tetra_volume(t) == volume and type(t.det) is int
        assert all(type(c) is int for v in t.vertices for c in v)
        assert hull_volume_3d(simplex3) == volume
        assert volume_cubic(simplex3, SIMPLEX).c0 == volume
        assert hull_volume_4d(simplex4) == F(10**28, 24)
        unit = [tuple(map(int, p)) for p in SIMPLEX]
        sums = minkowski_sum_vertices(simplex3, unit)
        assert all(type(c) is int for p in sums for c in p)
        assert sums[:4] == unit and sums[-1] == (0, 0, 10**7 + 1)
        assert support(simplex3, (leg, leg, leg)) == 10**14
        assert mixed_volume_against(orient(SIMPLEX), simplex3) == mixed_volume_against(
            orient(SIMPLEX), [tuple(map(int, p)) for p in simplex3]
        )
        assert hull_volume_3d([(np.uint8(1), F(1, 2), 0), *SIMPLEX]) == hull_volume_3d(
            [(1, F(1, 2), 0), *SIMPLEX]
        )


def _unimodular(rng, d):
    """A random integer matrix of determinant +-1: row additions, then a
    row permutation."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    return m


def test_hull_volume_keeps_unimodular_images_and_scales_by_lambda_to_the_d():
    rng = random.Random(23)
    for d, hull in HULL_VOLUME.items():
        checked = 0
        while checked < 15:
            n = rng.randint(d + 1, 8)
            pts = [tuple(F(rng.randint(-3, 3)) for _ in range(d)) for _ in range(n)]
            try:
                vol = hull(pts)
            except DegenerateHull:
                continue
            m = _unimodular(rng, d)
            shift = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
            moved = [tuple(sum(map(mul, row, p)) + s for row, s in zip(m, shift)) for p in pts]
            assert hull(moved) == vol
            lam = F(rng.randint(1, 7), rng.randint(1, 4))
            assert hull([tuple(lam * x for x in p) for p in pts]) == lam**d * vol
            checked += 1


def test_lattice_of_a_box_graph_is_zero_one_on_the_box_axes():
    boxes = [
        Box3Bounds((0, 0, 0), (1, 1, 1)),
        Box3Bounds((1, 2, 3), (2, 4, 9)),
        Box3Bounds((F(1, 3), 0, F(5, 7)), (F(9, 2), F(11, 13), 3)),
        Box3Bounds((F(10**30 + 1, 10**20 + 3), 7, 0), (F(10**31, 3), F(10**25, 7), F(1, 10**40))),
    ]
    for box in boxes:
        pts = list(extreme_points(box))
        _, ipts, (scales, shifts, divisors) = _lattice_points(pts, 4)
        for k in (1, 2, 3):
            assert {p[k] for p in ipts} == {0, 1}
        # the map takes every point to its lattice form: x_k = (g_k * l_k + m_k) / s_k
        for p, q in zip(pts, ipts):
            assert p == tuple(F(g * l + m, s) for l, s, m, g in zip(q, scales, shifts, divisors))


def _prism(points):
    """The 3D prism of height 1 over 2D points: its volume is their hull's area."""
    return [(*p, z) for z in (0, 1) for p in points]


def test_hull_volume_ignores_a_wide_translation_and_scales_with_one_axis():
    rng = random.Random(29)
    for d in (2, 3, 4):
        # a 2D cloud is measured as the prism over it
        lift = _prism if d == 2 else list
        hull = HULL_VOLUME[max(d, 3)]
        checked = 0
        while checked < 10:
            pts = [
                tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
                for _ in range(rng.randint(d + 1, 9))
            ]
            try:
                vol = hull(lift(pts))
            except DegenerateHull:
                continue
            shift = [F(rng.randint(10**59, 10**60), rng.randint(1, 10**60)) for _ in range(d)]
            assert hull(lift([tuple(map(add, p, shift)) for p in pts])) == vol
            k = rng.randrange(d)
            lam = F(rng.randint(1, 10**30), rng.randint(1, 10**30))
            stretched = [p[:k] + (lam * p[k],) + p[k + 1 :] for p in pts]
            assert hull(lift(stretched)) == lam * vol
            checked += 1


def _grid_cloud(rng, d, n, span):
    """n distinct integer points of {0..span}^d spanning d dimensions: some d
    of them have differences to the first with a nonzero determinant."""
    while True:
        pts = list({tuple(rng.randint(0, span) for _ in range(d)) for _ in range(n)})
        rng.shuffle(pts)
        diffs = [tuple(map(sub, p, pts[0])) for p in pts[1:]]
        if any(map(det_by_permutation_sum, combinations(diffs, d))):
            return pts


def _primitive(facets):
    """(normal, incident) facets with each normal divided by its gcd."""
    return [(tuple(x // gcd(*normal) for x in normal), inc) for normal, inc in facets]


def test_hull_facets_match_the_reference_scan():
    rng = random.Random(31)
    clouds = [
        _grid_cloud(rng, d, rng.randint(d + 2, top), span)
        for d, count, top, span in ((2, 60, 9, 3), (3, 40, 14, 2), (4, 25, 12, 2))
        for _ in range(count)
    ]
    # a 2D cloud is scanned as the prism over it
    clouds = [_prism(pts) if len(pts[0]) == 2 else pts for pts in clouds]
    non_simplex = 0
    for pts in clouds + list(hull_shapes()):
        facets = _hull_facets(pts)
        assert _primitive(facets) == _reference_facets(pts)
        non_simplex += sum(len(incident) > len(pts[0]) for _, incident in facets)
    # coplanar points on the small grids make facets that are not simplices
    assert non_simplex > 100


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=5, max_size=12))
def test_hull_facets_4d_match_the_reference_on_small_grids(points):
    """The 4D sign-table scan against the plain one on {0, 1, 2}^4, rich
    in dependent subsets, coplanar points and flat sets. Duplicates are
    dropped first, as the lattice does; a set the reference finds flat
    (no facet, or one holding every point) raises the one message."""
    pts = list(dict.fromkeys(points))
    expected = _reference_facets(pts)
    if expected and len(expected[0][1]) < len(pts):
        assert _primitive(_hull_facets(pts)) == expected
    else:
        with pytest.raises(DegenerateHull) as caught:
            _hull_facets(pts)
        assert str(caught.value) == "points do not span 4 dimensions"


# a 4-simplex in three orders of its points
SIMPLEX_4 = [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5)]
SIMPLEX_4_ORDERS = [
    [SIMPLEX_4[i] for i in order] for order in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3))
]


def test_hull_facets_4d_of_a_5_point_simplex():
    """Each 4-subset of five points has one other point, whose side is one
    read of the sign table: every subset of a 4-simplex is a facet with
    the fifth point strictly inside, in three orders of the points."""
    for pts in SIMPLEX_4_ORDERS:
        facets = _hull_facets(pts)
        assert sorted(inc for _, inc in facets) == list(combinations(range(5), 4))
        assert _primitive(facets) == _reference_facets(pts)
        # outward: the point off each facet lies strictly below it
        for normal, incident in facets:
            (q,) = set(range(5)) - set(incident)
            assert sum(map(mul, normal, map(sub, pts[q], pts[incident[0]]))) < 0
    with pytest.raises(DegenerateHull, match="points do not span 4 dimensions"):
        _hull_facets([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)])


def test_hull_facets_4d_of_the_4_cube():
    """The 16 corners of the 4-cube: eight facets x_k = 0 and x_k = 1 of
    eight points each, found from the subsets with zero-side points."""
    cube = list(product((0, 1), repeat=4))
    facets = _primitive(_hull_facets(cube))
    expected = {
        (tuple(-1 if k == m and c == 0 else int(k == m) for m in range(4)),
         tuple(i for i, p in enumerate(cube) if p[k] == c))
        for k in range(4)
        for c in (0, 1)
    }
    assert len(facets) == 8 and set(facets) == expected
    assert facets == _reference_facets(cube)
    assert hull_volume_4d(cube) == 1


def test_hull_memos_give_the_reference_facets_cold_and_warm():
    """The 4D facets are read off the sign table and the triangulation off
    the incidences through two bounded caches. The sets are hulled cold,
    each right after both caches are cleared, then twice with the caches
    kept, the second time warm: every time the facets are the plain
    scan's and flat input raises, and the facets and volumes are the cold
    ones, so no two sets share an entry that they should not. The warm
    pass misses neither cache."""
    boxes = [
        UNIT,
        SHIFTED,
        Box3Bounds((1, 1, 2), (2, 2, 4)),  # tied ratios
        Box3Bounds((0, 0, 0), (2, 3, 5)),  # flat bottom
        random_wide_box(random.Random(29)),
    ]
    sets = [
        *hull_shapes(),
        list(product((0, 1), repeat=4)),
        *SIMPLEX_4_ORDERS,
        *(_lattice_points(extreme_points(box), 4)[1] for box in boxes),
    ]
    flats = [SIMPLEX_4[:4] + [(1, 1, 1, 0)], [p for p in product((0, 1), repeat=4) if p[2] == 0]]
    expected = [_reference_facets(pts) for pts in sets] + [None] * len(flats)
    memos = (_facet_spec, _pulling_simplices)

    def hull_all(clear):
        results = []
        for pts, reference in zip(sets + flats, expected):
            if clear:
                for memo in memos:
                    memo.cache_clear()
            if reference is None:
                for hull in (_hull_facets, hull_volume_4d):
                    with pytest.raises(DegenerateHull, match="^points do not span 4 dimensions$"):
                        hull(pts)
                continue
            facets = _hull_facets(pts)
            assert _primitive(facets) == reference
            results.append((facets, hull_volume_4d(pts) if len(pts[0]) == 4 else None))
        return results

    cold = hull_all(clear=True)
    assert hull_all(clear=False) == cold
    misses = [memo.cache_info().misses for memo in memos]
    assert hull_all(clear=False) == cold
    assert [memo.cache_info().misses for memo in memos] == misses


def _flat_sets(d):
    """Point sets in d dimensions that span fewer than d."""
    def lift(xs):
        # onto the hyperplane x_d = 2 x_1 - x_2 / 3 (+ x_3 ...)
        coeffs = [F(2), F(-1, 3)] + [F(1)] * d
        return (*xs, sum(c * x for c, x in zip(coeffs, xs)))

    corners = [tuple(map(F, c)) for c in product((0, 1), repeat=d - 1)]
    simplex = [(F(0),) * (d - 1)] + [tuple(F(i == j) for i in range(d - 1)) for j in range(d - 1)]
    # d + 1 points on one hyperplane, many points on one hyperplane
    yield [lift(p) for p in simplex] + [lift(tuple(F(1, 2) for _ in range(d - 1)))]
    yield [lift(p) for p in corners] + [lift(tuple(F(1, 3) for _ in range(d - 1)))]
    # collinear points
    yield [tuple(F(t * (i + 1), 2) for i in range(d)) for t in range(d + 2)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_flat_input_raises_in_every_dimension(d):
    for points in _flat_sets(d):
        # the kernel works in dimensions 3 and 4 only
        with pytest.raises(DegenerateHull if d > 2 else ValueError):
            HULL_VOLUME[max(d, 3)](points)
        if d == 4:
            with pytest.raises(DegenerateHull):
                hull_facets_4d(points)


def test_hull_volume_3d_rejects_flat_input():
    square = [ORIGIN, E1, E2, (F(1), F(1), F(0))]
    with pytest.raises(DegenerateHull):
        hull_volume_3d(square)
    with pytest.raises(DegenerateHull):
        hull_volume_3d([ORIGIN, E1])
    with pytest.raises(DegenerateHull):
        hull_volume_3d([])
    # a tilted plane with rational points: x + 2y + 3z = 1
    tilted = [
        (F(1), F(0), F(0)),
        (F(0), F(1, 2), F(0)),
        (F(0), F(0), F(1, 3)),
        (F(1, 3), F(1, 6), F(1, 9)),
        (F(1, 2), F(1, 4), F(0)),
    ]
    with pytest.raises(DegenerateHull):
        hull_volume_3d(tilted)
