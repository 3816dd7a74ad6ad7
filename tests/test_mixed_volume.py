"""Mixed volumes and the Minkowski volume polynomial."""

import random
import re
from fractions import Fraction as F
from itertools import combinations, product
from math import gcd

import pytest

from trivol import Box3Bounds, DegenerateHull, EmptyPolytope, InternalDisagreement
from trivol import geometry, mixed_volume, trilinear
from trivol.geometry import hull_volume_3d, orient, tetra_volume
from trivol.mixed_volume import (
    fit_cubic,
    minkowski_sum_vertices,
    mixed_volume_against,
    volume_cubic,
)
from trivol.trilinear import build_R, omega_normalize

from reference import add3, det_by_permutation_sum, q_vertex_points, r_vertex_points, scale3
from testutil import (
    CUBE,
    OCTA,
    SIMPLEX,
    hull_shapes,
    random_body,
    random_points,
    random_tetrahedron,
    trivol_calls,
)

_REGULAR = [tuple(map(F, p)) for p in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]
# a regular simplex T and -T
REFLECTED_SIMPLEX = (_REGULAR, [tuple(-c for c in p) for p in _REGULAR])


def test_self_mixed_volume_is_the_volume():
    t = orient(SIMPLEX)
    assert mixed_volume_against(t, SIMPLEX) == F(1, 6)
    rng = random.Random(41)
    for _ in range(100):
        t = random_tetrahedron(rng)
        assert mixed_volume_against(t, list(t.vertices)) == tetra_volume(t)


def test_mixed_volume_against_a_point_is_zero():
    t = orient(SIMPLEX)
    assert mixed_volume_against(t, [(F(0), F(0), F(0))]) == 0


def test_mixed_volume_with_flat_partner_slice():
    # the unit box's bottom slice is flat, but it still works in the
    # support slot; the shared closed form gives 1/3 there
    box = Box3Bounds((0, 0, 0), (1, 1, 1))
    norm = omega_normalize(box)
    r = build_R(norm)
    assert mixed_volume_against(r, q_vertex_points(norm.bounds)) == F(1, 3)


def test_mixed_volume_is_linear_in_the_body_slot():
    rng = random.Random(43)
    for _ in range(50):
        p = random_tetrahedron(rng)
        k = random_points(rng, 5)
        lam = F(rng.randint(0, 6), rng.randint(1, 5))
        scaled = [tuple(lam * c for c in pt) for pt in k]
        assert mixed_volume_against(p, scaled) == lam * mixed_volume_against(p, k)


def test_mixed_volume_nonnegative():
    rng = random.Random(47)
    for _ in range(50):
        p = random_tetrahedron(rng)
        k = random_points(rng, 6)
        assert mixed_volume_against(p, k) >= 0


def test_mixed_volume_rejects_empty_body():
    with pytest.raises(EmptyPolytope):
        mixed_volume_against(orient(SIMPLEX), [])


def test_mixed_volume_rejects_points_that_are_not_3d():
    t = orient(SIMPLEX)
    for bad in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            mixed_volume_against(t, [bad])
        with pytest.raises(ValueError):
            mixed_volume_against(t, [(F(0), F(0), F(0)), bad])


def test_mixed_volume_reads_an_iterator_once():
    t = orient(SIMPLEX)
    assert mixed_volume_against(t, iter(CUBE)) == mixed_volume_against(t, CUBE) > 0


def test_support_sum6_is_six_times_the_mixed_volume():
    rng = random.Random(53)
    halved = orient([tuple(c / 2 for c in v) for v in SIMPLEX])
    cases = [
        (orient(SIMPLEX), CUBE),
        (halved, OCTA),
        (halved, [(F(1, 3), F(2), F(-1))]),  # one point
        (orient(SIMPLEX), [v for v in CUBE if v[2] == 1]),  # a flat square
    ]
    cases += [(random_tetrahedron(rng), random_points(rng, 5)) for _ in range(20)]
    for p, k in cases:
        assert mixed_volume._support_sum6(p, k) == 6 * mixed_volume_against(p, k)
        # the same bodies scaled by 6 onto ints: an int sum, 6^3 times larger
        ip = orient([tuple(int(6 * c) for c in v) for v in p.vertices])
        ik = [tuple(int(6 * c) for c in v) for v in k]
        got = mixed_volume._support_sum6(ip, ik)
        assert type(got) is int
        assert got == 6 * mixed_volume_against(ip, ik) == 216 * mixed_volume._support_sum6(p, k)


def test_minkowski_sum_vertices_reads_iterators_once():
    expected = minkowski_sum_vertices(CUBE, OCTA)
    assert len(expected) > len(OCTA)
    assert minkowski_sum_vertices(iter(CUBE), iter(OCTA)) == expected
    assert minkowski_sum_vertices((p for p in CUBE), OCTA) == expected


def test_minkowski_sum_vertices():
    zero = [(F(0), F(0), F(0))]
    assert minkowski_sum_vertices(zero, OCTA) == OCTA
    assert len(minkowski_sum_vertices(CUBE, OCTA)) <= 48
    seg_x = [(F(0), F(0), F(0)), (F(1), F(0), F(0))]
    seg_y = [(F(0), F(0), F(0)), (F(0), F(1), F(0))]
    square = minkowski_sum_vertices(seg_x, seg_y)
    assert sorted(square) == [
        (F(0), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
        (F(1), F(1), F(0)),
    ]
    with pytest.raises(EmptyPolytope):
        minkowski_sum_vertices([], OCTA)
    # malformed points on either side: test_every_point_entry_reads_coordinates_by_one_rule


def test_volume_cubic_cube_plus_octahedron():
    cubic = volume_cubic(CUBE, OCTA)
    assert cubic.coefficients == (F(8), F(24), F(12), F(4, 3))
    assert cubic.v_kkl == 8
    assert cubic.v_kll == 4
    # the fitted polynomial predicts fresh Minkowski hull volumes exactly
    for t in (F(4), F(5)):
        scaled = [tuple(t * c for c in p) for p in OCTA]
        assert cubic.value_at(t) == hull_volume_3d(minkowski_sum_vertices(CUBE, scaled))


def test_volume_cubic_reads_iterators_once():
    assert volume_cubic(iter(CUBE), iter(OCTA)) == volume_cubic(CUBE, OCTA)


def test_volume_cubic_homothety_of_simplex():
    cubic = volume_cubic(SIMPLEX, SIMPLEX)
    assert cubic.coefficients == (F(1, 6), F(1, 2), F(1, 2), F(1, 6))


def test_volume_cubic_of_a_regular_simplex_against_its_reflection():
    """T - T has six square facets from edge x edge normals only, and four
    sums meet at the origin. For a simplex Vol(T + t(-T)) is the sum of
    C(3, i)^2 t^i Vol(T) (Rogers-Shephard), with Vol(T) = 8/3."""
    cubic = volume_cubic(*REFLECTED_SIMPLEX)
    assert cubic.coefficients == (F(8, 3), F(24), F(24), F(8, 3))


def test_volume_cubic_matches_direct_mixed_volume():
    rng = random.Random(53)
    for _ in range(12):
        p = random_tetrahedron(rng)
        k = random_points(rng, 5)
        try:
            cubic = volume_cubic(list(p.vertices), k)
        except DegenerateHull:
            continue  # flat K is rejected by contract; not under test here
        assert cubic.c1 == 3 * mixed_volume_against(p, k)
        assert cubic.c0 == tetra_volume(p)


def test_volume_cubic_on_slice_tetrahedra():
    # with a thin but positive bottom level both slices are genuine
    # tetrahedra and the interpolated c1, c2 match the direct path
    box = Box3Bounds((0, 0, F(1, 10)), (1, 1, 1))
    norm = omega_normalize(box)
    nb = norm.bounds
    cubic = volume_cubic(q_vertex_points(nb), r_vertex_points(nb))
    # c1 = 3 V(Q,Q,R) and c2 = 3 V(Q,R,R); the kernel carries 6 V
    assert (2 * cubic.c1, 2 * cubic.c2) == trilinear._mixed_volumes6_from_z(nb.a, nb.b)


def test_volume_cubic_rejects_flat_bodies():
    flat = [
        (F(0), F(0), F(0)),
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(1), F(1), F(0)),
    ]
    with pytest.raises(DegenerateHull):
        volume_cubic(flat, OCTA)
    with pytest.raises(DegenerateHull):
        volume_cubic(CUBE, flat)
    # the unit box's bottom slice is exactly such a flat body
    box = Box3Bounds((0, 0, 0), (1, 1, 1))
    nb = omega_normalize(box).bounds
    with pytest.raises(DegenerateHull):
        volume_cubic(q_vertex_points(nb), r_vertex_points(nb))


def test_volume_cubic_checks_k_then_l():
    flat = [(F(x), F(y), F(0)) for x, y in product((0, 1), repeat=2)]
    plane = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    cases = [
        (([], OCTA), EmptyPolytope, "empty vertex list for body k"),
        ((flat, []), DegenerateHull, "body k does not span three dimensions"),
        ((flat, plane), DegenerateHull, "body k does not span three dimensions"),
        ((CUBE, []), EmptyPolytope, "empty vertex list for body l"),
        ((CUBE, flat), DegenerateHull, "body l does not span three dimensions"),
        ((plane, CUBE), ValueError, "expected points of dimension 3, got one of dimension 2"),
        ((CUBE, plane), ValueError, "expected points of dimension 3, got one of dimension 2"),
    ]
    for bodies, error, message in cases:
        with pytest.raises(error) as caught:
            volume_cubic(*bodies)
        assert str(caught.value) == message


def test_volume_cubic_on_wide_rational_bodies_matches_direct_hulls():
    rng = random.Random(61)

    def wide_point():
        return tuple(F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**20)) for _ in range(3))

    for _ in range(5):
        k = [wide_point() for _ in range(5)]
        l = [wide_point() for _ in range(4)]
        values = [
            hull_volume_3d(minkowski_sum_vertices(k, [scale3(p, F(t)) for p in l]))
            for t in range(4)
        ]
        assert volume_cubic(k, l) == fit_cubic((0, 1, 2, 3), values)


UNIT_CUBE = [tuple(map(F, p)) for p in product((0, 1), repeat=3)]
# bodies with points that are not vertices; each line's comment says which
WITH_EXTRA_POINTS = [
    (
        # a point inside K, a facet centre, a duplicate; a point inside an edge of L
        SIMPLEX + [(F(1, 8), F(1, 8), F(1, 8)), (F(1, 3), F(1, 3), F(1, 3)), SIMPLEX[1]],
        CUBE + [(F(1, 2), F(-1), F(-1)), CUBE[3]],
    ),
    # many sums coincide at t = 1 (k_i + l_j = k_i' + l_j'), but not at other t
    (UNIT_CUBE, UNIT_CUBE + [(F(1, 2), F(1, 2), F(1, 2))]),
    (
        # rational coordinates throughout; L has a point inside an edge
        [(F(1, 3), F(0), F(2, 7)), (F(5, 2), F(1, 9), F(0)), (F(0), F(7, 4), F(1)),
         (F(1), F(1), F(11, 5)), (F(1), F(2, 3), F(1))],
        OCTA + [(F(1, 3), F(2, 3), F(0))],
    ),
    (CUBE, OCTA),
]
# vertices of each K + L above: the sums whose removal shrinks the hull
# (found once by a hull_volume_3d per sum, too slow to repeat here)
VERTEX_COUNTS = [13, 8, 17, 24]


def test_volume_cubic_with_extra_points_matches_minkowskis_formula():
    """The unit simplex S and the cube C = [-1, 1]^3 behind their extra
    points. 3 V(P,P,Q) is Q's support summed over P's unit facet normals,
    each weighted by its facet's area. So c1 = 3 V(S,S,C) = 3/2 + 3/2: S's
    three coordinate facets (area 1/2, support 1), then its slanted one
    (area sqrt(3)/2, support sqrt(3)). And c2 = 3 V(C,C,S) = 3 * 4 * 1:
    three facets of C with area 4 and support 1; the other three have 0."""
    cubic = volume_cubic(*WITH_EXTRA_POINTS[0])
    assert cubic.coefficients == (F(1, 6), F(3), F(12), F(8))


def test_volume_cubic_agrees_with_fresh_minkowski_hulls_at_other_t():
    rng = random.Random(71)
    pairs = list(WITH_EXTRA_POINTS)
    # small lattice bodies: interior and boundary points, coincident sums
    while len(pairs) < len(WITH_EXTRA_POINTS) + 6:
        k, l = ([tuple(F(rng.randint(0, 2)) for _ in range(3)) for _ in range(6)] for _ in "kl")
        try:
            hull_volume_3d(k), hull_volume_3d(l)
        except DegenerateHull:
            continue  # flat bodies are rejected by contract
        pairs.append((k, l))
    for k, l in pairs:
        cubic = volume_cubic(k, l)
        for t in (F(1), F(2), F(3), F(1, 2), F(5)):
            scaled = [scale3(p, t) for p in l]
            assert cubic.value_at(t) == hull_volume_3d(minkowski_sum_vertices(k, scaled)), (k, l, t)


def joint_lattice(k, l):
    """K's and L's distinct points on their joint lattice and each body's
    facets moved there from its own hull, with the hull's vertices and
    edge table: the bodies that ``volume_cubic`` gives ``_sum_facets``."""
    (dk, own_k, *body_k, _), (dl, own_l, *body_l, _) = map(geometry._hull3, (k, l))
    ipts, axes = geometry._clear_denominators([*dk, *dl], 3)
    moved = [
        (mixed_volume._joint_facets(f, own, axes), *fan)
        for own, (f, *fan) in [(own_k, body_k), (own_l, body_l)]
    ]
    return ipts[: len(dk)], ipts[len(dk) :], moved


def fan_and_scan_facets(k, l):
    """The facets of K + L from ``_sum_facets`` and from the 3D scan of the
    distinct sums, each as the ascending ids i * len(il) + j of pairs
    whose sum lies on it, sorted alike: every such pair on the scan's
    side. Also the fan's faces of two edges, which pair two points of K
    with two of L (one with a facet of K or of L has three of that body),
    and both sides restricted to the vertices of K + L."""
    ik, il, bodies = joint_lattice(k, l)
    fan = mixed_volume._sum_facets(ik, il, *bodies)
    n = len(il)
    edge_pairs = [f for f in fan if len({p // n for p in f}) == len({p % n for p in f}) == 2]
    sums = minkowski_sum_vertices(ik, il)
    index = {s: n for n, s in enumerate(sums)}
    at = [index[add3(a, b)] for a, b in product(ik, il)]  # k-major, as the pair ids
    scan = [set(incident) for _, incident in geometry._hull_facets(sums)]
    every = set(range(len(sums)))
    corners = {n for n in every if every.intersection(*(f for f in scan if n in f)) == {n}}
    scan = sorted(tuple(p for p, n in enumerate(at) if n in face) for face in scan)
    vertices = {p for p, n in enumerate(at) if n in corners}
    on_vertices = [sorted(tuple(p for p in f if p in vertices) for f in faces) for faces in (fan, scan)]
    return fan, edge_pairs, scan, on_vertices


def primitive(normal):
    g = gcd(*normal)
    return tuple(c // g for c in normal)


def test_joint_facets_match_the_scan_on_the_joint_lattice():
    """Each body's own facets with their normals moved to the joint lattice
    are the facets a scan of the body's joint-lattice points finds, in the
    same order, with the same normals up to a positive factor."""
    rng = random.Random(79)

    def rational_body():
        while True:
            pts = [
                tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3))
                for _ in range(rng.randint(4, 7))
            ]
            try:
                hull_volume_3d(pts)
            except DegenerateHull:
                continue
            return pts

    def wide_body(n):
        return [
            tuple(F(rng.randint(-(10**12), 10**12), rng.randint(1, 10**9)) for _ in range(3))
            for _ in range(n)
        ]

    pairs = [(CUBE, OCTA), (OCTA, CUBE), (SIMPLEX, SIMPLEX), *WITH_EXTRA_POINTS, REFLECTED_SIMPLEX]
    pairs.append((random_body(rng, 24), random_body(rng, 24)))
    pairs += [(wide_body(5), wide_body(4)) for _ in range(3)]
    pairs += [(rational_body(), rational_body()) for _ in range(160)]
    moved = 0
    for k, l in pairs:
        ik, il, joint = joint_lattice(k, l)
        for points, (facets, *_) in zip((ik, il), joint):
            assert len(set(points)) == len(points), (k, l)
            scanned = geometry._hull_facets(points)
            assert [(primitive(n), incident) for n, incident in facets] == [
                (primitive(n), incident) for n, incident in scanned
            ], (k, l)
            moved += any(n != m for (n, _), (m, _) in zip(facets, scanned))
    # of the bodies, those whose moved normals differ from the scan's before reduction
    assert (moved, 2 * len(pairs)) == (333, 344)


def test_volume_cubic_scans_each_body_once():
    """One facet scan per body, on its own lattice, and none of the sums."""
    scan = geometry._hull_facets.__code__
    for k, l in [(CUBE, OCTA), WITH_EXTRA_POINTS[2]]:
        calls = trivol_calls(lambda: volume_cubic(k, l))
        assert calls[scan] == 2, (k, l)


def test_volume_cubic_reads_each_body_once():
    """Each body's coordinates are read once, by the reader inside
    ``_hull3``; the empty check before it takes no pass of its own, and
    bodies given as one-shot iterators give the same cubic."""
    read = geometry._read_points.__code__
    calls = trivol_calls(lambda: volume_cubic(CUBE, OCTA))
    assert calls[read] == 2
    assert volume_cubic(iter(CUBE), (p for p in OCTA)) == volume_cubic(CUBE, OCTA)


def test_each_vertex_of_the_sum_is_the_sum_of_one_pair(monkeypatch):
    """A face of K + L in direction u is F_K(u) + F_L(u), so a vertex is
    the sum of exactly one pair of distinct points, and ``volume_cubic``
    names each point of K + L by its pair id i * len(il) + j. On each
    fixture the vertices, found by a scan of the distinct sums, are the
    sums of one pair each, and are the pair ids that the closure check of
    K + L keeps; the fixtures also hold sums of several pairs, none of
    them a vertex."""
    real = mixed_volume._closed_facets
    kept = []

    def keep(*args):
        kept.append(real(*args))
        return kept[-1]

    monkeypatch.setattr(mixed_volume, "_closed_facets", keep)
    coincident = []
    for (k, l), count in zip(WITH_EXTRA_POINTS, VERTEX_COUNTS):
        ik, il, _ = joint_lattice(k, l)
        pairs = {}  # each distinct sum and the ids of the pairs that form it, k-major
        for p, (a, b) in enumerate(product(ik, il)):
            pairs.setdefault(add3(a, b), []).append(p)
        sums = list(pairs)
        faces = [set(incident) for _, incident in geometry._hull_facets(sums)]
        every = set(range(len(sums)))
        vertices = [n for n in range(len(sums)) if every.intersection(*(f for f in faces if n in f)) == {n}]
        assert len(vertices) == count, (k, l)
        assert all(len(pairs[sums[n]]) == 1 for n in vertices), (k, l)
        volume_cubic(k, l)
        assert kept[-1][0] == [pairs[sums[n]][0] for n in vertices], (k, l)
        coincident.append(sum(len(ids) - 1 for ids in pairs.values()))
    # pairs whose sum an earlier pair already formed, on the distinct points
    assert coincident == [0, 37, 0, 12]


def test_sum_facets_match_the_scan_of_the_sums():
    rng = random.Random(73)

    def body(rational):
        def coordinate():
            return F(rng.randint(-6, 6), rng.randint(1, 3)) if rational else F(rng.randint(0, 2))

        pts = [tuple(coordinate() for _ in range(3)) for _ in range(rng.randint(4, 6))]
        # a point between two others (inside an edge when they span one) and an interior one
        pts.append(tuple((p + q) / 2 for p, q in zip(pts[0], pts[1])))
        if rng.random() < 0.5:
            pts.append(tuple(sum(c) / 4 for c in zip(*pts[:4])))
        return pts

    def flat(pts):
        a, *rest = pts
        edges = [geometry.sub3(p, a) for p in rest]
        return not any(map(det_by_permutation_sum, combinations(edges, 3)))

    pairs = [(CUBE, OCTA), (OCTA, CUBE)] + WITH_EXTRA_POINTS
    pairs += [(body(rational), body(rational)) for rational in [False] * 30 + [True] * 15]
    coincident = rejected = trimmed = 0
    for k, l in pairs:
        for name, pts in zip("kl", (k, l)):
            if flat(pts):
                # volume_cubic rejects it before the fans are formed
                with pytest.raises(DegenerateHull) as caught:
                    volume_cubic(k, l)
                assert str(caught.value) == f"body {name} does not span three dimensions"
                rejected += 1
                break
        else:
            fan, edge_pairs, scan, on_vertices = fan_and_scan_facets(k, l)
            assert on_vertices[0] == on_vertices[1], (k, l)
            # a face with a facet of K or of L lists every sum on it
            assert all(face in scan for face in fan if face not in edge_pairs), (k, l)
            # one of two edges only their end vertices, leaving out the sums
            # with a point inside an edge
            assert all(any(set(face) <= set(facet) for facet in scan) for face in edge_pairs), (k, l)
            trimmed += fan != scan
            coincident += len(minkowski_sum_vertices(k, l)) < len(k) * len(l)
    # the draws exercise coincident sums and trimmed faces among the solid
    # pairs, and flat bodies
    assert (coincident, trimmed, rejected, len(pairs)) == (23, 21, 11, 51)


def test_sum_facets_on_flat_and_empty_bodies(monkeypatch):
    """``_sum_facets`` takes only solid bodies: ``volume_cubic`` rejects an
    empty or flat body, K first, before the normal fans are read, even
    where K + L spans three dimensions."""
    flat = [(F(x), F(y), F(0)) for x, y in product((0, 1), repeat=2)]
    segment = [(0, 0, 0), (1, 1, 0)]
    point = [(0, 0, 0)]
    triangle = [(0, 0, 1), *segment]
    spanning = [(flat, OCTA), (point, CUBE), (flat, triangle)]
    flat_sums = [(flat, flat), (flat, segment), (segment, segment), (point, flat), (point, point)]
    for k, l in spanning + flat_sums:
        ipts, _ = geometry._clear_denominators([*k, *l], 3)
        sums = minkowski_sum_vertices(ipts[: len(k)], ipts[len(k) :])
        if (k, l) in spanning:
            assert geometry._hull_facets(sums), (k, l)
        else:
            with pytest.raises(DegenerateHull):
                geometry._hull_facets(sums)

    def unreachable(*args):
        raise AssertionError("_sum_facets reached")

    monkeypatch.setattr(mixed_volume, "_sum_facets", unreachable)
    cases = [
        ((CUBE, segment), DegenerateHull, "body l does not span three dimensions"),
        ((point, []), DegenerateHull, "body k does not span three dimensions"),
        ((SIMPLEX, []), EmptyPolytope, "empty vertex list for body l"),
        (([], SIMPLEX), EmptyPolytope, "empty vertex list for body k"),
        (([], point), EmptyPolytope, "empty vertex list for body k"),
    ]
    for bodies in spanning + flat_sums:
        cases.append((bodies, DegenerateHull, "body k does not span three dimensions"))
    for bodies, error, message in cases:
        with pytest.raises(error) as caught:
            volume_cubic(*bodies)
        assert str(caught.value) == message, bodies


def test_volume_cubic_on_24_point_bodies_forms_only_the_fan_candidates(monkeypatch):
    """Every candidate face of K + L is one ``_sum_face`` call: a facet of
    K or of L, or an edge of each that the overlay of their fans crosses.
    Both bodies are simplicial, so a body with f facets has 3f/2 edges."""
    rng = random.Random(24)
    k, l = random_body(rng, 24), random_body(rng, 24)
    fans = []
    for body in (k, l):
        facets = geometry._hull_facets(body)
        assert {len(incident) for _, incident in facets} == {3}
        fans.append((len(facets), 3 * len(facets) // 2))
    (f_k, e_k), (f_l, e_l) = fans
    assert fans == [(40, 60), (28, 42)]
    real = mixed_volume._sum_face
    candidates = []
    monkeypatch.setattr(mixed_volume, "_sum_face", lambda *args: candidates.append(args) or real(*args))
    cubic = volume_cubic(k, l)
    assert f_k + f_l < len(candidates) <= f_k + f_l + e_k * e_l
    assert volume_cubic(l, k).coefficients == cubic.coefficients[::-1]
    # 3 V(T, T, B) is c1 of T + tB and c2 of B + tT
    t = random_tetrahedron(rng, span=500)
    mixed = 3 * mixed_volume_against(t, k)
    assert volume_cubic(t.vertices, k).c1 == mixed == volume_cubic(k, t.vertices).c2


def test_edge_table_triangulates_as_the_generic_pull():
    """The simplices read off the edge table of the closure check are
    those of the generic pulling triangulation from vertex 0, as sets of
    sorted tuples, with none repeated: on the facets of K + L that
    ``volume_cubic`` closes, and on the hulls of the 3D test shapes, some
    with points inside facets and edges. A pentagonal prism plus the
    octahedron adds pentagons that do not hold vertex 0."""
    rng = random.Random(24)
    pairs = [(CUBE, OCTA), (OCTA, CUBE), *WITH_EXTRA_POINTS, REFLECTED_SIMPLEX]
    pairs.append((random_body(rng, 24), random_body(rng, 24)))
    pentagon = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)]
    pairs.append(([(x, y, z) for x, y in pentagon for z in (0, 1)], OCTA))
    cases = []
    for k, l in pairs:
        ik, il, bodies = joint_lattice(k, l)
        cases.append(("K + L", len(ik) * len(il), mixed_volume._sum_facets(ik, il, *bodies)))
    shapes = [pts for pts in hull_shapes() if len(pts[0]) == 3]
    cases += [("the hull", len(pts), [f for _, f in geometry._hull_facets(pts)]) for pts in shapes]
    sizes = {"K + L": set(), "the hull": set()}
    inside = 0
    for subject, n, incidences in cases:
        vertices, facets, edges = geometry._closed_facets(n, incidences, subject)
        table = geometry._edge_simplices(facets, edges)
        pulled = list(geometry._pulling_simplices(facets, 3))
        assert len(table) == len(pulled) == len({tuple(sorted(s)) for s in pulled}), incidences
        assert {tuple(sorted(s)) for s in table} == {tuple(sorted(s)) for s in pulled}, incidences
        sizes[subject].update((len(incident), incident[0] == 0) for incident in facets)
        inside += subject == "the hull" and len(vertices) < n
    # (vertices, holds vertex 0) of the facets met, and the shapes with points that are no vertex
    met = {(m, held) for m in (3, 4, 5) for held in (False, True)}
    assert sizes == {"K + L": met, "the hull": met}
    assert (inside, len(shapes)) == (6, 8)


@pytest.fixture
def recorded_facets(monkeypatch):
    """The cubics of WITH_EXTRA_POINTS and the facet list ``_sum_facets``
    gave for each K + L, one per pair."""
    real = mixed_volume._sum_facets
    lists = []

    def record(*args):
        lists.append(real(*args))
        return lists[-1]

    monkeypatch.setattr(mixed_volume, "_sum_facets", record)
    cubics = [volume_cubic(k, l) for k, l in WITH_EXTRA_POINTS]
    monkeypatch.setattr(mixed_volume, "_sum_facets", real)
    assert len(lists) == len(WITH_EXTRA_POINTS)
    return cubics, lists


def test_volume_cubic_closure_check_catches_a_dropped_facet(monkeypatch, recorded_facets):
    """A facet dropped from those of K + L fails the closure check of
    K + L; one dropped from a body's own scan fails that of its hull, in
    ``hull_volume_3d`` and in ``volume_cubic``."""
    for (k, l), facets in zip(WITH_EXTRA_POINTS, recorded_facets[1]):
        for drop in range(len(facets)):
            dropped = facets[:drop] + facets[drop + 1 :]
            monkeypatch.setattr(mixed_volume, "_sum_facets", lambda *args: dropped)
            with pytest.raises(InternalDisagreement, match="^facets of K \\+ L do not close: "):
                volume_cubic(k, l)
    monkeypatch.undo()
    scan = geometry._hull_facets
    for k, l in WITH_EXTRA_POINTS:
        for body in (k, l):
            for drop in range(len(geometry._hull3(body)[2])):

                def planted(pts):
                    facets = scan(pts)
                    return facets[:drop] + facets[drop + 1 :]

                monkeypatch.setattr(geometry, "_hull_facets", planted)
                for run in (lambda: hull_volume_3d(body), lambda: volume_cubic(k, l)):
                    with pytest.raises(InternalDisagreement, match="^facets of the hull do not close: "):
                        run()
                monkeypatch.undo()


def test_volume_cubic_plane_check_catches_a_mis_mapped_vertex_pair(monkeypatch, recorded_facets):
    real = mixed_volume._closed_facets
    caught = []
    for (k, l), expected in zip(WITH_EXTRA_POINTS, recorded_facets[0]):
        caught.append(0)
        n_k, n_l = len(dict.fromkeys(k)), len(dict.fromkeys(l))
        for n in range(n_k * n_l):

            def mis_mapped(*args):
                vertices, facets, edges = real(*args)
                i, j = divmod(n, n_l)
                return [i * n_l + (j + 1) % n_l if p == n else p for p in vertices], facets, edges

            monkeypatch.setattr(mixed_volume, "_closed_facets", mis_mapped)
            try:
                got = volume_cubic(k, l)
            except InternalDisagreement as exc:
                assert re.match("^facet [0-9]+ does not support K \\+ 2L: ", str(exc)), exc
                caught[-1] += 1
            else:
                assert got == expected  # a pair that is not a vertex is never placed
    # a mis-mapped pair is caught exactly at the vertices of K + L
    assert caught == VERTEX_COUNTS


def test_check_planes_on_real_and_planted_facets(monkeypatch):
    real = mixed_volume._check_planes
    calls = []
    monkeypatch.setattr(mixed_volume, "_check_planes", lambda *args: calls.append(args))
    volume_cubic(*WITH_EXTRA_POINTS[0])
    assert [t for _, _, t in calls] == [2, 3]
    for args in calls:
        real(*args)
    # the unit cube, vertex 4x + 2y + z at (x, y, z), with its six facets
    cube = list(product((0, 1), repeat=3))
    facets = [(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6), (1, 3, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7)]
    real(cube, facets, 2)
    pointed = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]
    # each with its extreme faces along the plane's normal n, then along -n
    planted = [
        # n = (1, 1, -1): vertices on both sides of the plane
        (cube, [facets[0], (0, 3, 5)], "[0, 3, 5] are neither extreme face [6] nor [1]"),
        # n = (0, 0, -1): vertex 6 on the plane too
        (cube, [facets[0], (0, 2, 4)], "[0, 2, 4] are neither extreme face [0, 2, 4, 6] nor [1, 3, 5, 7]"),
        # collinear first three, n = 0: every vertex "on" it and both faces all
        (pointed, [(0, 3, 4), (0, 1, 2, 3)], "[0, 1, 2, 3] are neither extreme face [0, 1, 2, 3, 4] nor [0, 1, 2, 3, 4]"),
    ]
    for placed, wrong, faces in planted:
        with pytest.raises(InternalDisagreement) as caught:
            real(placed, wrong, 2)
        assert str(caught.value) == f"facet 1 does not support K + 2L: its vertices {faces} of its plane"


def test_fit_cubic_recovers_known_polynomial():
    def poly(t):
        return F(7) - 3 * t + F(1, 2) * t * t + F(5, 3) * t ** 3

    ts = [F(0), F(1), F(2), F(7, 2)]
    cubic = fit_cubic(ts, [poly(t) for t in ts])
    assert cubic.coefficients == (F(7), F(-3), F(1, 2), F(5, 3))
    assert cubic.value_at(F(11, 3)) == poly(F(11, 3))


def test_fit_cubic_recovers_random_cubics_at_unsorted_rational_nodes():
    rng = random.Random(67)

    def rational():
        return F(rng.randint(-50, 50), rng.randint(1, 12))

    for _ in range(300):
        coefficients = tuple(rational() for _ in range(4))
        ts = []
        while len(ts) < 4:
            t = rational()
            if t not in ts:
                ts.append(t)
        values = [sum(c * t**p for p, c in enumerate(coefficients)) for t in ts]
        cubic = fit_cubic(ts, values)
        assert cubic.coefficients == coefficients, ts
        assert [cubic.value_at(t) for t in ts] == values


def test_fit_cubic_rejects_bad_nodes():
    with pytest.raises(ValueError, match="^cubic interpolation needs exactly four nodes$"):
        fit_cubic([F(0), F(1), F(2)], [F(0), F(1), F(2)])
    with pytest.raises(ValueError, match="^interpolation nodes must be distinct$"):
        fit_cubic([F(0), F(1), F(1), F(2)], [F(0)] * 4)
