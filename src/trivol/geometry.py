"""Exact primitives for low-dimensional polytope geometry.

Coordinates are ``fractions.Fraction`` or ``int`` (the two mix freely),
so every predicate and volume computed here is exact; on int input the
tetrahedron primitives stay on ints until their single final division.
Each public entry that takes points, here and in ``trivol.mixed_volume``
and ``trivol.oracle``, reads them once by :func:`_read_points`, which
holds that rule; the private kernels behind the entries trust them.
Points and vectors are plain tuples and the one container type,
:class:`Tetrahedron`, is a frozen dataclass; nothing is mutated after
construction, which keeps all functions in this module pure.

The convex-hull volume kernel has one entry per dimension,
:func:`hull_volume_3d` and ``trivol.oracle.hull_volume_4d``. It moves
the points once to their smallest integer lattice (per axis: clear
denominators, subtract the minimum, divide by the gcd; see
:func:`_clear_denominators`) so that everything after runs on small
Python ints, and finds facets by brute force: every point d-subset is
tested, and its integer cofactor normal spans a facet when every point
lies on one side. In 3D the side test of a subset stops at the first
point on the side opposite to one already seen, and the point that
refuted the previous subset is tried first; a subset that spans takes
its incident points and outward normal from that same pass. In 4D the
side of a point is the orientation of the five points together, which
every one of its five 4-subsets shares up to sign. Every call computes
each orientation once, from the normals of the 4-subsets with a later
point (on the oracle's eight-point box graphs, 35 normals and 56
orientations per hull), then the normal of each facet whose first
spanning subset holds the last point. Which subsets span facets, with
which sign and incident points, is read off the table of signs once per
table, and the pulling triangulation off the incident sets once per
tuple of them (:func:`_facet_spec`, :func:`_pulling_simplices`); a
bounded cache keeps the last reads, and boxes share a few dozen sign
tables. The scan is written out for each of d = 3 and 4.
The volume is a sum of simplex determinants, also written out for each
d, over a pulling triangulation read off the facets' incident point
sets alone (:func:`_pulling_simplices`), so no hull is ever taken in a
lower dimension. At the scale this package works with (a few dozen
points) that is fast enough, and it avoids the degeneracy handling an
incremental hull algorithm would need to get exact answers. Flat input
is found by the same scan, with no separate rank test.
Every 3D hull certifies that its facet list is closed, in the sense of
McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying algorithms"
(2011), by one bitmask pass (:func:`_closed_facets`). A point is a
vertex iff its facets meet in it alone. On the facets restricted to the
vertices, every facet with m vertices must share exactly two (an edge)
with exactly m other facets, and no two facets more. Every edge of a
listed facet then borders another listed facet, and the facets of a
3-polytope are connected through their edges, so true facets that
close are all of them. The 3D triangulation is read off the edges so
proved (:func:`_edge_simplices`). :func:`_hull3` runs the scan, this
certificate and the volume, and also returns what
``trivol.mixed_volume.volume_cubic`` reads each body's normal fan off;
that function closes K + L by the same certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import gcd, lcm, prod
from numbers import Rational
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateHull, DegenerateTetrahedron, EmptyPolytope, InternalDisagreement
from .rational import parse_rational

__all__ = [
    "Vec3",
    "Point3",
    "Point4",
    "Tetrahedron",
    "sub3",
    "dot3",
    "cross3",
    "orient",
    "facet_normal_set",
    "support",
    "tetra_volume",
    "hull_volume_3d",
]

Vec3 = tuple[Fraction, Fraction, Fraction]
Point3 = Vec3
Point4 = tuple[Fraction, Fraction, Fraction, Fraction]


def sub3(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def dot3(u: Vec3, v: Vec3) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross3(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


_EXACT = frozenset((int, Fraction))


def _read_points(points: Iterable[Sequence], dim: int) -> list[tuple]:
    """The points as tuples of ints and Fractions: the package's one reader
    of point coordinates. Ints and Fractions are kept as they are; any
    other rational but a bool (a numpy integer) is read exactly by
    :func:`~trivol.rational.parse_rational`, as an int when integral. A
    point whose length is not ``dim`` and every other coordinate (a float,
    a Decimal, a str, a bool) raise :class:`ValueError`."""
    read = list(map(tuple, points))
    for p in read:
        if len(p) != dim:
            raise ValueError(f"expected points of dimension {dim}, got one of dimension {len(p)}")
    if _EXACT.issuperset(map(type, chain.from_iterable(read))):
        return read
    return [tuple(map(_read_coordinate, p)) for p in read]


def _read_coordinate(x: object) -> Fraction | int:
    """One coordinate, by the rule of :func:`_read_points`."""
    if type(x) in _EXACT:
        return x
    if isinstance(x, Rational) and not isinstance(x, bool):
        x = parse_rational(x)
        return x.numerator if x.denominator == 1 else x
    raise ValueError(f"coordinate {x!r} is not an int or a Fraction")


def _edge_det(vertices: Sequence[Point3]) -> Fraction:
    """det[v1 - v0, v2 - v0, v3 - v0], the first edge against the cross
    product of the other two: six times the signed volume of four 3D
    points, trusted (the certificate runs it on polynomials). Another
    count raises ValueError, a zero determinant DegenerateTetrahedron."""
    if len(vertices) != 4:
        raise ValueError(f"expected 4 vertices, got {len(vertices)}")
    v0, v1, v2, v3 = vertices
    d = dot3(sub3(v1, v0), cross3(sub3(v2, v0), sub3(v3, v0)))
    if d == 0:
        raise DegenerateTetrahedron(f"affinely dependent vertices: {vertices}")
    return d


@dataclass(frozen=True)
class Tetrahedron:
    """Four ordered vertices with strictly positive orientation.

    Positive orientation means the determinant of the edge vectors
    v1 - v0, v2 - v0, v3 - v0 is positive. ``det`` holds that determinant,
    six times the volume, computed from the vertices. Use :func:`orient`
    to construct one from an arbitrarily ordered vertex tuple.
    """

    vertices: tuple[Point3, Point3, Point3, Point3]
    det: Fraction | int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        vs = tuple(_read_points(self.vertices, 3))
        d = _edge_det(vs)
        if d < 0:
            raise ValueError("negatively oriented vertex order; build via orient()")
        self.__dict__.update(vertices=vs, det=d)


def orient(vertices: Sequence[Point3]) -> Tetrahedron:
    """Build a positively oriented tetrahedron from four points.

    A negatively oriented input is repaired by swapping the first two
    vertices; coplanar input raises :class:`DegenerateTetrahedron`. The
    one determinant computed is stored as the result's ``det``.
    """
    vs = tuple(_read_points(vertices, 3))
    d = _edge_det(vs)
    if d < 0:
        vs, d = (vs[1], vs[0], vs[2], vs[3]), -d
    t = object.__new__(Tetrahedron)
    t.__dict__.update(vertices=vs, det=d)
    return t


def _facet_cross_products(t: Tetrahedron) -> tuple[Vec3, Vec3, Vec3, Vec3]:
    """Outward facet normals of ``t``, each scaled to twice its facet's area.

    Each is the edge cross product of its facet, ordered so it points away
    from the omitted vertex; positive orientation of the tetrahedron makes
    this fixed pattern outward-correct with no per-facet side tests. Int
    vertices give int vectors. The order is that of
    :func:`facet_normal_set`.
    """
    v0, v1, v2, v3 = t.vertices
    return (
        cross3(sub3(v2, v0), sub3(v1, v0)),  # facet opposite v3
        cross3(sub3(v0, v3), sub3(v1, v3)),  # facet opposite v2
        cross3(sub3(v0, v2), sub3(v3, v2)),  # facet opposite v1
        cross3(sub3(v2, v1), sub3(v3, v1)),  # facet opposite v0
    )


def facet_normal_set(t: Tetrahedron) -> tuple[Vec3, Vec3, Vec3, Vec3]:
    """Outward facet normals of ``t``, each scaled to its facet's area:
    half of :func:`_facet_cross_products`.

    The squared length of each vector equals the squared area of its
    facet, and the four vectors sum to zero, as the area-scaled normals
    of any closed polytope do. The order is: facet opposite vertex 3,
    then opposite vertex 2, 1 and 0.
    """
    return tuple(tuple(Fraction(c, 2) for c in n) for n in _facet_cross_products(t))


def support(vertices: Iterable[Point3], u: Vec3) -> Fraction:
    """Support value of the hull of ``vertices`` in direction ``u``: the
    largest dot product with a vertex, positively homogeneous in ``u``."""
    return _support(_read_points(vertices, 3), *_read_points([u], 3))


def _support(vertices: Iterable[Point3], u: Vec3) -> Fraction:
    """:func:`support` on points and a direction already read."""
    u0, u1, u2 = u
    best: Fraction | None = None
    for v0, v1, v2 in vertices:
        d = v0 * u0 + v1 * u1 + v2 * u2
        if best is None or d > best:
            best = d
    if best is None:
        raise EmptyPolytope("support of an empty vertex list")
    return best


def tetra_volume(t: Tetrahedron) -> Fraction:
    """Volume of a tetrahedron: one sixth of its stored edge determinant."""
    return Fraction(t.det, 6)


# per-axis map from rational to lattice coordinates: (scales, shifts, divisors)
_AxisMap = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _clear_denominators(
    points: Sequence[Sequence[Fraction]], dim: int
) -> tuple[list[tuple[int, ...]], _AxisMap]:
    """Points on their smallest integer lattice and the per-axis map to it.

    Axis k is multiplied by the lcm s_k of its denominators, shifted by
    the minimum m_k of the products and divided by the gcd g_k of what
    remains (1 for an axis with one value): x_k becomes
    (s_k * x_k - m_k) / g_k. The map is a positive per-axis affine one,
    so it keeps incidences and facets, and the hull volume of the lattice
    points is prod(s_k / g_k) times the original one. Returned with the
    map as (scales, shifts, divisors). The points are trusted.
    """
    columns = []
    axes = []
    for k in range(dim):
        xs = [p[k] for p in points]
        s = lcm(*[x.denominator for x in xs])
        # an integral axis (s = 1) or a reduced one (g = 1) skips its no-op pass
        if s > 1:
            cs = [x.numerator * (s // x.denominator) for x in xs]
        else:
            cs = [x.numerator for x in xs]
        m = min(cs, default=0)
        ds = [c - m for c in cs]
        g = gcd(*ds) or 1
        columns.append([d // g for d in ds] if g > 1 else ds)
        axes.append((s, m, g))
    return list(zip(*columns)), tuple(zip(*axes))


def _lattice_points(
    points: Iterable[Sequence[Fraction]], dim: int
) -> tuple[list[tuple], list[tuple[int, ...]], _AxisMap]:
    """Deduplicated points, their lattice form and the per-axis map.

    See :func:`_clear_denominators`. Duplicates are dropped on the lattice
    form, keeping first occurrences in input order. Fewer than ``dim + 1``
    distinct points raise :class:`DegenerateHull`; more that still do not
    span ``dim`` dimensions are rejected by the facet scan that follows.
    The points may be any iterable; :func:`_read_points` reads them once.
    """
    points = _read_points(points, dim)
    ints, axes = _clear_denominators(points, dim)
    lattice: dict = {}
    for q, p in zip(ints, points):
        lattice.setdefault(q, p)
    if len(lattice) > dim:
        return list(lattice.values()), list(lattice), axes
    raise DegenerateHull(f"points do not span {dim} dimensions")


# what a facet scan yields per spanning subset: (outward normal, incident)
_Spanning = tuple[tuple[int, ...], tuple[int, ...]]


def _hull_facets(pts: Sequence[tuple[int, ...]]) -> list[_Spanning]:
    """Facets of the hull of distinct integer points in d = 3 or 4
    dimensions.

    Returns (normal, incident) per facet: the outward cofactor normal of
    its first spanning subset, not reduced, and the indices of the points
    on its hyperplane. Every d-subset is tested; one that spans a facet is
    kept once, in order of its first spanning subset. Two spanning subsets
    give the same facet exactly when they have the same incident points,
    since those points span the facet's hyperplane. In 3D the facets are
    those :func:`_scan3` yields. In 4D :func:`_scan4` computes every
    orientation and :func:`_facet_spec` reads the facets off their signs;
    each facet takes the normal that the scan computed for its subset, or
    :func:`_normal4`'s when the scan computed none, negated as read.

    Points that do not span d dimensions raise :class:`DegenerateHull`:
    in 3D either a spanning subset has every point on its plane or no
    subset spans a facet; in 4D, where :func:`_facet_spec` takes no
    subset with every point on its hyperplane, no subset spans a facet.
    """
    d = len(pts[0])
    if d == 4:
        normals, signs = _scan4(pts)
        spec = _facet_spec(len(pts), tuple(signs))
        if not spec:
            raise DegenerateHull("points do not span 4 dimensions")
        found = []
        for subset, rank, negate, incident in spec:
            n0, n1, n2, n3 = _normal4(pts, subset) if rank is None else normals[rank]
            found.append(((-n0, -n1, -n2, -n3) if negate else (n0, n1, n2, n3), incident))
        return found
    facets = {}
    for normal, incident in _scan3(pts):
        if len(incident) == len(pts):
            raise DegenerateHull(f"points do not span {d} dimensions")
        facets.setdefault(incident, normal)
    if not facets:
        raise DegenerateHull(f"points do not span {d} dimensions")
    return [(normal, incident) for incident, normal in facets.items()]


def _scan3(pts: Sequence[tuple[int, ...]]) -> Iterator[_Spanning]:
    """The 3-subsets of distinct integer points whose plane has every point
    weakly on one side, in lexicographic order, as (normal, incident): the
    subset's nonzero cofactor normal, negated when the other points lie on
    its positive side so that it points outward, and the sorted indices of
    the points on the plane. Both come from the one early-stopping side
    test of the module docstring: each ring entry carries its point index,
    and a zero side value adds that index to a list that starts with
    ``first``. ``cross3`` and the dot products are inline."""
    n = len(pts)
    for first in range(n - 2):
        b0, b1, b2 = pts[first]
        diffs = [(t, p0 - b0, p1 - b1, p2 - b2) for t, (p0, p1, p2) in enumerate(pts)]
        ring = diffs[:first] + diffs[first + 1 :]
        for i in range(first + 1, n - 1):
            _, x0, x1, x2 = diffs[i]
            for j in range(i + 1, n):
                _, y0, y1, y2 = diffs[j]
                n0 = x1 * y2 - x2 * y1
                n1 = x2 * y0 - x0 * y2
                n2 = x0 * y1 - x1 * y0
                if not (n0 or n1 or n2):
                    continue
                above = below = False
                on = [first]
                for q in ring:
                    t, q0, q1, q2 = q
                    s = n0 * q0 + n1 * q1 + n2 * q2
                    if s > 0:
                        if below:
                            break
                        above = True
                    elif s < 0:
                        if above:
                            break
                        below = True
                    else:
                        on.append(t)
                else:
                    on.sort()
                    yield ((-n0, -n1, -n2) if above else (n0, n1, n2)), tuple(on)
                    continue
                ring[ring.index(q)] = ring[0]
                ring[0] = q


def _scan4(pts: Sequence[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The first pass of the 4D facet scan, run on every call: the signs
    of the orientations of all C(n, 5) 5-subsets of distinct integer
    points, in lexicographic order, and the cofactor normals they are
    computed from, those of the 4-subsets with a later point (the
    4-subsets of the first n - 1 points), in lexicographic order.

    Entry m of a subset's normal is (-1)^m times the minor of its rows
    (i, j, k) of differences to its first point without column m,
    expanded along row k: the rows cycled to (k, i, j), an even
    permutation with the same minors, so the six 2x2 minors of rows i and
    j are computed once for every k. The orientation of each 5-subset is
    its first four points' normal against its last point. Which subsets
    span facets is read off these signs by :func:`_facet_spec`.
    """
    n = len(pts)
    normals = []
    signs = []
    for first in range(n - 4):
        b0, b1, b2, b3 = pts[first]
        # the points after ``first``, as differences to it
        rows = [(p0 - b0, p1 - b1, p2 - b2, p3 - b3) for p0, p1, p2, p3 in pts[first + 1 :]]
        last = len(rows)
        for i in range(last - 3):
            x0, x1, x2, x3 = rows[i]
            for j in range(i + 1, last - 2):
                y0, y1, y2, y3 = rows[j]
                m01 = x0 * y1 - x1 * y0
                m02 = x0 * y2 - x2 * y0
                m03 = x0 * y3 - x3 * y0
                m12 = x1 * y2 - x2 * y1
                m13 = x1 * y3 - x3 * y1
                m23 = x2 * y3 - x3 * y2
                for k in range(j + 1, last - 1):
                    z0, z1, z2, z3 = rows[k]
                    n0 = z1 * m23 - z2 * m13 + z3 * m12
                    n1 = z2 * m03 - z0 * m23 - z3 * m02
                    n2 = z0 * m13 - z1 * m03 + z3 * m01
                    n3 = z1 * m02 - z0 * m12 - z2 * m01
                    normals.append((n0, n1, n2, n3))
                    for q0, q1, q2, q3 in rows[k + 1 :]:
                        s = n0 * q0 + n1 * q1 + n2 * q2 + n3 * q3
                        signs.append((s > 0) - (s < 0))
    return normals, signs


def _normal4(pts: Sequence[tuple[int, ...]], subset: tuple[int, ...]) -> tuple[int, ...]:
    """The cofactor normal of a 4-subset of the points, entry for entry
    as :func:`_scan4` computes it: for a facet subset that holds the last
    point, whose normal the scan does not compute."""
    a, i, j, k = subset
    b0, b1, b2, b3 = pts[a]
    x0, x1, x2, x3 = pts[i]
    y0, y1, y2, y3 = pts[j]
    z0, z1, z2, z3 = pts[k]
    x0, x1, x2, x3 = x0 - b0, x1 - b1, x2 - b2, x3 - b3
    y0, y1, y2, y3 = y0 - b0, y1 - b1, y2 - b2, y3 - b3
    z0, z1, z2, z3 = z0 - b0, z1 - b1, z2 - b2, z3 - b3
    m01 = x0 * y1 - x1 * y0
    m02 = x0 * y2 - x2 * y0
    m03 = x0 * y3 - x3 * y0
    m12 = x1 * y2 - x2 * y1
    m13 = x1 * y3 - x3 * y1
    m23 = x2 * y3 - x3 * y2
    return (
        z1 * m23 - z2 * m13 + z3 * m12,
        z2 * m03 - z0 * m23 - z3 * m02,
        z0 * m13 - z1 * m03 + z3 * m01,
        z1 * m02 - z0 * m12 - z2 * m01,
    )


@lru_cache(maxsize=256)
def _facet_spec(n: int, signs: tuple[int, ...]) -> tuple[tuple, ...]:
    """The facets of n points in 4D, read off the signs of their
    orientations that :func:`_scan4` computes: per facet, in order of its
    first spanning subset, that subset, the rank of its normal among the
    scan's (None when the subset holds point n - 1), whether that normal
    is negated to point outward, and the facet's incident points.

    Point q at position p of a 5-subset lies on the side of the other four
    given by the subset's sign times (-1)^p: moving q to the end takes
    4 - p transpositions. A 4-subset with sides of both signs is no facet.
    One with no sign at all has a zero normal (the subset is dependent) or
    every point on its hyperplane (the input is flat), so flat input gives
    no facet. A pure function of the signs, so it runs once per sign
    table; boxes share a few dozen, and the last 256 are kept.
    """
    reads: dict[tuple[int, ...], list[tuple[int, int]]] = {
        subset: [] for subset in combinations(range(n), 4)
    }
    for sign, five in zip(signs, combinations(range(n), 5)):
        for p, q in enumerate(five):
            reads[five[:p] + five[p + 1 :]].append((q, -sign if p & 1 else sign))
    ranks = {subset: rank for rank, subset in enumerate(combinations(range(n - 1), 4))}
    facets: dict = {}
    for subset, sides in reads.items():
        seen = {s for _, s in sides}
        above = 1 in seen
        if above == (-1 in seen):
            continue
        incident = tuple(sorted((*subset, *(q for q, s in sides if not s))))
        facets.setdefault(incident, (subset, ranks.get(subset), above))
    return tuple((*spec, incident) for incident, spec in facets.items())


@lru_cache(maxsize=256)
def _pulling_simplices(facets: tuple[tuple[int, ...], ...], d: int) -> tuple[tuple[int, ...], ...]:
    """The simplices of a pulling triangulation of a d-polytope, each as
    d + 1 point indices, read from the incident point sets of its facets.
    A pure function of those sets, so it runs once per tuple of them and
    the last 256 are kept.

    The faces of a face F are the maximal proper sets among F & G over
    the facets G. A k-face with k + 1 points is a simplex; any other face
    is pulled from its lowest-index point v, that is, split into the
    pyramids from v over its faces that do not contain v, each of which is
    triangulated the same way. The polytope itself is pulled from point 0.
    Every simplex starts with point 0, then lists the points pulled on the
    way down, then a simplex face.
    """
    facets = [frozenset(f) for f in facets]

    def pull(cone: tuple[int, ...], faces: Iterable[frozenset]) -> Iterator[tuple[int, ...]]:
        for face in faces:
            if cone[-1] in face:
                continue
            if len(cone) + len(face) == d + 1:
                yield (*cone, *face)
                continue
            below = {face & g for g in facets}
            below.discard(face)
            maximal = [f for f in below if not any(f < g for g in below)]
            yield from pull((*cone, min(face)), maximal)

    return tuple(pull((0,), facets))


def _pulling_volume(pts: Sequence[tuple[int, ...]], simplices: Iterable[tuple[int, ...]]) -> int:
    """d! times the volume of the hull of integer points in d = 3 or 4
    dimensions, given the simplices of a triangulation that all start
    with point 0, as :func:`_pulling_simplices` gives them: the sum of
    |det| over the simplices of the rows p - pts[0]. Each determinant is
    written out: in 3D the first row against the cross product of the
    others, in 4D the Laplace expansion of the 2x2 minors of the first two
    rows against those of the last two."""
    if len(pts[0]) == 3:
        a0, a1, a2 = pts[0]
        rows = [(p0 - a0, p1 - a1, p2 - a2) for p0, p1, p2 in pts]
        total = 0
        for _, i, j, k in simplices:
            x0, x1, x2 = rows[i]
            y0, y1, y2 = rows[j]
            z0, z1, z2 = rows[k]
            d = x0 * (y1 * z2 - y2 * z1) + x1 * (y2 * z0 - y0 * z2) + x2 * (y0 * z1 - y1 * z0)
            total += d if d > 0 else -d
        return total
    a0, a1, a2, a3 = pts[0]
    rows = [(p0 - a0, p1 - a1, p2 - a2, p3 - a3) for p0, p1, p2, p3 in pts]
    total = 0
    for _, i, j, k, l in simplices:
        x0, x1, x2, x3 = rows[i]
        y0, y1, y2, y3 = rows[j]
        m01 = x0 * y1 - x1 * y0
        m02 = x0 * y2 - x2 * y0
        m03 = x0 * y3 - x3 * y0
        m12 = x1 * y2 - x2 * y1
        m13 = x1 * y3 - x3 * y1
        m23 = x2 * y3 - x3 * y2
        z0, z1, z2, z3 = rows[k]
        w0, w1, w2, w3 = rows[l]
        d = (
            m01 * (z2 * w3 - z3 * w2)
            - m02 * (z1 * w3 - z3 * w1)
            + m03 * (z1 * w2 - z2 * w1)
            + m12 * (z0 * w3 - z3 * w0)
            - m13 * (z0 * w2 - z2 * w0)
            + m23 * (z0 * w1 - z1 * w0)
        )
        total += d if d > 0 else -d
    return total


# per facet, (edge, g) for each facet g that it shares an edge with, in
# increasing g: the edge as the bitmask of its two vertices
_Edges = list[list[tuple[int, int]]]


def _closed_facets(
    n: int, facets: Sequence[tuple[int, ...]], subject: str
) -> tuple[list[int], Sequence[tuple[int, ...]], _Edges]:
    """The closure certificate of the module docstring, in one bitmask
    pass, for the facets of the hull of ``n`` points given as their
    incident points, ascending. Returns the vertices, ascending; the
    facets as the positions of their vertices in that list, ascending;
    and their edge table. Unless the facets close, raises
    :class:`InternalDisagreement` naming ``subject``."""
    bits = [1 << p for p in range(n)]
    masks = [sum(map(bits.__getitem__, incident)) for incident in facets]
    meet = [-1] * n  # all ones: the meet of no facets
    for mask, incident in zip(masks, facets):
        for p in incident:
            meet[p] &= mask
    vertices = [p for p in range(n) if meet[p] == bits[p]]
    # when every point is a vertex, as on nearly every body hull, each is its own position
    if len(vertices) < n:
        index = {p: v for v, p in enumerate(vertices)}
        facets = [tuple([index[p] for p in incident if p in index]) for incident in facets]
        masks = [sum(map(bits.__getitem__, incident)) for incident in facets]
    edges: _Edges = [[] for _ in facets]
    for f, mask in enumerate(masks):
        for g in range(f + 1, len(masks)):
            edge = mask & masks[g]
            if edge & (edge - 1):  # two or more vertices
                if edge.bit_count() > 2:
                    raise InternalDisagreement(
                        f"facets of {subject} do not close:"
                        f" facets {f} and {g} share {edge.bit_count()} vertices"
                    )
                edges[f].append((edge, g))
                edges[g].append((edge, f))
    for f, (incident, own) in enumerate(zip(facets, edges)):
        if len(own) != len(incident) or len(own) < 3:
            raise InternalDisagreement(
                f"facets of {subject} do not close: facet {f} has {len(own)} edge neighbours"
                f" for {len(incident)} vertices"
            )
    return vertices, facets, edges


def _edge_simplices(facets: Sequence[tuple[int, ...]], edges: _Edges) -> list[tuple[int, ...]]:
    """The pulling triangulation of a 3-polytope from vertex 0, read off
    the facets and the edge table that :func:`_closed_facets` returns: a
    facet that holds vertex 0 is skipped, a triangle F gives (0, *F), and
    any other facet is fanned from its lowest vertex v, as (0, v, *e) for
    each of its edges e that misses v. These are the simplices that
    :func:`_pulling_simplices` yields for ``d = 3``, with no face search."""
    simplices = []
    for incident, own in zip(facets, edges):
        v = incident[0]
        if v == 0:
            continue
        if len(incident) == 3:
            simplices.append((0, *incident))
            continue
        bit = 1 << v
        for e, _ in own:
            if not e & bit:
                simplices.append((0, v, (e & -e).bit_length() - 1, e.bit_length() - 1))
    return simplices


def _hull3(
    points: Iterable[Point3],
) -> tuple[list[tuple], _AxisMap, list[_Spanning], list[int], _Edges, Fraction]:
    """The hull of a 3D point set from one facet scan on its own lattice.

    Runs :func:`_lattice_points`, :func:`_hull_facets` and the closure
    certificate (:func:`_closed_facets`) once; the scan's side test has
    shown that each facet supports the points. Returns the distinct points
    read, first occurrences in input order; the per-axis map; the facets
    as (outward normal, incident) with indices into those points; the
    vertices and the edge table; and the exact volume, summed over
    :func:`_edge_simplices` and scaled back. Raises as
    :func:`hull_volume_3d` does.
    """
    pts, ipts, axes = _lattice_points(points, 3)
    facets = _hull_facets(ipts)
    vertices, closed, edges = _closed_facets(len(ipts), [f for _, f in facets], "the hull")
    lattice = _pulling_volume([ipts[v] for v in vertices], _edge_simplices(closed, edges))
    scales, _, divisors = axes
    return pts, axes, facets, vertices, edges, Fraction(lattice * prod(divisors), 6 * prod(scales))


def hull_volume_3d(points: Iterable[Point3]) -> Fraction:
    """Exact volume of the convex hull of a 3D point set.

    Duplicated points are ignored. The volume is summed over a pulling
    triangulation on the points' integer lattice and scaled back (see
    :func:`_hull3`). A set that does not span three dimensions, the empty
    one included, raises :class:`DegenerateHull`; flat input never reports
    volume zero. Facets that do not close, a bug, raise
    :class:`InternalDisagreement`.
    """
    return _hull3(points)[-1]
