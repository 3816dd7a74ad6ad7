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
lies on one side. The side test of a subset stops at the first point on
the side opposite to one already seen, and the point that refuted the
previous subset is tried first; a subset that spans takes its incident
points and outward normal from that same pass: 5.0 dot products per
subset with a nonzero normal on the oracle's eight-point box graphs (345
over 69 per hull). The scan is written out for each of d = 3 and 4.
The volume is a sum of simplex determinants, also written out for each
d, over a pulling triangulation, which reads only the facets' incident
point sets: the faces below a facet are intersections of facets, so no
hull is ever taken in a lower dimension. At the scale this package
works with (a few dozen points) that is fast enough, and it avoids the
degeneracy handling an incremental hull algorithm would need to get
exact answers. Flat input is found by the same scan, with no separate
rank test.
In 3D the scan, the triangulation and the volume are one private
kernel, :func:`_hull3`, which also returns the facets and the per-axis
map: ``trivol.mixed_volume.volume_cubic`` hulls each body once through
it and reads the body's normal fan off those facets. It sums the same
determinants over a triangulation of K + tL that it reads off the edges
that certify its facets instead (see that module).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from numbers import Rational
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateHull, DegenerateTetrahedron, EmptyPolytope
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
    on its hyperplane, both as the scan for d (:func:`_scan3` or
    :func:`_scan4`) yields them. Every d-subset is tested; one that spans
    a facet is kept once, in order of its first spanning subset. Two
    spanning subsets give the same facet exactly when they have the same
    incident points, since those points span the facet's hyperplane.

    Points that do not span d dimensions raise :class:`DegenerateHull`:
    either a spanning subset has every point on its hyperplane, or no
    subset spans a facet.
    """
    d = len(pts[0])
    facets = {}
    for normal, incident in _SCANS[d](pts):
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


def _scan4(pts: Sequence[tuple[int, ...]]) -> Iterator[_Spanning]:
    """:func:`_scan3` for d = 4: (outward normal, incident) per spanning
    4-subset from its one side-test pass, with the cofactor normal and
    the dot products inline.

    The normal of rows (i, j, k) is their signed maximal minors (entry m
    is (-1)^m times the minor without column m), expanded along row k: the
    rows cycled to (k, i, j), an even permutation with the same minors, so
    the six 2x2 minors of rows i and j are computed once for every k.
    """
    n = len(pts)
    for first in range(n - 3):
        b0, b1, b2, b3 = pts[first]
        diffs = [(t, p0 - b0, p1 - b1, p2 - b2, p3 - b3) for t, (p0, p1, p2, p3) in enumerate(pts)]
        ring = diffs[:first] + diffs[first + 1 :]
        for i in range(first + 1, n - 2):
            _, x0, x1, x2, x3 = diffs[i]
            for j in range(i + 1, n - 1):
                _, y0, y1, y2, y3 = diffs[j]
                m01 = x0 * y1 - x1 * y0
                m02 = x0 * y2 - x2 * y0
                m03 = x0 * y3 - x3 * y0
                m12 = x1 * y2 - x2 * y1
                m13 = x1 * y3 - x3 * y1
                m23 = x2 * y3 - x3 * y2
                for k in range(j + 1, n):
                    _, z0, z1, z2, z3 = diffs[k]
                    n0 = z1 * m23 - z2 * m13 + z3 * m12
                    n1 = z2 * m03 - z0 * m23 - z3 * m02
                    n2 = z0 * m13 - z1 * m03 + z3 * m01
                    n3 = z1 * m02 - z0 * m12 - z2 * m01
                    if not (n0 or n1 or n2 or n3):
                        continue
                    above = below = False
                    on = [first]
                    for q in ring:
                        t, q0, q1, q2, q3 = q
                        s = n0 * q0 + n1 * q1 + n2 * q2 + n3 * q3
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
                        yield ((-n0, -n1, -n2, -n3) if above else (n0, n1, n2, n3)), tuple(on)
                        continue
                    ring[ring.index(q)] = ring[0]
                    ring[0] = q


_SCANS = {3: _scan3, 4: _scan4}


def _pulling_simplices(facets: Sequence[Sequence[int]], d: int) -> Iterator[tuple[int, ...]]:
    """The simplices of a pulling triangulation of a d-polytope, each as
    d + 1 point indices, read from the incident point sets of its facets.

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

    return pull((0,), facets)


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


def _hull3(points: Iterable[Point3]) -> tuple[_AxisMap, list[_Spanning], Fraction]:
    """The hull of a 3D point set from one facet scan on its own lattice.

    Runs :func:`_lattice_points` and :func:`_hull_facets` once and returns
    the per-axis map, the facets as (outward normal, incident) on the
    deduplicated lattice points, and the exact volume, summed over a
    pulling triangulation (see :func:`_pulling_simplices`) and scaled
    back. Raises as :func:`hull_volume_3d` does.
    """
    _, ipts, axes = _lattice_points(points, 3)
    facets = _hull_facets(ipts)
    scales, _, divisors = axes
    simplices = _pulling_simplices([incident for _, incident in facets], 3)
    volume = Fraction(_pulling_volume(ipts, simplices) * prod(divisors), 6 * prod(scales))
    return axes, facets, volume


def hull_volume_3d(points: Iterable[Point3]) -> Fraction:
    """Exact volume of the convex hull of a 3D point set.

    Duplicated points are ignored. The volume is summed over a pulling
    triangulation on the points' integer lattice and scaled back (see
    :func:`_hull3`). A set that does not span three dimensions, the empty
    one included, raises :class:`DegenerateHull`; flat input never reports
    volume zero.
    """
    return _hull3(points)[2]
