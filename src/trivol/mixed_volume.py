"""Mixed volumes of 3D convex bodies, two independent ways.

For a polytope P and convex body K, the mixed volume V(P, P, K) equals one
third of K's support function summed over P's area-scaled outward facet
normals. ``mixed_volume_against`` evaluates that sum directly for a
tetrahedron P.

Independently, Vol(K + tL) is a cubic polynomial in t >= 0 whose
coefficients carry the mixed volumes:

    c0 = Vol(K), c1 = 3 V(K,K,L), c2 = 3 V(K,L,L), c3 = Vol(L).

``volume_cubic`` recovers the coefficients by exact interpolation of hull
volumes at t = 0, 1, 2, 3 (Newton's divided differences, expanded into
monomial coefficients), giving a route to the same quantities that never
touches a support function. The fitted c3 must equal Vol(L), computed
directly; a mismatch raises :class:`InternalDisagreement`.

The facet normals of K + L are read off the normal fans of K and L, with
no hull scan of the sums. For t > 0 the normal fan of K + tL is the
common refinement of the fans of K and L, which does not depend on t
(Schneider, *Convex Bodies*, section 2.4): the face in direction u is
F_K(u) + t F_L(u). So a facet's normal is a facet normal of K or of L,
or is perpendicular to an edge of each, and every candidate is a cross
product of two point differences of K or L. ``_sum_facets`` keeps the
extreme faces of the sums in the candidate directions that span a plane
(``_extreme_faces``). The face lattice of K + tL does not depend on t
either, and each vertex stays the sum k_i + t*l_j of one pair of points
(i, j): the pair of the unique vertices of K and L that are extreme in
the vertex's normal cone. The facets of K + L, restricted to its
vertices, and one pulling triangulation read from them serve every t;
only the vertex coordinates move. One pass over the pairs
(``_pair_sums``) forms every sum and the first pair of each. Two checks
certify this on every call, in the sense of McConnell, Mehlhorn, Naeher
and Schweitzer, "Certifying algorithms" (2011), at a cost of
O(facets * vertices) each:

* closure, once: every facet with m vertices shares exactly two vertices
  (an edge) with exactly m other facets, and no two facets share more.
  Every edge of a listed facet then borders another listed facet, and
  the facets of a 3-polytope are connected through their edges, so the
  list holds them all. Each listed face is a facet by construction, with
  every sum on its plane, so closure is what proves that the fan route
  missed none;
* support, at t = 2 and 3: each facet's vertices are exactly the ones
  with the largest, or the smallest, dot product with the normal of the
  plane through its first three (``_extreme_faces``).

Either failing raises :class:`InternalDisagreement`, with its own message.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Sequence

from .errors import DegenerateHull, EmptyPolytope, InternalDisagreement
from .geometry import (
    Point3,
    Tetrahedron,
    _clear_denominators,
    _facet_cross_products,
    _pulling_simplices,
    _pulling_volume,
    add3,
    cross3,
    hull_volume_3d,
    sub3,
    support,
)
from .rational import parse_rational

__all__ = [
    "VolumeCubic",
    "mixed_volume_against",
    "minkowski_sum_vertices",
    "volume_cubic",
    "fit_cubic",
]


@dataclass(frozen=True)
class VolumeCubic:
    """Coefficients of Vol(K + tL) = c0 + c1*t + c2*t^2 + c3*t^3."""

    c0: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction

    @property
    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2, self.c3)

    @property
    def v_kkl(self) -> Fraction:
        """Mixed volume V(K, K, L)."""
        return self.c1 / 3

    @property
    def v_kll(self) -> Fraction:
        """Mixed volume V(K, L, L)."""
        return self.c2 / 3

    def value_at(self, t: object) -> Fraction:
        s = parse_rational(t)
        return self.c0 + self.c1 * s + self.c2 * s * s + self.c3 * s * s * s


def mixed_volume_against(p: Tetrahedron, k: Iterable[Point3]) -> Fraction:
    """Mixed volume V(P, P, K) for a tetrahedron P and vertex set K: one
    sixth of :func:`_support_sum6`. K may be lower-dimensional (even a
    single point); it only enters through its support values, and is read
    once."""
    k = list(k)
    if not k:
        raise EmptyPolytope("mixed volume against an empty vertex list")
    return Fraction(_support_sum6(p, k), 6)


def _support_sum6(p: Tetrahedron, k: Sequence[Point3]):
    """6 V(P, P, K): K's support summed over P's doubled area-scaled facet
    normals (the facet cross products), with no division, so int input gives an int."""
    return sum(support(k, u) for u in _facet_cross_products(p))


def minkowski_sum_vertices(k: Iterable[Point3], l: Iterable[Point3]) -> list[Point3]:
    """All pairwise vertex sums of two point sets, deduplicated.

    The result is a superset of the vertices of the Minkowski sum of the
    two hulls; non-extreme sums are harmless to downstream hull code.
    Order is deterministic (first occurrence, k-major); each set is read once.
    A point that is not 3D, or a coordinate that is not an int or a
    Fraction, raises :class:`ValueError`.
    """
    k, l = list(k), list(l)
    if not k or not l:
        raise EmptyPolytope("Minkowski sum of an empty vertex list")
    _clear_denominators(k + l, 3)  # for its checks only
    seen = set()
    out: list[Point3] = []
    for p in k:
        for q in l:
            s = add3(p, q)
            if s not in seen:
                seen.add(s)
                out.append(s)
    return out


def fit_cubic(ts: Sequence[object], values: Sequence[object]) -> VolumeCubic:
    """Exact degree-3 interpolation through four (t, value) pairs read by
    :func:`parse_rational`: Newton's divided differences d0..d3, expanded
    into monomial coefficients by three Horner steps."""
    if len(ts) != 4 or len(values) != 4:
        raise ValueError("cubic interpolation needs exactly four nodes")
    x = [parse_rational(t) for t in ts]
    if len(set(x)) != 4:
        raise ValueError("interpolation nodes must be distinct")
    d = [parse_rational(v) for v in values]
    # in place, highest index first: d[i] becomes f[x_(i-k), ..., x_i]
    for k in range(1, 4):
        for i in range(3, k - 1, -1):
            d[i] = (d[i] - d[i - 1]) / (x[i] - x[i - k])
    # highest degree first; each step multiplies by (t - x_k) and adds d_k
    c = [d[3]]
    for k in (2, 1, 0):
        c = [a - x[k] * b for a, b in zip([*c, d[k]], [0, *c])]
    c3, c2, c1, c0 = c
    return VolumeCubic(c0, c1, c2, c3)


def _pair_sums(
    ik: Sequence[tuple[int, ...]], il: Sequence[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """The distinct lattice sums ik[i] + il[j] in k-major order of first
    occurrence, and the first (i, j) of each; in one pass over the pairs."""
    firsts: dict[tuple[int, ...], tuple[int, int]] = {}
    for i, (a0, a1, a2) in enumerate(ik):
        for j, (b0, b1, b2) in enumerate(il):
            firsts.setdefault((a0 + b0, a1 + b1, a2 + b2), (i, j))
    return list(firsts), list(firsts.values())


def _sum_facets(
    ik: Sequence[tuple[int, ...]],
    il: Sequence[tuple[int, ...]],
    sums: Sequence[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """The facets of K + L, as the ascending indices of the ``sums`` (as
    :func:`_pair_sums` returns them) on each; sorted.

    The normal fans of K and L give the candidate normals: the face of
    K + L in direction u is F_K(u) + F_L(u), so a facet's normal is a facet
    normal of K or of L, or is perpendicular to an edge of each: a cross
    product of two point differences of K or L. Each such product, made
    primitive with its sign fixed, is a candidate; the max and the min
    face of the sums in its direction (:func:`_extreme_faces`) are facets
    when they are not collinear. Nothing here shows that no facet is
    missed; the closure check in :func:`volume_cubic` does. Sums that do
    not span three dimensions raise :class:`DegenerateHull`, as in
    :func:`trivol.geometry._hull_facets`.
    """
    diffs = list({
        (q0 - p0, q1 - p1, q2 - p2)
        for body in (ik, il)
        for a, (p0, p1, p2) in enumerate(body)
        for q0, q1, q2 in body[a + 1 :]
    })
    normals = set()
    for a, (x0, x1, x2) in enumerate(diffs):
        for y0, y1, y2 in diffs[a + 1 :]:
            n0 = x1 * y2 - x2 * y1
            n1 = x2 * y0 - x0 * y2
            n2 = x0 * y1 - x1 * y0
            if n0 or n1 or n2:
                g = gcd(n0, n1, n2)
                if n0 < 0 or not n0 and (n1 < 0 or not n1 and n2 < 0):
                    g = -g  # the first nonzero entry becomes positive
                normals.add((n0 // g, n1 // g, n2 // g))
    facets = []
    for u in normals:
        for incident in _extreme_faces(sums, u):
            if len(incident) == len(sums):
                raise DegenerateHull("points do not span 3 dimensions")
            if len(incident) < 3:
                continue
            a, b, *rest = (sums[s] for s in incident)
            ab = sub3(b, a)
            if any(any(cross3(ab, sub3(c, a))) for c in rest):
                facets.append(tuple(incident))
    if not facets:
        raise DegenerateHull("points do not span 3 dimensions")
    facets.sort()
    return facets


def _extreme_faces(
    body: Sequence[tuple[int, ...]], u: tuple[int, int, int]
) -> tuple[list[int], list[int]]:
    """The indices of the points of ``body`` with the largest and with the
    smallest dot product with ``u``, in one pass."""
    u0, u1, u2 = u
    hi = lo = None
    top, bottom = [], []
    for i, (p0, p1, p2) in enumerate(body):
        d = u0 * p0 + u1 * p1 + u2 * p2
        if hi is None or d > hi:
            hi, top = d, [i]
        elif d == hi:
            top.append(i)
        if lo is None or d < lo:
            lo, bottom = d, [i]
        elif d == lo:
            bottom.append(i)
    return top, bottom


def _vertex_facets(
    n: int, facets: Sequence[tuple[int, ...]]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """The vertices among ``n`` points and each facet's incident vertices.

    A point is a vertex iff the facets incident to it meet in it alone.
    Returns the vertex indices in ascending order and, per facet, the
    positions in that list of its incident vertices, ascending.
    """
    masks = [sum(1 << p for p in incident) for incident in facets]
    meet = [-1] * n  # all ones: the meet of no facets
    for mask, incident in zip(masks, facets):
        for p in incident:
            meet[p] &= mask
    vertices = [p for p in range(n) if meet[p] == 1 << p]
    index = {p: v for v, p in enumerate(vertices)}
    return vertices, [tuple(index[p] for p in incident if p in index) for incident in facets]


def _check_closed(facets: Sequence[tuple[int, ...]]) -> None:
    """Raise unless every facet with m vertices shares exactly two
    vertices with exactly m other facets, and no two facets share more
    than two: each edge of each polygon borders one other listed facet."""
    masks = [sum(1 << v for v in incident) for incident in facets]
    edges = [0] * len(facets)
    for f, mask in enumerate(masks):
        for g in range(f + 1, len(masks)):
            shared = (mask & masks[g]).bit_count()
            if shared > 2:
                raise InternalDisagreement(
                    f"facets of K + L do not close: facets {f} and {g} share {shared} vertices"
                )
            if shared == 2:
                edges[f] += 1
                edges[g] += 1
    for f, (incident, neighbours) in enumerate(zip(facets, edges)):
        if neighbours != len(incident) or neighbours < 3:
            raise InternalDisagreement(
                f"facets of K + L do not close: facet {f} has {neighbours} edge neighbours"
                f" for {len(incident)} vertices"
            )


def _check_planes(
    placed: Sequence[tuple[int, ...]], facets: Sequence[tuple[int, ...]], t: int
) -> None:
    """Raise unless the plane through each facet's first three placed
    vertices has every vertex weakly on one side and holds exactly that
    facet's vertices: they are one of its two extreme faces."""
    for f, incident in enumerate(facets):
        a, b, c = (placed[v] for v in incident[:3])
        top, bottom = _extreme_faces(placed, cross3(sub3(b, a), sub3(c, a)))
        if list(incident) not in (top, bottom):
            raise InternalDisagreement(
                f"facet {f} does not support K + {t}L: its vertices {list(incident)} are"
                f" neither extreme face {top} nor {bottom} of its plane"
            )


def volume_cubic(k: Iterable[Point3], l: Iterable[Point3]) -> VolumeCubic:
    """Coefficients of Vol(K + tL) from Vol(K) and the facets of K + L.

    Both vertex sets must span three dimensions; a flat body raises
    :class:`DegenerateHull` rather than being special-cased. The sums are
    formed on the integer lattice of K and L together (see
    :func:`trivol.geometry._clear_denominators`): a positive per-axis
    affine map commutes with Minkowski sums up to a translation, so each
    sum's volume is its lattice volume times one factor. The facets of
    K + L are read off the normal fans of K and L (:func:`_sum_facets`);
    its vertices, each the sum of one (i, j) pair, are placed at
    k_i + t*l_j for t = 2 and 3, checked (see the module docstring), and
    measured over the one pulling triangulation. Each set is read once.
    """
    k, l = list(k), list(l)
    volumes = []
    for name, body in (("k", k), ("l", l)):
        if not body:
            raise EmptyPolytope(f"empty vertex list for body {name}")
        try:
            volumes.append(hull_volume_3d(body))
        except DegenerateHull as exc:
            raise DegenerateHull(f"body {name} does not span three dimensions") from exc
    ipts, (scales, _, divisors) = _clear_denominators([*k, *l], 3)
    ik, il = ipts[: len(k)], ipts[len(k) :]
    unit = Fraction(prod(divisors), 6 * prod(scales))
    sums, firsts = _pair_sums(ik, il)
    vertices, facets = _vertex_facets(len(sums), _sum_facets(ik, il, sums))
    _check_closed(facets)
    simplices = list(_pulling_simplices(facets, 3))
    # the check above already found Vol(K + 0L) = Vol(K)
    placed = [sums[p] for p in vertices]
    values = [volumes[0], _pulling_volume(placed, simplices) * unit]
    pairs = [(ik[i], il[j]) for i, j in (firsts[p] for p in vertices)]
    for t in (2, 3):
        placed = [(a0 + t * b0, a1 + t * b1, a2 + t * b2) for (a0, a1, a2), (b0, b1, b2) in pairs]
        _check_planes(placed, facets, t)
        values.append(_pulling_volume(placed, simplices) * unit)
    cubic = fit_cubic((0, 1, 2, 3), values)
    # the leading coefficient is Vol(L), which the check above also found
    if cubic.c3 != volumes[1]:
        raise InternalDisagreement(f"fitted c3 = {cubic.c3} != Vol(L) = {volumes[1]}")
    return cubic
