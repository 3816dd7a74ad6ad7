"""Mixed volumes of 3D convex bodies, two independent ways.

For a polytope P and convex body K, the mixed volume V(P, P, K) equals one
third of K's support function summed over P's area-scaled outward facet
normals. ``mixed_volume_against`` evaluates that sum directly for a
tetrahedron P.

Independently, Vol(K + tL) is a cubic polynomial in t >= 0 whose
coefficients carry the mixed volumes:

    c0 = Vol(K), c1 = 3 V(K,K,L), c2 = 3 V(K,L,L), c3 = Vol(L).

``volume_cubic`` recovers the coefficients by exact interpolation of hull
volumes at t = 0, 1, 2, 3, giving a route to the same quantities that
never touches a support function. At t = 1, 2, 3 the volumes come as
ints P_t = Vol(K + tL) / unit, six times a lattice volume, where unit is
the volume of a unit lattice simplex mapped back; P_0 = Vol(K) / unit.
The coefficients are the forward differences of P_0..P_3, expanded
into monomial coefficients:

    c1 = (-11 P_0 + 18 P_1 - 9 P_2 + 2 P_3) unit / 6,
    c2 = (2 P_0 - 5 P_1 + 4 P_2 - P_3) unit / 2,
    c3 = (-P_0 + 3 P_1 - 3 P_2 + P_3) unit / 6.

The fitted c3 must equal Vol(L), computed directly; a mismatch raises
:class:`InternalDisagreement`. (:func:`fit_cubic` is the general
interpolator through any four nodes.)

The facets of K + L are read off the overlay of the normal fans of K and
L, with no hull scan of the sums. For t > 0 the normal fan of K + tL is
the common refinement of the fans of K and L, which does not depend on t
(Schneider, *Convex Bodies*, section 2.4; Fukuda, "From the zonotope
construction to the Minkowski addition of convex polytopes", 2004): the
face in direction u is F_K(u) + t F_L(u). So a facet's normal is a facet
normal of K or of L, or is the cross product of an edge direction of
each that lies strictly inside both edges' normal cones.
Each body is hulled once, on its own lattice (``geometry._hull3``),
which gives its volume, its facets and its edge table; the facet
normals are moved to the lattice of K and L together by positive
per-axis weights (``_joint_facets``), so no body is scanned twice.
``_sum_facets`` forms one candidate face per facet of K or of L and per
such pair of edges (``_fan``): O(f_K + f_L + e_K * e_L) candidates for
f facets and e edges, none of which scans the sums.
The face lattice of K + tL does not depend on t either, and each
vertex stays the sum k_i + t*l_j of exactly one pair of distinct points
(i, j): the pair of the unique vertices of K and L that are extreme in
the vertex's normal cone. So a point of K + L is named by its pair,
the id i * |L| + j, and no sum is formed or deduplicated; sums that
coincide are never vertices. The facets of K + L, restricted to its
vertices, and one pulling triangulation read from them serve every t;
only the vertex coordinates move. Two checks certify this on every
call, at a cost of O(facets * vertices) each:

* closure, once: the certificate of the ``trivol.geometry`` docstring
  (``geometry._closed_facets``), whose edge table gives the
  triangulation. Each candidate is a facet by construction, so closure
  proves that the fan route missed none;
* support, at t = 2 and 3: the plane through each facet's first three
  vertices has every vertex weakly on one side and holds exactly that
  facet's vertices, in one side-test pass per facet (``_check_planes``).
  A body's own facets need none: its scan's side test is that check.

Either failing raises :class:`InternalDisagreement`, with its own message.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

from .errors import DegenerateHull, EmptyPolytope, InternalDisagreement
from .geometry import (
    Point3,
    Tetrahedron,
    _AxisMap,
    _clear_denominators,
    _closed_facets,
    _edge_simplices,
    _Edges,
    _facet_cross_products,
    _hull3,
    _pulling_volume,
    _read_points,
    _Spanning,
    _support,
    cross3,
    dot3,
    sub3,
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
    k = _read_points(k, 3)
    if not k:
        raise EmptyPolytope("mixed volume against an empty vertex list")
    return Fraction(_support_sum6(p, k), 6)


def _support_sum6(p: Tetrahedron, k: Sequence[Point3]):
    """6 V(P, P, K): K's support summed over P's doubled area-scaled facet
    normals (the facet cross products), with no division, so int input
    gives an int. K is trusted: the pipeline builds its own int points."""
    return sum(_support(k, u) for u in _facet_cross_products(p))


def minkowski_sum_vertices(k: Iterable[Point3], l: Iterable[Point3]) -> list[Point3]:
    """All pairwise vertex sums of two point sets, deduplicated.

    The result is a superset of the vertices of the Minkowski sum of the
    two hulls; non-extreme sums are harmless to downstream hull code.
    Order is deterministic (first occurrence, k-major); each set is read once.
    """
    k, l = _read_points(k, 3), _read_points(l, 3)
    if not k or not l:
        raise EmptyPolytope("Minkowski sum of an empty vertex list")
    sums = ((p0 + q0, p1 + q1, p2 + q2) for p0, p1, p2 in k for q0, q1, q2 in l)
    return list(dict.fromkeys(sums))


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


def _joint_facets(
    facets: Sequence[_Spanning], own: _AxisMap, joint: _AxisMap
) -> list[_Spanning]:
    """A body's facets, (outward normal, incident) on its own lattice, with
    each normal moved to the joint lattice of K and L.

    Axis k maps x to (s_k x - m_k) / g_k on the body's own lattice and to
    (S_k x - M_k) / G_k on the joint one (see
    :func:`trivol.geometry._clear_denominators`), so a normal n on the
    own lattice is n_k s_k G_k / (g_k S_k) on the joint one: times the
    product of all S_j g_j, the positive int weight
    s_k G_k prod(S_j g_j for j != k). Positive weights keep each normal
    outward. The joint points are the body's distinct points as
    :func:`trivol.geometry._hull3` returns them, so the incident indices
    hold on them too.
    """
    (s, _, g), (joint_s, _, joint_g) = own, joint
    w0, w1, w2 = (
        s[k] * joint_g[k] * prod(joint_s[j] * g[j] for j in range(3) if j != k) for k in range(3)
    )
    return [((n0 * w0, n1 * w1, n2 * w2), incident) for (n0, n1, n2), incident in facets]


# a body's facets on the joint lattice, its vertices and its edge table
_Body = tuple[Sequence[_Spanning], Sequence[int], _Edges]


def _sum_facets(
    ik: Sequence[tuple[int, ...]], il: Sequence[tuple[int, ...]], body_k: _Body, body_l: _Body
) -> list[tuple[int, ...]]:
    """The facets of K + L, each as the ascending pair ids
    i * len(il) + j of the sums k_i + l_j on it; sorted.

    K and L must span three dimensions: ``ik`` and ``il`` are their
    distinct points on the joint lattice, and ``body_k`` and ``body_l``
    their facets as (outward normal, incident) there
    (:func:`_joint_facets`), with the vertices and the edge table from
    :func:`trivol.geometry._hull3`. The facet normals are the rays of each
    body's normal fan, and :func:`_fan` gives its 2D cones. The face in
    direction u is F_K(u) + F_L(u), so the candidates are:

    * each facet of K, with the points of L extreme along its normal, and
      the same with K and L swapped;
    * each pair of 2D cones, one from each fan, whose edge directions
      have a cross product that, with one sign, lies strictly inside
      both; the face is then the cone's face of K plus that of L.

    That is O(f_K + f_L + e_K * e_L) candidates for f facets and e edges,
    each named by :func:`_sum_face`, and no sum is formed or scanned.
    Each candidate is a facet: a facet of one body plus a face of the
    other, or two edges that are not parallel. Nothing here shows that no
    facet is missed; the closure check in :func:`volume_cubic` does.
    """
    n = len(il)
    (facets_k, *_), (facets_l, *_) = body_k, body_l
    faces = {_sum_face(n, face, _top_face(il, u)) for u, face in facets_k}
    faces.update(_sum_face(n, _top_face(ik, u), face) for u, face in facets_l)
    cones_l = _fan(il, body_l)
    # e x f lies strictly inside cone(n, m) around e iff f.n > 0 > f.m, and
    # inside cone(n', m') around f iff e.n' < 0 < e.m' (see _fan); -(e x f)
    # iff all four signs flip
    for (e0, e1, e2), (n0, n1, n2), (m0, m1, m2), face_k in _fan(ik, body_k):
        for (f0, f1, f2), (p0, p1, p2), (q0, q1, q2), face_l in cones_l:
            a = f0 * n0 + f1 * n1 + f2 * n2
            b = f0 * m0 + f1 * m1 + f2 * m2
            if a > 0 > b:
                if e0 * p0 + e1 * p1 + e2 * p2 >= 0 or e0 * q0 + e1 * q1 + e2 * q2 <= 0:
                    continue
            elif a < 0 < b:
                if e0 * p0 + e1 * p1 + e2 * p2 <= 0 or e0 * q0 + e1 * q1 + e2 * q2 >= 0:
                    continue
            else:
                continue
            faces.add(_sum_face(n, face_k, face_l))
    return sorted(faces)


def _sum_face(n: int, face_k: Iterable[int], face_l: Iterable[int]) -> tuple[int, ...]:
    """One candidate face of K + L, for n points of L: the ascending pair
    ids i * n + j of the sums k_i + l_j for i in ``face_k`` and j in
    ``face_l``."""
    return tuple(sorted(i * n + j for i in face_k for j in face_l))


def _fan(pts: Sequence[tuple[int, ...]], body: _Body) -> list[tuple]:
    """The 2D cones of the normal fan of a 3-polytope on the distinct
    integer points ``pts``, one per edge in the edge table of ``body``
    (see :func:`_sum_facets`); the facet normals are the fan's rays.

    The edge of facets f and g has cone(n_f, n_g) and as its face its two
    end vertices: a sum with a point inside it is no vertex of K + L, and
    the closure check drops it either way. It is given as (e, n_f, n_g,
    face), with the edge direction e signed so that det(n_f, n_g, e) > 0.
    Then a vector u perpendicular to e lies strictly inside the cone iff
    u.(e x n_f) > 0 and u.(n_g x e) > 0, and for u = e x f these are
    |e|^2 f.n_f > 0 and -|e|^2 f.n_g > 0.
    """
    facets, vertices, edges = body
    cones = []
    for f, own in enumerate(edges):
        nf = facets[f][0]
        for edge, g in own:
            if g > f:
                p, q = vertices[(edge & -edge).bit_length() - 1], vertices[edge.bit_length() - 1]
                e = sub3(pts[q], pts[p])
                ng = facets[g][0]
                if dot3(cross3(nf, ng), e) < 0:
                    e = sub3(pts[p], pts[q])
                cones.append((e, nf, ng, (p, q)))
    return cones


def _top_face(body: Sequence[tuple[int, ...]], u: tuple[int, int, int]) -> list[int]:
    """The indices of the points of ``body`` with the largest dot product
    with ``u``."""
    u0, u1, u2 = u
    hi, top = None, []
    for i, (p0, p1, p2) in enumerate(body):
        d = u0 * p0 + u1 * p1 + u2 * p2
        if hi is None or d > hi:
            hi, top = d, [i]
        elif d == hi:
            top.append(i)
    return top


def _check_planes(
    placed: Sequence[tuple[int, ...]], facets: Sequence[tuple[int, ...]], t: int
) -> None:
    """Raise unless the plane through each facet's first three placed
    vertices has every vertex weakly on one side and holds exactly that
    facet's vertices: they are one of its two extreme faces.

    One side-test pass per facet, written as in
    :func:`trivol.geometry._scan3`: the cross product once, then per
    vertex its side of the plane, stopping at the first vertex on the
    side opposite to one already seen, and the indices of those on it.
    The extreme faces, along the normal and against it, are formed
    (:func:`_top_face`) only for the message of a facet that fails."""
    for f, incident in enumerate(facets):
        i, j, k = incident[:3]
        a0, a1, a2 = placed[i]
        b0, b1, b2 = placed[j]
        c0, c1, c2 = placed[k]
        x0, x1, x2 = b0 - a0, b1 - a1, b2 - a2
        y0, y1, y2 = c0 - a0, c1 - a1, c2 - a2
        n0 = x1 * y2 - x2 * y1
        n1 = x2 * y0 - x0 * y2
        n2 = x0 * y1 - x1 * y0
        # the plane's level: a vertex is above, below or on it
        h = n0 * a0 + n1 * a1 + n2 * a2
        above = below = False
        on = []
        for v, (p0, p1, p2) in enumerate(placed):
            s = n0 * p0 + n1 * p1 + n2 * p2
            if s > h:
                if below:
                    break
                above = True
            elif s < h:
                if above:
                    break
                below = True
            else:
                on.append(v)
        else:
            if on == list(incident):
                continue
        top, bottom = _top_face(placed, (n0, n1, n2)), _top_face(placed, (-n0, -n1, -n2))
        raise InternalDisagreement(
            f"facet {f} does not support K + {t}L: its vertices {list(incident)} are"
            f" neither extreme face {top} nor {bottom} of its plane"
        )


def volume_cubic(k: Iterable[Point3], l: Iterable[Point3]) -> VolumeCubic:
    """Coefficients of Vol(K + tL) from Vol(K) and the facets of K + L.

    Both vertex sets must span three dimensions; a flat body raises
    :class:`DegenerateHull` rather than being special-cased. Each body is
    hulled once (:func:`trivol.geometry._hull3`). The sums are formed on
    the integer lattice of K and L together (see
    :func:`trivol.geometry._clear_denominators`): a positive per-axis
    affine map commutes with Minkowski sums up to a translation, so each
    sum's volume is its lattice volume times one factor. The facets of
    K + L, read off the normal fans (:func:`_sum_facets`), are closed up
    and triangulated as the module docstring says. Each vertex, named by its pair id i * |L| + j
    over the distinct points that ``_hull3`` returns, is placed at
    k_i + t*l_j for t = 1, 2 and 3, checked at t = 2 and 3, and measured
    on the lattice. The coefficients are the forward differences of these
    integer volumes and Vol(K). Each set is read, and its duplicates
    dropped, once, K first.
    """
    hulls = []
    for body, name in zip((k, l), "kl"):
        # _hull3 reads the points; only the empty check comes first
        body = list(body)
        if not body:
            raise EmptyPolytope(f"empty vertex list for body {name}")
        try:
            hulls.append(_hull3(body))
        except DegenerateHull as exc:
            raise DegenerateHull(f"body {name} does not span three dimensions") from exc
    (k, axes_k, facets_k, *fan_k, vol_k), (l, axes_l, facets_l, *fan_l, vol_l) = hulls
    ipts, axes = _clear_denominators([*k, *l], 3)
    ik, il = ipts[: len(k)], ipts[len(k) :]
    body_k = (_joint_facets(facets_k, axes_k, axes), *fan_k)
    body_l = (_joint_facets(facets_l, axes_l, axes), *fan_l)
    facets = _sum_facets(ik, il, body_k, body_l)
    vertices, facets, edges = _closed_facets(len(ik) * len(il), facets, "K + L")
    simplices = _edge_simplices(facets, edges)
    pairs = [(ik[i], il[j]) for i, j in (divmod(p, len(il)) for p in vertices)]
    # P_t = Vol(K + tL) / unit for t = 1, 2, 3
    ps = []
    for t in (1, 2, 3):
        placed = [(a0 + t * b0, a1 + t * b1, a2 + t * b2) for (a0, a1, a2), (b0, b1, b2) in pairs]
        if t > 1:
            _check_planes(placed, facets, t)
        ps.append(_pulling_volume(placed, simplices))
    p1, p2, p3 = ps
    # the forward differences as monomial coefficients, one fraction each:
    # unit = num / den, and P_0 unit = Vol(K) = vn / vd
    scales, _, divisors = axes
    num, den, vn, vd = prod(divisors), 6 * prod(scales), vol_k.numerator, vol_k.denominator
    cubic = VolumeCubic(
        vol_k,
        Fraction((18 * p1 - 9 * p2 + 2 * p3) * num * vd - 11 * vn * den, 6 * den * vd),
        Fraction((4 * p2 - 5 * p1 - p3) * num * vd + 2 * vn * den, 2 * den * vd),
        Fraction((3 * p1 - 3 * p2 + p3) * num * vd - vn * den, 6 * den * vd),
    )
    # the leading coefficient is Vol(L), which the check above also found
    if cubic.c3 != vol_l:
        raise InternalDisagreement(f"fitted c3 = {cubic.c3} != Vol(L) = {vol_l}")
    return cubic
