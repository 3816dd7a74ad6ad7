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
which gives its volume and its facets; the facet normals are moved to
the lattice of K and L together by positive per-axis weights
(``_joint_facets``), so no body is scanned twice. ``_sum_facets`` reads
the edges off those facets (``_fan``) and forms one candidate face per
facet of K or of L and per such pair of edges: O(f_K + f_L + e_K * e_L)
candidates for f facets and e edges, none of which scans the sums.
The face lattice of K + tL does not depend on t either, and each
vertex stays the sum k_i + t*l_j of one pair of points (i, j): the
pair of the unique vertices of K and L that are extreme in the
vertex's normal cone. The facets of K + L, restricted to its
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
  missed none. The check returns the edges it proved, and the pulling
  triangulation is read off that table (``_edge_simplices``): each facet
  that misses vertex 0 is a triangle, or a fan from its lowest vertex
  over its edges;
* support, at t = 2 and 3: the plane through each facet's first three
  vertices has every vertex weakly on one side and holds exactly that
  facet's vertices, in one side-test pass per facet (``_check_planes``).

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
    outward. Both lattices drop the same duplicates, in input order, so
    the incident indices hold on the joint points too.
    """
    (s, _, g), (joint_s, _, joint_g) = own, joint
    w0, w1, w2 = (
        s[k] * joint_g[k] * prod(joint_s[j] * g[j] for j in range(3) if j != k) for k in range(3)
    )
    return [((n0 * w0, n1 * w1, n2 * w2), incident) for (n0, n1, n2), incident in facets]


def _sum_facets(
    ik: Sequence[tuple[int, ...]],
    il: Sequence[tuple[int, ...]],
    sums: Sequence[tuple[int, ...]],
    facets_k: Sequence[_Spanning],
    facets_l: Sequence[_Spanning],
) -> list[tuple[int, ...]]:
    """The facets of K + L, as the ascending indices of the ``sums`` (as
    :func:`_pair_sums` returns them) on each; sorted.

    K and L must span three dimensions, and ``facets_k`` and ``facets_l``
    are their facets as (outward normal, incident) on the joint lattice
    (:func:`_joint_facets`), with the incident indices into the
    deduplicated ``ik`` and ``il``. The facet normals are the rays of each
    body's normal fan, and :func:`_fan` gives its 2D cones. The face in
    direction u is F_K(u) + F_L(u), so the candidates are:

    * each facet of K, with the points of L extreme along its normal, and
      the same with K and L swapped;
    * each pair of 2D cones, one from each fan, whose edge directions
      have a cross product that, with one sign, lies strictly inside
      both; the face is then the cone's face of K plus that of L.

    That is O(f_K + f_L + e_K * e_L) candidates for f facets and e edges,
    each mapped to ``sums`` by :func:`_sum_face`, and no scan of the sums.
    Each candidate is a facet: a facet of one body plus a face of the
    other, or two edges that are not parallel. Nothing here shows that no
    facet is missed; the closure check in :func:`volume_cubic` does.
    """
    pk, pl = list(dict.fromkeys(ik)), list(dict.fromkeys(il))
    index = {s: n for n, s in enumerate(sums)}
    at = [[index[a0 + b0, a1 + b1, a2 + b2] for b0, b1, b2 in pl] for a0, a1, a2 in pk]
    faces = {_sum_face(at, face, _extreme_faces(pl, u)[0]) for u, face in facets_k}
    faces.update(_sum_face(at, _extreme_faces(pk, u)[0], face) for u, face in facets_l)
    cones_l = _fan(pl, facets_l)
    # e x f lies strictly inside cone(n, m) around e iff f.n > 0 > f.m, and
    # inside cone(n', m') around f iff e.n' < 0 < e.m' (see _fan); -(e x f)
    # iff all four signs flip
    for (e0, e1, e2), (n0, n1, n2), (m0, m1, m2), face_k in _fan(pk, facets_k):
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
            faces.add(_sum_face(at, face_k, face_l))
    return sorted(faces)


def _sum_face(
    at: Sequence[Sequence[int]], face_k: Iterable[int], face_l: Iterable[int]
) -> tuple[int, ...]:
    """One candidate face of K + L: the ascending indices at[i][j] of the
    sums k_i + l_j for i in ``face_k`` and j in ``face_l``."""
    return tuple(sorted({row[j] for row in (at[i] for i in face_k) for j in face_l}))


def _fan(pts: Sequence[tuple[int, ...]], facets: Sequence[_Spanning]) -> list[tuple]:
    """The 2D cones of the normal fan of a 3-polytope, read off its facets
    (outward normal, incident) on the distinct integer points ``pts``;
    the facet normals are the fan's rays.

    An edge is two facets f and g that share two or more points, its
    points are the shared ones (with any inside it) and its cone is
    cone(n_f, n_g); it is given as (e, n_f, n_g, face), with the edge
    direction e signed so that det(n_f, n_g, e) > 0. Then a vector u
    perpendicular to e lies strictly inside the cone iff u.(e x n_f) > 0
    and u.(n_g x e) > 0, and for u = e x f these are |e|^2 f.n_f > 0 and
    -|e|^2 f.n_g > 0.
    """
    incidences = [frozenset(incident) for _, incident in facets]
    cones = []
    for f, (nf, _) in enumerate(facets):
        for g in range(f + 1, len(facets)):
            shared = incidences[f] & incidences[g]
            if len(shared) > 1:
                ng = facets[g][0]
                p, q, *_ = shared
                e = sub3(pts[q], pts[p])
                if dot3(cross3(nf, ng), e) < 0:
                    e = sub3(pts[p], pts[q])
                cones.append((e, nf, ng, shared))
    return cones


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


def _check_closed(facets: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """Raise unless every facet with m vertices shares exactly two
    vertices with exactly m other facets, and no two facets share more
    than two: each edge of each polygon borders one other listed facet.
    Returns the edges so proved: per facet, the bitmask of the two
    vertices it shares with each of its m neighbours."""
    masks = [sum(1 << v for v in incident) for incident in facets]
    edges: list[list[int]] = [[] for _ in facets]
    for f, mask in enumerate(masks):
        for g in range(f + 1, len(masks)):
            edge = mask & masks[g]
            shared = edge.bit_count()
            if shared > 2:
                raise InternalDisagreement(
                    f"facets of K + L do not close: facets {f} and {g} share {shared} vertices"
                )
            if shared == 2:
                edges[f].append(edge)
                edges[g].append(edge)
    for f, (incident, own) in enumerate(zip(facets, edges)):
        if len(own) != len(incident) or len(own) < 3:
            raise InternalDisagreement(
                f"facets of K + L do not close: facet {f} has {len(own)} edge neighbours"
                f" for {len(incident)} vertices"
            )
    return edges


def _edge_simplices(
    facets: Sequence[tuple[int, ...]], edges: Sequence[Sequence[int]]
) -> list[tuple[int, int, int, int]]:
    """The pulling triangulation of a 3-polytope from vertex 0, read off
    its facets (ascending vertex indices) and the edge table that
    :func:`_check_closed` returns for them.

    A facet that holds vertex 0 is skipped, a triangle F gives (0, *F),
    and any other facet is fanned from its lowest vertex v: (0, v, *e)
    for each of its edges e that does not hold v. On closed facets of
    vertices only, these are the simplices that
    :func:`trivol.geometry._pulling_simplices` yields for ``d = 3``,
    with no search for the faces below each facet.
    """
    simplices = []
    for incident, own in zip(facets, edges):
        v = incident[0]
        if v == 0:
            continue
        if len(incident) == 3:
            simplices.append((0, *incident))
            continue
        bit = 1 << v
        for e in own:
            if not e & bit:
                simplices.append((0, v, (e & -e).bit_length() - 1, e.bit_length() - 1))
    return simplices


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
    The extreme faces are formed (:func:`_extreme_faces`) only for the
    message of a facet that fails."""
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
        top, bottom = _extreme_faces(placed, (n0, n1, n2))
        raise InternalDisagreement(
            f"facet {f} does not support K + {t}L: its vertices {list(incident)} are"
            f" neither extreme face {top} nor {bottom} of its plane"
        )


def volume_cubic(k: Iterable[Point3], l: Iterable[Point3]) -> VolumeCubic:
    """Coefficients of Vol(K + tL) from Vol(K) and the facets of K + L.

    Both vertex sets must span three dimensions; a flat body raises
    :class:`DegenerateHull` rather than being special-cased. Each body is
    hulled once, on its own lattice (:func:`trivol.geometry._hull3`), for
    its volume and facets. The sums are formed on the integer lattice of
    K and L together (see :func:`trivol.geometry._clear_denominators`): a
    positive per-axis affine map commutes with Minkowski sums up to a
    translation, so each sum's volume is its lattice volume times one
    factor. The facets of K + L are read off the normal fans of K and L,
    from the bodies' facets moved to that lattice (:func:`_joint_facets`,
    :func:`_sum_facets`), and closed up by :func:`_check_closed`, whose
    edge table gives the one pulling triangulation
    (:func:`_edge_simplices`). The vertices, each the sum of one (i, j)
    pair, are placed at k_i + t*l_j for t = 1, 2 and 3, checked at t = 2
    and 3 (see the module docstring), and measured on the lattice over
    that triangulation. The coefficients are the forward differences of
    these integer volumes and Vol(K) (see the module docstring). Each set
    is read once, K first.
    """
    bodies, hulls = [k, l], []
    for i, name in enumerate("kl"):
        bodies[i] = body = _read_points(bodies[i], 3)
        if not body:
            raise EmptyPolytope(f"empty vertex list for body {name}")
        try:
            hulls.append(_hull3(body))
        except DegenerateHull as exc:
            raise DegenerateHull(f"body {name} does not span three dimensions") from exc
    k, l = bodies
    ipts, axes = _clear_denominators([*k, *l], 3)
    ik, il = ipts[: len(k)], ipts[len(k) :]
    scales, _, divisors = axes
    unit = Fraction(prod(divisors), 6 * prod(scales))
    (axes_k, facets_k, vol_k), (axes_l, facets_l, vol_l) = hulls
    sums, firsts = _pair_sums(ik, il)
    facets = _sum_facets(
        ik, il, sums, _joint_facets(facets_k, axes_k, axes), _joint_facets(facets_l, axes_l, axes)
    )
    vertices, facets = _vertex_facets(len(sums), facets)
    simplices = _edge_simplices(facets, _check_closed(facets))
    pairs = [(ik[i], il[j]) for i, j in (firsts[p] for p in vertices)]
    # P_t = Vol(K + tL) / unit, and the hull of K above already gave P_0
    p0, ps = vol_k / unit, []
    for t in (1, 2, 3):
        placed = [(a0 + t * b0, a1 + t * b1, a2 + t * b2) for (a0, a1, a2), (b0, b1, b2) in pairs]
        if t > 1:
            _check_planes(placed, facets, t)
        ps.append(_pulling_volume(placed, simplices))
    p1, p2, p3 = ps
    # the forward differences of P_0..P_3 as monomial coefficients, int terms first
    cubic = VolumeCubic(
        vol_k,
        (18 * p1 - 9 * p2 + 2 * p3 - 11 * p0) * unit / 6,
        (4 * p2 - 5 * p1 - p3 + 2 * p0) * unit / 2,
        (3 * p1 - 3 * p2 + p3 - p0) * unit / 6,
    )
    # the leading coefficient is Vol(L), which the check above also found
    if cubic.c3 != vol_l:
        raise InternalDisagreement(f"fitted c3 = {cubic.c3} != Vol(L) = {vol_l}")
    return cubic
