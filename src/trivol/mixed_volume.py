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
    _clear_denominators,
    _facet_cross_products,
    add3,
    hull_volume_3d,
    scale3,
    support,
)

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
        s = Fraction(t)
        return self.c0 + self.c1 * s + self.c2 * s * s + self.c3 * s * s * s


def mixed_volume_against(p: Tetrahedron, k: Iterable[Point3]) -> Fraction:
    """Mixed volume V(P, P, K) for a tetrahedron P and vertex set K.

    One third of K's support summed over P's area-scaled facet normals,
    taken as one sixth of the sum over the doubled normals (the facet
    cross products), so int input stays on ints until that one division.
    K may be lower-dimensional (even a single point); it only enters
    through its support values, and is read once.
    """
    k = list(k)
    if not k:
        raise EmptyPolytope("mixed volume against an empty vertex list")
    return Fraction(sum(support(k, u) for u in _facet_cross_products(p)), 6)


def minkowski_sum_vertices(k: Iterable[Point3], l: Iterable[Point3]) -> list[Point3]:
    """All pairwise vertex sums of two point sets, deduplicated.

    The result is a superset of the vertices of the Minkowski sum of the
    two hulls; non-extreme sums are harmless to downstream hull code.
    Order is deterministic (first occurrence, k-major); each set is read once.
    """
    k, l = list(k), list(l)
    if not k or not l:
        raise EmptyPolytope("Minkowski sum of an empty vertex list")
    seen = set()
    out: list[Point3] = []
    for p in k:
        for q in l:
            s = add3(p, q)
            if s not in seen:
                seen.add(s)
                out.append(s)
    return out


def fit_cubic(ts: Sequence[object], values: Sequence[Fraction]) -> VolumeCubic:
    """Exact degree-3 interpolation through four (t, value) pairs: Newton's
    divided differences d0..d3, expanded into monomial coefficients by three
    Horner steps."""
    if len(ts) != 4 or len(values) != 4:
        raise ValueError("cubic interpolation needs exactly four nodes")
    x = [Fraction(t) for t in ts]
    if len(set(x)) != 4:
        raise ValueError("interpolation nodes must be distinct")
    d = list(values)
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


def volume_cubic(k: Iterable[Point3], l: Iterable[Point3]) -> VolumeCubic:
    """Coefficients of Vol(K + tL) by interpolation at t = 0, 1, 2, 3.

    Both vertex sets must span three dimensions; a flat body raises
    :class:`DegenerateHull` rather than being special-cased. The sums are
    formed on the integer lattice of K and L together (see
    :func:`trivol.geometry._clear_denominators`): a positive per-axis
    affine map commutes with Minkowski sums up to a translation, so each
    sum's volume is its lattice volume times one factor. Each set is read once.
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
    unit = Fraction(prod(divisors), prod(scales))
    # the check above already found Vol(K + 0L) = Vol(K)
    values = volumes[:1]
    for t in range(1, 4):
        scaled = [scale3(p, t) for p in il]
        values.append(hull_volume_3d(minkowski_sum_vertices(ik, scaled)) * unit)
    cubic = fit_cubic((0, 1, 2, 3), values)
    # the leading coefficient is Vol(L), which the check above also found
    if cubic.c3 != volumes[1]:
        raise InternalDisagreement(f"fitted c3 = {cubic.c3} != Vol(L) = {volumes[1]}")
    return cubic
