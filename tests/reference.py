"""Slow, plain references that the tests hold the package's kernels to.

Nothing here runs in a CLI command, so it lives beside the tests, not in
``src``. pytest does not collect this module (its name does not start
with ``test_``); test modules import from it as they do from
``testutil``.

``_reference_facets`` is the facet scan with no shortcut that the 3D
and 4D hull scans are held to.

``cross_section_volume`` measures one slice of the hull geometrically:
the 3D hull of the weighted Minkowski sum of the bottom and top slice
tetrahedra, with no mixed-volume formula. The tests use it to pin the
pipeline's slice cubic slice by slice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from operator import mul, sub

from trivol import Box3Bounds, InvalidBounds, parse_rational
from trivol.geometry import hull_volume_3d
from trivol.mixed_volume import minkowski_sum_vertices
from trivol.trilinear import omega_normalize


def add3(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def scale3(u, s):
    return (u[0] * s, u[1] * s, u[2] * s)


def det_by_permutation_sum(m):
    """Determinant of a square matrix as the signed sum over permutations.
    Int entries give an int."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def _reference_facets(pts):
    """The facet scan without shortcuts: every d-subset's normal, its
    signed maximal minors by the permutation expansion, side-tested
    against every point, facets kept once in subset order, as (primitive
    outward normal, incident)."""
    d = len(pts[0])
    found = set()
    facets = []
    for subset in combinations(range(len(pts)), d):
        base = pts[subset[0]]
        rows = [tuple(map(sub, pts[i], base)) for i in subset[1:]]
        # the signed maximal minors: entry j is (-1)^j times the minor without column j
        normal = tuple(
            (-1) ** j * det_by_permutation_sum([r[:j] + r[j + 1 :] for r in rows]) for j in range(d)
        )
        if not any(normal):
            continue
        side = [sum(map(mul, normal, map(sub, p, base))) for p in pts]
        if max(side) > 0 and min(side) < 0:
            continue
        g = gcd(*normal) if max(side) == 0 else -gcd(*normal)
        outward = tuple(x // g for x in normal)
        facet = (outward, sum(map(mul, outward, base)))
        if facet not in found:
            found.add(facet)
            facets.append((outward, tuple(i for i, x in enumerate(side) if x == 0)))
    return facets


def _slice_vertices(bounds: Box3Bounds, level):
    """Vertices (x1*x2*level, x1, x2) of the hull slice at x3 = level, one
    per corner of the first two intervals."""
    (a1, a2, _), (b1, b2, _) = bounds.a, bounds.b
    return [
        (b1 * b2 * level, b1, b2),
        (a1 * a2 * level, a1, a2),
        (b1 * a2 * level, b1, a2),
        (a1 * b2 * level, a1, b2),
    ]


def q_vertex_points(bounds: Box3Bounds):
    """Vertices of the bottom slice (x3 = a3); flat when a3 == 0."""
    return _slice_vertices(bounds, bounds.a[2])


def r_vertex_points(bounds: Box3Bounds):
    """Vertices of the top slice (x3 = b3); always a genuine tetrahedron."""
    return _slice_vertices(bounds, bounds.b[2])


def cross_section_volume(box: Box3Bounds, t: object) -> Fraction:
    """Exact 3-volume of the hull's slice at third-coordinate value t.

    The axes are reordered first (see ``omega_normalize``); t, read by
    ``parse_rational``, is on the third axis after that reordering and
    must lie within its bounds. The slice is the Minkowski combination of
    the bottom and top slice tetrahedra weighted by where t sits in the
    range, measured from the summed vertex sets. The t = a3 = 0 section
    is flat and returns 0; every other one is full-dimensional.
    """
    nb = omega_normalize(box).bounds
    a3, b3 = nb.a[2], nb.b[2]
    pos = parse_rational(t)
    if not a3 <= pos <= b3:
        raise InvalidBounds(f"section position {pos} outside [{a3}, {b3}]")
    if pos == a3 == 0:
        return Fraction(0)
    h = b3 - a3
    wq = (b3 - pos) / h
    wr = (pos - a3) / h
    scaled_q = [scale3(p, wq) for p in q_vertex_points(nb)]
    scaled_r = [scale3(p, wr) for p in r_vertex_points(nb)]
    return hull_volume_3d(minkowski_sum_vertices(scaled_q, scaled_r))
