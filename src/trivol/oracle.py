"""Brute-force verification oracles: exact volumes with no cleverness.

The routines here trade speed for trustworthiness. Facets of a 4D hull
come from the geometry module's brute-force kernel: the hyperplane
through an affinely independent 4-subset is a facet iff all points lie
weakly on one side of it. Every subset is tested; the test of one stops
at the first point on the side opposite to one already seen. The
4-volume then follows from a pulling triangulation read off the facets'
incident point sets: a face's own faces are its intersections with the
facets, a face with one point more than its dimension is a simplex, and
any other is split into pyramids from one of its points. The points are
moved once to their smallest integer lattice (per axis: clear
denominators, subtract the minimum, divide by the gcd), and the facet
scan and the triangulation's 4x4 determinants both run on those lattice
points. Everything is exact; the only float code is the Monte Carlo
sanity estimator at the bottom, which never participates in any
agreement verdict.

Every 4-point subset is tested, so this is usable for the eight-point
hulls this package cares about and for small test polytopes, nothing
bigger.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import InvalidBounds
from .geometry import (
    Point4,
    _hull_facets,
    _lattice_points,
    _pulling_volume,
    hull_volume_3d,
    scale3,
)
from .mixed_volume import minkowski_sum_vertices
from .trilinear import Box3Bounds, omega_normalize, q_vertex_points, r_vertex_points

__all__ = [
    "Facet4",
    "hull_facets_4d",
    "hull_volume_4d",
    "cross_section_volume",
    "quadrature_volume",
    "monte_carlo_volume",
]


@dataclass(frozen=True)
class Facet4:
    """One facet hyperplane of a 4D hull: normal, offset, incident points.

    The normal is outward in primitive form (coprime ints, positively
    scaled only, so outwardness is preserved) and the offset is an int;
    every hull point x satisfies normal . x <= offset, with equality
    exactly on the ``incident`` indices into the deduplicated point list.
    """

    normal: tuple[int, int, int, int]
    offset: int
    incident: tuple[int, ...]


def hull_facets_4d(points: list[Point4]) -> tuple[list[Point4], list[Facet4]]:
    """Deduplicated points and all facets of their 4D convex hull.

    The hyperplane through every affinely independent 4-subset of the
    points on their integer lattice (see
    :func:`trivol.geometry._clear_denominators`) is tested against the
    point set until two points lie on opposite sides of it; each facet
    found is mapped back to the original coordinates and kept once, in
    order of its first spanning subset. On lattice points themselves the
    map is the identity, so the facets are the lattice hyperplanes.
    Points that do not span four dimensions raise :class:`DegenerateHull`;
    points that are not all 4D raise :class:`ValueError`.
    """
    pts, ipts, (scales, shifts, divisors) = _lattice_points(points, 4)
    # n . ((s*x - m) / g) <= offset, times the lcm of the divisors
    common = lcm(*divisors)
    weights = [s * (common // g) for s, g in zip(scales, divisors)]
    lifts = [m * (common // g) for m, g in zip(shifts, divisors)]
    facets = []
    for normal, offset, incident in _hull_facets(ipts):
        coeffs = (*map(mul, normal, weights), offset * common + sum(map(mul, normal, lifts)))
        g = gcd(*coeffs)
        key = tuple(x // g for x in coeffs)
        facets.append(Facet4(key[:4], key[4], incident))
    return pts, facets


def hull_volume_4d(points: list[Point4]) -> Fraction:
    """Exact 4-volume of the convex hull of a 4D point set.

    The points are moved to their integer lattice once, and
    :func:`hull_facets_4d` runs on the lattice points. Its facets' incident
    point sets give a pulling triangulation (see
    :func:`trivol.geometry._pulling_simplices`), whose 4x4 determinants
    are summed on the lattice points; no hull is taken in a lower
    dimension. The result is scaled back by the lattice map. Input that
    lies in a hyperplane raises :class:`DegenerateHull`; flat input never
    reports volume zero. Points that are not all 4D raise
    :class:`ValueError`.
    """
    _, ipts, (scales, _, divisors) = _lattice_points(points, 4)
    _, facets = hull_facets_4d(ipts)
    volume = _pulling_volume(ipts, [f.incident for f in facets])
    return Fraction(volume * prod(divisors), 24 * prod(scales))


def cross_section_volume(box: Box3Bounds, t: object) -> Fraction:
    """Exact 3-volume of the hull's slice at third-coordinate value t.

    The axes are reordered internally (see :func:`omega_normalize`); t
    refers to the third axis after that reordering and must lie within
    its bounds. The slice is the Minkowski combination of the bottom and
    top slice tetrahedra weighted by where t sits in the range, computed
    geometrically from the summed vertex sets. The t = a3 = 0 section is
    flat and returns 0; every other section is full-dimensional.
    """
    nb = omega_normalize(box).bounds
    a3, b3 = nb.a[2], nb.b[2]
    pos = Fraction(t)
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


def quadrature_volume(box: Box3Bounds) -> Fraction:
    """Hull volume by Simpson quadrature over geometric cross-sections.

    Three sections (ends and midpoint of the third-axis range after
    normalization) determine the integral exactly because the section
    volume is a cubic in the position. Shares no volume formulas with the
    pipeline: each section volume is a genuine 3D hull computation.
    Requires a3 > 0 after normalization so all sections are
    full-dimensional.
    """
    nb = omega_normalize(box).bounds
    a3, b3 = nb.a[2], nb.b[2]
    if a3 == 0:
        raise InvalidBounds("quadrature needs a3 > 0 after normalization")
    mid = (a3 + b3) / 2
    f0 = cross_section_volume(nb, a3)
    f1 = cross_section_volume(nb, mid)
    f2 = cross_section_volume(nb, b3)
    return (b3 - a3) * (f0 + 4 * f1 + f2) / 6


def monte_carlo_volume(
    points: list[Point4], samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo volume estimate and its standard error, floats.

    Uniform rejection sampling over the coordinate bounding box, with
    membership tested against the exact facets (converted to floats).
    Deterministic for a fixed seed. A smoke test only: results carry
    sampling error and never feed any exactness check.
    """
    if samples <= 0:
        raise ValueError("need a positive sample count")
    # imported here, its one use, so that importing trivol does not load numpy
    import numpy as np

    pts, facets = hull_facets_4d(points)
    lo = np.array([float(min(p[i] for p in pts)) for i in range(4)])
    hi = np.array([float(max(p[i] for p in pts)) for i in range(4)])
    normals = np.array([[float(c) for c in f.normal] for f in facets])
    offsets = np.array([float(f.offset) for f in facets])
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, size=(samples, 4))
    inside = np.all(xs @ normals.T <= offsets, axis=1)
    box_vol = float(np.prod(hi - lo))
    p_hat = float(np.count_nonzero(inside)) / samples
    estimate = p_hat * box_vol
    stderr = box_vol * float(np.sqrt(p_hat * (1.0 - p_hat) / samples))
    return estimate, stderr
