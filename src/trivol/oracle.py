"""The brute-force 4D hull oracle: exact volumes with no cleverness.

This is the third volume route. It measures the convex hull of the
extreme points directly and shares no formula with the closed form or
the slice pipeline of :mod:`trivol.trilinear`; to keep it that way, this
module imports nothing from the package but :mod:`trivol.geometry`,
whose brute-force facet scan and pulling triangulation (see that
module's docstring) it runs on the points' integer lattice; its
:func:`hull_volume_4d` is the kernel's one 4D entry. Every 4-point
subset is tested, so this suits the eight-point hulls of this
package and small test polytopes, nothing bigger. Everything is exact;
the only float code is the Monte Carlo sanity estimator at the bottom,
which never participates in any agreement verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable

from .geometry import Point4, _hull_facets, _lattice_points, _pulling_simplices, _pulling_volume

__all__ = [
    "Facet4",
    "hull_facets_4d",
    "hull_volume_4d",
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


def hull_facets_4d(points: Iterable[Point4]) -> tuple[list[Point4], list[Facet4]]:
    """Deduplicated points and all facets of their 4D convex hull.

    The hyperplane through every affinely independent 4-subset of the
    points on their integer lattice (see
    :func:`trivol.geometry._clear_denominators`) is tested against the
    point set until two points lie on opposite sides of it; each facet is
    kept once, in order of its first spanning subset, mapped back to the
    original coordinates and only then reduced by its gcd. On lattice
    points the map is the identity, so the facets are the lattice ones.
    Points that do not span four dimensions raise :class:`DegenerateHull`.
    """
    pts, ipts, (scales, shifts, divisors) = _lattice_points(points, 4)
    # n . ((s*x - m) / g) <= offset, times the lcm of the divisors
    common = lcm(*divisors)
    weights = [s * (common // g) for s, g in zip(scales, divisors)]
    lifts = [m * (common // g) for m, g in zip(shifts, divisors)]
    facets = []
    for normal, incident in _hull_facets(ipts):
        c0, c1, c2, c3 = map(mul, normal, weights)
        offset = sum(map(mul, normal, ipts[incident[0]])) * common + sum(map(mul, normal, lifts))
        g = gcd(c0, c1, c2, c3, offset)
        facets.append(Facet4((c0 // g, c1 // g, c2 // g, c3 // g), offset // g, incident))
    return pts, facets


def hull_volume_4d(points: Iterable[Point4]) -> Fraction:
    """Exact 4-volume of the convex hull of a 4D point set.

    The points are moved to their integer lattice once, and
    :func:`hull_facets_4d` runs on the lattice points. Its facets' incident
    point sets give a pulling triangulation (see
    :func:`trivol.geometry._pulling_simplices`), whose 4x4 determinants
    are summed on the lattice points; no hull is taken in a lower
    dimension. The result is scaled back by the lattice map. Input that
    lies in a hyperplane raises :class:`DegenerateHull`; flat input never
    reports volume zero.
    """
    _, ipts, (scales, _, divisors) = _lattice_points(points, 4)
    _, facets = hull_facets_4d(ipts)
    volume = _pulling_volume(ipts, _pulling_simplices([f.incident for f in facets], 4))
    return Fraction(volume * prod(divisors), 24 * prod(scales))


def monte_carlo_volume(
    points: Iterable[Point4], samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo volume estimate and its standard error, floats.

    Uniform rejection sampling over the coordinate bounding box, with
    membership tested against the exact facets (converted to floats).
    Deterministic for a fixed seed, which must be given: `samples` and
    `seed` are ints (a bool is not). A smoke test only: results carry
    sampling error and never feed any exactness check.
    """
    if any(isinstance(n, bool) or not isinstance(n, int) for n in (samples, seed)):
        raise ValueError(f"samples and seed must be ints, got {samples!r} and {seed!r}")
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
