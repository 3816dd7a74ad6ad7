"""Shared fixtures, deterministic random generators and a call recorder
for the test modules."""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import trivol
from trivol import Box3Bounds, DegenerateTetrahedron, extreme_points, verify
from trivol.geometry import Tetrahedron, _lattice_points, orient
from trivol.mixed_volume import minkowski_sum_vertices

_PACKAGE = os.path.dirname(trivol.__file__)

UNIT = Box3Bounds((0, 0, 0), (1, 1, 1))
SHIFTED = Box3Bounds((1, 1, 1), (2, 2, 2))

# Fraction bodies: the cube [-1, 1]^3, the octahedron and the unit simplex
CUBE = [tuple(map(Fraction, p)) for p in product((-1, 1), repeat=3)]
OCTA = [tuple(Fraction(s * (i == k)) for i in range(3)) for k in range(3) for s in (1, -1)]
SIMPLEX = [(Fraction(0),) * 3] + [tuple(Fraction(i == k) for i in range(3)) for k in range(3)]


def as_json(body: list) -> list:
    """``body`` as lists of int coordinates, the form the CLI reads."""
    return [[int(c) for c in p] for p in body]


def trivol_calls(fn) -> Counter:
    """How often ``fn()`` calls each trivol function, by code object: the
    profile hook counts every call event whose code lies in the package
    (a generator's every resume is one too)."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and os.path.dirname(frame.f_code.co_filename) == _PACKAGE:
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def random_box(rng: random.Random, max_bound: int = 10, nonzero_lower: bool = False) -> Box3Bounds:
    """Random box with integer bounds 0 <= a_i < b_i <= max_bound.

    With nonzero_lower the all-zero lower corner is rejected, which is
    exactly the condition for the normalized third interval to start
    above zero (a flat bottom slice happens only at a = (0,0,0)).
    """
    box = verify.random_box(rng, max_bound)
    while nonzero_lower and not any(box.a):
        box = verify.random_box(rng, max_bound)
    return box


def random_rational_box(rng: random.Random) -> Box3Bounds:
    """Random box with small non-integer rational bounds."""
    a, b = [], []
    for _ in range(3):
        lo = Fraction(rng.randint(0, 24), rng.randint(1, 6))
        hi = lo + Fraction(rng.randint(1, 18), rng.randint(1, 6))
        a.append(lo)
        b.append(hi)
    return Box3Bounds((a[0], a[1], a[2]), (b[0], b[1], b[2]))


def random_wide_box(rng: random.Random) -> Box3Bounds:
    """Random box whose bounds have 20- to 40-digit numerators and denominators."""

    def wide():
        return Fraction(rng.randint(10**19, 10**40), rng.randint(10**19, 10**40))

    a = [wide() for _ in range(3)]
    return Box3Bounds(tuple(a), tuple(x + wide() for x in a))


def random_tetrahedron(rng: random.Random, span: int = 5) -> Tetrahedron:
    """Random integer-vertex tetrahedron, resampled until nondegenerate."""
    while True:
        pts = [
            tuple(Fraction(rng.randint(-span, span)) for _ in range(3)) for _ in range(4)
        ]
        try:
            return orient(pts)
        except DegenerateTetrahedron:
            continue


def random_points(rng: random.Random, n: int, span: int = 5) -> list:
    """n random integer points in [-span, span]^3."""
    return [
        tuple(Fraction(rng.randint(-span, span)) for _ in range(3)) for _ in range(n)
    ]


def random_body(rng: random.Random, n: int) -> list:
    """n random int points in [0, 1000)^3: in general position, almost surely."""
    return [tuple(rng.randrange(1000) for _ in range(3)) for _ in range(n)]


def hull_shapes():
    """Integer point sets in 3D and 4D on their own lattice, the hull scan's
    test inputs: the unit cube and cross-polytope of each dimension, six
    sums of two tetrahedra and four box graphs."""
    rng = random.Random(41)
    for d in (3, 4):
        yield [tuple(c) for c in product((0, 1), repeat=d)]
        yield [tuple(s * (i == j) for i in range(d)) for j in range(d) for s in (1, -1)]
    for _ in range(6):
        k, l = (list(random_tetrahedron(rng, span=3).vertices) for _ in range(2))
        yield _lattice_points(minkowski_sum_vertices(k, l), 3)[1]
    # the oracle's own inputs, box graphs on their lattice; the wide box's
    # 20- to 40-digit bounds give ~200-digit coordinates and normals
    boxes = [
        random_box(rng, nonzero_lower=True),
        random_rational_box(rng),
        random_wide_box(rng),
        Box3Bounds((0, 0, 0), (2, 3, 5)),
    ]
    for box in boxes:
        yield _lattice_points(extreme_points(box), 4)[1]
