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
from trivol import Box3Bounds, DegenerateTetrahedron, verify
from trivol.geometry import Tetrahedron, orient

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
