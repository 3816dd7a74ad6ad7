"""Property suites over random boxes: the checks behind ``trivol verify``,
which the acceptance tests run too.

Each suite takes an iterable of boxes and returns ``(cases, counterexample)``:
the number of cases that held, and None or the first failing box with its
message, the text ``trivol verify`` prints after ``FAIL``. An
:class:`InternalDisagreement` raised while a suite checks a box is that
suite's failure at that box.
"""

from __future__ import annotations

import random
from functools import wraps
from typing import Iterable

from . import trilinear
from .errors import InternalDisagreement
from .geometry import support
from .oracle import hull_volume_4d
from .rational import format_rational
from .trilinear import Box3Bounds


def random_box(rng: random.Random, max_bound: int) -> Box3Bounds:
    """Random box with integer bounds 0 <= a_i < b_i <= max_bound."""
    a, b = [], []
    for _ in range(3):
        lo = rng.randint(0, max_bound - 1)
        a.append(lo)
        b.append(rng.randint(lo + 1, max_bound))
    return Box3Bounds(tuple(a), tuple(b))


def _format_box(box: Box3Bounds) -> str:
    a = ",".join(format_rational(x) for x in box.a)
    b = ",".join(format_rational(x) for x in box.b)
    return f"a=({a}) b=({b})"


class _Failed(Exception):
    """A case that broke its property: ``_Failed(box, where, detail)``,
    where ``where`` names the case within the box or is empty."""


def _suite(name: str):
    """Turn a per-box check into the suite ``name``; the check returns
    how many cases it checked, or raises _Failed."""

    def wrap(check):
        @wraps(check)
        def suite(boxes: Iterable[Box3Bounds]) -> tuple[int, tuple[Box3Bounds, str] | None]:
            cases = 0
            for box in boxes:
                try:
                    cases += check(box)
                except _Failed as exc:
                    bad, where, detail = exc.args
                    return cases, (bad, f"{name}{where} at {_format_box(bad)}: {detail}")
                except InternalDisagreement as exc:
                    return cases, (box, f"{name} at {_format_box(box)}: {exc}")
            return cases, None

        suite.name = name
        return suite

    return wrap


@_suite("support-max closed forms")
def support_maxima(box: Box3Bounds) -> int:
    """The eight closed-form slice support maxima (``_z_values``) equal the
    generic support values against the slice facet directions, on the
    normalized box."""
    nb = trilinear.omega_normalize(box).bounds
    a, b = nb.a, nb.b
    q_pts, r_pts = trilinear._slice_points(a, b, a[2]), trilinear._slice_points(a, b, b[2])
    dirs = trilinear._slice_directions(a, b, a[2]) + trilinear._slice_directions(a, b, b[2])
    for i, (closed, u) in enumerate(zip(trilinear._z_values(a, b), dirs), start=1):
        generic = support(r_pts if i <= 4 else q_pts, u)
        if closed != generic:
            raise _Failed(nb, f": index {i}", f"closed form {closed} != generic max {generic}")
    return 8


@_suite("ordering-condition equivalence")
def ordering_equivalence(box: Box3Bounds) -> int:
    """The key, ratio and difference forms of the ordering condition
    agree, on the box as drawn and normalized."""
    forms = (trilinear.omega_check, trilinear.omega_prime_check, trilinear.omega_dprime_check)
    for nb in (box, trilinear.omega_normalize(box).bounds):
        flags = [form(nb) for form in forms]
        if len(set(flags)) != 1:
            detail = "key form {}, ratio form {}, difference form {}".format(*flags)
            raise _Failed(nb, "", detail)
    return 1


@_suite("mixed-volume symmetry")
def mixed_volume_symmetry(box: Box3Bounds) -> int:
    """V(Q,Q,R) = V(Q,R,R): both support sums equal the product form, on
    the normalized box. A flat bottom slice (a3 = 0 once normalized) is
    skipped."""
    nb = trilinear.omega_normalize(box).bounds
    if nb.a[2] == 0:
        return 0
    v_qqr6, v_qrr6 = trilinear._mixed_volumes6_from_z(nb.a, nb.b)
    expected6 = trilinear._mixed_volume6(nb.a, nb.b)
    if v_qqr6 != expected6 or v_qrr6 != expected6:
        got, expected = f"{v_qqr6 / 6}, {v_qrr6 / 6}", expected6 / 6
        raise _Failed(box, "", f"support-sum mixed volumes {got} != closed form {expected}")
    return 1


@_suite("three-way agreement")
def three_way_agreement(box: Box3Bounds) -> int:
    """Formula, pipeline and 4D hull oracle give the same volume, and so
    does the pipeline's own formula cross-check."""
    formula = trilinear.closed_form_volume(box)
    report = trilinear.pipeline_volume(box)
    oracle = hull_volume_4d(list(trilinear.extreme_points(box)))
    if not (report.agree and formula == report.vol_pipeline == oracle):
        detail = f"formula {formula}, pipeline {report.vol_pipeline}, oracle {oracle}"
        raise _Failed(box, "", detail)
    return 1


SUITES = (support_maxima, ordering_equivalence, mixed_volume_symmetry, three_way_agreement)
