"""Command-line interface: volume, verify, sweep, mixed-volume, normalize.

Exit codes: 0 success, 1 verification found a counterexample (a property
violation, or an internal disagreement inside a suite), 2 bad input
(bounds, files, arguments) or output that cannot be written (an
``--out`` that cannot be opened or written, a full disk, a reader that
closed the pipe early), each as one line and never a traceback, 3 internal
disagreement between computation methods. Code 3 marks a bug in this
package, never a user error, so CI can tell the two apart.

All values are exact rationals printed as "p/q" strings; JSON output
adds a companion ``*_decimal`` field per rational, rounded to 12
significant digits, as a convenience only. It is ``null`` for a nonzero
value outside the normal float range (too large, or too small for its
float to be nonzero and normal); ``sweep --float`` exits 2 on such a
value instead.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from typing import Sequence

from . import trilinear, verify
from .errors import InternalDisagreement, InvalidBounds, TrivolError
from .mixed_volume import volume_cubic
from .oracle import hull_volume_4d
from .rational import format_ratio, format_rational, parse_rational
from .trilinear import (
    Box3Bounds,
    closed_form_volume,
    extreme_points,
    omega_normalize,
    ordering_values,
    pipeline_volume,
)

__all__ = ["main", "run"]

# a sweep's perm column: each permutation in compact digit form, "312"
_PERM_TEXT = {perm: "%d%d%d" % perm for perm in permutations((1, 2, 3))}


def _float(x: Fraction) -> float | None:
    """``float(x)``, or None when ``x`` is nonzero and outside the normal
    float range: too large for a float, or so small that its float is 0
    or subnormal."""
    try:
        f = float(x)
    except OverflowError:
        return None
    return None if x and abs(f) < sys.float_info.min else f


def _emit_rational(out: dict, name: str, value: Fraction) -> None:
    out[name] = format_rational(value)
    f = _float(value)  # rounded to 12 significant digits, for display only
    out[name + "_decimal"] = None if f is None else float(f"{f:.12g}")


def _parse_bounds_text(text: str) -> Box3Bounds:
    """Bounds from the interleaved form a1,b1,a2,b2,a3,b3."""
    parts = text.split(",")
    if len(parts) != 6:
        raise InvalidBounds(f"--bounds needs 6 comma-separated values, got {len(parts)}")
    vals = [parse_rational(p) for p in parts]
    return Box3Bounds((vals[0], vals[2], vals[4]), (vals[1], vals[3], vals[5]))


def _rationals(values: list, where: str) -> tuple[Fraction, ...]:
    """The values as exact rationals; a parse error names ``where``."""
    try:
        return tuple(map(parse_rational, values))
    except ValueError as exc:
        raise InvalidBounds(f"{where}: {exc}") from exc


def _load_json(path: str) -> object:
    """The document in ``path``; a JSON number with a fraction or an
    exponent stays its decimal text, so it parses exactly, not rounded
    through a binary64 float."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=str)
    except OSError as exc:
        raise InvalidBounds(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InvalidBounds(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # the one other: an int past the digit limit
        limit = sys.get_int_max_str_digits()
        raise InvalidBounds(f"{path} has a number with more than {limit} digits") from exc


def _check_keys(path: str, doc: dict, kind: str, allowed: tuple[str, ...]) -> None:
    """Raise on the first key of ``doc`` that is not in ``allowed``."""
    for key in doc:
        if key not in allowed:
            names = f"{', '.join(allowed[:-1])} or {allowed[-1]}"
            raise InvalidBounds(f'{path} "{key}" is not a {kind} key: {names}')


def _box_from_file(path: str) -> Box3Bounds:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "a" not in doc or "b" not in doc:
        raise InvalidBounds(f'{path} must be a JSON object with "a" and "b" lists')
    _check_keys(path, doc, "box", ("a", "b"))
    a, b = doc["a"], doc["b"]
    if not isinstance(a, list) or not isinstance(b, list) or len(a) != 3 or len(b) != 3:
        raise InvalidBounds(f'{path} "a" and "b" must be lists of three rationals')
    a, b = _rationals(a, f'{path} "a"'), _rationals(b, f'{path} "b"')
    try:
        return Box3Bounds(a, b)
    except InvalidBounds as exc:
        raise InvalidBounds(f"{path}: {exc}") from exc


def _box_from_args(args: argparse.Namespace) -> Box3Bounds:
    if args.bounds is not None:
        return _parse_bounds_text(args.bounds)
    return _box_from_file(args.file)


def _add_box_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--bounds",
        metavar="a1,b1,a2,b2,a3,b3",
        help="bounds interleaved per axis; entries are integers, decimals or p/q",
    )
    group.add_argument(
        "--file",
        metavar="BOX.json",
        help='JSON file {"a": [r,r,r], "b": [r,r,r]}',
    )


def cmd_volume(args: argparse.Namespace) -> int:
    """The box's volume by each chosen method; ``all`` runs the three single
    methods' functions once each and exits 3 unless they agree exactly."""
    box = _box_from_args(args)
    methods = ("formula", "pipeline", "oracle") if args.method == "all" else (args.method,)
    out: dict = {
        "a": [format_rational(x) for x in box.a],
        "b": [format_rational(x) for x in box.b],
    }
    volumes = []
    if "formula" in methods:
        v = closed_form_volume(box)
        _emit_rational(out, "vol_formula", v)
        volumes.append(v)
    if "pipeline" in methods:
        report = pipeline_volume(box)
        _emit_rational(out, "vol_pipeline", report.vol_pipeline)
        inter: dict = {}
        for name in ("vol_q", "vol_r", "v_qqr", "v_qrr"):
            _emit_rational(inter, name, getattr(report.intermediates, name))
        out["intermediates"] = inter
        volumes.append(report.vol_pipeline)
    if "oracle" in methods:
        v = hull_volume_4d(list(extreme_points(box)))
        _emit_rational(out, "vol_oracle", v)
        volumes.append(v)
    agree = True
    if len(volumes) >= 2:
        agree = all(v == volumes[0] for v in volumes)
        out["agree"] = agree
    print(json.dumps(out, indent=2))
    return 0 if agree else 3


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_bound < 1:
        raise InvalidBounds("--max-bound must be at least 1")
    if args.trials < 1:
        raise InvalidBounds("--trials must be at least 1")
    seed = args.seed
    if seed is None:
        text = os.environ.get("TRIVOL_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise InvalidBounds(f"TRIVOL_SEED must be an integer, got {text!r}") from None
    rng = random.Random(seed)
    for suite in verify.SUITES:
        boxes = (verify.random_box(rng, args.max_bound) for _ in range(args.trials))
        cases, counterexample = suite(boxes)
        if counterexample is not None:
            print(f"FAIL {counterexample[1]}")
            return 1
        print(f"ok {suite.name} ({cases} cases)")
    print(f"all checks passed ({args.trials} trials, seed {seed})")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """CSV of closed-form volumes over the product of the grid's values.

    Each axis's (a_i, b_i) pairs are cleared to ints and checked with
    Box3Bounds' rule once per grid. A row orders its axes by the ordering
    keys of its cleared ints, as omega_normalize does, checks the ordering
    condition and evaluates one integer polynomial, the closed form on the
    cleared bounds; one gcd reduces the volume to the int ratio it prints.
    A pair formats its bound texts when a row first uses it, before that
    row's volume, so errors come in row order. Nothing is written on an
    error; a file error names the file and the key.
    """
    path = args.file
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InvalidBounds(f"{path} must be a JSON object")
    keys = ("a1", "b1", "a2", "b2", "a3", "b3")
    grids = []
    for key in keys:
        values = doc.get(key)
        if not isinstance(values, list) or not values:
            raise InvalidBounds(f'{path} "{key}" must be a non-empty list')
        grids.append(_rationals(values, f'{path} "{key}"'))
    drop_invalid = "filter" in doc
    if drop_invalid and doc["filter"] != "valid":
        raise InvalidBounds(f'{path} "filter" must be "valid"')
    _check_keys(path, doc, "sweep", (*keys, "filter"))

    def fmt(p: int, q: int) -> str:
        """The value p/q, given in lowest terms, as its CSV text."""
        if not args.float:
            return format_ratio(p, q)
        x = Fraction(p, q)
        f = _float(x)
        if f is None:
            size = "large" if abs(x) > 1 else "small"
            raise InvalidBounds(
                f"{format_ratio(p, q)} is too {size} for --float output; omit --float"
            )
        return repr(f)

    def texts(pair: list) -> tuple[str, str]:
        lo, hi = pair[5], pair[6]
        pair[0] = fmt(lo.numerator, lo.denominator), fmt(hi.numerator, hi.denominator)
        return pair[0]

    def axis_pair(lo: Fraction, hi: Fraction) -> list:
        """[texts of lo and hi once formatted, is an interval, A, B, D, lo, hi]:
        the pair cleared, then checked by Box3Bounds' 0 <= A < B."""
        ilo, ihi, d = trilinear._cleared_axis(lo, hi)
        return [None, 0 <= ilo < ihi, ilo, ihi, d, lo, hi]

    axes = [[axis_pair(lo, hi) for lo, hi in product(grids[k], grids[k + 1])] for k in (0, 2, 4)]

    rows = []
    skipped = 0
    for row in product(*axes):
        p1, p2, p3 = row
        if not (p1[1] and p2[1] and p3[1]):
            if drop_invalid:
                skipped += 1
                continue
            Box3Bounds((p1[5], p2[5], p3[5]), (p1[6], p2[6], p3[6]))  # raises InvalidBounds
        ia, ib = (p1[2], p2[2], p3[2]), (p1[3], p2[3], p3[3])
        (i, j, k), perm = trilinear._axis_order(trilinear._ordering_keys(ia, ib))
        s1, s2, s3 = row[i], row[j], row[k]
        ia, ib, d = (s1[2], s2[2], s3[2]), (s1[3], s2[3], s3[3]), (s1[4], s2[4], s3[4])
        if not trilinear._ratios_ordered(ia, ib):
            raise InternalDisagreement(f"sorted axes break the ordering condition: {ia}, {ib}")
        bounds = (p1[0] or texts(p1)) + (p2[0] or texts(p2)) + (p3[0] or texts(p3))
        volume = fmt(*trilinear._formula_ratio(ia, ib, d))
        rows.append(bounds + (volume, _PERM_TEXT[perm]))

    out = args.out
    try:
        with open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout) as sink:
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(["a1", "b1", "a2", "b2", "a3", "b3", "volume", "perm"])
            writer.writerows(rows)
            if skipped:
                sink.write(f"# skipped: {skipped}\n")
    except OSError as exc:
        if not out:
            raise  # stdout's own failure, which main reports
        raise InvalidBounds(f"cannot write {out}: {exc}") from exc
    return 0


def cmd_mixed_volume(args: argparse.Namespace) -> int:
    path = args.file
    doc = _load_json(path)
    if not isinstance(doc, dict) or "k" not in doc or "l" not in doc:
        raise InvalidBounds(f'{path} must be a JSON object with "k" and "l" vertex lists')
    _check_keys(path, doc, "bodies", ("k", "l"))

    def body(name: str) -> list:
        raw = doc[name]
        if not isinstance(raw, list) or not raw:
            raise InvalidBounds(f'{path} "{name}" must be a non-empty list of points')
        pts = []
        for entry in raw:
            if not isinstance(entry, list) or len(entry) != 3:
                raise InvalidBounds(f'{path} "{name}" points must be 3-coordinate lists')
            pts.append(_rationals(entry, f'{path} "{name}"'))
        return pts

    cubic = volume_cubic(body("k"), body("l"))
    out: dict = {}
    values = (*cubic.coefficients, cubic.v_kkl, cubic.v_kll)
    for name, value in zip(("c0", "c1", "c2", "c3", "V_KKL", "V_KLL"), values):
        _emit_rational(out, name, value)
    print(json.dumps(out, indent=2))
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    box = _box_from_args(args)
    norm = omega_normalize(box)
    out = {
        "ordering_values": [format_rational(v) for v in ordering_values(box)],
        "perm": list(norm.perm),
        "normalized": {
            "a": [format_rational(x) for x in norm.bounds.a],
            "b": [format_rational(x) for x in norm.bounds.b],
        },
    }
    print(json.dumps(out, indent=2))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trivol",
        description=(
            "Exact volume of the convex hull of the graph of y = x1*x2*x3 "
            "over a box, by three independent methods."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_volume = sub.add_parser("volume", help="volume of one box, as JSON")
    _add_box_source(p_volume)
    p_volume.add_argument(
        "--method",
        choices=("formula", "pipeline", "oracle", "all"),
        default="all",
        help="which computation(s) to run (default: all, cross-checked)",
    )
    p_volume.set_defaults(handler="cmd_volume")

    p_verify = sub.add_parser("verify", help="run the property suites on random boxes")
    p_verify.add_argument("--trials", type=int, default=200, help="boxes per suite")
    p_verify.add_argument(
        "--seed",
        type=int,
        help="RNG seed (default: $TRIVOL_SEED or 0)",
    )
    p_verify.add_argument(
        "--max-bound", type=int, default=10, help="bounds drawn from integers 0..M"
    )
    p_verify.set_defaults(handler="cmd_verify")

    p_sweep = sub.add_parser("sweep", help="CSV of volumes over a parameter grid")
    p_sweep.add_argument("--file", required=True, metavar="SWEEP.json")
    p_sweep.add_argument(
        "--float", action="store_true", help="emit floats instead of p/q rationals"
    )
    p_sweep.add_argument("--out", metavar="OUT.csv", help="write CSV here instead of stdout")
    p_sweep.set_defaults(handler="cmd_sweep")

    p_mixed = sub.add_parser(
        "mixed-volume", help="volume polynomial of Minkowski combinations of two bodies"
    )
    p_mixed.add_argument("--file", required=True, metavar="BODIES.json")
    p_mixed.set_defaults(handler="cmd_mixed_volume")

    p_norm = sub.add_parser("normalize", help="axis ordering keys and permutation")
    _add_box_source(p_norm)
    p_norm.set_defaults(handler="cmd_normalize")

    return parser


def _attach_bounds_values(argv: Sequence[str]) -> list[str]:
    """Spell ``--bounds -1,2,...`` as ``--bounds=-1,2,...``.

    argparse takes a token that starts with ``-`` and is not a plain
    negative number for an option, so a bounds list starting with ``-``
    (``-1``, ``-inf``, ``-x``) would leave ``--bounds`` without its
    argument. Joined, the value reaches the bounds check and its one-line
    error. A token starting with ``--`` is left alone: it is an option.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--bounds" and token.startswith("-") and not token.startswith("--"):
            out[-1] = f"--bounds={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_bounds_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # by name, so a handler rebound in this module after the parser was built runs
        code = globals()[args.handler](args)
        sys.stdout.flush()  # a closed reader or a full disk shows up here, not at exit
        return code
    except OSError as exc:
        # stdout failed (input and --out errors arrive as InvalidBounds); the rest
        # of the buffered output goes nowhere, so the exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except InternalDisagreement as exc:
        print(f"internal disagreement (this is a bug): {exc}", file=sys.stderr)
        return 3
    except (TrivolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
