"""The four benchmark workloads: seeded inputs, one op each, exact checks.

Every workload is a closed loop that cycles over a pool of seeded inputs.
The op calls trivol through module attributes (``oracle.hull_volume_4d``,
not a name bound at import time), so the traced pass sees the rebound
functions. Checks run after the timed loop
and never call into a path that skips one of trivol's own cross-checks.

Why each workload exists, and what it predicts, is in README.md next to
this file.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction
from itertools import count, product
from pathlib import Path

import trivol
import trivol.cli
from trivol import geometry, mixed_volume, oracle, trilinear

# a bound counts as wide when its numerator or denominator has 20+ digits
WIDE_MIN = 10**19

# box classes, repeated in this order through every pool: 3/8 small
# integers, 2/8 small rationals, 2/8 wide rationals and 1/8 forced flat
# bottom (a = (0,0,0)), which occurs about once in 1000 boxes naturally
BOX_CYCLE = ("int", "rational", "wide", "flat", "int", "rational", "wide", "int")

# inputs per pool; a run cycles through its pool. The certify and
# minkowski pools hold more inputs than one run reaches, so a run averages
# over as many distinct inputs as it can; checked repeats its pool about
# 13 times and survey its 4 grids about 50 times
CERTIFY_POOL = 256
CHECKED_POOL = 256
SURVEY_POOL = 4
MINKOWSKI_POOL = 128

# L sizes, repeated: three 4-vertex bodies (16 Minkowski points) for each
# 5-vertex body (20 points), so the median and the 90th percentile sit
# inside one class each rather than on the boundary between them
L_SIZE_CYCLE = (4, 4, 4, 5)
BODY_SPAN = 3

# survey grid: three values per bound, 3**6 combinations of which
# (6/9)**3 = 216 are boxes; the rest are dropped by "filter": "valid"
SURVEY_VALUES = sorted({Fraction(p, q) for p in range(13) for q in (1, 2, 3, 4)})
SURVEY_KEYS = ("a1", "b1", "a2", "b2", "a3", "b3")

CHECKED_ORACLE_SAMPLE = 8
SURVEY_ORACLE_SAMPLE = 2


def _box(a: list, b: list) -> trivol.Box3Bounds:
    return trivol.Box3Bounds(tuple(a), tuple(b))


def _int_box(rng: random.Random) -> trivol.Box3Bounds:
    while True:
        a, b = [], []
        for _ in range(3):
            lo = rng.randint(0, 9)
            a.append(lo)
            b.append(rng.randint(lo + 1, 10))
        if any(a):
            return _box(a, b)


def _rational_box(rng: random.Random) -> trivol.Box3Bounds:
    while True:
        a, b = [], []
        for _ in range(3):
            lo = Fraction(rng.randint(0, 24), rng.randint(1, 6))
            a.append(lo)
            b.append(lo + Fraction(rng.randint(1, 18), rng.randint(1, 6)))
        if any(a):
            return _box(a, b)


def _wide_int(rng: random.Random) -> int:
    digits = rng.randint(20, 40)
    return rng.randrange(10 ** (digits - 1), 10**digits)


def _wide_box(rng: random.Random) -> trivol.Box3Bounds:
    a, b = [], []
    for _ in range(3):
        lo = Fraction(_wide_int(rng), _wide_int(rng))
        a.append(lo)
        b.append(lo + Fraction(_wide_int(rng), _wide_int(rng)))
    return _box(a, b)


def _flat_box(rng: random.Random) -> trivol.Box3Bounds:
    return _box([0, 0, 0], [rng.randint(1, 10) for _ in range(3)])


_BOX_MAKERS = {"int": _int_box, "rational": _rational_box, "wide": _wide_box, "flat": _flat_box}


def box_pool(seed: int, size: int) -> list:
    """Seeded boxes in BOX_CYCLE proportions; certify and checked share them."""
    rng = random.Random(f"trivol-bench/boxes/{seed}")
    return [_BOX_MAKERS[BOX_CYCLE[i % len(BOX_CYCLE)]](rng) for i in range(size)]


def is_wide(box: trivol.Box3Bounds) -> bool:
    return any(
        x.numerator >= WIDE_MIN or x.denominator >= WIDE_MIN for x in box.a + box.b
    )


def is_flat(box: trivol.Box3Bounds) -> bool:
    """The normalized lower bound of the third axis is 0 (flat bottom slice)."""
    return trilinear.omega_normalize(box).bounds.a[2] == 0


def _share(flags: list) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def _equal(a: object, b: object) -> bool:
    return a == b


class _BoxWorkload:
    """Common pool and input-property shares of certify and checked."""

    same = staticmethod(_equal)
    imports = ("trivol",)
    pool_size = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.inputs = box_pool(seed, self.pool_size)

    def properties(self, inputs: list) -> dict:
        flat = {id(b): is_flat(b) for b in self.inputs}
        return {
            "flat_bottom_share": _share([flat[id(b)] for b in inputs]),
            "wide_rational_share": _share([is_wide(b) for b in inputs]),
        }


class Certify(_BoxWorkload):
    """Formula, pipeline and 4D hull oracle on one box; all three must agree."""

    name = "certify"
    pool_size = CERTIFY_POOL

    def op(self, box: trivol.Box3Bounds) -> tuple:
        return (
            trilinear.closed_form_volume(box),
            trilinear.pipeline_volume(box).vol_pipeline,
            oracle.hull_volume_4d(list(trilinear.extreme_points(box))),
        )

    def check(self, runs: list) -> list:
        return [
            isinstance(out, tuple) and len(out) == 3 and out[0] == out[1] == out[2]
            for _, out in runs
        ]


class Checked(_BoxWorkload):
    """pipeline_volume alone: formula plus every pipeline cross-check."""

    name = "checked"
    pool_size = CHECKED_POOL

    def op(self, box: trivol.Box3Bounds) -> trivol.VolumeReport:
        return trilinear.pipeline_volume(box)

    def check(self, runs: list) -> list:
        ok = [
            isinstance(out, trivol.VolumeReport)
            and out.agree is True
            and out.vol_pipeline == out.vol_formula
            for _, out in runs
        ]
        rng = random.Random(f"trivol-bench/checked-sample/{self.seed}")
        for i in rng.sample(range(len(runs)), min(CHECKED_ORACLE_SAMPLE, len(runs))):
            box, report = runs[i]
            if ok[i]:
                ok[i] = report.vol_pipeline == oracle.hull_volume_4d(
                    list(trilinear.extreme_points(box))
                )
        return ok


def _encode(x: Fraction, rng: random.Random) -> object:
    """A grid value as a JSON int, a decimal string or a "p/q" string."""
    if x.denominator == 1:
        return int(x)
    if x.denominator in (2, 4) and rng.random() < 0.5:
        return str(float(x))
    return f"{x.numerator}/{x.denominator}"


def survey_grid(rng: random.Random) -> dict:
    """Seeded sweep file: per axis a-values v0..v2 and b-values v1..v3."""
    doc: dict = {}
    for axis in (1, 2, 3):
        v = sorted(rng.sample(SURVEY_VALUES, 4))
        doc[f"a{axis}"] = [_encode(x, rng) for x in v[:3]]
        doc[f"b{axis}"] = [_encode(x, rng) for x in v[1:]]
    doc["filter"] = "valid"
    return doc


def grid_boxes(grid: dict) -> tuple:
    """(combinations in the grid, bounds of the valid ones in sweep order)."""
    combos = list(product(*([Fraction(str(v)) for v in grid[k]] for k in SURVEY_KEYS)))
    valid = [c for c in combos if c[0] < c[1] and c[2] < c[3] and c[4] < c[5]]
    return len(combos), valid


class Survey:
    """In-process ``trivol sweep --file grid --out csv`` on fixed-size grids."""

    name = "survey"
    imports = ("trivol", "trivol.cli")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.runs = count()
        rng = random.Random(f"trivol-bench/survey/{seed}")
        self.inputs = []
        self.expected = {}
        for g in range(SURVEY_POOL):
            grid = survey_grid(rng)
            path = workdir / f"grid-{g}.json"
            path.write_text(json.dumps(grid), encoding="utf-8")
            self.inputs.append(path)
            self.expected[path] = grid_boxes(grid)

    def op(self, grid_path: Path) -> tuple:
        out_path = self.workdir / f"rows-{next(self.runs)}.csv"
        code = trivol.cli.main(["sweep", "--file", str(grid_path), "--out", str(out_path)])
        return code, out_path

    @staticmethod
    def same(first: object, out: object) -> bool:
        """Both exited 0 with byte-identical CSVs; the repeat's file is removed."""
        if not (isinstance(first, tuple) and isinstance(out, tuple)):
            return False
        if first[0] != 0 or out[0] != 0:
            return False
        equal = first[1].read_bytes() == out[1].read_bytes()
        out[1].unlink()
        return equal

    def _check_csv(self, grid_path: Path, text: str) -> bool:
        """Row set, skipped count and perms; every volume against the slice
        pipeline, a seeded sample also against the 4D hull oracle."""
        try:
            return self._csv_matches(grid_path, text)
        except (ValueError, IndexError, trivol.TrivolError):
            return False

    def _csv_matches(self, grid_path: Path, text: str) -> bool:
        grid_size, expected = self.expected[grid_path]
        lines = text.split("\n")
        if lines[-2:] != [f"# skipped: {grid_size - len(expected)}", ""]:
            return False
        rows = list(csv.reader(io.StringIO("\n".join(lines[:-2]) + "\n")))
        if rows[0] != list(SURVEY_KEYS) + ["volume", "perm"]:
            return False
        rows = rows[1:]
        if len(rows) != len(expected):
            return False
        boxes = []
        for row, bounds in zip(rows, expected):
            if len(row) != 8 or tuple(Fraction(v) for v in row[:6]) != bounds:
                return False
            if sorted(row[7]) != ["1", "2", "3"]:
                return False
            box = _box(bounds[0::2], bounds[1::2])
            if Fraction(row[6]) != trilinear.pipeline_volume(box).vol_pipeline:
                return False
            boxes.append((box, Fraction(row[6])))
        rng = random.Random(f"trivol-bench/survey-sample/{self.seed}")
        for box, volume in rng.sample(boxes, min(SURVEY_ORACLE_SAMPLE, len(boxes))):
            if volume != oracle.hull_volume_4d(list(trilinear.extreme_points(box))):
                return False
        return True

    def check(self, runs: list) -> list:
        verdicts: dict = {}
        ok = []
        for grid_path, out in runs:
            if not isinstance(out, tuple) or out[0] != 0:
                ok.append(False)
                continue
            key = (grid_path, out[1].read_text(encoding="utf-8"))
            if key not in verdicts:
                verdicts[key] = self._check_csv(*key)
            ok.append(verdicts[key])
        return ok

    def properties(self, inputs: list) -> dict:
        flat_rows = {
            path: sum(is_flat(_box(c[0::2], c[1::2])) for c in valid)
            for path, (_, valid) in self.expected.items()
        }
        combos = sum(self.expected[path][0] for path in inputs)
        rows = sum(len(self.expected[path][1]) for path in inputs)
        return {
            "rows_per_op": rows / len(inputs) if inputs else 0.0,
            "invalid_dropped_share": 1 - rows / combos if combos else 0.0,
            "flat_bottom_share": sum(flat_rows[path] for path in inputs) / rows if rows else 0.0,
            "wide_rational_share": 0.0,
        }


def _int_point(rng: random.Random) -> tuple:
    return tuple(Fraction(rng.randint(-BODY_SPAN, BODY_SPAN)) for _ in range(3))


def _volume6(p: list) -> int:
    """Six times the signed volume of four points (zero when coplanar)."""
    (a, b, c), (d, e, f), (g, h, i) = [
        [q[k] - p[0][k] for k in range(3)] for q in p[1:]
    ]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _tetrahedron(rng: random.Random) -> list:
    while True:
        pts = [_int_point(rng) for _ in range(4)]
        if _volume6(pts) != 0:
            return pts


def minkowski_points(k: list, l: list) -> int:
    return len({tuple(p[c] + q[c] for c in range(3)) for p in k for q in l})


def body_pool(seed: int, size: int) -> list:
    """Seeded (K, L) pairs: K a tetrahedron, L 4 or 5 integer vertices.

    Pairs whose Minkowski sum has coincident points are redrawn, so each
    op hulls exactly 16 or 20 points.
    """
    rng = random.Random(f"trivol-bench/bodies/{seed}")
    pool = []
    for i in range(size):
        n_l = L_SIZE_CYCLE[i % len(L_SIZE_CYCLE)]
        while True:
            k = _tetrahedron(rng)
            l = _tetrahedron(rng) + [_int_point(rng) for _ in range(n_l - 4)]
            if minkowski_points(k, l) == 4 * n_l:
                pool.append((k, l))
                break
    return pool


class Minkowski:
    """volume_cubic(K, L): the mixed-volume command's work."""

    name = "minkowski"
    imports = ("trivol",)
    same = staticmethod(_equal)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.inputs = body_pool(seed, MINKOWSKI_POOL)

    def op(self, bodies: tuple) -> mixed_volume.VolumeCubic:
        return mixed_volume.volume_cubic(*bodies)

    def check(self, runs: list) -> list:
        ok = []
        for (k, l), cubic in runs:
            if not isinstance(cubic, mixed_volume.VolumeCubic):
                ok.append(False)
                continue
            tet = geometry.orient(k)
            ok.append(
                cubic.c0 == geometry.tetra_volume(tet)
                and cubic.v_kkl == mixed_volume.mixed_volume_against(tet, l)
            )
        return ok

    def properties(self, inputs: list) -> dict:
        counts = [minkowski_points(k, l) for k, l in inputs]
        return {
            "minkowski_points_mean": sum(counts) / len(counts) if counts else 0.0,
            "minkowski_points_max": max(counts, default=0),
        }


WORKLOADS = {w.name: w for w in (Certify, Checked, Survey, Minkowski)}
