"""Compare two sets of benchmark results, metric by metric and workload by workload.

Usage:

    python3 bench/compare.py BASE NEW

BASE and NEW are files, or directories of files, holding the captured
standard output of ``bench/run.py`` runs. Every line that is a run record
(``"bench": "trivol"``) counts; the summary lines are ignored. End-to-end
metrics come from ``--trace 0`` runs, per-layer metrics from ``--trace 1``
runs. Runs are paired by seed.

Each row prints both sides' median and quartiles and a verdict:

* improved: the new side wins at least 9 of 10 pairs (ties count for
  neither) and its median beats the base median by more than the base
  quartile spread;
* unresolved: the quartile spread of either side, relative to its median,
  exceeds the metric's bound, and not every new run beats every base run;
* worse: the new median is worse than the base median by more than the
  bound (per-layer metrics have no bound: by the improved rule reversed);
* no worse: otherwise.

Exit status is 1 when any row is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT = ("python", "numpy", "nproc", "platform", "seconds")


def load(path: Path) -> list:
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text(encoding="utf-8", errors="replace").splitlines():
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict) and rec.get("bench") == "trivol":
                records.append(rec)
    return records


def series(records: list) -> dict:
    """(workload, metric) -> {seed: [values]}."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for rec in records:
        group = "per_layer" if rec["trace"] else "end_to_end"
        seed = rec["provenance"]["seed"]
        for metric, m in rec.get(group, {}).items():
            out[(rec["workload"], metric)][seed].append(m["value"])
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict, new: dict, better: str, bound: float | None) -> tuple:
    sign = 1 if better == "higher" else -1
    b_all = [v for vs in base.values() for v in vs]
    n_all = [v for vs in new.values() for v in vs]
    pairs = [
        (b, n)
        for seed in sorted(set(base) & set(new))
        for b, n in zip(base[seed], new[seed])
    ]
    if not pairs:
        pairs = list(zip(sorted(b_all), sorted(n_all)))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    bq1, bmed, bq3 = quartiles(b_all)
    nq1, nmed, nq3 = quartiles(n_all)
    gain = sign * (nmed - bmed)
    base_iqr = bq3 - bq1
    if wins >= 0.9 * len(pairs) and gain > base_iqr:
        return "improved", wins, len(pairs)
    if bound is None:
        worse = losses >= 0.9 * len(pairs) and -gain > base_iqr
        return ("worse" if worse else "no worse"), wins, len(pairs)
    spread = max(
        base_iqr / abs(bmed) if bmed else 0.0, (nq3 - nq1) / abs(nmed) if nmed else 0.0
    )
    if spread > bound:
        all_better = all(sign * (n - b) > 0 for n in n_all for b in b_all)
        return ("no worse" if all_better else "unresolved"), wins, len(pairs)
    return ("worse" if -gain > bound * abs(bmed) else "no worse"), wins, len(pairs)


def environment_notes(base: list, new: list) -> list:
    notes = []
    for key in ENVIRONMENT:
        b = {str(r["provenance"].get(key)) for r in base}
        n = {str(r["provenance"].get(key)) for r in new}
        if b != n:
            notes.append(f"environments differ in {key}: base {sorted(b)}, new {sorted(n)}")
    return notes


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of trivol benchmark results")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base_recs, new_recs = load(args.base), load(args.new)
    if not base_recs or not new_recs:
        print("error: no run records found on one side", file=sys.stderr)
        return 2
    for note in environment_notes(base_recs, new_recs):
        print(f"warning: {note}")
    base, new = series(base_recs), series(new_recs)

    header = f"{'workload':10} {'metric':45} {'base median [q1, q3]':32} {'new median [q1, q3]':32} {'wins':>7}  verdict"
    print(header)
    any_worse = False
    for key in sorted(set(base) & set(new)):
        workload, name = key
        meta = metrics.get(name)
        if meta is None:
            continue
        b_all = [v for vs in base[key].values() for v in vs]
        n_all = [v for vs in new[key].values() for v in vs]
        if not any(b_all) and not any(n_all):
            continue  # this layer does not run in this workload
        result, wins, n_pairs = verdict(base[key], new[key], meta["better"], meta.get("bound"))
        any_worse |= result == "worse"
        bq1, bmed, bq3 = quartiles(b_all)
        nq1, nmed, nq3 = quartiles(n_all)
        print(
            f"{workload:10} {name + ' (' + meta['unit'] + ')':45} "
            f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':32} {f'{nmed:.4g} [{nq1:.4g}, {nq3:.4g}]':32} "
            f"{f'{wins}/{n_pairs}':>7}  {result}"
        )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
