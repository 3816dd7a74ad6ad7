"""trivol benchmark: one seeded, single-thread, closed-loop workload per run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One caller runs ops back to back for ``--seconds`` (the next op starts when
the previous one returns), then every output is checked exactly, outside
the timed region. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs the same untraced loop, then a traced loop that times each trivol
layer (see layers.py), and reports the per-layer metrics.

Times are reported at reference speed (see ``reference_kernel``); the raw
wall-clock figures are in the record.

Standard output ends with two JSON lines: a full record (provenance, input
properties, raw timings, both metric sets; compare.py reads these), then
the summary ``{"correct", "attempted", "failed", "metrics"}``. Exit status
is 0 when the run completed, whether or not the checks passed, and 1 when
the checkout has no trivol sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_REPEATS = 11
WARMUP_S = 1.0

# Nominal duration of one reference_kernel call. Every reported time is
# scaled by REF_S / (the kernel's duration measured around it), i.e. given
# in seconds of a machine on which the kernel takes exactly REF_S.
REF_S = 0.0006
_REF_BIG = 10**30 + 57


def reference_kernel() -> Fraction:
    """Fixed pure-Python work of the kind trivol does: exact rational
    arithmetic on small and 30-digit values.

    On a shared machine the speed of the same work drifts by up to half,
    in phases of seconds to minutes. Timing this kernel next to every op
    and dividing it out leaves the op's own cost; a change to trivol
    cannot move the kernel.
    """
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 3) * Fraction(i + 1, 7)
        total -= Fraction(_REF_BIG + i, _REF_BIG - i) / (i + 1)
    return total


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def _import_trivol() -> None:
    if not (SRC / "trivol" / "__init__.py").is_file():
        sys.exit(f"error: no trivol sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trivol

    if Path(trivol.__file__).resolve().parent != SRC / "trivol":
        sys.exit(f"error: imported trivol from {trivol.__file__}, not from {SRC}")


def measure_setup(modules: tuple) -> tuple:
    """Spawn-to-imported seconds of fresh interpreters: (scaled, raw) lists.

    The child reports ``time.monotonic()`` after ``import modules``; on
    Linux that clock is CLOCK_MONOTONIC, shared with the parent. One
    untimed spawn first writes the bytecode cache, as an installed package
    would have it. Each spawn is scaled by the reference kernel timed just
    before and after it.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        f"import {', '.join(modules)}; print(repr(time.monotonic()))"
    )
    scaled, raw = [], []
    ref_before = time_reference()
    for rep in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        took = float(done.stdout) - t0
        ref_after = time_reference()
        if rep:
            raw.append(took)
            scaled.append(took * 2 * REF_S / (ref_before + ref_after))
        ref_before = ref_after
    return scaled, raw


def closed_loop(workload, seconds: float, tracer=None) -> dict:
    """Cycle through the workload's inputs, back to back, for ``seconds``.

    Op i runs input i % len(inputs). The first op on each input keeps its
    output for the exact check; a later op on the same input must return
    an equal output, compared at once and not kept, so memory does not grow
    with the number of ops. An op that raises stores its exception, which
    fails. The reference kernel runs between ops, outside their timing;
    each op's latency is scaled by the mean of the kernel timings on either
    side. An untimed warm-up runs first.
    """
    inputs = workload.inputs
    warm_end = time.perf_counter() + WARMUP_S
    i = 0
    while time.perf_counter() < warm_end:
        try:
            workload.op(inputs[i % len(inputs)])
        except Exception:
            pass
        time_reference()
        i += 1
    first, repeats, lat, refs = [], [], [], []
    ref_before = time_reference()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        slot = i % len(inputs)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.op(inputs[slot])
            else:
                with tracer.op_span(i):
                    out = workload.op(inputs[slot])
        except Exception as exc:
            out = exc
        t1 = time.perf_counter()
        ref_after = time_reference()
        lat.append(t1 - t0)
        refs.append((ref_before + ref_after) / 2)
        if i < len(inputs):
            first.append((inputs[slot], out))
        else:
            repeats.append((slot, workload.same(first[slot][1], out)))
        ref_before = ref_after
        i += 1
        if t1 >= deadline:
            return {
                "first": first, "repeats": repeats, "lat": lat, "refs": refs,
                "wall": time.perf_counter() - start,
            }


def verdicts(workload, loop: dict) -> list:
    """One bool per op: its first-pass check, and equality for repeats."""
    ok = workload.check(loop["first"])
    return ok + [same and ok[slot] for slot, same in loop["repeats"]]


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency_metrics(loop: dict) -> dict:
    """End-to-end timings at reference speed, plus the raw wall-clock ones."""
    lat = loop["lat"]
    scaled = [t * REF_S / r for t, r in zip(lat, loop["refs"])]
    return {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_ms_p50": statistics.median(scaled) * 1e3,
        "op_ms_p90": _p90(scaled) * 1e3,
        "latency_samples": len(scaled),
        "reference_ms_median": statistics.median(loop["refs"]) * 1e3,
        "wall_ops_per_s": len(lat) / loop["wall"],
        "wall_op_ms_p50": statistics.median(lat) * 1e3,
        "wall_op_ms_p90": _p90(lat) * 1e3,
    }


def _git_rev() -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(seed: int, seconds: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "trivol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    numpy = sys.modules.get("numpy")
    return {
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_trivol()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup, setup_raw = measure_setup(workload.imports)

        loop = closed_loop(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        e2e = latency_metrics(loop)
        e2e["setup_s"] = statistics.median(setup)
        e2e["setup_s_wall"] = statistics.median(setup_raw)
        e2e["peak_rss_mb"] = peak_rss_mb
        n_ops = len(loop["lat"])
        inputs = [workload.inputs[i % len(workload.inputs)] for i in range(n_ops)]
        ok = verdicts(workload, loop)
        outputs = [out for _, out in loop["first"]]

        layer_metrics = None
        trace_file = None
        if args.trace:
            tracer = layers.Tracer()
            with tracer.installed():
                traced = closed_loop(workload, args.seconds, tracer)
            layer_metrics = tracer.metrics(
                [m["name"] for m in spec["per_layer"]],
                len(traced["lat"]),
                REF_S / statistics.median(traced["refs"]),
            )
            layer_metrics["trace_overhead"] = (
                latency_metrics(traced)["ops_per_s"] / e2e["ops_per_s"]
            )
            trace_file = BUILD / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_file)
            ok += verdicts(workload, traced)
            outputs += [out for _, out in traced["first"]]

        failed = ok.count(False)
        errors = sorted({repr(o) for o in outputs if isinstance(o, Exception)})[:5]
        properties = workload.properties(inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
    }
    record = {
        "bench": "trivol",
        "workload": args.workload,
        "trace": args.trace,
        "provenance": {**provenance(args.seed, args.seconds), "ops": n_ops},
        "timing": {k: v for k, v in e2e.items() if k not in end_to_end},
        "setup_samples_s_wall": setup_raw,
        "end_to_end": end_to_end,
        "failed_frac": failed / len(ok),
        "properties": properties,
    }
    if errors:
        record["errors"] = errors
    if layer_metrics is not None:
        record["per_layer"] = {
            m["name"]: {"value": layer_metrics[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ok),
        "failed": failed,
        "metrics": record["per_layer"] if args.trace else record["end_to_end"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
