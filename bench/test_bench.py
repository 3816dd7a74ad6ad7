"""Self-tests of the benchmark: checks catch planted wrong values, tracing
restores what it rebinds, and a checkout without sources fails.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import trivol  # noqa: E402
import trivol.trilinear  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_METRICS = [m["name"] for m in SPEC["per_layer"]]


def _runs(workload, n: int) -> list:
    return [(x, workload.op(x)) for x in workload.inputs[:n]]


def test_certify_counts_planted_wrong_value(tmp_path):
    w = workloads.Certify(0, tmp_path)
    runs = _runs(w, 2)
    assert w.check(runs) == [True, True]
    box, (f, p, o) = runs[1]
    assert w.check([runs[0], (box, (f, p, o + 1))]) == [True, False]


def test_a_repeat_that_differs_from_the_first_output_fails(tmp_path):
    w = workloads.Certify(0, tmp_path)
    runs = _runs(w, 1)
    f, p, o = runs[0][1]
    loop = {"first": runs, "repeats": [(0, w.same(runs[0][1], (f, p, o))),
                                       (0, w.same(runs[0][1], (f, p, o + 1)))]}
    assert run.verdicts(w, loop) == [True, True, False]


def test_survey_repeat_with_other_bytes_fails(tmp_path):
    w = workloads.Survey(0, tmp_path)
    first, again, changed = (w.op(w.inputs[0]) for _ in range(3))
    changed[1].write_text(changed[1].read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert w.same(first, again) and not w.same(first, changed)
    assert not again[1].exists() and not changed[1].exists()
    failing = w.op(tmp_path / "missing.json")  # the CLI exits 2, writes nothing
    assert failing[0] == 2
    assert not w.same(failing, failing)
    assert w.check([(w.inputs[0], failing)]) == [False]


def test_certify_counts_an_op_that_raised(tmp_path):
    w = workloads.Certify(0, tmp_path)
    assert w.check([(w.inputs[0], trivol.InternalDisagreement("planted"))]) == [False]


def test_checked_counts_planted_wrong_values(tmp_path):
    w = workloads.Checked(0, tmp_path)
    runs = _runs(w, 3)
    assert w.check(runs) == [True, True, True]
    box, report = runs[2]
    wrong = report.vol_pipeline + 1
    disagreeing = dataclasses.replace(report, vol_pipeline=wrong)
    # consistent but wrong: only the oracle sample can catch it
    consistent = dataclasses.replace(report, vol_pipeline=wrong, vol_formula=wrong)
    assert w.check(runs[:2] + [(box, disagreeing)]) == [True, True, False]
    assert w.check(runs[:2] + [(box, consistent)]) == [True, True, False]


def test_survey_counts_planted_wrong_row(tmp_path):
    w = workloads.Survey(0, tmp_path)
    runs = _runs(w, 2)
    assert w.check(runs) == [True, True]
    path = runs[1][1][1]
    lines = path.read_text(encoding="utf-8").split("\n")
    row = lines[-3].split(",")
    row[6] = str(Fraction(row[6]) + Fraction(1, 7))
    lines[-3] = ",".join(row)
    path.write_text("\n".join(lines), encoding="utf-8")
    assert w.check(runs) == [True, False]


def test_survey_grids_have_fixed_size(tmp_path):
    w = workloads.Survey(5, tmp_path)
    props = w.properties(w.inputs)
    assert props["rows_per_op"] == 216
    assert props["invalid_dropped_share"] == 1 - 216 / 729


def test_minkowski_counts_planted_wrong_value(tmp_path):
    w = workloads.Minkowski(0, tmp_path)
    runs = _runs(w, 1)
    assert w.check(runs) == [True]
    bodies, cubic = runs[0]
    planted = dataclasses.replace(cubic, c1=cubic.c1 + 3)
    assert w.check([(bodies, planted)]) == [False]


def test_inputs_repeat_per_seed_and_keep_proportions():
    assert workloads.box_pool(3, 64) == workloads.box_pool(3, 64)
    assert workloads.box_pool(3, 64) != workloads.box_pool(4, 64)
    pool = workloads.box_pool(3, 64)
    assert sum(map(workloads.is_wide, pool)) == 16
    assert sum(map(workloads.is_flat, pool)) == 8
    sizes = [workloads.minkowski_points(k, l) for k, l in workloads.body_pool(3, 8)]
    assert sorted(sizes) == [16] * 6 + [20] * 2


def test_tracer_records_layers_and_restores_bindings(tmp_path):
    original = trivol.trilinear.omega_normalize
    w = workloads.Certify(0, tmp_path)
    tracer = layers.Tracer()
    with tracer.installed():
        assert trivol.trilinear.omega_normalize is not original
        w.op(w.inputs[1])  # outside an op: nothing recorded
        assert not tracer.names
        with tracer.op_span(0):
            w.op(w.inputs[1])
    assert trivol.trilinear.omega_normalize is original
    m = tracer.metrics(LAYER_METRICS, 1)
    assert m["trilinear.omega_normalize.calls_per_op"] == 2
    assert m["geometry.orient.calls_per_op"] == 2
    assert m["oracle.facets_per_hull"] > 0
    assert 0 < m["oracle.hull_volume_4d.share_of_op"] < 1
    op_ms = (tracer.ends[0] - tracer.starts[0]) / 1e6
    layer_self = sum(m[f"{layer}.self_ms"] for layer in layers.TARGETS)
    assert layer_self <= op_ms


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_reports_every_layer_metric(name, tmp_path):
    w = workloads.WORKLOADS[name](0, tmp_path)
    tracer = layers.Tracer()
    with tracer.installed(), tracer.op_span(0):
        w.op(w.inputs[0])
    metrics = tracer.metrics(LAYER_METRICS, 1)
    assert set(LAYER_METRICS) - set(metrics) == {"trace_overhead"}
