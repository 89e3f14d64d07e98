"""Smoke tier of the benchmark: every workload on tiny inputs, in seconds.

    python3 -m pytest benchmarks/test_smoke.py -q

Checks that every metric is reported with its unit and that no operation
fails. There are no wall-clock thresholds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# align_corpus runs too, though BENCHMARK.json does not gate it (README.md)
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["align_corpus"]

# metrics each workload prints under its own name, with their units
NAMED = {
    "step_warm_grad": {"step_s_p50": "s", "positions_per_s": "positions/s"},
    "step_cold_fwd": {"step_s_p50": "s", "positions_per_s": "positions/s"},
    "align_corpus": {"align_seq_s_p50": "s", "align_seq_s_p90": "s",
                     "align_tokens_per_s": "tokens/s"},
    "build_w_audit": {"build_w_s": "s", "audit_s": "s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MiB", "failed_frac": "ratio"}


def run(workload, trace, cwd=BENCH.parent, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--tier", "smoke",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def result_of(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = run(workload, 0)
    result = result_of(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {}
    for line in out.stdout.splitlines()[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split(maxsplit=2)
            printed[name] = (float(value), unit.split()[0])
    for name, unit in {**NAMED[workload], **COMMON}.items():
        assert printed[name][1] == unit, name
    assert printed["failed_frac"][0] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = result_of(run(workload, 1))
    assert result["correct"] and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "step_warm_grad":
        assert values["align.dp_calls"] == 0
        assert values["align.cache_hit_ratio"] == 1.0
    if workload == "step_cold_fwd":
        assert values["align.dp_calls"] > 0
        assert 0 < values["align.cache_hit_ratio"] < 1
    if workload == "build_w_audit":
        assert values["projection.entries"] > 0 and values["audit.coverage_s"] > 0


def test_counts_repeat_at_a_seed():
    keys = ("align.dp_cells", "chunks.merge_calls", "training.loss_chunks")
    first, second = (result_of(run("step_cold_fwd", 1))["metrics"] for _ in range(2))
    assert [first[k]["value"] for k in keys] == [second[k]["value"] for k in keys]


def test_closure_check_catches_misattributed_spans():
    sys.path.insert(0, str(BENCH))
    import spans

    tracer = spans.Tracer()
    # name, start, end, parent, operation, count; one timed call of 150 ns
    tracer.spans = [["a", 0, 150, -1, "op", None], ["b", 50, 100, 0, "op", None]]
    assert tracer.window_gap(0, 2, "op", 150e-9, tracer.self_times()) == pytest.approx(0)
    # a window that holds a child but not its parent
    assert tracer.window_gap(1, 2, "op", 50e-9, tracer.self_times()) is None
    # sibling spans that overlap count the overlap twice
    tracer.spans = [["a", 0, 100, -1, "op", None], ["b", 50, 150, -1, "op", None]]
    assert tracer.window_gap(0, 2, "op", 150e-9, tracer.self_times()) == pytest.approx(-50e-9)
    # a span labelled with another operation
    tracer.spans = [["a", 0, 150, -1, "op", None], ["b", 50, 100, 0, "other", None]]
    assert tracer.window_gap(0, 2, "op", 150e-9, tracer.self_times()) is None


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert out.returncode != 0
    assert not out.stdout.strip()
