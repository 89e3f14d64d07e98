"""crosstok benchmark: run one workload at one seed and print its metrics.

    python3 benchmarks/run.py --workload step_warm_grad --seed 0 --seconds 25 --trace 0

Inputs are generated from the seed into ``.bench_work/`` by ``gen.py`` in a
child process, so this process sees only files and its peak RSS is its own.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from time import perf_counter

import gen
import spans
import workloads

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = gen.BENCH_DIR
ROOT = gen.ROOT
WORK = ROOT / ".bench_work"
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
MIN_OPS = 3

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> span name whose self time it sums
LAYER_TIMES = {
    "vocab.load_s": "vocab.load",
    "vocab.init_s": "vocab.init",
    "vocab.hash_s": "vocab.hash",
    "vocab.encode_s": "vocab.encode",
    "align.dp_s": "align.dp",
    "align.cache_lookup_s": "align.cache_lookup",
    "chunks.merge_s": "chunks.merge",
    "chunks.topk_s": "chunks.topk",
    "chunks.load_logits_s": "chunks.load_logits",
    "projection.project_s": "projection.project",
    "projection.build_s": "projection.build",
    "projection.save_s": "projection.save",
    "projection.load_s": "projection.load",
    "losses.pkl_s": "losses.pkl",
    "losses.pkl_grads_s": "losses.pkl_grads",
    "losses.gold_s": "losses.gold",
    "losses.gold_grad_s": "losses.gold_grad",
    "losses.common_set_s": "losses.common_set",
    "losses.chunk_kl_s": "losses.chunk_kl",
    "losses.uld_s": "losses.uld",
    "training.ce_s": "training.ce",
    "training.step_self_s": "training.run_step",
    "audit.coverage_s": "audit.coverage",
    "cli.self_s": "cli.main",
}
# per-layer metric -> span name whose calls it counts
LAYER_CALLS = {
    "vocab.hash_calls": "vocab.hash",
    "align.dp_calls": "align.dp",
    "chunks.merge_calls": "chunks.merge",
    "chunks.topk_calls": "chunks.topk",
    "projection.project_calls": "projection.project",
    "losses.pkl_calls": "losses.pkl",
    "losses.pkl_grads_calls": "losses.pkl_grads",
    "losses.gold_calls": "losses.gold",
    "losses.gold_grad_calls": "losses.gold_grad",
    "losses.common_set_calls": "losses.common_set",
    "losses.chunk_kl_calls": "losses.chunk_kl",
    "losses.uld_calls": "losses.uld",
}
# per-layer metric -> span name whose recorded counts it sums
LAYER_COUNTS = {
    "vocab.encode_tokens": "vocab.encode",
    "align.dp_cells": "align.dp",
    "align.cache_misses": "align.cache_lookup",
    "projection.entries": "projection.build",
}
# counted by the benchmark itself, from files and step reports
BENCH_COUNTS = {
    "chunks.load_logits_bytes": "bytes",
    "projection.file_bytes": "bytes",
    "training.chunks": "count",
    "training.loss_chunks": "count",
}
PER_LAYER = {
    **{k: "s" for k in LAYER_TIMES},
    **{k: "count" for k in LAYER_CALLS},
    **{k: "count" for k in LAYER_COUNTS},
    "align.cache_hits": "count",
    "align.cache_hit_ratio": "ratio",
    **BENCH_COUNTS,
    "trace.op_s_p50": "s",
    "trace.setup_s": "s",
}


def environment(seed: int, tier: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "cpu": cpu,
        # unset means the BLAS library's default (OpenBLAS: one per core)
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "seed": seed,
        "tier": tier,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        return None
    return out or None


def p50(values):
    return statistics.median(values) if values else 0.0


def run_ops(wl, tracer, seconds: float):
    """Run whole units until the next one would end past ``seconds``.

    Returns the completed operations, how many operations failed (a failed
    check or an exception, which also ends its unit) and the number of
    completed operations per unit.
    """
    ops: list[workloads.Op] = []
    failed = 0
    unit_ops: list[int] = []
    start = perf_counter()
    last = 0.0
    i = 0
    while wl.has_unit(i) and (len(ops) < MIN_OPS or perf_counter() - start + last <= seconds):
        wl.label = ("unit", i)
        t0 = perf_counter()
        n_before = len(ops)
        try:
            for op in wl.unit(i):
                if op.problems:
                    failed += 1
                    sys.stderr.write(f"op {len(ops)}: {'; '.join(op.problems[:3])}\n")
                ops.append(op)
        except Exception:  # the benchmark must go on; the failure is counted
            traceback.print_exc(file=sys.stderr)
            failed += 1
        if tracer is not None:
            tracer.op = None
        unit_ops.append(len(ops) - n_before)
        last = perf_counter() - t0
        i += 1
    return ops, failed, unit_ops


def layer_metrics(tracer, wl, n_setups: int, ops, unit_ops) -> dict:
    """Self time per set-up plus per operation; counts from set-up 0 plus
    unit 0 (per operation), which the seed fixes."""
    n_ops = max(1, len(ops))
    first_ops = max(1, unit_ops[0] if unit_ops else 1)
    time_s: dict[str, float] = defaultdict(float)
    # (phase, name) -> calls / recorded counts in set-up 0 and unit 0
    calls, counts = Counter(), Counter()
    for rec, self_ns in zip(tracer.spans, tracer.self_times()):
        label = rec[spans.OP]
        if label is None:
            continue
        phase, index = label
        name = rec[spans.NAME]
        time_s[name] += self_ns * 1e-9 / (n_setups if phase == "setup" else n_ops)
        if index == 0:
            calls[phase, name] += 1
            counts[phase, name] += rec[spans.COUNT] or 0

    def first(table, name):
        return table["setup", name] + table["unit", name] / first_ops

    calls = {name: first(calls, name) for _, name in list(calls)}
    counts = {name: first(counts, name) for _, name in list(counts)}
    out = {k: time_s[n] for k, n in LAYER_TIMES.items()}
    out.update({k: calls.get(n, 0) for k, n in LAYER_CALLS.items()})
    out.update({k: counts.get(n, 0) for k, n in LAYER_COUNTS.items()})
    lookups = calls.get("align.cache_lookup", 0)
    out["align.cache_hits"] = lookups - counts.get("align.cache_lookup", 0)
    out["align.cache_hit_ratio"] = out["align.cache_hits"] / lookups if lookups else 0.0
    out["chunks.load_logits_bytes"] = wl.computed_bytes.get("logits_bytes_read", 0)
    out["projection.file_bytes"] = wl.computed_bytes.get("projection_file_bytes", 0)
    for key in ("training.chunks", "training.loss_chunks"):
        out[key] = wl.first_counts.get(key, 0) / first_ops
    return out


# Wall time a timed call may spend outside its spans: the wrappers' own work
# and the benchmark's glue between library calls, which a garbage collection
# or a preemption can stretch. The lower limit of -1 us allows for rounding
# between the two clocks' units.
GAP_TOLERANCE_S = 0.005
GAP_TOLERANCE_SHARE = 0.01


def closure_gaps(tracer, windows) -> list:
    """Per timed call: its wall time minus the summed self times of its
    spans, and the largest gap allowed for it."""
    self_ns = tracer.self_times()
    return [(tracer.window_gap(first, end, label, seconds, self_ns),
             GAP_TOLERANCE_S + GAP_TOLERANCE_SHARE * seconds)
            for first, end, label, seconds in windows]


NAMED_UNITS = {
    "setup_s": "s", "step_s_p50": "s", "positions_per_s": "positions/s",
    "align_seq_s_p50": "s", "align_seq_s_p90": "s", "align_tokens_per_s": "tokens/s",
    "build_w_s": "s", "audit_s": "s", "peak_rss_mb": "MiB",
}


def fastest(ops) -> dict:
    """Per distinct operation (key): its fastest repetition, in seconds."""
    best: dict = {}
    for op in ops:
        best[op.key] = min(op.seconds, best.get(op.key, op.seconds))
    return best


def summarize(workload: str, wl, ops, setup_times, peak_rss_mb: float):
    """End-to-end metrics, and the workload's metrics under their own names.

    ``op_s_p50`` uses each distinct operation's fastest repetition, which
    filters slowdowns caused by other tenants of a shared machine. The named
    metrics use every operation run, as their names say.
    """
    lat = list(fastest(ops).values())
    e2e = {"setup_s": p50(setup_times), "op_s_p50": p50(lat), "peak_rss_mb": peak_rss_mb}
    every = [op.seconds for op in ops]
    total = sum(every)
    work_per_s = sum(op.work for op in ops) / total if total > 0 else 0.0
    named = {"setup_s": e2e["setup_s"]}
    if workload.startswith("step_"):
        named.update(step_s_p50=p50(every), positions_per_s=work_per_s)
    elif workload == "align_corpus":
        named.update(align_seq_s_p50=p50(every),
                     align_seq_s_p90=statistics.quantiles(every, n=10, method="inclusive")[8]
                     if len(every) > 1 else 0.0,
                     align_tokens_per_s=work_per_s)
    else:
        named.update({k: p50(v) for k, v in wl.parts.items()})
    named["peak_rss_mb"] = peak_rss_mb
    return e2e, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crosstok benchmark (see README.md)")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tier", choices=tuple(gen.TIERS), default="full")
    parser.add_argument("--record-golden", action="store_true",
                        help=f"store this run's digests and losses as the seed-{DEFAULT_SEED} "
                             "reference in golden.json")
    args = parser.parse_args(argv)
    ct = gen.bootstrap_crosstok()
    import crosstok.cli  # noqa: F401  (ct.cli for the CLI workload)

    tag = f"{args.tier}-{args.workload}-seed{args.seed}"
    data = WORK / "data" / f"{tag}-{os.getpid()}"
    try:
        subprocess.run([sys.executable, str(BENCH_DIR / "gen.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--tier", args.tier, "--out", str(data)],
                       check=True)
        with open(data / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        wl = workloads.WORKLOAD_CLASSES[args.workload](ct, data, manifest, tracer)

        setup_times = []
        for i in range(SETUP_REPEATS):
            wl.release()
            gc.collect()
            if tracer is not None:
                tracer.op = ("setup", i)
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.op = None
        run_problems = wl.prepare()
        ops, failed, unit_ops = run_ops(wl, tracer, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_problems += wl.finish()
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(data, ignore_errors=True)

    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    if args.record_golden:
        if args.seed != DEFAULT_SEED:
            parser.error(f"--record-golden needs --seed {DEFAULT_SEED}")
        golden_all.setdefault(args.tier, {})[args.workload] = wl.golden
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
    elif args.seed == DEFAULT_SEED:
        want = golden_all.get(args.tier, {}).get(args.workload)
        if want is None:
            sys.stderr.write(f"no golden values recorded for {args.tier}/{args.workload}\n")
        else:
            run_problems += workloads.matches_golden(wl.golden, want)
    if tracer is not None:
        gaps = closure_gaps(tracer, wl.windows)
        bad = [g for g, limit in gaps if g is None or not -1e-6 <= g <= limit]
        if bad or not gaps:
            run_problems.append(f"self times do not add up to {len(bad)} of {len(gaps)} "
                                f"timed calls (gaps in s: {bad[:3]})")
    # an operation that raised is attempted but not in ``ops``
    attempted = max(1, len(ops) + failed - sum(bool(op.problems) for op in ops))
    if run_problems:
        sys.stderr.write("run checks: " + "; ".join(run_problems) + "\n")
        failed = max(failed, 1)

    e2e, named = summarize(args.workload, wl, ops, setup_times, peak_rss_mb)
    failed_frac = failed / attempted
    env = environment(args.seed, args.tier)
    result = {"workload": args.workload, "trace": args.trace, "env": env,
              "computed_bytes": wl.computed_bytes, "attempted": attempted, "failed": failed,
              "end_to_end": e2e, "named": named, "setup_seconds": setup_times,
              "op_seconds": [[str(op.key), op.seconds] for op in ops],
              "failed_frac": failed_frac}

    print(f"# crosstok benchmark: workload={args.workload} tier={args.tier} seed={args.seed} "
          f"trace={args.trace} operations={attempted}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_threads")
          + f" blas_threads={env['blas_threads'][BLAS_VARS[0]]}")
    print("# computed (not measured) bytes: "
          + " ".join(f"{k}={v}" for k, v in wl.computed_bytes.items()))
    if tracer is None:
        for name, value in named.items():
            print(f"{name:<20} {value:.6g} {NAMED_UNITS[name]}")
        if args.workload == "align_corpus":
            p90 = named["align_seq_s_p90"]
            print(f"# align_seq_s_p90 from {len(ops)} lines, "
                  f"{sum(op.seconds > p90 for op in ops)} beyond it")
        print(f"# {len(fastest(ops))} distinct operations, {len(ops)} run")
        print(f"{'failed_frac':<20} {failed_frac:.6g} ratio ({failed}/{attempted})")
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        layers = layer_metrics(tracer, wl, SETUP_REPEATS, ops, unit_ops)
        layers["trace.op_s_p50"] = e2e["op_s_p50"]
        layers["trace.setup_s"] = e2e["setup_s"]
        result["per_layer"] = layers
        for name, value in layers.items():
            print(f"{name:<28} {value:.6g} {PER_LAYER[name]}")
        seen = [g for g, _ in gaps if g is not None]
        print(f"# self-time closure: {len(seen)} timed calls, their spans' self times "
              f"add up to the call's wall time less {1e6 * min(seen, default=0):.0f}"
              f"-{1e6 * max(seen, default=0):.0f} us")
        untraced = WORK / "results" / f"{tag}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]
            for key in ("op_s_p50", "setup_s"):
                if base[key] > 0:
                    print(f"# tracing overhead on {key}: {e2e[key] - base[key]:+.6g} s "
                          f"({100 * (e2e[key] / base[key] - 1):+.1f}% vs the untraced run)")
        else:
            print("# tracing overhead: run with --trace 0 at this seed first to compare")
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"{tag}.jsonl")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
