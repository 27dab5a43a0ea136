"""ember's benchmark: grid throughput, set-up time, memory and per-layer costs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pop-hd --seed 0 --seconds 52 --trace 0

Each pass runs in a fresh interpreter (``perfbench/worker.py``), so set-up
time and peak RSS cover that pass only. With ``--trace 0`` the benchmark
repeats untraced passes, each followed by two set-up-only passes, for
about ``--seconds`` seconds and reports the end-to-end metrics as medians
over them (``setup_s`` over both kinds of pass). With ``--trace 1`` it runs one
tracemalloc pass, then alternates untraced and traced passes for
``--seconds`` seconds (adding an untraced ``jobs=1`` pass to each round
when the workload runs with more jobs, as the baseline of the tracing
overhead) and reports the per-layer metrics. Either way a traced
pass at ``jobs=1`` is the reference of the correctness gate (``gate.py``),
the spans of every traced pass are written to
``perfbench/out/<workload>-s<seed>-t<trace>/spans.jsonl``, and the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units come from ``BENCHMARK.json``. A per-layer metric of a
layer that the workload does not exercise (say ``cli.self_s`` on
``pop-hd``) reads 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans
import workloads

MIN_PLAIN_PASSES = 3
SETUP_PASSES_PER_ROUND = 2  # set-up only; they add samples to the median of setup_s
COUNT_SUFFIXES = (".evals", ".evals_per_agent_iter")
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def run_worker(root: Path, run_dir: Path, index: int, workload, kind: str) -> dict:
    """Run one pass in a fresh interpreter and return what it reported."""
    pass_dir = run_dir / f"pass-{index}"
    pass_dir.mkdir(parents=True)
    spec = {
        "kind": kind,
        "config": workload.memory_config() if kind == "memory" else workload.config,
        "via_cli": workload.via_cli,
        "out_dir": str(pass_dir),
    }
    spec_path = pass_dir / "spec.json"
    result_path = pass_dir / "result.json"
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "EMBER_SEED"}
    began = time.perf_counter()
    # A session of its own, so that a pass that hangs is killed together
    # with its pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(root / "perfbench" / "worker.py"), str(spec_path), str(result_path)],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerFailed(f"{kind} pass exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise WorkerFailed(
            f"{kind} pass exited with code {proc.returncode}:\n{stderr[-2000:]}"
        )
    result = json.loads(result_path.read_text())
    result["process_s"] = time.perf_counter() - began
    shutil.rmtree(pass_dir)
    return result


def collect(root: Path, run_dir: Path, workload, seconds: float, trace: bool) -> list[dict]:
    """Run the passes of one benchmark run, warm-up first (not returned)."""
    counter = itertools.count()

    def run(kind):
        return run_worker(root, run_dir, next(counter), workload, kind)

    run("warmup")  # compiles bytecode and fills the file cache
    passes = []
    start = time.perf_counter()
    # Either way, a loop stops before a round that would end past
    # ``seconds``, so that a run with long passes does not overshoot by most
    # of a round.
    rounds = 0
    if trace:
        passes.append(run("memory"))
        round_start = time.perf_counter()
        while True:
            passes.append(run("plain"))
            if workload.jobs > 1:
                passes.append(run("serial"))
            passes.append(run("traced"))
            rounds += 1
            now = time.perf_counter()
            if now - start + (now - round_start) / rounds > seconds:
                break
    else:
        # Set-up-only passes follow each timed pass, so that the samples of
        # setup_s are spread over the run as the host's speed drifts.
        while True:
            passes.append(run("plain"))
            passes.extend(run("setup") for _ in range(SETUP_PASSES_PER_ROUND))
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= MIN_PLAIN_PASSES and elapsed * (1 + 1 / rounds) > seconds:
                break
        passes.append(run("traced"))
    return passes


def ok_cells(result: dict) -> int:
    columns = result["columns"]
    return sum(dict(zip(columns, row)).get("status") == "ok" for row in result["rows"])


def end_to_end(passes: list[dict], verdict: dict) -> dict[str, float]:
    plain = [p for p in passes if p["kind"] == "plain"]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes if p["kind"] in ("setup", "plain")),
        "cells_per_s": statistics.median(ok_cells(p) / p["wall_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "cells_ok_frac": worst_ok_frac(verdict),
    }


def worst_ok_frac(verdict: dict) -> float:
    """The share of accepted cells that passed the gate, in the worst pass.

    Taken per pass, not pooled over the run, so that one cell failing in a
    single pass costs at least 1 / (cells in a pass).
    """
    return min(1.0 - failed / attempted for attempted, failed in verdict["per_pass"] if attempted)


def per_layer(passes: list[dict], workload) -> dict[str, float]:
    def wall(kind):
        return statistics.median(p["wall_s"] for p in passes if p["kind"] == kind)

    traced = [p for p in passes if p["kind"] == "traced"]
    each = [spans.layer_metrics(p["spans"], workload.function_pairs) for p in traced]
    # Counts repeat exactly in every traced pass (the gate checks them per
    # cell), so they come from the first; timings are medians.
    metrics = {
        name: value if name.endswith(COUNT_SUFFIXES) else statistics.median(m[name] for m in each)
        for name, value in each[0].items()
    }
    metrics["harness.grid_build_s"] = statistics.median(p["grid_build_s"] for p in traced)
    # Traced passes run at jobs=1: compare them with untraced jobs=1 passes.
    serial = "serial" if workload.jobs > 1 else "plain"
    metrics["trace_overhead_frac"] = wall("traced") / wall(serial) - 1.0
    if "harness.cell_sum_s" in metrics:
        metrics["harness.pool_efficiency"] = metrics["harness.cell_sum_s"] / (
            workload.jobs * wall("plain")
        )
    peaks = [mb for p in passes if p["kind"] == "memory" for mb in p["run_peaks_mb"]]
    if peaks:
        metrics["baselines.run_peak_mb"] = max(peaks)
    return metrics


def write_spans(path: Path, passes: list[dict]) -> None:
    with path.open("w") as fh:
        for index, result in enumerate(passes):
            for span in result.get("spans", ()):
                fh.write(json.dumps({"pass": index, **span}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=52.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ember" / "__init__.py").is_file():
        print(f"error: no ember sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    workload = workloads.build(args.workload, args.seed)
    run_dir = root / "perfbench" / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        passes = collect(root, run_dir, workload, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    gated = [p for p in passes if p["kind"] != "setup"]
    reference = next(p for p in gated if p["kind"] == "traced")
    verdict = gate.check(gated, reference)
    for index, result in enumerate(gated):
        if result["exit_code"] != 0:
            verdict["problems"].append((index, "-", f"exit code {result['exit_code']}"))
    computed = per_layer(gated, workload) if args.trace else end_to_end(passes, verdict)
    write_spans(run_dir / "spans.jsonl", gated)

    kinds = [p["kind"] for p in gated]
    counts = []
    for kind in ("memory", "plain", "serial", "traced"):
        if kind in kinds:
            seconds = statistics.median(p["process_s"] for p in gated if p["kind"] == kind)
            counts.append(f"{kinds.count(kind)} {kind} ({seconds:.2f} s each)")
    setups = sum(p["kind"] == "setup" for p in passes)
    if setups:
        counts.append(f"{setups} set-up-only")
    print(f"workload {args.workload} seed {args.seed}: {', '.join(counts)} passes")
    if not args.trace:
        rates = [ok_cells(p) / p["wall_s"] for p in gated if p["kind"] == "plain"]
        print("cells_per_s of each untraced pass: " + " ".join(f"{r:.4g}" for r in rates))
    print(f"results_digest {gate.results_digest(reference['columns'], reference['rows'])}")
    print(f"cells_failed_frac {verdict['failed'] / verdict['attempted']!r} "
          f"({verdict['failed']} of {verdict['attempted']} accepted cells attempted; "
          f"worst pass {1.0 - worst_ok_frac(verdict)!r})")
    for index, key, reason in verdict["problems"][:20]:
        print(f"  gate: pass {index} ({kinds[index]}) {key}: {reason}")
    if args.trace:
        for algorithm, (evals, base) in sorted(spans.evals_bases(reference["spans"]).items()):
            print(f"evals {algorithm}: {evals} points / {base} agent-iterations "
                  "(agents x iteration budget, summed over cells)")
    metrics = {}
    for metric in wanted:
        value = computed.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value!r} {metric['unit']}")
    print(json.dumps({
        "correct": not verdict["problems"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
