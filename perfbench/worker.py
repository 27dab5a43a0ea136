"""One benchmark pass in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC_JSON RESULT_JSON`` from the root of
a checkout. The spec names the workload's grid config, whether it runs
through ``ember grid``, and the pass kind:

* ``plain``: untraced, timed; gives ``setup_s``, the wall time of the grid
  call and the process's peak RSS (its own and its pool workers');
* ``serial``: untraced at ``jobs=1``, the baseline of the tracing overhead
  when the workload runs with more jobs;
* ``traced``: ``jobs=1`` with spans around ember's public calls;
* ``memory``: ``jobs=1`` with tracemalloc, giving the peak of each
  ``run_optimizer`` call;
* ``warmup`` and ``setup``: import and grid construction only; a ``setup``
  pass is a sample of ``setup_s``.

The result file holds the pass's timings, its result rows and, for a CLI
pass, what it found in the output directory.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)

    start = time.perf_counter()
    import ember

    if spec["via_cli"]:
        import ember.cli
    imported = time.perf_counter()
    grid = ember.grid_from_mapping(spec["config"])
    built = time.perf_counter()
    if not os.path.abspath(ember.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"ember was imported from {ember.__file__}, not from {src}")
    result = {"kind": spec["kind"], "setup_s": built - start, "grid_build_s": built - imported}
    if spec["kind"] not in ("warmup", "setup"):
        result.update(run_pass(spec, grid))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def run_pass(spec: dict, grid) -> dict:
    import ember.harness

    import gate

    cli = None
    if spec["via_cli"]:
        import ember.cli as cli

    kind = spec["kind"]
    out_dir = spec["out_dir"]
    serial = kind != "plain"
    if spec["via_cli"]:
        config_path = os.path.join(out_dir, "grid.json")
        os.makedirs(out_dir, exist_ok=True)
        with open(config_path, "w") as fh:
            json.dump(spec["config"], fh)
        argv = ["grid", config_path, "--out", os.path.join(out_dir, "results")]
        if serial:
            argv += ["--jobs", "1"]
        entry = cli.main
        args = (argv,)
    else:
        if serial:
            import dataclasses

            grid = dataclasses.replace(grid, jobs=1)
        entry = ember.harness.run_grid
        args = (grid,)

    minima, seed_to_key = accepted_cells(spec["config"], gate.cell_key)
    tracer = None
    peaks: list[float] = []
    if kind == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, ember.harness, cli, seed_to_key)
        entry = tracer.wrap("cli.main" if spec["via_cli"] else "harness.run_grid", entry)
    elif kind == "memory":
        peaks = trace_memory(ember.harness)

    begin = time.perf_counter()
    returned = entry(*args)
    wall = time.perf_counter() - begin

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "kind": kind,
        "wall_s": wall,
        "peak_rss_mb": max(self_kb, children_kb) / 1024.0,
        "minima": minima,
    }
    if spec["via_cli"]:
        result["exit_code"] = returned
        result.update(read_outputs(os.path.join(out_dir, "results")))
    else:
        result["exit_code"] = 0
        result["columns"] = list(ember.harness.RESULT_COLUMNS)
        result["rows"] = [record.csv_row() for record in returned]
    if tracer is not None:
        result["spans"] = tracer.spans
        result["evals"] = {
            s["trace"]: s["evals"] for s in tracer.spans if s["name"] == "optimizer.run"
        }
    if kind == "memory":
        result["run_peaks_mb"] = peaks
    return result


def accepted_cells(config: dict, cell_key) -> tuple[dict, dict]:
    """Published minimum and tolerance per accepted cell, and derived seeds.

    A cell is accepted at dimension 2, or when its function carries the
    ``scalable`` tag: the grid rule stated in the project README.
    """
    from itertools import product

    import ember

    functions = config.get("functions") or [f.name for f in ember.list_functions()]
    minima, seed_to_key = {}, {}
    for algorithm, function, dimension, agents, iterations, seed in product(
        config["algorithms"], functions, config["dimensions"],
        config["agent_counts"], config["iteration_counts"], config["seeds"],
    ):
        entry = ember.get_function(function)
        if dimension != 2 and "scalable" not in entry.attributes:
            continue
        key = cell_key(
            {"algorithm": algorithm, "function": function, "dimension": dimension,
             "agents": agents, "max_iter": iterations, "seed": seed}
        )
        minimum, _ = ember.known_minimum(function, dimension)
        minima[key] = (minimum, entry.tolerance_at(dimension))
        seed_to_key[ember.derive_cell_seed(config["master_seed"], key)] = key
    return minima, seed_to_key


def trace_memory(harness) -> list[float]:
    """Record the tracemalloc peak of every ``run_optimizer`` call, in MB."""
    import tracemalloc

    peaks: list[float] = []
    run_optimizer = harness.run_optimizer

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return run_optimizer(*args, **kwargs)
        finally:
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)

    tracemalloc.start()
    harness.run_optimizer = measured
    return peaks


def read_outputs(directory: str) -> dict:
    """Parse what ``ember grid`` wrote, keeping enough to gate it."""
    import csv
    import hashlib

    def read_csv(name):
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            return []
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    results = read_csv("results.csv")
    summary = read_csv("summary.csv")
    rankings_path = os.path.join(directory, "rankings.json")
    rankings = {}
    if os.path.exists(rankings_path):
        with open(rankings_path) as fh:
            rankings = json.load(fh)
    histories = {}
    history_dir = os.path.join(directory, "histories")
    for name in sorted(os.listdir(history_dir)) if os.path.isdir(history_dir) else ():
        with open(os.path.join(history_dir, name), "rb") as fh:
            data = fh.read()
        lines = data.decode().splitlines()
        ok = lines[:1] == ["iteration,best_fitness"]
        histories[name.removesuffix(".csv")] = {
            "rows": len(lines) - 1 if ok else 0,
            "last": lines[-1].split(",", 1)[1] if ok and len(lines) > 1 else "",
            "sha": hashlib.sha256(data).hexdigest(),
        }
    return {
        "columns": results[0] if results else [],
        "rows": results[1:],
        "summary": summary[1:],
        "rankings": rankings,
        "histories": histories,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
