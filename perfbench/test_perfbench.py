"""Tests of the benchmark's own arithmetic, gate and tracing.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import gate
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent=None, trace=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "trace": trace, **attrs}


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_children_on_a_hand_built_tree():
    tree = [
        span("cli.main", 0.0, 10.0),                 # 0
        span("harness.run_grid", 1.0, 8.0, 0),       # 1
        span("harness.cell", 1.5, 4.0, 1),           # 2
        span("optimizer.run", 2.0, 3.5, 2),          # 3
        span("harness.cell", 4.5, 7.0, 1),           # 4
        span("harness.summarize", 8.5, 9.0, 0),      # 5
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 7 - 0.5, 7 - 2.5 - 2.5, 2.5 - 1.5, 1.5, 2.5, 0.5])


def test_self_time_counts_overlapping_children_once_and_clips_to_the_parent():
    tree = [
        span("parent", 0.0, 10.0),
        span("a", 2.0, 6.0, 0),
        span("b", 4.0, 7.0, 0),   # overlaps a by 2
        span("c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10 - 5 - 1)


# ---------------------------------------------------------------------------
# gate


def pass_result(rows, minima, **extra):
    columns = list(gate.RESULT_COLUMNS)
    return {"kind": "plain", "columns": columns, "rows": rows, "minima": minima, **extra}


def row(algorithm, function, best, seed=0, status="ok"):
    return [algorithm, function, "2", "10", "25", str(seed), best, "0.01", "3.5", "350.0", "25", status]


ROWS = [row("pso", "sphere", "1e-05"), row("sa", "sphere", "0.002"), row("pso", "booth", "0.5")]
MINIMA = {gate.cell_key(dict(zip(gate.RESULT_COLUMNS, r))): (0.0, 1e-3) for r in ROWS}


def test_identical_passes_pass_the_gate():
    reference = pass_result(ROWS, MINIMA, kind="traced")
    verdict = gate.check([pass_result(ROWS, MINIMA), reference], reference)
    assert verdict == {"attempted": 6, "failed": 0, "problems": [], "per_pass": [(3, 0), (3, 0)]}


def test_injected_result_mismatch_is_counted_in_cells_failed_frac():
    reference = pass_result(ROWS, MINIMA, kind="traced")
    drifted = [r.copy() for r in ROWS]
    drifted[1][6] = "0.0020000000000000005"  # one ulp-scale change of best_fitness
    passes = [pass_result(drifted, MINIMA), reference]
    verdict = gate.check(passes, reference)
    assert verdict["failed"] == 1
    assert verdict["problems"] == [(0, "sa__sphere__d2__a10__i25__s0", "result differs from the reference pass")]
    for p in passes:
        p.update(setup_s=0.1, wall_s=1.0, peak_rss_mb=40.0)
    metrics = run.end_to_end(passes, verdict)
    # Taken in the worst pass, not pooled: one failing cell costs 1/3 here.
    assert metrics["cells_ok_frac"] == pytest.approx(1 - 1 / 3)


def test_gate_fails_errors_missing_rows_and_values_below_the_published_minimum():
    below = [r.copy() for r in ROWS]
    below[0][6] = "-0.5"
    reference = pass_result(below, MINIMA, kind="traced")
    broken = [row("pso", "sphere", "", status="error"), ROWS[1]]
    verdict = gate.check([pass_result(broken, MINIMA), reference], reference)
    assert verdict["problems"] == [
        (0, "pso__booth__d2__a10__i25__s0", "row missing"),
        (0, "pso__sphere__d2__a10__i25__s0", "status error"),
        (1, "pso__sphere__d2__a10__i25__s0", "best_fitness below the published minimum 0.0"),
    ]
    assert verdict["failed"] == 3


def test_gate_checks_cli_outputs_for_completeness():
    histories = {
        gate.cell_key(dict(zip(gate.RESULT_COLUMNS, r))): {"rows": 25, "last": r[6], "sha": "x"}
        for r in ROWS
    }
    summary = [[a] + ["1.0"] * 13 for a in ("pso", "sa")]
    rankings = {
        "global_counts": {c: {} for c in gate.CATEGORIES},
        "per_setting": [
            {"function": "sphere", "dimension": 2, "agents": 10, "max_iter": 25,
             **{c: ["pso", "sa"] for c in gate.CATEGORIES}},
            {"function": "booth", "dimension": 2, "agents": 10, "max_iter": 25,
             **{c: ["pso"] for c in gate.CATEGORIES}},
        ],
    }
    outputs = {"histories": histories, "summary": summary, "rankings": rankings}
    reference = pass_result(ROWS, MINIMA, kind="traced", **outputs)
    assert gate.check([reference], reference)["failed"] == 0

    missing_summary = pass_result(ROWS, MINIMA, **{**outputs, "summary": summary[:1]})
    short_rankings = json.loads(json.dumps(rankings))
    short_rankings["per_setting"][0]["most_accurate"] = ["pso"]
    no_history = {k: v for k, v in histories.items() if not k.startswith("pso__booth")}
    verdict = gate.check(
        [
            missing_summary,
            pass_result(ROWS, MINIMA, **{**outputs, "rankings": short_rankings}),
            pass_result(ROWS, MINIMA, **{**outputs, "histories": no_history}),
            reference,
        ],
        reference,
    )
    assert {(i, k.split("__")[0] + "/" + k.split("__")[1]) for i, k, _ in verdict["problems"]} == {
        (0, "sa/sphere"), (1, "pso/sphere"), (1, "sa/sphere"), (2, "pso/booth"),
    }


def test_results_digest_ignores_timing_columns_only():
    timed = [r.copy() for r in ROWS]
    timed[0][7], timed[0][9] = "9.9", "0.1"
    assert gate.results_digest(gate.RESULT_COLUMNS, timed) == gate.results_digest(gate.RESULT_COLUMNS, ROWS)
    moved = [r.copy() for r in ROWS]
    moved[0][8] = "3.6"
    assert gate.results_digest(gate.RESULT_COLUMNS, moved) != gate.results_digest(gate.RESULT_COLUMNS, ROWS)


# ---------------------------------------------------------------------------
# metric names


def test_every_metric_name_is_well_formed_and_unique():
    bench = declared()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES)


def synthetic_passes(workload):
    """Passes shaped like a traced run of ``workload``, all layers present."""
    algorithms = workload.config["algorithms"]
    pairs = workload.function_pairs or (("sphere", 2),)
    trace, t = [], 0.0
    top = "cli.main" if workload.via_cli else "harness.run_grid"
    trace.append(span(top, 0.0, 100.0))
    if workload.via_cli:
        trace.append(span("harness.run_grid", 0.5, 90.0, 0))
    grid = len(trace) - 1
    t = 1.0
    for algorithm in algorithms:
        for fn, dim in pairs:
            trace.append(span("harness.cell", t, t + 1.0, grid))
            cell = len(trace) - 1
            trace.append(span("optimizer.run", t + 0.1, t + 0.9, cell, algorithm=algorithm,
                              function=fn, dimension=dim, agents=10, iterations=20,
                              evals=400, objective_s=0.3))
            trace.append(span("harness.export_history", t + 0.95, t + 0.99, grid))
            t += 1.0
    trace.append(span("harness.summarize", 91.0, 92.0, 0))
    trace.append(span("harness.rank_top3", 92.0, 93.0, 0))
    base = {"setup_s": 0.2, "grid_build_s": 1e-4, "peak_rss_mb": 40.0}
    return [
        {**base, "kind": "memory", "wall_s": 5.0, "run_peaks_mb": [1.5, 2.5]},
        {**base, "kind": "plain", "wall_s": 50.0},
        {**base, "kind": "serial", "wall_s": 95.0},
        {**base, "kind": "traced", "wall_s": 100.0, "spans": trace},
        {**base, "kind": "traced", "wall_s": 100.0, "spans": trace},
    ]


def test_every_declared_per_layer_metric_is_produced_by_a_declared_workload():
    produced = set()
    for name in (w["name"] for w in declared()["workloads"]):
        workload = workloads.build(name, 0)
        metrics = run.per_layer(synthetic_passes(workload), workload)
        assert all(NAME.fullmatch(m) for m in metrics)
        produced |= set(metrics)
    missing = {m["name"] for m in declared()["per_layer"]} - produced
    assert not missing


def test_per_layer_arithmetic_on_a_synthetic_cli_pass():
    workload = workloads.build("grid-2d", 0)
    metrics = run.per_layer(synthetic_passes(workload), workload)
    cells = len(workload.config["algorithms"])
    assert metrics["functions.evals"] == 400 * cells
    assert isinstance(metrics["functions.evals"], int)
    assert metrics["functions.us_per_eval"] == pytest.approx(1e6 * 0.3 / 400)
    assert metrics["baselines.pso.self_us_per_eval"] == pytest.approx(1e6 * 0.5 / 400)
    assert metrics["baselines.pso.evals_per_agent_iter"] == pytest.approx(400 / 200)
    assert metrics["harness.cell_p50_s"] == pytest.approx(1.0)
    assert metrics["harness.pool_efficiency"] == pytest.approx(cells * 1.0 / (2 * 50.0))
    assert metrics["trace_overhead_frac"] == pytest.approx(100.0 / 95.0 - 1)
    assert metrics["cli.self_s"] == pytest.approx(100 - 89.5 - 2)
    assert metrics["baselines.run_peak_mb"] == 2.5


# ---------------------------------------------------------------------------
# tracing a real grid


def test_counting_objective_counts_points_not_calls():
    objective = spans.CountingObjective(lambda x: np.sum(x**2, axis=-1), "sphere")
    objective(np.ones(3))
    objective(np.ones((5, 3)))
    assert objective.evals == 6
    assert objective.seconds > 0


@pytest.fixture
def ember_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.delenv("EMBER_SEED", raising=False)
    import ember.cli
    import ember.harness

    for module, names in (
        (ember.harness, ("make_objective", "domain_box", "run_optimizer", "export_history")),
        (ember.cli, ("run_grid", "summarize", "rank_top3", "write_summary_csv")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, getattr(module, name))
    return ember.harness, ember.cli


def test_traced_cli_grid_nests_spans_and_counts_evaluations(ember_modules, tmp_path):
    harness, cli = ember_modules
    from worker import accepted_cells

    config = {"algorithms": ["pso", "sa"], "functions": ["sphere"], "dimensions": [2],
              "agent_counts": [4], "iteration_counts": [6], "seeds": [0], "master_seed": 7,
              "save_histories": True}
    minima, seed_to_key = accepted_cells(config, gate.cell_key)
    (tmp_path / "grid.json").write_text(json.dumps(config))
    tracer = spans.Tracer()
    spans.install(tracer, harness, cli, seed_to_key)
    main = tracer.wrap("cli.main", cli.main)
    assert main(["grid", str(tmp_path / "grid.json"), "--out", str(tmp_path / "out")]) == 0

    names = [s["name"] for s in tracer.spans]
    assert names[0] == "cli.main" and names[1] == "harness.run_grid"
    assert names.count("harness.cell") == 2 and names.count("optimizer.run") == 2
    for s in tracer.spans:
        assert s["end"] >= s["start"]
        if s["name"] in ("harness.cell", "optimizer.run", "functions.make_objective"):
            assert s["trace"] in minima
        if s["name"] == "optimizer.run":
            assert tracer.spans[s["parent"]]["name"] == "harness.cell"
    runs = {s["algorithm"]: s for s in tracer.spans if s["name"] == "optimizer.run"}
    assert runs["pso"]["evals"] == 4 * (6 + 1)  # initial population plus one per agent-iteration
    assert runs["sa"]["evals"] == 1 + 6
    assert {tracer.spans[s["parent"]]["name"] for s in tracer.spans
            if s["name"] in ("harness.summarize", "harness.rank_top3")} == {"cli.main"}
