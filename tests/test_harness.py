"""Experiment harness tests: enumeration, CSV contracts, aggregation, ranking."""

import concurrent.futures
import csv
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import ember.baselines as baselines
import ember.harness as harness
from ember.baselines import PARAM_DEFAULTS, resolve_params
from ember.cli import main as cli_main
from ember.errors import ConfigError, MetricError
from ember.harness import (
    CATEGORIES,
    PRESETS,
    RESULT_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentGrid,
    RunRecord,
    derive_cell_seed,
    distance_per_unit_time,
    enumerate_cells,
    export_history,
    grid_from_mapping,
    rank_top3,
    run_grid,
    summarize,
    write_summary_csv,
)
from ember.recording import RunOutcome


def tiny_grid(**overrides):
    base = dict(
        algorithms=("pso", "sa"),
        functions=("sphere", "booth"),
        dimensions=(2, 20),
        agent_counts=(8,),
        iteration_counts=(25,),
        seeds=(0, 1),
    )
    base.update(overrides)
    return ExperimentGrid(**base)


# ---------------------------------------------------------------------------
# enumeration and seeds


def test_cell_count_is_full_cartesian_product():
    records = run_grid(tiny_grid())
    assert len(records) == 2 * 2 * 2 * 1 * 1 * 2


def test_skip_rule_spares_scalable_functions_only():
    records = run_grid(tiny_grid())
    skipped = [r for r in records if r.status == "skipped"]
    assert skipped and all(r.function == "booth" and r.dimension == 20 for r in skipped)
    assert all(r.best_fitness is None and r.iterations_run is None for r in skipped)
    ran_high = [r for r in records if r.dimension == 20 and r.status == "ok"]
    assert ran_high and all(r.function == "sphere" for r in ran_high)


def test_enumeration_order_is_row_major_over_the_config():
    cells = enumerate_cells(tiny_grid())
    first_eight = [(c.algorithm, c.function, c.dimension, c.seed) for c in cells[:8]]
    assert first_eight == [
        ("pso", "sphere", 2, 0), ("pso", "sphere", 2, 1),
        ("pso", "sphere", 20, 0), ("pso", "sphere", 20, 1),
        ("pso", "booth", 2, 0), ("pso", "booth", 2, 1),
        ("pso", "booth", 20, 0), ("pso", "booth", 20, 1),
    ]


def test_cell_seed_derivation_is_frozen():
    # this value is part of the reproducibility contract; a change here means
    # previously published grids can no longer be regenerated
    assert derive_cell_seed(0, "pso__sphere__d2__a10__i50__s0") == 14097211077937655340
    assert derive_cell_seed(0, "a") != derive_cell_seed(0, "b")
    assert derive_cell_seed(0, "a") != derive_cell_seed(1, "a")


def test_cell_key_format():
    record = RunRecord(algorithm="ffo", function="ackley", dimension=20,
                       agents=50, max_iter=1000, seed=7)
    assert record.cell_key == "ffo__ackley__d20__a50__i1000__s7"


def test_preset_cell_arithmetic():
    grid = grid_from_mapping({"preset": "paper-2d", "algorithms": ["ffo", "pso"],
                              "seeds": [0]})
    assert len(enumerate_cells(grid)) == 2 * 24 * 1 * 3 * 3 * 1 == 432
    hd = grid_from_mapping({"preset": "paper-hd"})
    assert len(hd.functions) == 12
    assert hd.dimensions == (20, 50)
    assert hd.agent_counts == (10, 50, 100)
    assert hd.iteration_counts == (100, 1000, 3000)
    full = grid_from_mapping({"preset": "paper-full", "seeds": [0, 1]})
    assert len(enumerate_cells(full)) == 5 * 24 * 3 * 3 * 3 * 2


# ---------------------------------------------------------------------------
# grid validation


def test_grid_rejects_unknown_names_and_empty_axes():
    with pytest.raises(ConfigError):
        tiny_grid(algorithms=("pso", "warp_drive"))
    with pytest.raises(ConfigError):
        tiny_grid(functions=("sphere", "not_a_function"))
    with pytest.raises(ConfigError):
        tiny_grid(seeds=())
    with pytest.raises(ConfigError):
        tiny_grid(iteration_counts=(0,))
    with pytest.raises(ConfigError):
        tiny_grid(jobs=0)
    with pytest.raises(ConfigError):
        tiny_grid(params={"pso": {"bogus": 1.0}})
    with pytest.raises(ConfigError):
        tiny_grid(params={"warp_drive": {}})
    with pytest.raises(ConfigError, match="^agent_counts must be a list of integers"):
        tiny_grid(agent_counts=8)
    with pytest.raises(ConfigError, match="^algorithms must be a list of names"):
        tiny_grid(algorithms="pso")
    with pytest.raises(ConfigError, match="^algorithms must be a list of names"):
        tiny_grid(algorithms=(1,))
    with pytest.raises(ConfigError, match="^dimensions must be a list of integers"):
        tiny_grid(dimensions="20")
    with pytest.raises(ConfigError, match="^params must map"):
        tiny_grid(params={"pso": 1})
    # a repeated value would run two cells under one key
    for name, value in [("algorithms", ("pso", "pso")), ("functions", ("sphere", "sphere")),
                        ("dimensions", (2, 2.0)), ("agent_counts", (4, 4)),
                        ("iteration_counts", (3, 5, 3)), ("seeds", (0, 0))]:
        with pytest.raises(ConfigError, match=f"^{name} must be distinct"):
            tiny_grid(**{name: value})
    with pytest.raises(ConfigError, match="^algorithms must be distinct"):
        grid_from_mapping({"algorithms": ["pso", "pso"], "functions": ["sphere"],
                           "agent_counts": [5], "iteration_counts": [5], "seeds": [0, 0]})


def test_grid_rejects_numpy_booleans_as_integers():
    with pytest.raises(ConfigError, match="^seeds must be a list of integers"):
        tiny_grid(seeds=[np.True_])


def test_empty_mapping_is_the_default_grid():
    built, default = grid_from_mapping({}), ExperimentGrid()
    for f in dataclasses.fields(ExperimentGrid):
        assert getattr(built, f.name) == getattr(default, f.name), f.name
    assert default.algorithms == tuple(baselines.optimizer_names())
    assert len(default.functions) == 24
    converted = tiny_grid(algorithms=iter(["pso"]), seeds=range(3), jobs="2")
    assert converted.algorithms == ("pso",) and converted.seeds == (0, 1, 2)
    assert converted.jobs == 2


def test_grid_from_mapping_rejects_unknown_keys_with_paths():
    with pytest.raises(ConfigError, match="bogus"):
        grid_from_mapping({"bogus": 1})
    with pytest.raises(ConfigError, match="params.sa.turbo"):
        grid_from_mapping({"params": {"sa": {"turbo": True}}})
    with pytest.raises(ConfigError, match="preset"):
        grid_from_mapping({"preset": "paper-3d"})
    with pytest.raises(ConfigError):
        grid_from_mapping([1, 2])
    with pytest.raises(ConfigError):
        grid_from_mapping({"functions": {"pick": ["sphere"]}})
    with pytest.raises(ConfigError):
        grid_from_mapping({"functions": {"filter": ["no-such-tag"]}})
    with pytest.raises(ConfigError, match="^functions.filter must be a list of tags$"):
        grid_from_mapping({"functions": {"filter": "scalable"}})


@pytest.mark.parametrize("algo,key,value", [
    ("sa", "proposal_scale", -1),
    ("ga", "mutation_scale", -0.1),
    ("ga", "tournament_size", 0),
    ("ga", "elitism", 50),  # more elites than the 5 agents
    ("ffo", "cooling_rate", 2),
    ("pso", "inertia", "fast"),
])
def test_grid_rejects_bad_parameter_values_with_paths(algo, key, value):
    with pytest.raises(ConfigError, match=rf"^params\.{algo}\.{key} must"):
        grid_from_mapping({"algorithms": [algo], "functions": ["sphere"],
                           "agent_counts": [5, 60], "params": {algo: {key: value}}})


def test_grid_from_mapping_filter_and_overrides():
    grid = grid_from_mapping({
        "functions": {"filter": ["scalable", "unimodal"]},
        "dimensions": [50],
        "seeds": [3, 4],
        "master_seed": 11,
    })
    assert "sphere" in grid.functions
    assert all("booth" != name for name in grid.functions)
    assert grid.master_seed == 11 and grid.seeds == (3, 4)


# ---------------------------------------------------------------------------
# execution and CSV contract


def test_results_csv_exact_columns_and_row_parity(tmp_path):
    grid = tiny_grid(output=str(tmp_path / "out"), save_histories=True)
    records = run_grid(grid)
    with (tmp_path / "out" / "results.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == RESULT_COLUMNS
    assert len(rows) == len(records) + 1
    by_key = {}
    for row in rows[1:]:
        entry = dict(zip(RESULT_COLUMNS, row))
        by_key[(entry["algorithm"], entry["function"], entry["dimension"],
                entry["seed"])] = entry
    probe = by_key[("pso", "sphere", "2", "1")]
    assert probe["status"] == "ok"
    assert float(probe["best_fitness"]) >= 0.0
    assert int(probe["iterations_run"]) == 25
    blank = by_key[("sa", "booth", "20", "0")]
    assert blank["status"] == "skipped"
    assert blank["best_fitness"] == "" and blank["execution_time_s"] == ""


def test_history_files_written_for_ok_cells_only(tmp_path):
    grid = tiny_grid(output=str(tmp_path / "out"), save_histories=True)
    records = run_grid(grid)
    ok = [r for r in records if r.status == "ok"]
    histories = sorted((tmp_path / "out" / "histories").iterdir())
    assert len(histories) == len(ok)
    sample = histories[0].read_text().splitlines()
    assert sample[0] == "iteration,best_fitness"
    assert sample[1].startswith("1,")
    assert len(sample) == 26  # 25 iterations for the baselines


def _history_file(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "best_fitness"]
    assert [int(i) for i, _ in rows[1:]] == list(range(1, len(rows)))
    return [float(v) for _, v in rows[1:]]


@pytest.mark.parametrize("jobs", [1, 2])
def test_output_grid_keeps_each_history_in_its_file_only(tmp_path, jobs):
    grid = tiny_grid(jobs=jobs, save_histories=True, output=str(tmp_path / "out"))
    records = run_grid(grid)
    assert not any(hasattr(r, "history") for r in records)
    ok = [r for r in records if r.status == "ok"]
    assert ok
    assert sorted(p.name for p in (tmp_path / "out" / "histories").iterdir()) == sorted(
        f"{r.cell_key}.csv" for r in ok)
    for record in ok:
        # the history of the same run, through the one cell pipeline
        seed = derive_cell_seed(grid.master_seed, record.cell_key)
        _, outcome = harness.run_cell(record, {}, seed)
        path = tmp_path / "out" / "histories" / f"{record.cell_key}.csv"
        assert _history_file(path) == outcome.fitness_history


def test_save_histories_without_output_is_refused_before_any_cell(tmp_path, monkeypatch):
    config = {"algorithms": ["sa"], "functions": ["sphere"], "agent_counts": [2],
              "iteration_counts": [5], "save_histories": True}
    grid = grid_from_mapping(config)  # the CLI applies --out after building the grid
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_execute_cell", lambda *args: pytest.fail("a cell ran"))
    with pytest.raises(ConfigError, match="save_histories needs an output directory"):
        run_grid(grid)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_grid_retains_no_history_once_written(tmp_path, jobs):
    # a written history must not stay in the parent: the memory a finished
    # grid holds grows by a record's few hundred bytes per cell, not by its budget
    def retained(seeds):
        grid = ExperimentGrid(algorithms=("sa",), functions=("sphere",), dimensions=(2,),
                              agent_counts=(2,), iteration_counts=(2000,),
                              seeds=tuple(range(seeds)), output=str(tmp_path / f"s{seeds}"),
                              save_histories=True, jobs=jobs)
        gc.collect()
        tracemalloc.start()
        try:
            records = run_grid(grid)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r.status for r in records] == ["ok"] * seeds
        return held

    retained(4)  # warm-up: first-use caches and imports
    per_cell = (retained(16) - retained(4)) / 12
    assert per_cell < 4096, f"{per_cell:.0f} bytes retained per extra cell"


def test_grid_parent_keeps_under_a_kilobyte_per_cell():
    # the process that drives a grid keeps a few hundred bytes per cell: the
    # pool gets one task, and sends back one message, per chunk of cells.
    # concurrent.futures.process is imported at the top of this module, so
    # the pool's own imports are not traced
    cells = 2000
    grid = ExperimentGrid(algorithms=("sa",), functions=("sphere",), dimensions=(2,),
                          agent_counts=(2,), iteration_counts=(1,), seeds=tuple(range(cells)),
                          jobs=2)
    gc.collect()
    tracemalloc.start()
    try:
        records = run_grid(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.status for r in records] == ["ok"] * cells
    assert peak / cells < 1024, f"{peak / cells:.0f} bytes per cell at the peak"


def test_execute_cell_writes_its_history_and_returns_none(tmp_path):
    # the process that runs a cell writes its history, so none crosses to the parent
    grid = tiny_grid(save_histories=True, output=str(tmp_path))
    cell = enumerate_cells(grid)[0]
    seed = derive_cell_seed(grid.master_seed, cell.cell_key)
    reference, outcome = harness.run_cell(cell, {}, seed)
    record = harness._execute_cell(grid, cell)
    assert record.status == "ok" and not hasattr(record, "history")
    for name in ("best_fitness", "total_distance", "iterations_run", "evaluations"):
        assert getattr(record, name) == getattr(reference, name)
    path = tmp_path / "histories" / f"{cell.cell_key}.csv"
    assert _history_file(path) == outcome.fitness_history


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_history_write_fails_only_its_cell(tmp_path, capsys, jobs):
    # a directory where a history file belongs: the write fails even as root
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "algorithms": ["pso", "sa"], "functions": ["sphere"], "dimensions": [2],
        "agent_counts": [5], "iteration_counts": [10], "seeds": [0, 1],
        "save_histories": True, "jobs": jobs,
    }))
    out = tmp_path / "out"
    blocked = "pso__sphere__d2__a5__i10__s1"
    (out / "histories" / f"{blocked}.csv").mkdir(parents=True)
    code = cli_main(["grid", str(config), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Traceback" not in captured.err
    cells = [json.loads(line) for line in (out / "cells.jsonl").read_text().splitlines()]
    assert [cell["key"].split("__")[0] for cell in cells] == ["pso", "pso", "sa", "sa"]
    with (out / "results.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == [cell["status"] for cell in cells]
    for cell, row in zip(cells, rows):
        if cell["key"] == blocked:
            assert cell["status"] == "error" and row["best_fitness"] == ""
            assert cell["message"].startswith("IsADirectoryError: ")
        else:
            assert cell["status"] == "ok", cell
            assert (out / "histories" / f"{cell['key']}.csv").is_file()
    assert (out / "summary.csv").read_text().startswith(",".join(SUMMARY_COLUMNS))
    assert set(json.loads((out / "rankings.json").read_text())) >= {"global_counts"}


def test_presets_default_and_boundary_parameters_still_build():
    for name in PRESETS:
        grid_from_mapping({"preset": name})
    for algo, defaults in PARAM_DEFAULTS.items():
        assert resolve_params(algo, defaults, 10) == defaults  # defaults pass their own checks
    grid_from_mapping({"agent_counts": [2], "params": {
        "sa": {"cooling_rate": 0.999, "proposal_scale": 0, "initial_temp": 1e-9},
        "ga": {"crossover_rate": 1, "mutation_rate": 0.0, "tournament_size": 2.0, "elitism": 2},
        "hs": {"memory_consideration_rate": 1.0, "pitch_adjustment_rate": 0,
               "bandwidth_fraction": 0.0},
        "pso": {"inertia": -0.5, "cognitive": 0},
        "ffo": {"no_improve_limit": 5.0, "use_additional_conditions": True},
    }})


def test_rerun_reproduces_deterministic_columns(tmp_path):
    grid = tiny_grid(output=str(tmp_path / "out"))

    def snapshot():
        with (tmp_path / "out" / "results.csv").open() as fh:
            return [(r["best_fitness"], r["total_distance"], r["iterations_run"], r["status"])
                    for r in csv.DictReader(fh)]

    run_grid(grid)
    first = snapshot()
    run_grid(grid)
    assert snapshot() == first


def _non_timing_rows(path):
    with path.open(newline="") as fh:
        return [[value for column, value in row.items()
                 if column not in ("execution_time_s", "distance_per_unit_time")]
                for row in csv.DictReader(fh)]


def test_parallel_execution_matches_serial(tmp_path):
    # the tuned grid shows that parameters and the history flag reach the
    # workers from the grid. The chunked grid has 138 runnable cells, so at
    # jobs=2 they reach the pool in chunks of 4 and a last chunk of 2, and
    # its 46 skipped booth cells at d=20 sit between runnable ones
    tuned = {"params": {"pso": {"inertia": 0.3}}, "save_histories": True}
    chunked = {"agent_counts": (4,), "iteration_counts": (5,), "seeds": tuple(range(23)),
               "save_histories": True}
    runs = []
    for n, (overrides, jobs) in enumerate((({}, 3), (tuned, 3), (chunked, 2))):
        sides = (tmp_path / f"{n}-serial", tmp_path / f"{n}-parallel")
        serial = run_grid(tiny_grid(output=str(sides[0]), **overrides))
        parallel = run_grid(tiny_grid(jobs=jobs, output=str(sides[1]), **overrides))
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.cell_key == b.cell_key and a.status == b.status
            if a.status == "ok":
                assert a.best_fitness == b.best_fitness
                assert a.total_distance == b.total_distance
                assert a.iterations_run == b.iterations_run
        assert (sides[0] / "cells.jsonl").read_bytes() == (sides[1] / "cells.jsonl").read_bytes()
        assert _non_timing_rows(sides[0] / "results.csv") == _non_timing_rows(
            sides[1] / "results.csv")
        histories = [sorted((side / "histories").glob("*.csv")) for side in sides]
        assert [p.name for p in histories[0]] == [p.name for p in histories[1]]
        assert len(histories[0]) == (sum(r.status == "ok" for r in serial)
                                     if "save_histories" in overrides else 0)
        for a, b in zip(*histories):
            assert a.read_bytes() == b.read_bytes()
        runs.append(serial)
    assert [r.status for r in runs[2]].count("ok") == 138
    assert [r.status for r in runs[2]].count("skipped") == 46
    pairs = [(a, b) for a, b in zip(*runs[:2]) if a.status == "ok"]
    assert pairs and all(
        (a.total_distance != b.total_distance) == (a.algorithm == "pso") for a, b in pairs
    )


def test_master_seed_changes_results():
    base = run_grid(tiny_grid())
    moved = run_grid(tiny_grid(master_seed=99))
    pairs = [(a, b) for a, b in zip(base, moved) if a.status == "ok"]
    assert any(a.best_fitness != b.best_fitness for a, b in pairs)


def _fake_optimizer(monkeypatch, name, run):
    """Make ``name`` a known optimizer whose cells ``run(spec, objective, domain)``
    runs in place of ``run_optimizer``; every other optimizer runs as before."""
    run_optimizer = harness.run_optimizer
    monkeypatch.setitem(baselines._OPTIMIZERS, name, (run, {}))
    monkeypatch.setattr(harness, "run_optimizer", lambda spec, objective, domain: (
        run if spec.name == name else run_optimizer)(spec, objective, domain))


def test_failing_cell_is_recorded_and_grid_continues(monkeypatch):
    def unstable(spec, objective, domain):
        raise RuntimeError("deliberate failure")

    _fake_optimizer(monkeypatch, "unstable", unstable)
    grid = ExperimentGrid(algorithms=("unstable", "pso"), functions=("sphere",),
                          dimensions=(2,), agent_counts=(5,),
                          iteration_counts=(10,), seeds=(0,))
    records = run_grid(grid)
    assert records[0].status == "error"
    assert "deliberate failure" in records[0].message
    assert records[0].best_fitness is None
    assert records[1].status == "ok"


def test_undefined_distance_rate_fails_only_its_cell(monkeypatch):
    def instant(spec, objective, domain):
        return RunOutcome(np.zeros(domain.dimension), 0.0, [0.0], 0.0, 1.0, 1)

    _fake_optimizer(monkeypatch, "instant", instant)
    grid = ExperimentGrid(algorithms=("instant", "pso"), functions=("sphere",),
                          dimensions=(2,), agent_counts=(5,),
                          iteration_counts=(10,), seeds=(0,))
    records = run_grid(grid)
    assert records[0].status == "error"
    assert records[0].message.startswith("MetricError: execution time must be positive")
    assert records[0].best_fitness is None
    assert records[1].status == "ok"


def test_dead_worker_becomes_error_records_and_grid_completes(tmp_path, capsys, monkeypatch):
    main_pid = os.getpid()

    def crash(spec, objective, domain):
        if os.getpid() == main_pid:
            raise RuntimeError("crash must run in a worker process")
        os._exit(1)

    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "algorithms": ["crash", "pso"], "functions": ["sphere"], "dimensions": [2],
        "agent_counts": [5], "iteration_counts": [10], "seeds": [0, 1], "jobs": 2,
    }))
    out = tmp_path / "out"
    _fake_optimizer(monkeypatch, "crash", crash)
    code = cli_main(["grid", str(config), "--out", str(out)])
    # the pool breaks with the first crash; pso cells still queued fail with it
    assert code in (0, 1), capsys.readouterr().err
    with (out / "results.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["algorithm"] for row in rows] == ["crash", "crash", "pso", "pso"]
    assert [row["status"] for row in rows[:2]] == ["error", "error"]
    assert all(row["best_fitness"] == "" for row in rows[:2])
    assert {row["status"] for row in rows} <= {"ok", "error"}
    assert (out / "summary.csv").read_text().startswith(",".join(SUMMARY_COLUMNS))
    assert set(json.loads((out / "rankings.json").read_text())) >= {"global_counts"}
    # the reason reaches disk: cells.jsonl names the broken pool
    cells = [json.loads(line) for line in (out / "cells.jsonl").read_text().splitlines()]
    assert [cell["status"] for cell in cells] == [row["status"] for row in rows]
    assert all(cell["message"].startswith("BrokenProcessPool: ") for cell in cells[:2])


def test_cells_log_carries_each_cells_reason(tmp_path, monkeypatch):
    registry_objective = harness.make_objective

    def objective(function, dimension):
        if function == "sphere":
            return lambda x: np.full(x.shape[:-1], np.nan)
        return registry_objective(function, dimension)

    monkeypatch.setattr(harness, "make_objective", objective)
    grid = tiny_grid(algorithms=("pso",), seeds=(0,), output=str(tmp_path))
    records = run_grid(grid)
    cells = [json.loads(line) for line in (tmp_path / "cells.jsonl").read_text().splitlines()]
    assert cells == [
        {"key": record.cell_key,
         "derived_seed": derive_cell_seed(grid.master_seed, record.cell_key),
         "status": record.status, "message": record.message,
         "evaluations": record.evaluations}
        for record in records
    ]
    by_setting = {(r.function, r.dimension): cell for r, cell in zip(records, cells)}
    assert by_setting["sphere", 2]["status"] == "error"
    assert by_setting["sphere", 2]["message"].startswith("EvaluationError: ")
    assert by_setting["booth", 20] == {
        "key": "pso__booth__d20__a8__i25__s0",
        "derived_seed": derive_cell_seed(0, "pso__booth__d20__a8__i25__s0"),
        "status": "skipped",
        "message": "booth is not tagged scalable; dimension 20 skipped",
        "evaluations": None,
    }
    assert by_setting["sphere", 2]["evaluations"] is None
    assert by_setting["booth", 2]["status"] == "ok"
    assert by_setting["booth", 2]["message"] == ""
    assert by_setting["booth", 2]["evaluations"] == 8 * (25 + 1)  # PSO: N(K+1)


def test_failed_future_message_names_the_exception(monkeypatch):
    # a worker that dies makes the pool's results raise BrokenProcessPool;
    # every record carries the exception's type and text
    class Dead:
        def __next__(self):
            raise BrokenProcessPool("a child process terminated abruptly")

    class Pool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, cells, chunksize):
            return Dead()

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    records = run_grid(tiny_grid(jobs=2, functions=("sphere",), dimensions=(2,)))
    assert [r.status for r in records] == ["error"] * 4
    assert {r.message for r in records} == {
        "BrokenProcessPool: a child process terminated abruptly"
    }


def test_import_leaves_the_process_pool_unloaded():
    # the pool is imported by the first grid that runs with jobs > 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    probe = "import sys, ember; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# metrics and aggregation


def test_distance_per_unit_time_values():
    assert distance_per_unit_time(10.0, 4.0) == 2.5
    with pytest.raises(MetricError):
        distance_per_unit_time(1.0, 0.0)
    with pytest.raises(MetricError):
        distance_per_unit_time(1.0, -2.0)


def _record(algorithm, best, time, dist, function="sphere", dimension=2,
            agents=10, max_iter=100, seed=0, status="ok"):
    return RunRecord(algorithm=algorithm, function=function, dimension=dimension,
                     agents=agents, max_iter=max_iter, seed=seed,
                     best_fitness=best, execution_time=time, total_distance=dist,
                     distance_per_unit_time=(dist / time if time else None),
                     iterations_run=max_iter, status=status)


def test_summarize_against_hand_computed_statistics():
    records = [
        _record("x", 1.0, 0.5, 10.0, seed=0),
        _record("x", 2.0, 0.5, 20.0, seed=1),
        _record("x", 3.0, 1.0, 30.0, seed=2),
        _record("x", 4.0, 1.0, 40.0, seed=3),
        _record("x", 5.0, 2.0, 50.0, seed=4),
        _record("y", 10.0, 1.0, 5.0, seed=0),
        _record("y", 10.0, 1.0, 5.0, seed=1),
        _record("y", 10.0, 1.0, 5.0, seed=2),
        _record("y", 10.0, 1.0, 5.0, seed=3),
        _record("y", 10.0, 1.0, 5.0, seed=4),
    ]
    rows = summarize(records)
    assert [r["algorithm"] for r in rows] == ["x", "y"]
    x, y = rows
    assert abs(x["best_fitness_mean"] - 3.0) < 1e-12
    assert abs(x["best_fitness_std"] - 1.5811388300841898) < 1e-12  # sqrt(2.5)
    assert (x["best_fitness_min"], x["best_fitness_max"]) == (1.0, 5.0)
    assert abs(x["execution_time_mean"] - 1.0) < 1e-12
    assert abs(x["execution_time_std"] - 0.6123724356957945) < 1e-12  # sqrt(0.375)
    assert abs(x["total_distance_mean"] - 30.0) < 1e-12
    assert abs(x["total_distance_std"] - 15.811388300841896) < 1e-12  # sqrt(250)
    assert abs(x["distance_per_unit_time"] - 30.0) < 1e-12  # mean dist / mean time
    assert y["best_fitness_std"] == 0.0
    assert y["distance_per_unit_time"] == pytest.approx(5.0)


def test_summarize_skips_failed_and_filtered_records():
    records = [
        _record("x", 1.0, 1.0, 1.0, dimension=2),
        _record("x", 9.0, 1.0, 1.0, dimension=20),
        _record("x", None, None, None, dimension=2, status="error"),
        _record("x", None, None, None, dimension=20, status="skipped"),
    ]
    rows = summarize([r for r in records if r.dimension == 2])
    assert len(rows) == 1
    assert rows[0]["best_fitness_mean"] == 1.0
    assert summarize([r for r in records if r.status != "ok"]) == []


def test_single_record_group_has_zero_std():
    rows = summarize([_record("solo", 4.0, 2.0, 8.0)])
    assert rows[0]["best_fitness_std"] == 0.0
    assert rows[0]["distance_per_unit_time"] == pytest.approx(4.0)


def test_summary_csv_columns(tmp_path):
    rows = summarize([_record("x", 1.0, 1.0, 1.0)])
    path = write_summary_csv(rows, tmp_path / "summary.csv")
    header = path.read_text().splitlines()[0]
    assert header == ",".join(SUMMARY_COLUMNS)


# ---------------------------------------------------------------------------
# rankings


def _setting(report, function, dimension=2, agents=10, max_iter=100):
    """The ``per_setting`` entry of one setting in a :func:`rank_top3` report."""
    [entry] = [e for e in report["per_setting"]
               if (e["function"], e["dimension"], e["agents"], e["max_iter"])
               == (function, dimension, agents, max_iter)]
    return entry


def test_rank_top3_counts_a_dominant_algorithm_everywhere():
    records = []
    for dim in (2, 20, 50):
        for agents in (10, 50, 100):
            for iters in (100, 1000, 3000):
                for seed in (0, 1):
                    for rank, algo in enumerate(["aaa", "bbb", "ccc"]):
                        records.append(_record(
                            algo, best=float(rank) + 0.1 * seed,
                            time=1.0 + rank, dist=10.0,
                            dimension=dim, agents=agents, max_iter=iters,
                            seed=seed,
                        ))
    report = rank_top3(records)
    assert len(report["per_setting"]) == 27
    assert report["global_counts"]["most_accurate"]["aaa"] == 27
    assert report["global_counts"]["least_accurate"]["ccc"] == 27
    assert report["global_counts"]["longest_time"]["ccc"] == 27
    assert report["global_counts"]["shortest_time"]["aaa"] == 27
    one_setting = _setting(report, "sphere")
    assert one_setting["most_accurate"] == ["aaa", "bbb", "ccc"]
    assert one_setting["longest_time"] == ["ccc", "bbb", "aaa"]


def test_rank_top3_breaks_ties_by_name():
    records = [
        _record("zeta", 1.0, 1.0, 1.0),
        _record("alpha", 1.0, 1.0, 1.0),
        _record("mid", 1.0, 1.0, 1.0),
    ]
    tops = _setting(rank_top3(records), "sphere")
    assert tops["most_accurate"] == ["alpha", "mid", "zeta"]
    assert tops["longest_time"] == ["alpha", "mid", "zeta"]


def test_rank_top3_falls_back_to_raw_fitness_without_known_minimum():
    records = [
        _record("close_to_zero", 0.01, 1.0, 1.0, function="michalewicz"),
        _record("deep_negative", -1.8, 2.0, 1.0, function="michalewicz"),
    ]
    tops = _setting(rank_top3(records), "michalewicz")
    # no published minimum: lower raw fitness counts as more accurate
    assert tops["most_accurate"][0] == "deep_negative"

    # sphere publishes a minimum of zero, so |0.01| beats |-1.8|
    tops_known = _setting(rank_top3([
        _record("close_to_zero", 0.01, 1.0, 1.0),
        _record("deep_negative", -1.8, 2.0, 1.0),
    ]), "sphere")
    assert tops_known["most_accurate"][0] == "close_to_zero"


def test_rank_top3_averages_over_seeds():
    records = [
        _record("steady", 1.0, 1.0, 1.0, seed=0),
        _record("steady", 1.0, 1.0, 1.0, seed=1),
        _record("spiky", 0.0, 1.0, 1.0, seed=0),
        _record("spiky", 3.0, 1.0, 1.0, seed=1),
    ]
    tops = _setting(rank_top3(records), "sphere")
    assert tops["most_accurate"] == ["steady", "spiky"]  # 1.0 beats 1.5


def test_rank_top3_is_json_shaped():
    records = [_record("x", 1.0, 1.0, 1.0), _record("y", 2.0, 2.0, 2.0)]
    payload = rank_top3(records)
    text = json.dumps(payload)
    decoded = json.loads(text)
    assert set(decoded["global_counts"]) == set(CATEGORIES)
    assert decoded["per_setting"][0]["function"] == "sphere"


# ---------------------------------------------------------------------------
# history export


def test_export_history_round_trip(tmp_path):
    path = export_history([3.0, 2.0, 2.0, 1.0], tmp_path / "deep" / "x.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,best_fitness"
    assert lines[1] == "1,3.0"
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2", "3", "4"]
    assert [float(l.split(",")[1]) for l in lines[1:]] == [3.0, 2.0, 2.0, 1.0]
    assert path == tmp_path / "deep" / "x.csv"
    assert path.read_bytes() == b"iteration,best_fitness\r\n1,3.0\r\n2,2.0\r\n3,2.0\r\n4,1.0\r\n"
