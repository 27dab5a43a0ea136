"""Experiment harness tests: enumeration, CSV contracts, aggregation, ranking."""

import csv
import json
import math
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import ember.baselines as baselines
import ember.harness as harness
from ember.baselines import PARAM_DEFAULTS, register_optimizer
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


def test_parallel_execution_matches_serial():
    serial = run_grid(tiny_grid())
    parallel = run_grid(tiny_grid(jobs=3))
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.cell_key == b.cell_key and a.status == b.status
        if a.status == "ok":
            assert a.best_fitness == b.best_fitness
            assert a.total_distance == b.total_distance
            assert a.iterations_run == b.iterations_run


def test_master_seed_changes_results():
    base = run_grid(tiny_grid())
    moved = run_grid(tiny_grid(master_seed=99))
    pairs = [(a, b) for a, b in zip(base, moved) if a.status == "ok"]
    assert any(a.best_fitness != b.best_fitness for a, b in pairs)


def test_failing_cell_is_recorded_and_grid_continues():
    def unstable(spec, objective, domain):
        raise RuntimeError("deliberate failure")

    register_optimizer("unstable", unstable, {})
    try:
        grid = ExperimentGrid(algorithms=("unstable", "pso"), functions=("sphere",),
                              dimensions=(2,), agent_counts=(5,),
                              iteration_counts=(10,), seeds=(0,))
        records = run_grid(grid)
    finally:
        del baselines._OPTIMIZERS["unstable"]
        del PARAM_DEFAULTS["unstable"]
    assert records[0].status == "error"
    assert "deliberate failure" in records[0].message
    assert records[0].best_fitness is None
    assert records[1].status == "ok"


def test_undefined_distance_rate_fails_only_its_cell():
    def instant(spec, objective, domain):
        return RunOutcome(np.zeros(domain.dimension), 0.0, [0.0], 0.0, 1.0, 1)

    register_optimizer("instant", instant, {})
    try:
        grid = ExperimentGrid(algorithms=("instant", "pso"), functions=("sphere",),
                              dimensions=(2,), agent_counts=(5,),
                              iteration_counts=(10,), seeds=(0,))
        records = run_grid(grid)
    finally:
        del baselines._OPTIMIZERS["instant"]
        del PARAM_DEFAULTS["instant"]
    assert records[0].status == "error"
    assert records[0].message.startswith("MetricError: execution time must be positive")
    assert records[0].best_fitness is None
    assert records[1].status == "ok"


def test_dead_worker_becomes_error_records_and_grid_completes(tmp_path, capsys):
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
    register_optimizer("crash", crash, {})
    try:
        code = cli_main(["grid", str(config), "--out", str(out)])
    finally:
        del baselines._OPTIMIZERS["crash"]
        del PARAM_DEFAULTS["crash"]
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


def test_failed_future_message_names_the_exception(monkeypatch):
    # a worker that dies leaves BrokenProcessPool in its futures; the record
    # carries the exception's type and text
    class Dead:
        def result(self):
            raise BrokenProcessPool("a child process terminated abruptly")

    class Pool:
        def __init__(self, max_workers):
            pass

        def submit(self, fn, cell):
            return Dead()

        def shutdown(self):
            pass

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    records = run_grid(tiny_grid(jobs=2, functions=("sphere",), dimensions=(2,)))
    assert [r.status for r in records] == ["error"] * 4
    assert {r.message for r in records} == {
        "BrokenProcessPool: a child process terminated abruptly"
    }


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
    assert [r.algorithm for r in rows] == ["x", "y"]
    x, y = rows
    assert abs(x.best_fitness.mean - 3.0) < 1e-12
    assert abs(x.best_fitness.std - 1.5811388300841898) < 1e-12  # sqrt(2.5)
    assert (x.best_fitness.min, x.best_fitness.max) == (1.0, 5.0)
    assert abs(x.execution_time.mean - 1.0) < 1e-12
    assert abs(x.execution_time.std - 0.6123724356957945) < 1e-12  # sqrt(0.375)
    assert abs(x.total_distance.mean - 30.0) < 1e-12
    assert abs(x.total_distance.std - 15.811388300841896) < 1e-12  # sqrt(250)
    assert abs(x.distance_per_unit_time - 30.0) < 1e-12  # mean dist / mean time
    assert y.best_fitness.std == 0.0
    assert y.distance_per_unit_time == pytest.approx(5.0)


def test_summarize_skips_failed_and_filtered_records():
    records = [
        _record("x", 1.0, 1.0, 1.0, dimension=2),
        _record("x", 9.0, 1.0, 1.0, dimension=20),
        _record("x", None, None, None, dimension=2, status="error"),
        _record("x", None, None, None, dimension=20, status="skipped"),
    ]
    rows = summarize(records, dimensions={2})
    assert len(rows) == 1
    assert rows[0].best_fitness.mean == 1.0
    assert summarize([r for r in records if r.status != "ok"]) == []


def test_single_record_group_has_zero_std():
    rows = summarize([_record("solo", 4.0, 2.0, 8.0)])
    assert rows[0].best_fitness.std == 0.0
    assert rows[0].distance_per_unit_time == pytest.approx(4.0)


def test_summary_csv_columns(tmp_path):
    rows = summarize([_record("x", 1.0, 1.0, 1.0)])
    path = write_summary_csv(rows, tmp_path / "summary.csv")
    header = path.read_text().splitlines()[0]
    assert header == ",".join(SUMMARY_COLUMNS)


# ---------------------------------------------------------------------------
# rankings


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
    assert len(report.per_setting) == 27
    assert report.global_counts["most_accurate"]["aaa"] == 27
    assert report.global_counts["least_accurate"]["ccc"] == 27
    assert report.global_counts["longest_time"]["ccc"] == 27
    assert report.global_counts["shortest_time"]["aaa"] == 27
    one_setting = report.per_setting[("sphere", 2, 10, 100)]
    assert one_setting["most_accurate"] == ["aaa", "bbb", "ccc"]
    assert one_setting["longest_time"] == ["ccc", "bbb", "aaa"]


def test_rank_top3_breaks_ties_by_name():
    records = [
        _record("zeta", 1.0, 1.0, 1.0),
        _record("alpha", 1.0, 1.0, 1.0),
        _record("mid", 1.0, 1.0, 1.0),
    ]
    report = rank_top3(records)
    tops = report.per_setting[("sphere", 2, 10, 100)]
    assert tops["most_accurate"] == ["alpha", "mid", "zeta"]
    assert tops["longest_time"] == ["alpha", "mid", "zeta"]


def test_rank_top3_falls_back_to_raw_fitness_without_known_minimum():
    records = [
        _record("close_to_zero", 0.01, 1.0, 1.0, function="michalewicz"),
        _record("deep_negative", -1.8, 2.0, 1.0, function="michalewicz"),
    ]
    report = rank_top3(records)
    tops = report.per_setting[("michalewicz", 2, 10, 100)]
    # no published minimum: lower raw fitness counts as more accurate
    assert tops["most_accurate"][0] == "deep_negative"

    # with a known minimum of zero, |0.01| beats |-1.8|
    report_known = rank_top3(records, known_lookup=lambda f, d: 0.0)
    tops_known = report_known.per_setting[("michalewicz", 2, 10, 100)]
    assert tops_known["most_accurate"][0] == "close_to_zero"


def test_rank_top3_averages_over_seeds():
    records = [
        _record("steady", 1.0, 1.0, 1.0, seed=0),
        _record("steady", 1.0, 1.0, 1.0, seed=1),
        _record("spiky", 0.0, 1.0, 1.0, seed=0),
        _record("spiky", 3.0, 1.0, 1.0, seed=1),
    ]
    report = rank_top3(records)
    tops = report.per_setting[("sphere", 2, 10, 100)]
    assert tops["most_accurate"] == ["steady", "spiky"]  # 1.0 beats 1.5


def test_ranking_report_as_dict_is_json_shaped():
    import json

    records = [_record("x", 1.0, 1.0, 1.0), _record("y", 2.0, 2.0, 2.0)]
    payload = rank_top3(records).as_dict()
    text = json.dumps(payload)
    decoded = json.loads(text)
    assert set(decoded["global_counts"]) == set(CATEGORIES)
    assert decoded["per_setting"][0]["function"] == "sphere"


# ---------------------------------------------------------------------------
# history export


def test_export_history_round_trip(tmp_path):
    record = _record("x", 1.0, 1.0, 1.0)
    record.history = [3.0, 2.0, 2.0, 1.0]
    path = export_history(record, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,best_fitness"
    assert lines[1] == "1,3.0"
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2", "3", "4"]
    assert [float(l.split(",")[1]) for l in lines[1:]] == [3.0, 2.0, 2.0, 1.0]
    assert path.name == record.cell_key + ".csv"


def test_export_history_requires_a_history():
    with pytest.raises(ConfigError):
        export_history(_record("x", 1.0, 1.0, 1.0), "/tmp")
