"""Command-line interface tests, run through main() with explicit argv."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ember.cli as cli
import ember.functions as functions
import ember.harness as harness
from ember.cli import main
from ember.functions import get_function
from ember.harness import derive_cell_seed
from ember.recording import RunOutcome

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out, key):
    lines = [l for l in out.splitlines() if l.startswith(key + ":")]
    assert len(lines) == 1, f"expected one {key!r} line in output"
    return lines[0].split(":", 1)[1].strip()


# ---------------------------------------------------------------------------
# run


def test_run_prints_metrics_and_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["run", "--fn", "sphere", "--algo", "pso",
                                    "--agents", "15", "--iters", "60", "--seed", "1"])
    assert code == 0
    assert float(grab(out, "best_fitness")) < 1.0
    assert int(grab(out, "iterations_run")) == 60
    assert int(grab(out, "evaluations")) == 15 * (60 + 1)  # the population, then 15 per iteration
    assert float(grab(out, "total_distance")) > 0.0
    assert grab(out, "algorithm") == "pso"


def test_run_repeats_identically(capsys):
    argv = ["run", "--fn", "rastrigin", "--algo", "ffo", "--agents", "10",
            "--iters", "30", "--seed", "5"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    for key in ("best_fitness", "best_agent", "iterations_run", "evaluations", "total_distance"):
        assert grab(out1, key) == grab(out2, key)


def test_run_writes_history_csv(capsys, tmp_path):
    target = tmp_path / "deep" / "hist.csv"
    code, out, _ = run_cli(capsys, ["run", "--fn", "sphere", "--algo", "sa",
                                    "--iters", "40", "--out", str(target)])
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "iteration,best_fitness"
    assert len(lines) == 41


def test_run_conditions_flag_is_ffo_only(capsys):
    code, _, err = run_cli(capsys, ["run", "--fn", "sphere", "--algo", "pso",
                                    "--conditions", "on"])
    assert code == 2
    assert "ffo" in err


def test_run_conditions_on_can_stop_early(capsys):
    code, out, _ = run_cli(capsys, ["run", "--fn", "sphere", "--algo", "ffo",
                                    "--agents", "20", "--iters", "5000",
                                    "--conditions", "on"])
    assert code == 0
    assert int(grab(out, "iterations_run")) < 5000


def test_run_unknown_function_exits_two(capsys):
    code, _, err = run_cli(capsys, ["run", "--fn", "not_a_function"])
    assert code == 2 and "not_a_function" in err


def test_run_bad_dimension_exits_two(capsys):
    code, _, err = run_cli(capsys, ["run", "--fn", "booth", "--dim", "7"])
    assert code == 2


def test_run_zero_time_distance_rate_is_the_grid_metric_error(capsys, monkeypatch):
    # one policy for distance per unit time: a zero-time run is a metric error
    # here too, as it is for a grid cell
    def instant(spec, objective, domain):
        return RunOutcome(np.zeros(domain.dimension), 0.0, [0.0], 0.0, 1.0, 1)

    monkeypatch.setattr(harness, "run_optimizer", instant)
    code, out, err = run_cli(capsys, ["run", "--fn", "sphere", "--iters", "5"])
    assert code == 3
    assert "execution time must be positive" in err
    assert "distance_per_unit_time" not in out


def test_run_out_naming_a_directory_exits_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["run", "--fn", "sphere", "--iters", "5", "--agents", "5",
                                    "--out", str(tmp_path)])
    assert code == 2
    assert str(tmp_path) in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "under_a_file"])
def test_run_out_that_cannot_be_written_fails_before_the_run(capsys, tmp_path, monkeypatch, where):
    (tmp_path / "taken").write_text("not a directory\n")
    target = tmp_path if where == "directory" else tmp_path / "taken" / "history.csv"
    calls = []
    monkeypatch.setattr(harness, "run_optimizer", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, ["run", "--fn", "sphere", "--iters", "5", "--agents", "5",
                                      "--out", str(target)])
    assert code == 2
    assert str(target) in err
    assert out == "" and calls == []


def test_run_evaluation_error_exits_three(capsys, monkeypatch):
    good = get_function("sphere")
    broken = dataclasses.replace(good, evaluator=lambda x: np.full(x.shape[:-1], np.nan))
    monkeypatch.setitem(functions._REGISTRY, "sphere", broken)
    code, _, err = run_cli(capsys, ["run", "--fn", "sphere", "--iters", "5",
                                    "--agents", "5"])
    assert code == 3
    assert "evaluation" in err.lower()


def test_run_into_a_closed_stdout_exits_one_without_an_error_line(capsys, monkeypatch):
    # stdout's reader has gone, as in `ember run ... | head -1`: not a configuration error
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=1) as closed:  # each line is written, and refused
        monkeypatch.setattr(sys, "stdout", closed)
        code = main(["run", "--fn", "sphere", "--algo", "sa", "--iters", "5", "--agents", "5"])
        monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# grid


def write_config(tmp_path, **overrides):
    config = {
        "algorithms": ["pso", "hs"],
        "functions": ["sphere", "booth"],
        "dimensions": [2],
        "agent_counts": [8],
        "iteration_counts": [20],
        "seeds": [0, 1],
        "output": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    return path


def test_grid_writes_all_artifacts(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["grid", str(write_config(tmp_path))])
    assert code == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "rankings.json").exists()
    assert "cells: 8 total, 8 ok" in out
    assert "top3 most_accurate:" in out
    rankings = json.loads((out_dir / "rankings.json").read_text())
    assert "global_counts" in rankings and "per_setting" in rankings


def _pinned_record(algorithm, function, seed, best, seconds, dist):
    return harness.RunRecord(algorithm, function, 2, 5, 5, seed, best_fitness=best,
                             execution_time=seconds, total_distance=dist,
                             distance_per_unit_time=dist / seconds, iterations_run=5,
                             evaluations=30)


PINNED_RECORDS = [
    _pinned_record("pso", "sphere", 0, 0.30000000000000004, 0.012345678901234568,
                   1.2345678901234567),
    _pinned_record("pso", "sphere", 1, 7.000000000000001e-05, 0.023456789012345677,
                   2.3456789012345679),
    _pinned_record("sa", "sphere", 0, 0.6000000000000001, 0.0011111111111111111, 0.1),
    harness.RunRecord("sa", "sphere", 2, 5, 5, 1, status="error", message="EvaluationError: nan"),
    _pinned_record("pso", "michalewicz", 0, -1.8013034100985537, 0.05, 3.0000000000000004),
    _pinned_record("pso", "michalewicz", 1, -1.0000000000000002, 0.07, 2.9),
    _pinned_record("sa", "michalewicz", 0, -1.5, 0.033333333333333333, 0.7),
    _pinned_record("sa", "michalewicz", 1, -1.7000000000000002, 0.016666666666666666,
                   0.9000000000000001),
    harness.RunRecord("sa", "michalewicz", 20, 5, 5, 0, status="skipped", message="not scalable"),
]

PINNED_SUMMARY = "\r\n".join([
    "algorithm,best_fitness_mean,best_fitness_std,best_fitness_min,best_fitness_max,"
    "execution_time_mean,execution_time_std,execution_time_min,execution_time_max,"
    "total_distance_mean,total_distance_std,total_distance_min,total_distance_max,"
    "distance_per_unit_time",
    "pso,-0.6253083525246385,0.961015406949748,-1.8013034100985537,0.30000000000000004,"
    "0.03895061697839507,0.026038653871450032,0.012345678901234568,0.07,"
    "2.3700616978395064,0.8098554555716231,1.2345678901234567,3.0000000000000004,"
    "60.84786023169082",
    "sa,-0.8666666666666667,1.274100990241093,-1.7000000000000002,0.6000000000000001,"
    "0.017037037037037035,0.016114303642820068,0.0011111111111111111,0.03333333333333333,"
    "0.5666666666666668,0.41633319989322665,0.1,0.9000000000000001,"
    "33.260869565217405",
    "",
])


PINNED_RANKINGS = """\
{
  "global_counts": {
    "longest_time": {
      "pso": 2,
      "sa": 2
    },
    "shortest_time": {
      "pso": 2,
      "sa": 2
    },
    "most_accurate": {
      "pso": 2,
      "sa": 2
    },
    "least_accurate": {
      "pso": 2,
      "sa": 2
    }
  },
  "per_setting": [
    {
      "function": "michalewicz",
      "dimension": 2,
      "agents": 5,
      "max_iter": 5,
      "longest_time": [
        "pso",
        "sa"
      ],
      "shortest_time": [
        "sa",
        "pso"
      ],
      "most_accurate": [
        "sa",
        "pso"
      ],
      "least_accurate": [
        "pso",
        "sa"
      ]
    },
    {
      "function": "sphere",
      "dimension": 2,
      "agents": 5,
      "max_iter": 5,
      "longest_time": [
        "pso",
        "sa"
      ],
      "shortest_time": [
        "sa",
        "pso"
      ],
      "most_accurate": [
        "pso",
        "sa"
      ],
      "least_accurate": [
        "sa",
        "pso"
      ]
    }
  ]
}
"""


def test_grid_outputs_are_pinned_byte_for_byte(capsys, tmp_path, monkeypatch):
    # hand-built records with an error, a skip, a setting without a published
    # minimum (michalewicz) and floats that need 17 significant digits
    def fake_run_grid(grid):
        Path(grid.output).mkdir()
        return PINNED_RECORDS

    monkeypatch.setattr(cli, "run_grid", fake_run_grid)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, ["grid", str(write_config(tmp_path)), "--out", str(out_dir)])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "cells: 9 total, 7 ok, 1 skipped, 1 error",
        f"output: {out_dir}",
        "top3 longest_time: pso (2), sa (2)",
        "top3 shortest_time: pso (2), sa (2)",
        "top3 most_accurate: pso (2), sa (2)",
        "top3 least_accurate: pso (2), sa (2)",
    ]
    assert (out_dir / "summary.csv").read_bytes() == PINNED_SUMMARY.encode()
    assert (out_dir / "rankings.json").read_bytes() == PINNED_RANKINGS.encode()


def test_grid_rerun_keeps_best_fitness_column(capsys, tmp_path):
    config = write_config(tmp_path)

    def best_column():
        with (tmp_path / "out" / "results.csv").open() as fh:
            return [row["best_fitness"] for row in csv.DictReader(fh)]

    assert run_cli(capsys, ["grid", str(config)])[0] == 0
    first = best_column()
    assert run_cli(capsys, ["grid", str(config)])[0] == 0
    assert best_column() == first


def test_grid_jobs_and_out_flags_override_config(capsys, tmp_path):
    config = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    code, out, _ = run_cli(capsys, ["grid", str(config), "--jobs", "2",
                                    "--out", str(other)])
    assert code == 0
    assert (other / "results.csv").exists()


def test_grid_without_output_writes_ember_results(capsys, tmp_path, monkeypatch):
    config = write_config(tmp_path, algorithms=["pso"], functions=["sphere"], seeds=[0])
    mapping = json.loads(config.read_text())
    del mapping["output"]
    config.write_text(json.dumps(mapping))
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, ["grid", str(config)])[0] == 0
    assert (tmp_path / "ember_results" / "results.csv").exists()


def test_grid_with_no_successful_cells_exits_one(capsys, tmp_path):
    # booth is not scalable, so at dimension 20 every cell is skipped
    config = write_config(tmp_path, functions=["booth"], dimensions=[20])
    code, out, err = run_cli(capsys, ["grid", str(config)])
    assert code == 1
    assert "0 ok" in out


def test_grid_master_seed_env_override(capsys, tmp_path, monkeypatch):
    config = write_config(tmp_path, algorithms=["pso"], functions=["sphere"],
                          seeds=[0])
    run_cli(capsys, ["grid", str(config)])
    baseline = (tmp_path / "out" / "results.csv").read_text()
    monkeypatch.setenv("EMBER_SEED", "4242")
    run_cli(capsys, ["grid", str(config)])
    moved = (tmp_path / "out" / "results.csv").read_text()
    assert baseline != moved
    monkeypatch.setenv("EMBER_SEED", "not-a-number")
    code, _, err = run_cli(capsys, ["grid", str(config)])
    assert code == 2 and "EMBER_SEED" in err


def test_grid_config_errors_exit_two(capsys, tmp_path):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"bogus": 1}))
    assert run_cli(capsys, ["grid", str(bad_key)])[0] == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    assert run_cli(capsys, ["grid", str(not_json)])[0] == 2

    assert run_cli(capsys, ["grid", str(tmp_path / "missing.json")])[0] == 2

    bad_param = tmp_path / "param.json"
    bad_param.write_text(json.dumps({"params": {"pso": {"bogus": 2}}}))
    code, _, err = run_cli(capsys, ["grid", str(bad_param)])
    assert code == 2 and "params.pso.bogus" in err

    for key, value in [("dimensions", 5), ("jobs", "many"), ("seeds", ["a"]),
                       ("master_seed", "x"), ("dimensions", [None]), ("output", 5),
                       # lossy values: each would run a different grid than it names
                       ("save_histories", "no"), ("dimensions", [2.7]), ("jobs", 1.9),
                       ("seeds", [True]),
                       # a repeated value would run two cells under one key
                       ("seeds", [0, 0]), ("algorithms", ["pso", "pso"])]:
        code, _, err = run_cli(capsys, ["grid", str(write_config(tmp_path, **{key: value}))])
        assert code == 2 and err.startswith(f"error: {key} must be"), (key, value, err)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("algo,key,value", [
    ("sa", "proposal_scale", -1),
    ("ga", "mutation_scale", -0.1),
    ("ga", "tournament_size", 0),
    ("ga", "elitism", 50),
    ("ffo", "cooling_rate", 2),
    # out of range, or not finite
    ("sa", "cooling_rate", 5.0),
    ("sa", "cooling_rate", float("nan")),
    ("sa", "initial_temp", -1),
    ("ga", "crossover_rate", 7),
    ("ga", "mutation_rate", -1),
    ("hs", "memory_consideration_rate", 3),
    ("hs", "pitch_adjustment_rate", 1.5),
    ("hs", "bandwidth_fraction", -0.5),
    ("pso", "inertia", float("nan")),
    ("ffo", "step_size", float("inf")),
    ("ffo", "initial_temp", float("inf")),
    # lossy: each would run with another value than the config names
    ("ga", "tournament_size", 2.5),
    ("ga", "elitism", True),
    ("ffo", "no_improve_limit", 2.5),
])
def test_grid_bad_parameter_value_exits_two_before_any_cell(capsys, tmp_path, algo, key, value):
    config = write_config(tmp_path, algorithms=[algo], agent_counts=[5],
                          params={algo: {key: value}})
    code, _, err = run_cli(capsys, ["grid", str(config)])
    assert code == 2 and f"params.{algo}.{key}" in err
    assert not (tmp_path / "out").exists()


def test_grid_out_naming_a_file_exits_two_before_any_cell(capsys, tmp_path, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    calls = []
    monkeypatch.setattr(harness, "run_optimizer", lambda *args: calls.append(args))
    code, _, err = run_cli(capsys, ["grid", str(write_config(tmp_path)), "--out", str(taken)])
    assert code == 2
    assert str(taken) in err and "Traceback" not in err
    assert calls == []


def test_run_reproduces_every_grid_row(capsys, tmp_path):
    # ember run and a grid cell share one pipeline: with the cell's derived
    # seed, a run prints the row's metrics and writes the same history file
    config = write_config(tmp_path, algorithms=["ffo", "pso", "sa", "ga", "hs"],
                          functions=["sphere", "goldstein_price"], agent_counts=[6],
                          iteration_counts=[15], master_seed=3, save_histories=True)
    assert run_cli(capsys, ["grid", str(config)])[0] == 0
    out_dir = tmp_path / "out"
    with (out_dir / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    cells = [json.loads(line) for line in (out_dir / "cells.jsonl").read_text().splitlines()]
    for row, cell in zip(rows, cells):
        key = "__".join((row["algorithm"], row["function"], f"d{row['dimension']}",
                         f"a{row['agents']}", f"i{row['max_iter']}", f"s{row['seed']}"))
        history = tmp_path / "run" / f"{key}.csv"
        code, out, _ = run_cli(capsys, [
            "run", "--algo", row["algorithm"], "--fn", row["function"],
            "--dim", row["dimension"], "--agents", row["agents"], "--iters", row["max_iter"],
            "--seed", str(derive_cell_seed(3, key)), "--out", str(history),
        ])
        assert code == 0, key
        for column in ("best_fitness", "total_distance", "iterations_run"):
            assert grab(out, column) == row[column], (key, column)
        assert cell["key"] == key and int(grab(out, "evaluations")) == cell["evaluations"], key
        assert history.read_bytes() == (out_dir / "histories" / f"{key}.csv").read_bytes(), key


# ---------------------------------------------------------------------------
# validate


def test_validate_full_registry_passes(capsys):
    code, out, _ = run_cli(capsys, ["validate"])
    assert code == 0
    assert "0 failed" in out


PINNED_VALIDATE = """\
ackley               dim=2   residual=4.441e-16 tol=1.000e-04 ok
ackley               dim=20  residual=4.441e-16 tol=1.000e-04 ok
ackley               dim=50  residual=4.441e-16 tol=1.000e-04 ok
alpine               dim=2   residual=0.000e+00 tol=1.000e-04 ok
alpine               dim=20  residual=0.000e+00 tol=1.000e-04 ok
alpine               dim=50  residual=0.000e+00 tol=1.000e-04 ok
booth                dim=2   residual=0.000e+00 tol=1.000e-04 ok
cross_in_tray        dim=2   residual=1.871e-06 tol=1.000e-04 ok
drop_wave            dim=2   residual=0.000e+00 tol=1.000e-04 ok
easom                dim=2   residual=0.000e+00 tol=1.000e-04 ok
easom                dim=20  residual=0.000e+00 tol=1.000e-04 ok
easom                dim=50  residual=0.000e+00 tol=1.000e-04 ok
eggholder            dim=2   residual=3.729e-05 tol=1.000e-03 ok
eggholder            dim=20  skipped (no published minimizer)
eggholder            dim=50  skipped (no published minimizer)
expanded_schaffer_f6 dim=2   residual=0.000e+00 tol=1.000e-04 ok
expanded_schaffer_f6 dim=20  residual=0.000e+00 tol=1.000e-04 ok
expanded_schaffer_f6 dim=50  residual=0.000e+00 tol=1.000e-04 ok
expanded_zakharov    dim=2   residual=0.000e+00 tol=1.000e-04 ok
expanded_zakharov    dim=20  residual=0.000e+00 tol=1.000e-04 ok
expanded_zakharov    dim=50  residual=0.000e+00 tol=1.000e-04 ok
goldstein_price      dim=2   residual=0.000e+00 tol=1.000e-04 ok
goldstein_price      dim=20  skipped (no published minimizer)
goldstein_price      dim=50  skipped (no published minimizer)
griewank             dim=2   residual=0.000e+00 tol=1.000e-04 ok
griewank             dim=20  residual=0.000e+00 tol=1.000e-04 ok
griewank             dim=50  residual=0.000e+00 tol=1.000e-04 ok
himmelblau           dim=2   residual=1.099e-11 tol=1.000e-04 ok
holder_table         dim=2   residual=2.568e-06 tol=1.000e-03 ok
levy_n13             dim=2   residual=1.350e-31 tol=1.000e-04 ok
matyas               dim=2   residual=0.000e+00 tol=1.000e-04 ok
michalewicz          dim=2   skipped (no published minimizer)
michalewicz          dim=20  skipped (no published minimizer)
michalewicz          dim=50  skipped (no published minimizer)
rastrigin            dim=2   residual=0.000e+00 tol=1.000e-04 ok
rastrigin            dim=20  residual=0.000e+00 tol=1.000e-04 ok
rastrigin            dim=50  residual=0.000e+00 tol=1.000e-04 ok
rosenbrock           dim=2   residual=0.000e+00 tol=1.000e-04 ok
rosenbrock           dim=20  residual=0.000e+00 tol=1.000e-04 ok
rosenbrock           dim=50  residual=0.000e+00 tol=1.000e-04 ok
schaffer_n2          dim=2   residual=0.000e+00 tol=1.000e-04 ok
schaffer_n2          dim=20  residual=0.000e+00 tol=1.000e-04 ok
schaffer_n2          dim=50  residual=0.000e+00 tol=1.000e-04 ok
schwefel             dim=2   residual=2.546e-05 tol=1.000e-03 ok
schwefel             dim=20  residual=2.546e-04 tol=1.000e-03 ok
schwefel             dim=50  residual=6.364e-04 tol=1.000e-03 ok
sphere               dim=2   residual=0.000e+00 tol=1.000e-04 ok
sphere               dim=20  residual=0.000e+00 tol=1.000e-04 ok
sphere               dim=50  residual=0.000e+00 tol=1.000e-04 ok
styblinski_tang      dim=2   residual=3.514e-04 tol=2.000e-03 ok
styblinski_tang      dim=20  residual=3.514e-03 tol=2.000e-02 ok
styblinski_tang      dim=50  residual=8.785e-03 tol=5.000e-02 ok
three_hump_camel     dim=2   residual=0.000e+00 tol=1.000e-04 ok
whitley              dim=2   residual=0.000e+00 tol=1.000e-04 ok
whitley              dim=20  residual=0.000e+00 tol=1.000e-04 ok
whitley              dim=50  residual=0.000e+00 tol=1.000e-04 ok
checked 49 function/dimension pairs, 0 failed
"""


def test_validate_stdout_is_pinned_byte_for_byte(capsys):
    code, out, err = run_cli(capsys, ["validate"])
    assert code == 0 and err == ""
    assert out == PINNED_VALIDATE


def test_validate_subset_and_uniform_tolerance(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--fn", "sphere", "--fn", "booth"])
    assert code == 0
    assert "sphere" in out and "booth" in out
    code, out, _ = run_cli(capsys, ["validate", "--fn", "eggholder",
                                    "--tol", "1e-12"])
    assert code == 1
    assert "fail" in out


@pytest.mark.parametrize("tol", ["nan", "-0.001", "inf"])
def test_validate_rejects_a_tolerance_that_is_not_finite_and_nonnegative(capsys, tol):
    # a NaN or negative tolerance would report a zero residual as a failure
    code, out, err = run_cli(capsys, ["validate", "--fn", "sphere", "--tol", tol])
    assert (code, out) == (2, "")
    assert err.startswith("error: tolerance must be a finite number >= 0, got ")
    code, out, _ = run_cli(capsys, ["validate", "--fn", "sphere", "--tol", "0"])
    assert code == 0 and out.endswith(" 0 failed\n")


def test_validate_negative_tolerance_in_exponent_form_is_rejected_by_argparse(capsys):
    # argparse takes "-1e-3" for an option, so the command fails before the
    # tolerance check; joined to its flag the value reaches that check
    code, out, err = run_cli(capsys, ["validate", "--fn", "sphere", "--tol", "-1e-3"])
    assert (code, out) == (2, "")
    assert "--tol" in err
    code, out, err = run_cli(capsys, ["validate", "--fn", "sphere", "--tol=-1e-3"])
    assert (code, out) == (2, "")
    assert err.startswith("error: tolerance must be a finite number >= 0, got ")


def test_validate_unknown_function_exits_two(capsys):
    code, _, err = run_cli(capsys, ["validate", "--fn", "nonexistent"])
    assert code == 2


def test_validate_reports_corrupt_registry(capsys, monkeypatch):
    good = get_function("easom")
    broken = dataclasses.replace(good, evaluator=lambda x: -good.evaluator(x))
    monkeypatch.setitem(functions._REGISTRY, "easom", broken)
    code, out, _ = run_cli(capsys, ["validate", "--fn", "easom"])
    assert code == 1
    assert "fail" in out
    # each failing row names its residual and the minimizer it was found at,
    # on the row's one line
    point = good.minimizers(2)[0].tolist()
    lines = out.splitlines()
    assert lines[0] == ("easom dim=2   residual=2.000e+00 tol=1.000e-04 fail "
                        f"(residual 2.000e+00 at {point})")
    assert len(lines) == 4 and all(" fail (residual " in line for line in lines[:3])


# ---------------------------------------------------------------------------
# argument plumbing


def test_no_subcommand_is_an_argparse_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "run" in out and "grid" in out and "validate" in out


def test_module_entry_point_runs_a_grid(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    config = write_config(tmp_path, algorithms=["pso"], functions=["sphere"], seeds=[0])
    result = subprocess.run([sys.executable, "-m", "ember.cli", "grid", str(config)],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "cells: 1 total, 1 ok" in result.stdout
    assert (tmp_path / "out" / "results.csv").read_text().count("\n") == 2
