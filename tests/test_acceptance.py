"""End-to-end acceptance checks.

Each criterion lives in exactly one test function named ``test_criterion_NN``,
so a verbose pytest run prints one pass/fail line per criterion. Tolerances
and time budgets are asserted inside the tests; the printed detail line gives
the measured values for the record.
"""

import csv
import math
import statistics
import time

import numpy as np
import pytest

from ember.baselines import OptimizerSpec, ffo_steps, resolve_params, run_optimizer
from ember.functions import DomainBox, domain_box, evaluate, get_function, make_objective
from ember.harness import (
    ExperimentGrid,
    RunRecord,
    rank_top3,
    run_grid,
    summarize,
)
from ember.recording import Evaluator

from oracles import one_point_crossover, path_length


def _ffo_steps(objective, dimension, num_agents, max_iter, seed, **overrides):
    """FFO's raw step generator: the moved rows and best values of every pass."""
    spec = OptimizerSpec("ffo", overrides, max_iter, num_agents, seed)
    return ffo_steps(spec, resolve_params("ffo", overrides, num_agents),
                     np.random.default_rng(seed), Evaluator(objective),
                     DomainBox(-5.12, 5.12, dimension))


def _ffo_run(objective, dimension, num_agents, max_iter, seed, **overrides):
    spec = OptimizerSpec("ffo", overrides, max_iter, num_agents, seed)
    return run_optimizer(spec, objective, DomainBox(-5.12, 5.12, dimension))


def _announce(number, label, detail):
    print(f"[criterion {number:02d}] {label}: {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_registry_values_at_published_optima():
    start = time.perf_counter()
    pi = math.pi
    table = [
        ("booth", [1.0, 3.0], 0.0, 1e-12),
        ("goldstein_price", [0.0, -1.0], 3.0, 1e-12),
        ("eggholder", [512.0, 404.2319], -959.6407, 1e-3),
        ("cross_in_tray", [1.34941, 1.34941], -2.06261, 1e-4),
        ("holder_table", [8.05502, 9.66459], -19.2085, 1e-3),
        ("himmelblau", [3.0, 2.0], 0.0, 1e-6),
        ("himmelblau", [-2.805118, 3.131312], 0.0, 1e-6),
        ("himmelblau", [-3.779310, -3.283186], 0.0, 1e-6),
        ("himmelblau", [3.584428, -1.848126], 0.0, 1e-6),
        ("ackley", [0.0, 0.0], 0.0, 1e-4),
        ("rastrigin", [0.0, 0.0], 0.0, 1e-4),
        ("griewank", [0.0, 0.0], 0.0, 1e-4),
        ("sphere", [0.0, 0.0], 0.0, 1e-4),
        ("schwefel", [420.9687, 420.9687], 0.0, 1e-4),
    ]
    for n in (2, 20, 50):
        table.append(
            ("styblinski_tang", [-2.903534] * n, -39.16599 * n, 1e-3 * n)
        )
    worst = 0.0
    for name, point, expected, tolerance in table:
        residual = abs(evaluate(name, point) - expected)
        assert residual <= tolerance, (
            f"{name} at {point}: residual {residual:.3e} exceeds {tolerance:.1e}"
        )
        worst = max(worst, residual / tolerance)
    elapsed = time.perf_counter() - start
    _announce(1, "registry fidelity", f"{len(table)} rows, worst residual at "
              f"{worst:.3f} of tolerance, {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_02_ffo_default_convergence():
    start = time.perf_counter()
    medians = {}
    for fn_name, bound in (("sphere", 1e-3), ("rastrigin", 1.0)):
        objective = make_objective(fn_name, 2)
        finals = []
        for seed in range(10):
            spec = OptimizerSpec("ffo", seed=seed)
            finals.append(run_optimizer(spec, objective, domain_box(fn_name, 2)).best_fitness)
        medians[fn_name] = statistics.median(finals)
        assert medians[fn_name] <= bound, (
            f"{fn_name} median {medians[fn_name]:.3e} above {bound}"
        )
    elapsed = time.perf_counter() - start
    _announce(2, "default-parameter convergence",
              f"sphere median {medians['sphere']:.2e}, "
              f"rastrigin median {medians['rastrigin']:.2e}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_03_run_properties_hold_across_a_grid(tmp_path):
    grid = ExperimentGrid(
        algorithms=("ffo", "pso", "sa", "ga", "hs"),
        functions=("sphere", "rastrigin", "booth"),
        dimensions=(2,),
        agent_counts=(10,),
        iteration_counts=(40,),
        seeds=(0, 1),
        output=str(tmp_path),
        save_histories=True,
    )
    records = run_grid(grid)
    ok = [r for r in records if r.status == "ok"]
    assert len(ok) == 30

    # (a) best-so-far histories never increase
    for record in ok:
        with (tmp_path / "histories" / f"{record.cell_key}.csv").open(newline="") as fh:
            history = [float(row["best_fitness"]) for row in csv.DictReader(fh)]
        assert history[-1] == record.best_fitness
        diffs = np.diff(history)
        assert np.all(diffs <= 0), f"{record.cell_key} history increased"

    # (b) every FFO agent leaves its update inside the bounds at every iteration
    steps = _ffo_steps(make_objective("rastrigin", 2), 2, 10, 40, 3)
    next(steps)
    for moved, _, _ in steps:
        assert np.all(moved >= -5.12) and np.all(moved <= 5.12)

    # the four baselines never hand the objective an out-of-bounds point
    for name in ("pso", "sa", "ga", "hs"):
        box = domain_box("sphere", 2)
        escapes = []

        def watching(x, box=box, escapes=escapes):
            if np.any(x < box.lower) or np.any(x > box.upper):
                escapes.append(x)
            return np.sum(x * x, axis=-1)

        run_optimizer(OptimizerSpec(name=name, max_iter=40, num_agents=10, seed=2),
                      watching, box)
        assert not escapes, f"{name} evaluated out of bounds"

    # (c) the recorded rate times the time reproduces the distance
    for record in ok:
        product = record.distance_per_unit_time * record.execution_time
        assert product == pytest.approx(record.total_distance, rel=1e-9)

    _announce(3, "run properties", f"{len(ok)} runs: monotone histories, "
              "in-bounds populations, consistent rate metric")


def test_criterion_04_streaming_distance_matches_brute_force():
    start = time.perf_counter()
    objective = make_objective("sphere", 2)
    steps = _ffo_steps(objective, 2, 3, 5, 8)
    next(steps)
    visited = [row for moved, _, _ in steps for row in moved]
    streaming = _ffo_run(objective, 2, 3, 5, 8).total_distance
    resummed = path_length(visited)
    elapsed = time.perf_counter() - start
    assert streaming == pytest.approx(resummed, rel=1e-12)
    _announce(4, "distance oracle", f"streaming {streaming:.6f} == resummed "
              f"{resummed:.6f}, {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_05_termination_semantics_over_random_configs():
    rng = np.random.default_rng(12345)
    objective = make_objective("rastrigin", 3)
    checked_on = checked_off = stagnation_stops = 0
    for trial in range(50):
        num_agents = int(rng.integers(2, 12))
        max_iter = int(rng.integers(5, 200))
        params = dict(no_improve_limit=30, target_fitness=float(10.0 ** rng.uniform(-6, 1)),
                      use_additional_conditions=bool(trial % 2))
        seed = int(rng.integers(0, 10_000))
        if params["use_additional_conditions"]:
            # replay the run through its step generator so the final counter
            # is observable when the loop exits: it resets exactly when the
            # best value changes, since only a strictly better value replaces it
            steps = _ffo_steps(objective, 3, num_agents, max_iter, seed, **params)
            _, _, best = next(steps)
            counter = 0
            iteration = 1
            for _, _, value in steps:
                counter = 0 if value != best else counter + 1
                best = value
                iteration += 1
            # the counter increments once per pass and the loop stops as soon
            # as it exceeds the limit, so it can never overshoot 31
            assert counter <= 31 or best < params["target_fitness"] or iteration == max_iter
            stopped_for_budget = iteration >= max_iter
            stopped_for_stagnation = counter > params["no_improve_limit"]
            stopped_for_target = best < params["target_fitness"]
            assert stopped_for_budget or stopped_for_stagnation or stopped_for_target
            if stopped_for_stagnation:
                stagnation_stops += 1
                assert counter == 31
            outcome = _ffo_run(objective, 3, num_agents, max_iter, seed, **params)
            assert outcome.iterations_run == iteration
            assert outcome.iterations_run <= max_iter
            checked_on += 1
        else:
            outcome = _ffo_run(objective, 3, num_agents, max_iter, seed, **params)
            assert outcome.iterations_run == max_iter
            assert len(outcome.fitness_history) == max_iter - 1
            checked_off += 1
    assert stagnation_stops > 0, "no run exercised the stagnation stop"
    _announce(5, "termination semantics",
              f"{checked_on} runs with conditions ({stagnation_stops} stopped "
              f"on stagnation), {checked_off} without")


def test_criterion_06_crossover_exhaustive():
    # FFO's in-place crossover on two agents, replayed by a shadow generator,
    # until every (dimension, cut point) pair has swapped two distinct agents:
    # each agent leaves its update as the reference child, and with an agent as
    # its own partner (a swap of equal rows) nothing changes
    cases = set()
    sweeps = 0
    for d in range(2, 7):
        objective = make_objective("sphere", d)
        for seed in range(200):
            if len({cut for dim, cut in cases if dim == d}) == d - 1:
                break
            steps = _ffo_steps(objective, d, 2, 2, seed, crossover_probability=1.0,
                               mutation_probability=0.0, perturbation_threshold=10**6)
            next(steps)
            moved, _, _ = next(steps)
            shadow = np.random.default_rng(seed)
            expected = shadow.uniform(-5.12, 5.12, size=(2, d))
            for i in range(2):
                shadow.random()  # crossover gate, always passed
                partner = int(shadow.integers(2))
                point = int(shadow.integers(1, d))
                expected[i], expected[partner] = one_point_crossover(
                    expected[i], expected[partner], point)
                shadow.random()  # mutation gate
                if partner != i:
                    cases.add((d, point))
                assert moved[i].tobytes() == expected[i].tobytes()
            sweeps += 1
    assert cases == {(d, cut) for d in range(2, 7) for cut in range(1, d)}
    _announce(6, "crossover structure", f"{len(cases)} (dimension, cut) cases exact "
              f"over {sweeps} sweeps")


def test_criterion_07_grid_rerun_is_byte_identical(tmp_path):
    def grid_for(directory):
        return ExperimentGrid(
            algorithms=("ffo", "pso"),
            functions=("sphere", "booth"),
            dimensions=(2,),
            agent_counts=(8,),
            iteration_counts=(30,),
            seeds=(0, 1),
            master_seed=7,
            output=str(directory),
        )

    def deterministic_columns(directory):
        with (directory / "results.csv").open() as fh:
            return [(row["best_fitness"], row["total_distance"], row["iterations_run"])
                    for row in csv.DictReader(fh)]

    run_grid(grid_for(tmp_path / "first"))
    run_grid(grid_for(tmp_path / "second"))
    first = deterministic_columns(tmp_path / "first")
    second = deterministic_columns(tmp_path / "second")
    assert first == second
    assert len(first) == 8
    _announce(7, "grid determinism",
              f"{len(first)} rows identical across independent reruns")


def test_criterion_08_dominant_algorithm_sweeps_the_ranking():
    records = []
    for dim in (2, 20, 50):
        for agents in (10, 50, 100):
            for iters in (100, 1000, 3000):
                for seed in (0, 1, 2):
                    for rank, algo in enumerate(("front", "middle", "tail")):
                        records.append(RunRecord(
                            algorithm=algo, function="sphere", dimension=dim,
                            agents=agents, max_iter=iters, seed=seed,
                            best_fitness=0.001 * (rank + 1) + 1e-5 * seed,
                            execution_time=0.5 + 0.1 * rank,
                            total_distance=10.0,
                            distance_per_unit_time=20.0,
                            iterations_run=iters, status="ok",
                        ))
    report = rank_top3(records)
    assert len(report["per_setting"]) == 27
    count = report["global_counts"]["most_accurate"]["front"]
    assert count == 27
    assert all(tops["most_accurate"][0] == "front" for tops in report["per_setting"])
    _announce(8, "ranking aggregation", "dominant algorithm counted 27/27")


def test_criterion_09_summary_statistics_match_hand_oracle():
    def record(algorithm, best, seconds, dist, seed):
        return RunRecord(algorithm=algorithm, function="sphere", dimension=2,
                         agents=10, max_iter=100, seed=seed, best_fitness=best,
                         execution_time=seconds, total_distance=dist,
                         distance_per_unit_time=dist / seconds,
                         iterations_run=100, status="ok")

    records = [
        record("x", 1.0, 0.5, 10.0, 0),
        record("x", 2.0, 0.5, 20.0, 1),
        record("x", 3.0, 1.0, 30.0, 2),
        record("x", 4.0, 1.0, 40.0, 3),
        record("x", 5.0, 2.0, 50.0, 4),
        record("y", 10.0, 1.0, 5.0, 0),
        record("y", 10.0, 1.0, 5.0, 1),
        record("y", 10.0, 1.0, 5.0, 2),
        record("y", 10.0, 1.0, 5.0, 3),
        record("y", 10.0, 1.0, 5.0, 4),
    ]
    x, y = summarize(records)
    # x's statistics, worked by hand: mean 3; squared deviations 4+1+0+1+4,
    # sample variance 10/4, std sqrt(2.5); times mean 1, variance 1.5/4;
    # distances scale the fitness column by 10
    oracle = {
        "best_mean": 3.0, "best_std": 1.5811388300841898,
        "best_min": 1.0, "best_max": 5.0,
        "time_mean": 1.0, "time_std": 0.6123724356957945,
        "dist_mean": 30.0, "dist_std": 15.811388300841898,
        "rate": 30.0,
    }
    assert abs(x["best_fitness_mean"] - oracle["best_mean"]) <= 1e-12
    assert abs(x["best_fitness_std"] - oracle["best_std"]) <= 1e-12
    assert abs(x["best_fitness_min"] - oracle["best_min"]) <= 1e-12
    assert abs(x["best_fitness_max"] - oracle["best_max"]) <= 1e-12
    assert abs(x["execution_time_mean"] - oracle["time_mean"]) <= 1e-12
    assert abs(x["execution_time_std"] - oracle["time_std"]) <= 1e-12
    assert abs(x["total_distance_mean"] - oracle["dist_mean"]) <= 1e-12
    assert abs(x["total_distance_std"] - oracle["dist_std"]) <= 1e-12
    assert abs(x["distance_per_unit_time"] - oracle["rate"]) <= 1e-12
    assert y["best_fitness_std"] == 0.0 and y["execution_time_std"] == 0.0
    assert abs(y["distance_per_unit_time"] - 5.0) <= 1e-12
    _announce(9, "summary oracle", "10-record fixture matches to 1e-12")


def test_criterion_10_baseline_sanity_on_sphere():
    start = time.perf_counter()
    box = domain_box("sphere", 2)
    medians = {}
    for name in ("pso", "sa", "ga", "hs"):
        escapes = []

        def watching(x, escapes=escapes):
            if np.any(x < box.lower) or np.any(x > box.upper):
                escapes.append(x)
            return np.sum(x * x, axis=-1)

        finals = []
        for seed in range(10):
            spec = OptimizerSpec(name=name, max_iter=500, num_agents=100, seed=seed)
            outcome = run_optimizer(spec, watching, box)
            finals.append(outcome.best_fitness)
            assert np.all(np.diff(outcome.fitness_history) <= 0)
        assert not escapes, f"{name} evaluated out of bounds"
        medians[name] = statistics.median(finals)
        assert medians[name] <= 1e-1, f"{name} median {medians[name]:.3e}"
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k} {v:.1e}" for k, v in medians.items())
    _announce(10, "baseline sanity", f"{detail}, {elapsed:.1f}s")
    assert elapsed < 60.0
