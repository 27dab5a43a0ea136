"""Reference optimizer tests: dispatch, convergence sanity, budget handling."""

import statistics
import time

import numpy as np
import pytest

import ember.baselines as baselines
from ember.baselines import (
    PARAM_DEFAULTS,
    OptimizerSpec,
    optimizer_names,
    register_optimizer,
    run_optimizer,
)
from ember.errors import ConfigError
from ember.functions import DomainBox
from ember.recording import RunOutcome

BOX = DomainBox(-5.12, 5.12, 2)


def sphere(x):
    return float(np.sum(x * x))


def run_named(name, seed=0, max_iter=200, num_agents=30, params=None):
    spec = OptimizerSpec(name=name, params=params or {}, max_iter=max_iter,
                         num_agents=num_agents, seed=seed)
    return run_optimizer(spec, sphere, BOX)


def test_dispatch_table_contents():
    assert optimizer_names() == ["ffo", "ga", "hs", "pso", "sa"]


def test_spec_validation():
    with pytest.raises(ConfigError):
        OptimizerSpec(name="pso", max_iter=-1)
    with pytest.raises(ConfigError):
        OptimizerSpec(name="pso", num_agents=0)
    with pytest.raises(ConfigError):
        OptimizerSpec(name="pso", seed=-3)


def test_unknown_optimizer_rejected():
    with pytest.raises(ConfigError) as exc:
        run_optimizer(OptimizerSpec(name="cuckoo"), sphere, BOX)
    assert "ffo" in str(exc.value)


def test_unknown_parameter_rejected_with_valid_names():
    with pytest.raises(ConfigError) as exc:
        run_named("pso", params={"momentum": 0.5})
    message = str(exc.value)
    assert "momentum" in message and "inertia" in message


@pytest.mark.parametrize("name,key,value", [
    ("sa", "proposal_scale", -1),
    ("ga", "mutation_scale", -0.1),
    ("ga", "tournament_size", 0),
    ("ga", "elitism", 50),
    ("ffo", "cooling_rate", 2),
])
def test_runners_reject_bad_parameter_values(name, key, value):
    with pytest.raises(ConfigError, match=f"^{key} must"):
        run_named(name, max_iter=5, num_agents=5, params={key: value})


@pytest.mark.parametrize("name", ["pso", "sa", "ga", "hs"])
def test_history_shape_and_monotonicity(name):
    outcome = run_named(name, max_iter=80)
    assert isinstance(outcome, RunOutcome)
    assert len(outcome.fitness_history) == 80
    assert outcome.iterations_run == 80
    diffs = np.diff(outcome.fitness_history)
    assert np.all(diffs <= 0)
    assert outcome.best_fitness == outcome.fitness_history[-1]
    assert outcome.best_agent.shape == (2,)
    assert np.all(outcome.best_agent >= BOX.lower)
    assert np.all(outcome.best_agent <= BOX.upper)


@pytest.mark.parametrize("name", ["pso", "sa", "ga", "hs"])
def test_every_evaluated_point_is_reported_in_bounds(name):
    # the contract is about reported positions; proposals may be generated
    # outside and clipped before evaluation
    outside = []

    def watching(x):
        if np.any(x < BOX.lower - 1e-12) or np.any(x > BOX.upper + 1e-12):
            outside.append(x.copy())
        return sphere(x)

    spec = OptimizerSpec(name=name, max_iter=60, num_agents=15, seed=4)
    run_optimizer(spec, watching, BOX)
    assert not outside


@pytest.mark.parametrize("name,bound", [
    ("pso", 1e-3),
    ("ga", 1e-2),
    ("hs", 1e-1),
    ("sa", 1e-1),
])
def test_median_convergence_on_sphere(name, bound):
    finals = [run_named(name, seed=s, max_iter=300, num_agents=30).best_fitness
              for s in range(10)]
    assert statistics.median(finals) <= bound


@pytest.mark.parametrize("name", ["pso", "sa", "ga", "hs"])
def test_zero_budget_returns_initial_best(name):
    outcome = run_named(name, max_iter=0, num_agents=12)
    assert outcome.fitness_history == []
    assert outcome.iterations_run == 0
    assert outcome.total_distance == 0.0
    assert np.isfinite(outcome.best_fitness)


@pytest.mark.parametrize("name", ["pso", "sa", "ga", "hs"])
def test_same_seed_same_outcome(name):
    a = run_named(name, seed=9, max_iter=50)
    b = run_named(name, seed=9, max_iter=50)
    assert a.best_fitness == b.best_fitness
    assert a.fitness_history == b.fitness_history
    assert a.total_distance == b.total_distance
    c = run_named(name, seed=10, max_iter=50)
    assert c.fitness_history != a.fitness_history


@pytest.mark.parametrize("name", ["ffo", "pso", "sa", "ga", "hs"])
def test_execution_time_covers_initialization(name):
    # with no update pass to run, the only time spent is the initial evaluation
    pause = 0.01

    def slow_sphere(x):
        time.sleep(pause)
        return sphere(x)

    spec = OptimizerSpec(name=name, max_iter=1 if name == "ffo" else 0, num_agents=2)
    outcome = run_optimizer(spec, slow_sphere, BOX)
    assert outcome.fitness_history == []
    assert outcome.execution_time >= pause


def test_ffo_adapter_runs_through_dispatch():
    outcome = run_named("ffo", max_iter=40, num_agents=15)
    assert outcome.iterations_run == 40
    assert len(outcome.fitness_history) == 39  # counter is one-based


def test_ffo_adapter_rejects_zero_budget():
    with pytest.raises(ConfigError):
        run_named("ffo", max_iter=0)


def test_ffo_adapter_forwards_termination_conditions():
    # either the stagnation limit or the fitness target stops the run early;
    # which one fires first depends on the trajectory
    outcome = run_named("ffo", max_iter=5000, num_agents=20,
                        params={"use_additional_conditions": True,
                                "target_fitness": 1e-2})
    assert outcome.iterations_run < 5000
    plain = run_named("ffo", max_iter=40, num_agents=20)
    assert plain.iterations_run == 40


def test_register_optimizer_round_trip():
    def fixed_point(spec, objective, domain):
        agent = np.zeros(domain.dimension)
        value = float(objective(agent))
        return RunOutcome(best_agent=agent, best_fitness=value,
                          fitness_history=[value] * spec.max_iter,
                          execution_time=1e-9, total_distance=0.0,
                          iterations_run=spec.max_iter)

    register_optimizer("fixed_point", fixed_point, {"gain": 1.0})
    try:
        assert "fixed_point" in optimizer_names()
        outcome = run_named("fixed_point", max_iter=3)
        assert outcome.best_fitness == 0.0
        # the declared defaults make the optimizer grid-configurable
        assert PARAM_DEFAULTS["fixed_point"] == {"gain": 1.0}
    finally:
        del baselines._OPTIMIZERS["fixed_point"]
        del PARAM_DEFAULTS["fixed_point"]


def test_param_defaults_are_not_mutated_by_overrides():
    before = dict(PARAM_DEFAULTS["pso"])
    run_named("pso", max_iter=10, params={"inertia": 0.3})
    assert PARAM_DEFAULTS["pso"] == before
