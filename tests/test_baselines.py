"""Reference optimizer tests: dispatch, convergence sanity, budget handling."""

import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ember.baselines as baselines
from ember.baselines import (
    PARAM_DEFAULTS,
    OptimizerSpec,
    optimizer_names,
    register_optimizer,
    run_optimizer,
)
from ember.errors import ConfigError
from ember.ffo import one_point_crossover
from ember.functions import DomainBox, domain_box, make_objective
from ember.recording import RunOutcome, evaluate_rows

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


# ---------------------------------------------------------------------------
# GA draw order: the offspring loop against its first, row-by-row form


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 2**31),
    tournament=st.integers(1, 8),
    between=st.lists(st.sampled_from(["none", "random", "normal", "uniforms"]), max_size=12),
)
def test_scalar_integer_draws_replay_a_sized_draw(seed, n, tournament, between):
    # run_ga's tournament takes `tournament` scalar integers(n) draws; with
    # PCG64 both forms read the same 32-bit halves, also when other draws
    # come between tournaments
    sized = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    for other in [*between, "none"]:
        drawn = [int(scalar.integers(n)) for _ in range(tournament)]
        assert sized.integers(n, size=tournament).tolist() == drawn
        if other == "random":
            assert sized.random() == scalar.random()
        elif other == "normal":
            assert sized.normal(0.0, 1.0, size=3).tolist() == scalar.normal(0.0, 1.0, size=3).tolist()
        elif other == "uniforms":
            assert sized.random(5).tolist() == scalar.random(5).tolist()
    assert sized.random() == scalar.random()


def _reference_ga(spec, objective, domain):
    """run_ga's population after each iteration, by its first offspring loop:
    copied rows, one sized tournament draw, one_point_crossover, np.where
    mutation, one clip of the assembled list."""
    params = baselines.resolve_params("ga", spec.params, spec.num_agents)
    tournament, elitism = int(params["tournament_size"]), int(params["elitism"])
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_agents, domain.dimension
    sigma = params["mutation_scale"] * (domain.upper - domain.lower)
    population = rng.uniform(domain.lower, domain.upper, size=(n, d))
    fitness = evaluate_rows(objective, population)

    def select():
        contenders = rng.integers(n, size=tournament)
        return population[contenders[int(np.argmin(fitness[contenders]))]]

    populations = [population]
    for _ in range(spec.max_iter):
        next_population = [population[i].copy()
                           for i in np.argsort(fitness, kind="stable")[:elitism]]
        while len(next_population) < n:
            child1, child2 = select().copy(), select().copy()
            if d >= 2 and rng.random() < params["crossover_rate"]:
                child1, child2 = one_point_crossover(child1, child2, rng=rng)
            for child in (child1, child2):
                if len(next_population) >= n:
                    break
                mask = rng.random(d) < params["mutation_rate"]
                steps = rng.normal(0.0, sigma, size=d)
                next_population.append(np.where(mask, child + steps, child))
        population = np.clip(np.array(next_population), domain.lower, domain.upper)
        fitness = evaluate_rows(objective, population)
        populations.append(population)
    return populations


@pytest.mark.parametrize("n,d,params", [
    (1, 2, {"elitism": 0, "crossover_rate": 1.0}),
    (2, 1, {"elitism": 1, "crossover_rate": 1.0}),
    (7, 2, {"elitism": 0, "crossover_rate": 0.5, "tournament_size": 1}),
    (7, 5, {"elitism": 2, "crossover_rate": 0.5, "tournament_size": 3}),
    (12, 20, {}),
    (9, 3, {"elitism": 3, "crossover_rate": 1.0, "mutation_rate": 1.0, "tournament_size": 5}),
])
def test_ga_offspring_loop_replays_its_reference(n, d, params):
    objective = make_objective("rastrigin", d)
    domain = domain_box("rastrigin", d)
    spec = OptimizerSpec(name="ga", params=params, max_iter=15, num_agents=n, seed=n * d)
    steps = baselines.run_ga.__wrapped__(spec, objective, domain)
    expected = _reference_ga(spec, objective, domain)
    next(steps)
    for reference in expected[1:]:
        population, _, _ = next(steps)
        assert population.tobytes() == reference.tobytes()
