"""Reference optimizer tests: dispatch, convergence sanity, budget handling."""

import itertools
import math
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
    run_optimizer,
)
from ember.errors import ConfigError
from ember.functions import DomainBox, domain_box, make_objective
from ember.harness import ExperimentGrid
from ember.recording import Evaluator, RunOutcome

from oracles import one_point_crossover

BOX = DomainBox(-5.12, 5.12, 2)


def sphere(x):
    return np.sum(x * x, axis=-1)


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
    with pytest.raises(ConfigError):
        OptimizerSpec(name="ffo", num_agents=0)
    with pytest.raises(ConfigError):
        OptimizerSpec(name="ffo", seed=-1)


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
    ("ffo", "no_improve_limit", 0),
    ("ffo", "step_size", 0),
    ("ffo", "step_size", math.inf),
    ("ffo", "crossover_probability", 1.5),
    ("ffo", "mutation_probability", -0.1),
    ("ffo", "initial_temp", 0),
    ("ffo", "initial_temp", math.inf),
    ("ffo", "cooling_rate", 0),
    ("ffo", "cooling_rate", 1.0),
    ("ffo", "target_fitness", math.nan),
    ("ffo", "perturbation_threshold", -1),
])
def test_runners_reject_bad_parameter_values(name, key, value):
    with pytest.raises(ConfigError, match=f"^{key} must"):
        run_named(name, max_iter=5, num_agents=5, params={key: value})


def test_integer_valued_floats_run_as_their_integers():
    as_floats = run_named("ga", max_iter=5, num_agents=6,
                          params={"tournament_size": 3.0, "elitism": 2.0})
    as_ints = run_named("ga", max_iter=5, num_agents=6, params={"tournament_size": 3, "elitism": 2})
    assert as_floats.fitness_history == as_ints.fitness_history


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


def _yields(name, function, seed, budget, count=None):
    """What optimizer ``name``'s raw step generator yields at ``budget`` on
    ``function`` at d = 3: per yield, the moved rows' bytes, the best value and
    the evaluation count so far. Only the first ``count`` yields when given."""
    spec = OptimizerSpec(name, {}, budget, 6, seed)
    evaluate = Evaluator(make_objective(function, 3))
    run, _ = baselines._OPTIMIZERS[name]
    steps = run(spec, baselines.resolve_params(name, {}, 6), np.random.default_rng(seed),
                evaluate, domain_box(function, 3))
    return [(None if moved is None else moved.tobytes(), best, evaluate.count)
            for moved, _, best in itertools.islice(steps, count)]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("function", ["rastrigin", "rosenbrock"])
@pytest.mark.parametrize("name", ["ffo", "pso", "sa", "ga", "hs"])
def test_a_larger_budget_replays_the_smaller_run_first(name, function, seed):
    # the budget only decides when a run stops: a run at budget 2K begins
    # with every yield of the run at budget K
    budget = 8
    short = _yields(name, function, seed, budget)
    assert len(short) == 1 + (budget - 1 if name == "ffo" else budget)
    assert _yields(name, function, seed, 2 * budget, len(short)) == short
    runs = [run_optimizer(OptimizerSpec(name, {}, k, 6, seed), make_objective(function, 3),
                          domain_box(function, 3)) for k in (budget, 2 * budget)]
    assert runs[1].fitness_history[: len(short) - 1] == runs[0].fitness_history


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
    with pytest.raises(ConfigError, match="max_iter"):
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


def test_param_defaults_are_not_mutated_by_overrides():
    before = dict(PARAM_DEFAULTS["pso"])
    run_named("pso", max_iter=10, params={"inertia": 0.3})
    assert PARAM_DEFAULTS["pso"] == before


def test_param_defaults_are_pinned_in_order():
    expected = [
        ("ffo", [("no_improve_limit", 30), ("step_size", 1.0), ("crossover_probability", 0.5),
                 ("mutation_probability", 0.1), ("initial_temp", 100.0), ("cooling_rate", 0.95),
                 ("use_additional_conditions", False), ("target_fitness", 1e-05),
                 ("perturbation_threshold", 50)]),
        ("pso", [("inertia", 0.7), ("cognitive", 1.0), ("social", 1.0)]),
        ("sa", [("initial_temp", 100.0), ("cooling_rate", 0.95), ("proposal_scale", 0.1)]),
        ("ga", [("crossover_rate", 0.1), ("mutation_rate", 0.1), ("tournament_size", 2),
                ("elitism", 1), ("mutation_scale", 0.1)]),
        ("hs", [("memory_consideration_rate", 0.9), ("pitch_adjustment_rate", 0.3),
                ("bandwidth_fraction", 0.01)]),
    ]
    actual = [(name, list(params.items())) for name, params in PARAM_DEFAULTS.items()]
    assert actual == expected
    # == takes 30 for 30.0 and 0 for False: the types are pinned too
    assert [[type(v) for _, v in items] for _, items in actual] == [
        [type(v) for _, v in items] for _, items in expected
    ]


_VALID = {
    "ffo": "cooling_rate, crossover_probability, initial_temp, mutation_probability, "
           "no_improve_limit, perturbation_threshold, step_size, target_fitness, "
           "use_additional_conditions",
    "pso": "cognitive, inertia, social",
    "sa": "cooling_rate, initial_temp, proposal_scale",
    "ga": "crossover_rate, elitism, mutation_rate, mutation_scale, tournament_size",
    "hs": "bandwidth_fraction, memory_consideration_rate, pitch_adjustment_rate",
}

# Every kind of rejection resolve_params makes, with its full message, at 5
# agents: an unknown key (the first in sorted order is named), a value of the
# wrong kind (checked before any interval), each bounded side of each interval
# (the first failing parameter in table order is named), an unbounded side
# through the finiteness check, and GA's elitism cap.
PARAM_REJECTIONS = [
    ("ffo", {"bogus": 1}, f"bogus: unknown parameter for optimizer 'ffo'; valid: {_VALID['ffo']}"),
    ("ffo", {"zeta": 1, "alpha": 2},
     f"alpha: unknown parameter for optimizer 'ffo'; valid: {_VALID['ffo']}"),
    ("ffo", {"use_additional_conditions": 1}, "use_additional_conditions must be a boolean, got 1"),
    ("ffo", {"no_improve_limit": 2.5}, "no_improve_limit must be an integer, got 2.5"),
    ("ffo", {"no_improve_limit": True}, "no_improve_limit must be an integer, got True"),
    ("ffo", {"no_improve_limit": math.inf}, "no_improve_limit must be an integer, got inf"),
    ("ffo", {"step_size": "1"}, "step_size must be a finite number, got '1'"),
    ("ffo", {"step_size": math.inf}, "step_size must be a finite number, got inf"),
    ("ffo", {"target_fitness": math.nan}, "target_fitness must be a finite number, got nan"),
    ("ffo", {"no_improve_limit": 0}, "no_improve_limit must lie in [1, inf), got 0"),
    ("ffo", {"step_size": 0}, "step_size must lie in (0, inf), got 0"),
    ("ffo", {"crossover_probability": -0.1}, "crossover_probability must lie in [0, 1], got -0.1"),
    ("ffo", {"crossover_probability": 1.1}, "crossover_probability must lie in [0, 1], got 1.1"),
    ("ffo", {"mutation_probability": -0.1}, "mutation_probability must lie in [0, 1], got -0.1"),
    ("ffo", {"mutation_probability": 1.1}, "mutation_probability must lie in [0, 1], got 1.1"),
    ("ffo", {"initial_temp": 0}, "initial_temp must lie in (0, inf), got 0"),
    ("ffo", {"cooling_rate": 0}, "cooling_rate must lie in (0, 1), got 0"),
    ("ffo", {"cooling_rate": 1.0}, "cooling_rate must lie in (0, 1), got 1.0"),
    ("ffo", {"perturbation_threshold": -1}, "perturbation_threshold must lie in [0, inf), got -1"),
    ("ffo", {"cooling_rate": 1.0, "step_size": 0}, "step_size must lie in (0, inf), got 0"),
    ("ffo", {"step_size": 0, "target_fitness": math.nan},
     "target_fitness must be a finite number, got nan"),
    ("pso", {"momentum": 0.5}, f"momentum: unknown parameter for optimizer 'pso'; valid: {_VALID['pso']}"),
    ("pso", {"inertia": "0.7"}, "inertia must be a finite number, got '0.7'"),
    ("pso", {"social": True}, "social must be a finite number, got True"),
    ("pso", {"cognitive": -math.inf}, "cognitive must be a finite number, got -inf"),
    ("sa", {"bogus": 1}, f"bogus: unknown parameter for optimizer 'sa'; valid: {_VALID['sa']}"),
    ("sa", {"proposal_scale": True}, "proposal_scale must be a finite number, got True"),
    ("sa", {"initial_temp": None}, "initial_temp must be a finite number, got None"),
    ("sa", {"initial_temp": 0}, "initial_temp must lie in (0, inf), got 0"),
    ("sa", {"cooling_rate": 0}, "cooling_rate must lie in (0, 1), got 0"),
    ("sa", {"cooling_rate": 1.0}, "cooling_rate must lie in (0, 1), got 1.0"),
    ("sa", {"proposal_scale": -0.1}, "proposal_scale must lie in [0, inf), got -0.1"),
    ("ga", {"bogus": 1}, f"bogus: unknown parameter for optimizer 'ga'; valid: {_VALID['ga']}"),
    ("ga", {"tournament_size": 2.5}, "tournament_size must be an integer, got 2.5"),
    ("ga", {"elitism": True}, "elitism must be an integer, got True"),
    ("ga", {"mutation_rate": "x"}, "mutation_rate must be a finite number, got 'x'"),
    ("ga", {"crossover_rate": -0.1}, "crossover_rate must lie in [0, 1], got -0.1"),
    ("ga", {"crossover_rate": 1.1}, "crossover_rate must lie in [0, 1], got 1.1"),
    ("ga", {"mutation_rate": -0.1}, "mutation_rate must lie in [0, 1], got -0.1"),
    ("ga", {"mutation_rate": 1.1}, "mutation_rate must lie in [0, 1], got 1.1"),
    ("ga", {"tournament_size": 0}, "tournament_size must lie in [1, inf), got 0"),
    ("ga", {"elitism": -1}, "elitism must lie in [0, inf), got -1"),
    ("ga", {"mutation_scale": -0.1}, "mutation_scale must lie in [0, inf), got -0.1"),
    ("ga", {"elitism": 6}, "elitism must be <= num_agents (5), got 6"),
    ("hs", {"bogus": 1}, f"bogus: unknown parameter for optimizer 'hs'; valid: {_VALID['hs']}"),
    ("hs", {"memory_consideration_rate": None},
     "memory_consideration_rate must be a finite number, got None"),
    ("hs", {"memory_consideration_rate": -0.1},
     "memory_consideration_rate must lie in [0, 1], got -0.1"),
    ("hs", {"memory_consideration_rate": 1.1},
     "memory_consideration_rate must lie in [0, 1], got 1.1"),
    ("hs", {"pitch_adjustment_rate": -0.1}, "pitch_adjustment_rate must lie in [0, 1], got -0.1"),
    ("hs", {"pitch_adjustment_rate": 1.1}, "pitch_adjustment_rate must lie in [0, 1], got 1.1"),
    ("hs", {"bandwidth_fraction": -0.1}, "bandwidth_fraction must lie in [0, inf), got -0.1"),
]

# The closed edges of the intervals above, and GA's elitism at the cap: accepted.
PARAM_EDGES = [
    ("ffo", {"no_improve_limit": 1, "crossover_probability": 0.0, "mutation_probability": 0.0,
             "perturbation_threshold": 0}),
    ("ffo", {"crossover_probability": 1.0, "mutation_probability": 1.0}),
    ("sa", {"proposal_scale": 0.0}),
    ("ga", {"crossover_rate": 0.0, "mutation_rate": 0.0, "tournament_size": 1, "elitism": 0,
            "mutation_scale": 0.0}),
    ("ga", {"crossover_rate": 1.0, "mutation_rate": 1.0, "elitism": 5}),
    ("hs", {"memory_consideration_rate": 0.0, "pitch_adjustment_rate": 0.0,
            "bandwidth_fraction": 0.0}),
    ("hs", {"memory_consideration_rate": 1.0, "pitch_adjustment_rate": 1.0}),
]


def test_parameter_rejections_are_pinned_at_runner_level():
    for name, overrides, message in PARAM_REJECTIONS:
        with pytest.raises(ConfigError) as exc:
            run_named(name, max_iter=2, num_agents=5, params=overrides)
        assert str(exc.value) == message, (name, overrides)


def test_parameter_rejections_are_pinned_at_grid_level():
    for name, overrides, message in PARAM_REJECTIONS:
        with pytest.raises(ConfigError) as exc:
            ExperimentGrid(algorithms=(name,), functions=("sphere",), agent_counts=(5, 8),
                           params={name: overrides})
        assert str(exc.value) == f"params.{name}.{message}", (name, overrides)


def test_closed_interval_edges_are_accepted():
    for name, overrides in PARAM_EDGES:
        run_named(name, max_iter=2, num_agents=5, params=overrides)
        ExperimentGrid(algorithms=(name,), functions=("sphere",), agent_counts=(5,),
                       params={name: overrides})


# ---------------------------------------------------------------------------
# GA draw order: the batched generation against a per-pair loop, and its
# outcomes against the per-child algorithm it replaced


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 2**31),
    tournament=st.integers(1, 8),
    between=st.lists(st.sampled_from(["none", "random", "normal", "uniforms"]), max_size=12),
)
def test_scalar_integer_draws_replay_a_sized_draw(seed, n, tournament, between):
    # ga_steps's tournament takes `tournament` scalar integers(n) draws; with
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
    """GA's populations after each iteration, by its pre-batching algorithm:
    per child, a sized tournament draw, then per pair a crossover gate and
    point, then per child d mutation gates and d steps. The batched generation
    draws the same quantities in a different order, so this is the reference
    for its distribution of outcomes, not for its floats."""
    params = baselines.resolve_params("ga", spec.params, spec.num_agents)
    tournament, elitism = int(params["tournament_size"]), int(params["elitism"])
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_agents, domain.dimension
    sigma = params["mutation_scale"] * (domain.upper - domain.lower)
    population = rng.uniform(domain.lower, domain.upper, size=(n, d))
    evaluate = Evaluator(objective)
    fitness = evaluate.rows(population)

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
                child1, child2 = one_point_crossover(child1, child2, int(rng.integers(1, d)))
            for child in (child1, child2):
                if len(next_population) >= n:
                    break
                mask = rng.random(d) < params["mutation_rate"]
                steps = rng.normal(0.0, sigma, size=d)
                next_population.append(np.where(mask, child + steps, child))
        population = np.clip(np.array(next_population), domain.lower, domain.upper)
        fitness = evaluate.rows(population)
        populations.append(population)
    return populations


def _per_pair_ga(spec, objective, domain):
    """GA's populations after each iteration, by a plain loop over pairs that
    reads the arrays drawn in ga_steps's documented order."""
    params = baselines.resolve_params("ga", spec.params, spec.num_agents)
    tournament, elitism = int(params["tournament_size"]), int(params["elitism"])
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_agents, domain.dimension
    sigma = params["mutation_scale"] * (domain.upper - domain.lower)
    population = rng.uniform(domain.lower, domain.upper, size=(n, d))
    evaluate = Evaluator(objective)
    fitness = evaluate.rows(population)
    pairs = math.ceil((n - elitism) / 2)

    def winner(contenders):
        best = contenders[0]
        for contender in contenders[1:]:
            if fitness[contender] < fitness[best]:
                best = contender
        return population[best].copy()

    populations = [population]
    for _ in range(spec.max_iter):
        contenders = rng.integers(n, size=(2 * pairs, tournament))
        if d >= 2:
            crossed = rng.random(pairs) < params["crossover_rate"]
            points = rng.integers(1, d, size=pairs)
        mask = rng.random((2 * pairs, d)) < params["mutation_rate"]
        steps = rng.normal(0.0, sigma, size=(2 * pairs, d))
        next_population = [population[i].copy()
                           for i in np.argsort(fitness, kind="stable")[:elitism]]
        for p in range(pairs):
            children = [winner(contenders[2 * p]), winner(contenders[2 * p + 1])]
            if d >= 2 and crossed[p]:
                children = one_point_crossover(*children, int(points[p]))
            for k, child in zip((2 * p, 2 * p + 1), children):
                if len(next_population) < n:
                    next_population.append(np.where(mask[k], child + steps[k], child))
        population = np.clip(np.array(next_population), domain.lower, domain.upper)
        fitness = evaluate.rows(population)
        populations.append(population)
    return populations


@pytest.mark.parametrize("n,d,params", [
    (1, 2, {"elitism": 0, "crossover_rate": 1.0}),
    (2, 1, {"elitism": 1, "crossover_rate": 1.0}),
    (7, 2, {"elitism": 0, "crossover_rate": 0.5, "tournament_size": 1}),
    (7, 5, {"elitism": 2, "crossover_rate": 0.5, "tournament_size": 3}),
    (12, 20, {}),
    (9, 3, {"elitism": 3, "crossover_rate": 1.0, "mutation_rate": 1.0, "tournament_size": 5}),
    (4, 3, {"elitism": 4, "crossover_rate": 1.0}),
    (3, 4, {"elitism": 0, "crossover_rate": 0.5, "tournament_size": 6}),
])
def test_ga_offspring_loop_replays_its_reference(n, d, params):
    spec = OptimizerSpec(name="ga", params=params, max_iter=15, num_agents=n, seed=n * d)
    _assert_replays(spec, make_objective("rastrigin", d), domain_box("rastrigin", d))


def test_ga_tournament_ties_go_to_the_earlier_contender():
    # a coarse objective gives distinct points equal values
    spec = OptimizerSpec(name="ga", params={"tournament_size": 4}, max_iter=15,
                         num_agents=10, seed=3)
    _assert_replays(spec, lambda x: np.floor(np.vecdot(x, x)), BOX)


def _assert_replays(spec, objective, domain):
    params = baselines.resolve_params("ga", spec.params, spec.num_agents)
    steps = baselines.ga_steps(spec, params, np.random.default_rng(spec.seed),
                               Evaluator(objective), domain)
    next(steps)
    for reference in _per_pair_ga(spec, objective, domain)[1:]:
        population, _, _ = next(steps)
        assert population.tobytes() == reference.tobytes()


def _rank_sum_z(first, second):
    """Wilcoxon rank-sum z of ``first`` against ``second`` (ties averaged)."""
    values = np.concatenate([first, second])
    ranks = np.empty(len(values))
    ranks[np.argsort(values, kind="stable")] = np.arange(1.0, len(values) + 1.0)
    for value in np.unique(values):
        tied = values == value
        ranks[tied] = ranks[tied].mean()
    n1, n2 = len(first), len(second)
    mean = n1 * (n1 + n2 + 1) / 2
    return (ranks[:n1].sum() - mean) / math.sqrt(n1 * n2 * (n1 + n2 + 1) / 12)


@pytest.mark.parametrize("function,d", [("sphere", 2), ("sphere", 20),
                                        ("rastrigin", 2), ("rastrigin", 20)])
def test_batched_ga_matches_the_per_child_algorithm_in_distribution(function, d):
    # the batched generation changed GA's draw order, not its operators: over
    # independent seeds its best values must be indistinguishable from the
    # per-child algorithm's
    objective = make_objective(function, d)
    domain = domain_box(function, d)

    def spec(seed):
        return OptimizerSpec(name="ga", max_iter=40, num_agents=12, seed=seed)

    before = [min(Evaluator(objective).rows(p).min()
                  for p in _reference_ga(spec(seed), objective, domain))
              for seed in range(30)]
    after = [run_optimizer(spec(seed), objective, domain).best_fitness
             for seed in range(30, 60)]
    assert abs(_rank_sum_z(after, before)) < 3
