"""FFO optimizer tests: the sweep's branches through the step generator, then
full-run behavior."""

import math

import numpy as np
import pytest

from ember import baselines
from ember.baselines import (
    OptimizerSpec,
    acceptance_probability,
    resolve_params,
    run_optimizer,
)
from ember.errors import ConfigError, EvaluationError
from ember.functions import DomainBox
from ember.recording import Evaluator

from oracles import ffo_passes, path_length

BOUNDS = (-5.12, 5.12)


def sphere(x):
    return np.sum(x * x, axis=-1)


def constant(x):
    return np.full(x.shape[:-1], 1e-3)


def ffo_steps(objective=sphere, *, dimension=2, bounds=BOUNDS, num_agents=8, max_iter=20,
              seed=3, **overrides):
    """FFO's raw step generator, valuing points through its own Evaluator."""
    spec = OptimizerSpec("ffo", overrides, max_iter, num_agents, seed)
    return baselines.ffo_steps(spec, resolve_params("ffo", overrides, num_agents),
                               np.random.default_rng(seed), Evaluator(objective),
                               DomainBox(*bounds, dimension))


def ffo_run(objective=sphere, *, dimension=2, bounds=BOUNDS, num_agents=8, max_iter=20, seed=3,
            **overrides):
    spec = OptimizerSpec("ffo", overrides, max_iter, num_agents, seed)
    return run_optimizer(spec, objective, DomainBox(*bounds, dimension))


def replay(objective=sphere, *, dimension=2, bounds=BOUNDS, num_agents=8, max_iter=20, seed=3,
           **overrides):
    """Run the step generator beside the oracle's passes: every pass's moved rows
    and best value agree bit for bit, and the run ends with the budget. Returns
    the branches each pass took."""
    params = resolve_params("ffo", overrides, num_agents)
    steps = ffo_steps(objective, dimension=dimension, bounds=bounds, num_agents=num_agents,
                      max_iter=max_iter, seed=seed, **overrides)
    next(steps)
    taken = []
    for expected, best_value, branches in ffo_passes(
            objective, *bounds, num_agents, dimension, max_iter, seed, params):
        moved, _, best_fitness = next(steps)
        assert moved.tobytes() == expected.tobytes()
        assert best_fitness == best_value
        taken.append(branches)
    with pytest.raises(StopIteration):
        next(steps)
    return taken


# ---------------------------------------------------------------------------
# acceptance, temperature and the pull's scale


def test_acceptance_probability_certain_for_improvements():
    assert acceptance_probability(0.0, 10.0) == 1.0
    assert acceptance_probability(-5.0, 10.0) == 1.0


def test_acceptance_probability_zero_at_frozen_temperature():
    assert acceptance_probability(1.0, 0.0) == 0.0
    assert acceptance_probability(1.0, -1.0) == 0.0


def test_acceptance_probability_boltzmann_value():
    assert acceptance_probability(2.0, 4.0) == pytest.approx(math.exp(-0.5))


def test_acceptance_probability_underflow_is_clean_zero():
    assert acceptance_probability(1e6, 1.0) == 0.0
    assert acceptance_probability(746.0, 1.0) == 0.0


def test_current_temperature_first_iteration():
    # the oracle accepts a worse candidate at initial_temp * cooling_rate**k on
    # pass k, from k = 1; the sweep must take the same worse candidates
    taken = replay(num_agents=4, max_iter=4, mutation_probability=1.0, initial_temp=0.5,
                   cooling_rate=0.5, step_size=5.0)
    assert "uphill" in taken[0] and "uphill" in taken[2]


def test_perturbation_intensity_grows_past_threshold():
    # a constant objective never improves, so the counter is k on pass k and the
    # pull's scale 0.1 + 0.02 * (counter - threshold) grows every pass
    taken = replay(constant, num_agents=5, max_iter=12, perturbation_threshold=3,
                   mutation_probability=0.0)
    assert ["pull" in branches for branches in taken] == [False] * 3 + [True] * 8


@pytest.mark.parametrize("overrides", [
    dict(dimension=0),
    dict(num_agents=0),
    dict(max_iter=0),
    dict(no_improve_limit=0),
    dict(bounds=(2.0, -2.0)),
    dict(bounds=(0.0, float("inf"))),
    dict(step_size=0.0),
    dict(crossover_probability=1.5),
    dict(mutation_probability=-0.1),
    dict(initial_temp=0.0),
    dict(cooling_rate=1.0),
    dict(cooling_rate=0.0),
    dict(target_fitness=float("nan")),
    dict(perturbation_threshold=-1),
    dict(seed=-1),
    dict(step_size=float("inf")),
    dict(initial_temp=float("inf")),
])
def test_config_validation_rejects(overrides):
    # each setting FFO cannot run with is refused on the way in, by
    # OptimizerSpec, DomainBox, resolve_params or ffo_steps
    with pytest.raises(ConfigError):
        ffo_run(**overrides)


# ---------------------------------------------------------------------------
# the sweep: counter, local search, pull, cooling, stop test and crossover


def test_initialize_population_and_best():
    steps = ffo_steps(num_agents=30)
    moved, best_agent, best_fitness = next(steps)
    agents = np.random.default_rng(3).uniform(*BOUNDS, size=(30, 2))
    values = [sphere(a) for a in agents]
    assert moved is None
    assert best_fitness == min(values)
    assert np.array_equal(best_agent, agents[int(np.argmin(values))])


def test_evaluate_agents_counter_semantics():
    # the counter grows once per pass, not once per agent: on a constant
    # objective a limit of 3 stops the run before pass 5, after 4 passes
    outcome = ffo_run(constant, num_agents=8, max_iter=100, use_additional_conditions=True,
                      no_improve_limit=3)
    assert outcome.iterations_run == 5
    # a pass that improves resets it: every pass values lower than the last
    calls = []

    def falling(x):
        calls.append(1)
        return -float(len(calls))

    outcome = ffo_run(np.vectorize(falling, signature="(d)->()"), num_agents=8, max_iter=100,
                      use_additional_conditions=True, no_improve_limit=1, target_fitness=-1e9,
                      mutation_probability=0.0)
    assert outcome.iterations_run == 100


def test_evaluate_agents_tie_is_not_improvement():
    # every pass ties the best value, so the counter is k after pass k and the
    # run stops once it exceeds the limit
    for num_agents, limit in [(1, 1), (3, 5), (8, 30)]:
        outcome = ffo_run(constant, num_agents=num_agents, max_iter=1000,
                          use_additional_conditions=True, no_improve_limit=limit)
        assert outcome.iterations_run == limit + 2
        assert outcome.fitness_history == [1e-3] * (limit + 1)


def test_local_search_greedy_at_zero_temperature():
    # at a temperature that underflows the acceptance probability, each agent
    # leaves its local search at the best point it valued: the agent itself or
    # one of its 10 candidates. With a per-point function behind np.vectorize a
    # pass values the N rows, then 11 points per agent, one call each.
    seen = []

    def recording(x):
        seen.append(sphere(x))
        return seen[-1]

    steps = ffo_steps(np.vectorize(recording, signature="(d)->()"), bounds=(-100.0, 100.0),
                      num_agents=4, max_iter=6, initial_temp=1e-300, mutation_probability=1.0,
                      crossover_probability=0.0)
    next(steps)
    seen.clear()
    for moved, _, _ in steps:
        searches = np.reshape(seen[4:], (4, 11))
        assert [sphere(row) for row in moved] == searches.min(axis=1).tolist()
        seen.clear()


def test_local_search_candidate_count_grows_with_stagnation():
    # on a constant objective the counter is k on pass k, and a local search
    # values its agent and 10 + 5 * (k // 100) candidates: with every agent
    # searching, pass k values N * (12 + 5 * (k // 100)) points
    n, budget = 3, 260
    outcome = ffo_run(constant, num_agents=n, max_iter=budget, mutation_probability=1.0,
                      crossover_probability=0.0)
    assert outcome.evaluations == n + sum(n * (12 + 5 * (k // 100)) for k in range(1, budget))


def test_apply_perturbation_replays_generator_draws():
    # with the threshold at 0 the first pass, which only ties the initial best,
    # is stagnant (counter 1): after its two gates each agent draws d gains of
    # scale 0.1 + 0.02 * (1 - 0) and moves toward the global best by them
    steps = ffo_steps(seed=21, perturbation_threshold=0, mutation_probability=0.0,
                      crossover_probability=0.0)
    _, best_agent, _ = next(steps)
    moved, _, _ = next(steps)
    shadow = np.random.default_rng(21)
    agents = shadow.uniform(*BOUNDS, size=(8, 2))
    for i, agent in enumerate(agents):
        shadow.random()  # crossover gate
        shadow.random()  # mutation gate
        gains = shadow.normal(0.0, 0.1 + 0.02 * (1 - 0), size=2)
        expected = np.clip(agent + gains * (best_agent - agent), *BOUNDS)
        assert moved[i].tobytes() == expected.tobytes()


def test_cooling_schedule_two_regimes():
    # on a constant objective every candidate is accepted, so each local search
    # is a walk whose steps have scale step_size * 0.1; the step size cools by
    # 0.99 per pass up to the threshold and by 0.98 after it
    taken = replay(constant, num_agents=3, max_iter=10, perturbation_threshold=4,
                   mutation_probability=1.0, crossover_probability=0.0, step_size=2.0)
    assert ["pull" in branches for branches in taken] == [False] * 4 + [True] * 5


def test_should_terminate_budget_only_by_default():
    # without the conditions, neither a counter far past the limit nor a best
    # value below the target stops the run
    outcome = ffo_run(lambda x: np.zeros(x.shape[:-1]), max_iter=40, no_improve_limit=1)
    assert outcome.iterations_run == 40
    assert len(outcome.fitness_history) == 39


def test_should_terminate_additional_conditions():
    def run(**overrides):
        return ffo_run(constant, max_iter=100, use_additional_conditions=True,
                       no_improve_limit=5, **overrides).iterations_run

    assert run(target_fitness=1e-4) == 7  # stagnation: the counter exceeds 5 after 6 passes
    assert run(target_fitness=1e-2) == 1  # the initial best is already below the target
    assert run(target_fitness=1e-3) == 7  # boundary: strict less-than required


def test_update_agents_keeps_population_in_bounds():
    # wide local-search steps and the pull throw agents out of the box, and
    # every one comes back clipped
    lower, upper = BOUNDS
    steps = ffo_steps(num_agents=12, seed=5, max_iter=31, step_size=50.0,
                      mutation_probability=0.5, perturbation_threshold=2)
    next(steps)
    rows = np.concatenate([moved for moved, _, _ in steps])
    assert rows.shape == (30 * 12, 2)
    assert np.all(rows >= lower) and np.all(rows <= upper)
    assert np.any(rows == lower) and np.any(rows == upper)


def test_update_agents_single_coordinate_skips_crossover():
    # with one coordinate there is no cut point, so neither the crossover gate
    # nor the partner is drawn: on a stagnant first pass (counter 1, threshold
    # 0) each agent draws its mutation gate and then its one pull gain
    steps = ffo_steps(dimension=1, seed=2, crossover_probability=1.0, mutation_probability=0.0,
                      perturbation_threshold=0)
    _, best_agent, _ = next(steps)
    moved, _, _ = next(steps)
    shadow = np.random.default_rng(2)
    agents = shadow.uniform(*BOUNDS, size=(8, 1))
    for i, agent in enumerate(agents):
        shadow.random()  # mutation gate
        gain = shadow.normal(0.0, 0.1 + 0.02 * (1 - 0), size=1)
        assert moved[i].tobytes() == np.clip(agent + gain * (best_agent - agent),
                                             *BOUNDS).tobytes()


@pytest.mark.parametrize("num_agents", [1, 3, 9])
def test_update_agents_crossover_replays_one_point_crossover(num_agents):
    # the sweep swaps tails in place; the oracle replays the same draws through
    # the reference one_point_crossover and must reach the same rows, also when
    # the partner is the agent itself (always so with one agent)
    taken = replay(dimension=4, num_agents=num_agents, max_iter=7, crossover_probability=0.7,
                   mutation_probability=0.0, perturbation_threshold=10**6, seed=13)
    assert any("self-partner" in branches for branches in taken)
    assert ("swap" in set().union(*taken)) == (num_agents > 1)


# ---------------------------------------------------------------------------
# full runs


def test_run_history_and_iteration_accounting():
    outcome = ffo_run(max_iter=50, num_agents=10)
    assert outcome.iterations_run == 50
    assert len(outcome.fitness_history) == 49  # one append per completed pass
    diffs = np.diff(outcome.fitness_history)
    assert np.all(diffs <= 0)
    assert outcome.best_fitness == outcome.fitness_history[-1]
    assert outcome.execution_time > 0


def test_run_is_deterministic_per_seed():
    a = ffo_run(max_iter=30, seed=77)
    b = ffo_run(max_iter=30, seed=77)
    assert a.best_fitness == b.best_fitness
    assert a.fitness_history == b.fitness_history
    assert a.total_distance == b.total_distance
    assert np.array_equal(a.best_agent, b.best_agent)
    c = ffo_run(max_iter=30, seed=78)
    assert c.best_fitness != a.best_fitness


def test_run_converges_on_sphere():
    outcome = ffo_run(num_agents=40, max_iter=120, seed=0)
    assert outcome.best_fitness < 0.1
    assert outcome.best_fitness < outcome.fitness_history[0]


def test_run_with_conditions_stops_on_target():
    outcome = ffo_run(max_iter=10_000, num_agents=20,
                      use_additional_conditions=True, target_fitness=1e-2)
    assert outcome.best_fitness < 1e-2
    assert outcome.iterations_run < 10_000


def test_streaming_distance_matches_resummed_path():
    # keep every row the step generator yields and re-sum that path by brute
    # force
    steps = list(ffo_steps(num_agents=5, max_iter=12, seed=13))
    visited = [row for moved, _, _ in steps[1:] for row in moved]
    assert len(visited) == 11 * 5
    outcome = ffo_run(max_iter=12, num_agents=5, seed=13)
    assert outcome.total_distance == pytest.approx(path_length(visited), rel=1e-12)
    assert outcome.total_distance > 0.0
    assert outcome.best_fitness == steps[-1][2]


def test_non_finite_objective_raises_evaluation_error():
    def broken(x):
        return np.full(x.shape[:-1], np.nan)

    with pytest.raises(EvaluationError):
        ffo_run(broken)

    def explodes_later(x):
        return np.where(sphere(x) < 25.0, np.inf, sphere(x))

    with pytest.raises(EvaluationError) as exc:
        ffo_run(explodes_later, max_iter=100, num_agents=20)
    assert exc.value.agent is not None


def test_non_finite_local_search_candidate_raises_evaluation_error():
    # Population rows are clipped into the box and stay finite; only the
    # unclipped local-search candidates can leave it and hit the NaN.
    settings = dict(bounds=(-1.0, 1.0), mutation_probability=1.0, crossover_probability=0.0)

    def nan_outside_box(x):
        return np.where(np.any(np.abs(x) > 1.0, axis=-1), np.nan, sphere(x))

    next(ffo_steps(nan_outside_box, **settings))  # every initial row is finite
    with pytest.raises(EvaluationError) as exc:
        ffo_run(nan_outside_box, **settings)
    assert np.any(np.abs(exc.value.agent) > 1.0)
    assert math.isnan(exc.value.value)
