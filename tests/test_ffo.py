"""FFO optimizer tests: operators in isolation, then full-run behavior."""

import math

import numpy as np
import pytest

from ember.baselines import OptimizerSpec, resolve_params, run_optimizer
from ember.errors import ConfigError, EvaluationError
from ember.ffo import (
    acceptance_probability,
    apply_perturbation,
    cooling_schedule,
    current_temperature,
    evaluate_agents,
    initialize,
    local_search,
    perturbation_intensity,
    should_terminate,
    update_agents,
)
from ember.functions import DomainBox
from ember.recording import Evaluator

from oracles import one_point_crossover, path_length

BOUNDS = (-5.12, 5.12)


def sphere(x):
    return float(np.sum(x * x))


def small_state(objective=sphere, *, dimension=2, bounds=BOUNDS, num_agents=8, seed=3,
                **overrides):
    params = resolve_params("ffo", overrides, num_agents)
    return initialize(params, DomainBox(*bounds, dimension), num_agents, seed,
                      Evaluator(objective))


def ffo_run(objective=sphere, *, dimension=2, bounds=BOUNDS, num_agents=8, max_iter=20, seed=3,
            **overrides):
    spec = OptimizerSpec("ffo", overrides, max_iter, num_agents, seed)
    return run_optimizer(spec, objective, DomainBox(*bounds, dimension))


# ---------------------------------------------------------------------------
# scalar helpers


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
    params = resolve_params("ffo", {}, 8)
    assert current_temperature(params, 1) == pytest.approx(95.0)
    assert current_temperature(params, 3) == pytest.approx(100.0 * 0.95**3)


def test_perturbation_intensity_grows_past_threshold():
    assert perturbation_intensity(60, 50) == pytest.approx(0.3)
    assert perturbation_intensity(51, 50) == pytest.approx(0.12)


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
    # OptimizerSpec, DomainBox, resolve_params or run_ffo
    with pytest.raises(ConfigError):
        ffo_run(**overrides)


# ---------------------------------------------------------------------------
# state operations


def test_initialize_population_and_best():
    state = small_state(num_agents=30)
    lower, upper = BOUNDS
    assert state.agents.shape == (30, 2)
    assert np.all(state.agents >= lower) and np.all(state.agents <= upper)
    values = [sphere(a) for a in state.agents]
    assert state.best_global_fitness == min(values)
    assert np.array_equal(state.best_global_agent, state.agents[int(np.argmin(values))])
    assert state.iteration == 1 and state.no_improve_counter == 0


def test_evaluate_agents_counter_semantics():
    state = small_state()
    state.best_global_fitness = -1.0  # unbeatable, sphere is non-negative
    evaluate_agents(state, Evaluator(sphere))
    evaluate_agents(state, Evaluator(sphere))
    assert state.no_improve_counter == 2  # one increment per call, not per agent
    state.agents[0] = np.zeros(2)
    state.best_global_fitness = 5.0
    evaluate_agents(state, Evaluator(sphere))
    assert state.no_improve_counter == 0
    assert state.best_global_fitness == 0.0


def test_evaluate_agents_tie_is_not_improvement():
    state = small_state()
    state.agents[0] = np.zeros(2)
    evaluate_agents(state, Evaluator(sphere))
    assert state.no_improve_counter == 0
    evaluate_agents(state, Evaluator(sphere))  # same minimum again: a tie
    assert state.no_improve_counter == 1


def test_local_search_greedy_at_zero_temperature():
    state = small_state(seed=9)
    state.iteration = 10**6  # temperature underflows to zero
    seen = []

    def recording(x):
        value = sphere(x)
        seen.append(value)
        return value

    result = local_search(state, state.agents[0].copy(), Evaluator(recording))
    assert sphere(result) == min(seen)


def test_local_search_candidate_count_grows_with_stagnation():
    state = small_state(seed=9)
    calls = []

    def counting(x):
        calls.append(1)
        return sphere(x)

    local_search(state, state.agents[0].copy(), Evaluator(counting))
    assert len(calls) == 11  # incumbent + 10 candidates
    calls.clear()
    state.no_improve_counter = 250
    local_search(state, state.agents[0].copy(), Evaluator(counting))
    assert len(calls) == 21  # incumbent + 10 + 5 * (250 // 100)


def test_apply_perturbation_replays_generator_draws():
    state = small_state(seed=21)
    shadow = np.random.default_rng(21)
    shadow.uniform(*BOUNDS, size=(8, 2))  # init draw
    agent = state.agents[0].copy()
    moved = apply_perturbation(state, agent, 0.3)
    gains = shadow.normal(0.0, 0.3, size=2)
    expected = agent + gains * (state.best_global_agent - agent)
    assert np.allclose(moved, expected, atol=0.0)


def test_cooling_schedule_two_regimes():
    state = small_state()
    state.step_size = 1.0
    state.no_improve_counter = state.params["perturbation_threshold"]
    cooling_schedule(state)
    assert state.step_size == pytest.approx(0.99)
    state.step_size = 1.0
    state.no_improve_counter = state.params["perturbation_threshold"] + 1
    cooling_schedule(state)
    assert state.step_size == pytest.approx(0.98)


def test_should_terminate_budget_only_by_default():
    state = small_state()
    state.no_improve_counter = 10**6
    state.best_global_fitness = 0.0
    assert not should_terminate(state, 10)
    state.iteration = 10
    assert should_terminate(state, 10)


def test_should_terminate_additional_conditions():
    state = small_state(use_additional_conditions=True, no_improve_limit=5, target_fitness=1e-3)
    state.best_global_fitness = 1.0
    assert not should_terminate(state, 100)
    state.no_improve_counter = 6
    assert should_terminate(state, 100)
    state.no_improve_counter = 0
    state.best_global_fitness = 1e-4
    assert should_terminate(state, 100)
    state.best_global_fitness = 1e-3  # boundary: strict less-than required
    assert not should_terminate(state, 100)


def test_update_agents_keeps_population_in_bounds():
    state = small_state(num_agents=12, seed=5)
    lower, upper = BOUNDS
    for _ in range(30):
        update_agents(state, Evaluator(sphere))
        cooling_schedule(state)
        state.iteration += 1
        assert np.all(state.agents >= lower) and np.all(state.agents <= upper)


def test_update_agents_single_coordinate_skips_crossover():
    # with one coordinate there is no cut point, so neither the crossover
    # gate draw nor the partner draw happens; each agent consumes exactly
    # one uniform (its mutation gate) when nothing else fires
    state = small_state(dimension=1, crossover_probability=1.0, mutation_probability=0.0, seed=2)
    shadow = np.random.default_rng(2)
    shadow.uniform(*BOUNDS, size=(8, 1))
    update_agents(state, Evaluator(sphere))
    for _ in range(8):
        shadow.random()  # mutation gates
    assert state.rng.random() == shadow.random()  # generators in lockstep


@pytest.mark.parametrize("num_agents", [1, 3, 9])
def test_update_agents_crossover_replays_one_point_crossover(num_agents):
    # the sweep swaps tails in place; a shadow generator replaying the same
    # draws through the reference one_point_crossover must reach the same rows,
    # also when the partner is the agent itself (always so with one agent)
    state = small_state(dimension=4, num_agents=num_agents, crossover_probability=0.7,
                        mutation_probability=0.0, perturbation_threshold=10**6, seed=13)
    shadow = np.random.default_rng(13)
    agents = shadow.uniform(*BOUNDS, size=(num_agents, 4))
    self_partnered = 0
    for _ in range(6):
        moved = update_agents(state, Evaluator(sphere))
        expected = np.empty_like(agents)
        for i in range(num_agents):
            if shadow.random() < 0.7:
                partner = int(shadow.integers(num_agents))
                self_partnered += partner == i
                agents[i], agents[partner] = one_point_crossover(
                    agents[i], agents[partner], int(shadow.integers(1, 4)))
            shadow.random()  # mutation gate
            expected[i] = agents[i]
        assert state.agents.tobytes() == agents.tobytes()
        assert moved.tobytes() == expected.tobytes()
    assert self_partnered
    assert state.rng.random() == shadow.random()  # generators in lockstep


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
    # replay the run through the public operations, keep every row that
    # update_agents returns, and re-sum that path by brute force; the replay
    # also pins run_ffo's loop to the operators
    state = small_state(num_agents=5, seed=13)
    visited = []
    while not should_terminate(state, 12):
        visited.extend(update_agents(state, Evaluator(sphere)))
        cooling_schedule(state)
        state.iteration += 1
    assert len(visited) == 11 * 5
    outcome = ffo_run(max_iter=12, num_agents=5, seed=13)
    assert outcome.total_distance == pytest.approx(path_length(visited), rel=1e-12)
    assert outcome.total_distance > 0.0
    assert outcome.best_fitness == state.best_global_fitness
    assert outcome.iterations_run == state.iteration


def test_non_finite_objective_raises_evaluation_error():
    def broken(x):
        return float("nan")

    with pytest.raises(EvaluationError):
        ffo_run(broken)

    def explodes_later(x):
        return float("inf") if sphere(x) < 25.0 else sphere(x)

    with pytest.raises(EvaluationError) as exc:
        ffo_run(explodes_later, max_iter=100, num_agents=20)
    assert exc.value.agent is not None


def test_non_finite_local_search_candidate_raises_evaluation_error():
    # Population rows are clipped into the box and stay finite; only the
    # unclipped local-search candidates can leave it and hit the NaN.
    settings = dict(bounds=(-1.0, 1.0), mutation_probability=1.0, crossover_probability=0.0)

    def nan_outside_box(x):
        if np.any(np.abs(x) > 1.0):
            return float("nan")
        return sphere(x)

    state = small_state(nan_outside_box, **settings)
    evaluate_agents(state, Evaluator(nan_outside_box))  # every population row is finite
    with pytest.raises(EvaluationError) as exc:
        ffo_run(nan_outside_box, **settings)
    assert np.any(np.abs(exc.value.agent) > 1.0)
    assert math.isnan(exc.value.value)
