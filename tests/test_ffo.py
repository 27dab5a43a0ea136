"""FFO optimizer tests: operators in isolation, then full-run behavior."""

import itertools
import math

import numpy as np
import pytest

from ember import ffo
from ember.errors import ConfigError, EvaluationError, InputError
from ember.ffo import (
    FFOConfig,
    acceptance_probability,
    apply_perturbation,
    cooling_schedule,
    current_temperature,
    evaluate_agents,
    initialize,
    local_search,
    one_point_crossover,
    perturbation_intensity,
    should_terminate,
    update_agents,
)
from ember.recording import path_length


def sphere(x):
    return float(np.sum(x * x))


def small_config(**overrides):
    base = dict(dimension=2, num_agents=8, max_iter=20, seed=3)
    base.update(overrides)
    return FFOConfig(**base)


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
    cfg = small_config()
    assert current_temperature(cfg, 1) == pytest.approx(95.0)
    assert current_temperature(cfg, 3) == pytest.approx(100.0 * 0.95**3)


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
])
def test_config_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        small_config(**overrides)


# ---------------------------------------------------------------------------
# crossover


def test_crossover_exhaustive_small_dimensions():
    rng = np.random.default_rng(0)
    for d in range(2, 7):
        p1 = rng.uniform(-5, 5, d)
        p2 = rng.uniform(-5, 5, d)
        for point in range(1, d):
            c1, c2 = one_point_crossover(p1, p2, point=point)
            assert np.array_equal(c1, np.concatenate([p1[:point], p2[point:]]))
            assert np.array_equal(c2, np.concatenate([p2[:point], p1[point:]]))
            merged = np.sort(np.concatenate([c1, c2]))
            original = np.sort(np.concatenate([p1, p2]))
            assert np.array_equal(merged, original)


def test_crossover_of_identical_parents_is_identity():
    p = np.array([1.0, 2.0, 3.0])
    for point in (1, 2):
        c1, c2 = one_point_crossover(p, p, point=point)
        assert np.array_equal(c1, p) and np.array_equal(c2, p)


def test_crossover_draws_every_interior_point():
    rng = np.random.default_rng(1)
    d = 5
    seen = set()
    p1, p2 = np.zeros(d), np.ones(d)
    for _ in range(300):
        c1, _ = one_point_crossover(p1, p2, rng=rng)
        seen.add(int(np.sum(c1 == 0.0)))
    assert seen == {1, 2, 3, 4}


def test_crossover_input_errors():
    with pytest.raises(InputError):
        one_point_crossover([1.0], [2.0], point=1)
    with pytest.raises(InputError):
        one_point_crossover([1.0, 2.0], [1.0, 2.0, 3.0], point=1)
    with pytest.raises(InputError):
        one_point_crossover([1.0, 2.0], [3.0, 4.0], point=0)
    with pytest.raises(InputError):
        one_point_crossover([1.0, 2.0], [3.0, 4.0], point=2)
    with pytest.raises(InputError):
        one_point_crossover([1.0, 2.0], [3.0, 4.0])  # neither rng nor point


# ---------------------------------------------------------------------------
# state operations


def test_initialize_population_and_best():
    cfg = small_config(num_agents=30)
    state = initialize(cfg, sphere)
    lower, upper = cfg.bounds
    assert state.agents.shape == (30, 2)
    assert np.all(state.agents >= lower) and np.all(state.agents <= upper)
    values = [sphere(a) for a in state.agents]
    assert state.best_global_fitness == min(values)
    assert np.array_equal(state.best_global_agent, state.agents[int(np.argmin(values))])
    assert np.all(state.mutation_rates == 0.1)
    assert state.iteration == 1 and state.no_improve_counter == 0


def test_evaluate_agents_counter_semantics():
    cfg = small_config()
    state = initialize(cfg, sphere)
    state.best_global_fitness = -1.0  # unbeatable, sphere is non-negative
    evaluate_agents(state, sphere)
    evaluate_agents(state, sphere)
    assert state.no_improve_counter == 2  # one increment per call, not per agent
    state.agents[0] = np.zeros(2)
    state.best_global_fitness = 5.0
    evaluate_agents(state, sphere)
    assert state.no_improve_counter == 0
    assert state.best_global_fitness == 0.0


def test_evaluate_agents_tie_is_not_improvement():
    cfg = small_config()
    state = initialize(cfg, sphere)
    state.agents[0] = np.zeros(2)
    evaluate_agents(state, sphere)
    assert state.no_improve_counter == 0
    evaluate_agents(state, sphere)  # same minimum again: a tie
    assert state.no_improve_counter == 1


def test_local_search_greedy_at_zero_temperature():
    cfg = small_config(seed=9)
    state = initialize(cfg, sphere)
    state.iteration = 10**6  # temperature underflows to zero
    seen = []

    def recording(x):
        value = sphere(x)
        seen.append(value)
        return value

    result = local_search(state, state.agents[0].copy(), 0, recording)
    assert sphere(result) == min(seen)


def test_local_search_candidate_count_grows_with_stagnation():
    cfg = small_config(seed=9)
    state = initialize(cfg, sphere)
    calls = []

    def counting(x):
        calls.append(1)
        return sphere(x)

    local_search(state, state.agents[0].copy(), 0, counting)
    assert len(calls) == 11  # incumbent + 10 candidates
    calls.clear()
    state.no_improve_counter = 250
    local_search(state, state.agents[0].copy(), 0, counting)
    assert len(calls) == 21  # incumbent + 10 + 5 * (250 // 100)


def test_apply_perturbation_replays_generator_draws():
    cfg = small_config(seed=21)
    state = initialize(cfg, sphere)
    shadow = np.random.default_rng(21)
    shadow.uniform(*cfg.bounds, size=(cfg.num_agents, cfg.dimension))  # init draw
    agent = state.agents[0].copy()
    moved = apply_perturbation(state, agent, 0.3)
    gains = shadow.normal(0.0, 0.3, size=2)
    expected = agent + gains * (state.best_global_agent - agent)
    assert np.allclose(moved, expected, atol=0.0)


def test_cooling_schedule_two_regimes():
    cfg = small_config()
    state = initialize(cfg, sphere)
    state.step_size = 1.0
    state.no_improve_counter = cfg.perturbation_threshold
    cooling_schedule(state)
    assert state.step_size == pytest.approx(0.99)
    state.step_size = 1.0
    state.no_improve_counter = cfg.perturbation_threshold + 1
    cooling_schedule(state)
    assert state.step_size == pytest.approx(0.98)


def test_should_terminate_budget_only_by_default():
    cfg = small_config(max_iter=10)
    state = initialize(cfg, sphere)
    state.no_improve_counter = 10**6
    state.best_global_fitness = 0.0
    assert not should_terminate(state, cfg)
    state.iteration = 10
    assert should_terminate(state, cfg)


def test_should_terminate_additional_conditions():
    cfg = small_config(max_iter=100, use_additional_conditions=True,
                       no_improve_limit=5, target_fitness=1e-3)
    state = initialize(cfg, sphere)
    state.best_global_fitness = 1.0
    assert not should_terminate(state, cfg)
    state.no_improve_counter = 6
    assert should_terminate(state, cfg)
    state.no_improve_counter = 0
    state.best_global_fitness = 1e-4
    assert should_terminate(state, cfg)
    state.best_global_fitness = 1e-3  # boundary: strict less-than required
    assert not should_terminate(state, cfg)


def test_update_agents_keeps_population_in_bounds():
    cfg = small_config(num_agents=12, seed=5)
    state = initialize(cfg, sphere)
    lower, upper = cfg.bounds
    for _ in range(30):
        update_agents(state, sphere)
        cooling_schedule(state)
        state.iteration += 1
        assert np.all(state.agents >= lower) and np.all(state.agents <= upper)


def test_update_agents_single_coordinate_skips_crossover():
    # with one coordinate there is no cut point, so neither the crossover
    # gate draw nor the partner draw happens; each agent consumes exactly
    # one uniform (its mutation gate) when nothing else fires
    cfg = small_config(dimension=1, crossover_probability=1.0,
                       mutation_probability=0.0, seed=2)
    state = initialize(cfg, sphere)
    shadow = np.random.default_rng(2)
    shadow.uniform(*cfg.bounds, size=(cfg.num_agents, 1))
    update_agents(state, sphere)
    for _ in range(cfg.num_agents):
        shadow.random()  # mutation gates
    assert state.rng.random() == shadow.random()  # generators in lockstep


@pytest.mark.parametrize("num_agents", [1, 3, 9])
def test_update_agents_crossover_replays_one_point_crossover(num_agents):
    # the sweep swaps tails in place; a shadow generator replaying the same
    # draws through one_point_crossover must reach the same rows, also when
    # the partner is the agent itself (always so with one agent)
    cfg = small_config(dimension=4, num_agents=num_agents, crossover_probability=0.7,
                       mutation_probability=0.0, perturbation_threshold=10**6, seed=13)
    state = initialize(cfg, sphere)
    shadow = np.random.default_rng(cfg.seed)
    agents = shadow.uniform(*cfg.bounds, size=(cfg.num_agents, cfg.dimension))
    self_partnered = 0
    for _ in range(6):
        moved = update_agents(state, sphere)
        expected = np.empty_like(agents)
        for i in range(num_agents):
            if shadow.random() < cfg.crossover_probability:
                partner = int(shadow.integers(num_agents))
                self_partnered += partner == i
                agents[i], agents[partner] = one_point_crossover(agents[i], agents[partner],
                                                                 rng=shadow)
            shadow.random()  # mutation gate
            expected[i] = agents[i]
        assert state.agents.tobytes() == agents.tobytes()
        assert moved.tobytes() == expected.tobytes()
    assert self_partnered
    assert state.rng.random() == shadow.random()  # generators in lockstep


# ---------------------------------------------------------------------------
# full runs


def test_run_history_and_iteration_accounting():
    cfg = small_config(max_iter=50, num_agents=10)
    outcome = ffo.run(cfg, sphere)
    assert outcome.iterations_run == 50
    assert len(outcome.fitness_history) == 49  # one append per completed pass
    diffs = np.diff(outcome.fitness_history)
    assert np.all(diffs <= 0)
    assert outcome.best_fitness == outcome.fitness_history[-1]
    assert outcome.execution_time > 0


def test_run_is_deterministic_per_seed():
    cfg = small_config(max_iter=30, seed=77)
    a = ffo.run(cfg, sphere)
    b = ffo.run(cfg, sphere)
    assert a.best_fitness == b.best_fitness
    assert a.fitness_history == b.fitness_history
    assert a.total_distance == b.total_distance
    assert np.array_equal(a.best_agent, b.best_agent)
    c = ffo.run(small_config(max_iter=30, seed=78), sphere)
    assert c.best_fitness != a.best_fitness


def test_run_converges_on_sphere():
    cfg = FFOConfig(dimension=2, num_agents=40, max_iter=120, seed=0)
    outcome = ffo.run(cfg, sphere)
    assert outcome.best_fitness < 0.1
    assert outcome.best_fitness < outcome.fitness_history[0]


def test_run_with_conditions_stops_on_target():
    cfg = small_config(max_iter=10_000, num_agents=20,
                       use_additional_conditions=True, target_fitness=1e-2)
    outcome = ffo.run(cfg, sphere)
    assert outcome.best_fitness < 1e-2
    assert outcome.iterations_run < 10_000


def test_streaming_distance_matches_resummed_path():
    # replay the run through the public operations, keep every row that
    # update_agents returns, and re-sum that path by brute force
    cfg = small_config(max_iter=12, num_agents=5, seed=13)
    state = initialize(cfg, sphere)
    visited = []
    while not should_terminate(state, cfg):
        visited.extend(update_agents(state, sphere))
        cooling_schedule(state)
        state.iteration += 1
    assert len(visited) == 11 * 5
    outcome = ffo.run(cfg, sphere)
    assert outcome.total_distance == pytest.approx(path_length(visited), rel=1e-12)
    assert outcome.total_distance > 0.0


def test_non_finite_objective_raises_evaluation_error():
    def broken(x):
        return float("nan")

    with pytest.raises(EvaluationError):
        ffo.run(small_config(), broken)

    def explodes_later(x):
        return float("inf") if sphere(x) < 25.0 else sphere(x)

    with pytest.raises(EvaluationError) as exc:
        ffo.run(small_config(max_iter=100, num_agents=20), explodes_later)
    assert exc.value.agent is not None


def test_non_finite_local_search_candidate_raises_evaluation_error():
    # Population rows are clipped into the box and stay finite; only the
    # unclipped local-search candidates can leave it and hit the NaN.
    cfg = small_config(bounds=(-1.0, 1.0), mutation_probability=1.0, crossover_probability=0.0)

    def nan_outside_box(x):
        if np.any(np.abs(x) > 1.0):
            return float("nan")
        return sphere(x)

    state = initialize(cfg, nan_outside_box)
    evaluate_agents(state, nan_outside_box)  # every population row is finite
    with pytest.raises(EvaluationError) as exc:
        ffo.run(cfg, nan_outside_box)
    assert np.any(np.abs(exc.value.agent) > 1.0)
    assert math.isnan(exc.value.value)
