"""FFO: a population metaheuristic hybridizing evolutionary recombination
with annealing-style local search.

Each of N agents explores a box-bounded continuous domain. Per iteration the
whole population is evaluated first (updating the global best and a shared
stagnation counter), then every agent in index order may recombine with a
uniformly chosen partner, may be refined by a temperature-gated local search,
and is pulled toward the global best once stagnation persists. Positions are
clipped to the domain after each agent update; :func:`update_agents` returns
them, in sweep order, for the trajectory's path length.

Randomness comes from one seeded generator per run. Draws occur in a fixed,
documented order so identical configurations replay identically: population
init (N*d uniforms); then per iteration, per agent: crossover gate, partner
index, crossover point, mutation gate, then per local-search candidate d
normals plus one uniform only when the candidate did not improve, then d
normals for the stagnation perturbation when it is active.

The operators take the parameters that :func:`~ember.baselines.resolve_params`
checked and value points through the run's :class:`~ember.recording.Evaluator`;
the run loop is :func:`~ember.baselines.run_ffo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .recording import initial_population

__all__ = [
    "FFOState",
    "acceptance_probability",
    "apply_perturbation",
    "cooling_schedule",
    "current_temperature",
    "evaluate_agents",
    "initialize",
    "local_search",
    "perturbation_intensity",
    "should_terminate",
    "update_agents",
]


@dataclass
class FFOState:
    """Mutable run state; created by :func:`initialize` and owned by one run."""

    params: dict
    bounds: tuple[float, float]
    rng: np.random.Generator
    agents: np.ndarray
    best_global_agent: np.ndarray
    best_global_fitness: float
    step_size: float
    no_improve_counter: int = 0
    iteration: int = 1


def acceptance_probability(delta_energy: float, temperature: float) -> float:
    """Annealing acceptance probability exp(-delta/T) for a fitness increase.

    Non-positive deltas are certain acceptances. Computed so that extreme
    ratios underflow cleanly to 0 instead of raising.
    """
    if delta_energy <= 0.0:
        return 1.0
    if temperature <= 0.0:
        return 0.0
    ratio = -delta_energy / temperature
    if ratio < -745.0:  # exp() underflows to subnormal zero around here
        return 0.0
    return math.exp(ratio)


def current_temperature(params: dict, iteration: int) -> float:
    """Local-search temperature at a 1-based iteration: T0 * rate**iteration."""
    return params["initial_temp"] * params["cooling_rate"] ** iteration


def perturbation_intensity(counter: int, threshold: int) -> float:
    """Stagnation pull strength, growing linearly past the threshold."""
    return 0.1 + 0.02 * (counter - threshold)


def initialize(params: dict, domain, num_agents: int, seed: int, evaluate) -> FFOState:
    """Draw ``num_agents`` agents in ``domain`` and value them with ``evaluate``.

    The best initial agent seeds the global best (first index wins ties).
    Raises :class:`EvaluationError` if any initial agent evaluates non-finite.
    """
    rng = np.random.default_rng(seed)
    bounds = (domain.lower, domain.upper)
    agents, _, best_agent, best_fitness = initial_population(
        rng, *bounds, (num_agents, domain.dimension), evaluate
    )
    return FFOState(params, bounds, rng, agents, best_agent, best_fitness, params["step_size"])


def evaluate_agents(state: FFOState, evaluate) -> None:
    """Evaluate the whole population and update the global best.

    A strictly better population minimum replaces the global best and resets
    the no-improvement counter; otherwise the counter increments exactly once
    per call, regardless of population size. Ties never count as improvement.
    """
    agents = state.agents
    fitness = evaluate.rows(agents)
    best = int(fitness.argmin())
    if fitness[best] < state.best_global_fitness:
        state.best_global_fitness = float(fitness[best])
        state.best_global_agent = agents[best].copy()
        state.no_improve_counter = 0
    else:
        state.no_improve_counter += 1


def local_search(state: FFOState, agent: np.ndarray, evaluate) -> np.ndarray:
    """Annealing refinement of one agent.

    Runs 10 + 5*(counter // 100) candidate steps, each a Gaussian move with
    scale step_size * 0.1 from the current incumbent.
    Strictly better candidates are always accepted; worse ones with the
    annealing probability at the current iteration's temperature. Candidates
    are evaluated where they land, without clipping.
    """
    temperature = current_temperature(state.params, state.iteration)
    scale = state.step_size * 0.1
    candidates = 10 + 5 * (state.no_improve_counter // 100)
    incumbent = agent
    incumbent_fitness = evaluate(agent)
    for _ in range(candidates):
        candidate = incumbent + state.rng.normal(0.0, scale, size=agent.shape[0])
        candidate_fitness = evaluate(candidate)
        if candidate_fitness < incumbent_fitness or state.rng.random() < acceptance_probability(
            candidate_fitness - incumbent_fitness, temperature
        ):
            incumbent = candidate
            incumbent_fitness = candidate_fitness
    return incumbent


def apply_perturbation(state: FFOState, agent: np.ndarray, intensity: float) -> np.ndarray:
    """Pull an agent toward the global best with Gaussian coordinate gains."""
    gains = state.rng.normal(0.0, intensity, size=agent.shape[0])
    return agent + gains * (state.best_global_agent - agent)


def update_agents(state: FFOState, evaluate) -> np.ndarray:
    """One full population update pass; returns the moved rows.

    Evaluates the population first, then sweeps agents in index order through
    crossover, optional local search, the stagnation perturbation and
    clipping. Crossover draws a partner index uniform on {0, ..., N-1} and a
    cut point uniform on {1, ..., d-1}, then swaps the coordinates from the
    cut point on between the agent and its partner, in place. The partner may
    be the agent itself, and then nothing changes. With a single coordinate
    there is no cut point, so the crossover branch is skipped entirely. Row
    ``i`` of the returned array is agent ``i``'s position as it left its own
    update (a later crossover may still overwrite the agent as a partner); the
    rows are the sweep's part of the trajectory, in visiting order.
    """
    evaluate_agents(state, evaluate)
    params = state.params
    crossover_probability = params["crossover_probability"]
    mutation_probability = params["mutation_probability"]
    threshold = params["perturbation_threshold"]
    rng = state.rng
    agents = state.agents
    n_agents, dimension = agents.shape
    lower, upper = state.bounds
    stagnant = state.no_improve_counter > threshold
    if stagnant:
        intensity = perturbation_intensity(state.no_improve_counter, threshold)
    moved = np.empty_like(agents)
    for i in range(n_agents):
        row = agents[i]
        if dimension >= 2 and rng.random() < crossover_probability:
            partner = int(rng.integers(n_agents))
            point = int(rng.integers(1, dimension))
            tail = row[point:].copy()
            row[point:] = agents[partner, point:]
            agents[partner, point:] = tail
        # Only local search and the perturbation can leave the box: every
        # other coordinate is an initial uniform in [lower, upper) or was
        # clipped when its agent was updated, and crossover only exchanges them.
        displaced = False
        if rng.random() < mutation_probability:
            row[:] = local_search(state, row, evaluate)
            displaced = True
        if stagnant:
            row[:] = apply_perturbation(state, row, intensity)
            displaced = True
        if displaced:
            np.maximum(row, lower, out=row)
            np.minimum(row, upper, out=row)
        moved[i] = row
    return moved


def cooling_schedule(state: FFOState) -> None:
    """Shrink the local-search step scale, faster while stagnating."""
    if state.no_improve_counter > state.params["perturbation_threshold"]:
        state.step_size *= 0.98
    else:
        state.step_size *= 0.99


def should_terminate(state: FFOState, max_iter: int) -> bool:
    """Whether the run loop should stop before the next update pass.

    The budget check alone applies by default; with
    ``use_additional_conditions`` the stagnation limit and the target fitness
    also stop the run.
    """
    params = state.params
    if params["use_additional_conditions"]:
        return (
            state.iteration >= max_iter
            or state.no_improve_counter > params["no_improve_limit"]
            or state.best_global_fitness < params["target_fitness"]
        )
    return state.iteration >= max_iter
