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

The iteration counter is 1-based and the loop stops when it reaches the
budget, so a budget of K yields K-1 completed update passes and K-1 history
entries; ``RunOutcome.iterations_run`` reports the counter's final value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .recording import driven, evaluate_checked, evaluate_rows, initial_population

__all__ = [
    "FFOConfig",
    "FFOState",
    "acceptance_probability",
    "apply_perturbation",
    "cooling_schedule",
    "current_temperature",
    "evaluate_agents",
    "initialize",
    "local_search",
    "one_point_crossover",
    "perturbation_intensity",
    "run",
    "should_terminate",
    "update_agents",
]


@dataclass(frozen=True)
class FFOConfig:
    """Run configuration. Defaults are the reference parameterization."""

    dimension: int
    num_agents: int = 100
    max_iter: int = 500
    no_improve_limit: int = 30
    bounds: tuple[float, float] = (-5.12, 5.12)
    step_size: float = 1.0
    crossover_probability: float = 0.5
    mutation_probability: float = 0.1
    initial_temp: float = 100.0
    cooling_rate: float = 0.95
    use_additional_conditions: bool = False
    target_fitness: float = 1e-5
    perturbation_threshold: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dimension}")
        if self.num_agents < 1:
            raise ConfigError(f"num_agents must be >= 1, got {self.num_agents}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.no_improve_limit < 1:
            raise ConfigError(f"no_improve_limit must be >= 1, got {self.no_improve_limit}")
        lower, upper = self.bounds
        if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
            raise ConfigError(f"bounds must be finite with lower < upper, got {self.bounds}")
        if not 0 < self.step_size < math.inf:
            raise ConfigError(f"step_size must be positive and finite, got {self.step_size}")
        for name in ("crossover_probability", "mutation_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")
        if not 0 < self.initial_temp < math.inf:
            raise ConfigError(f"initial_temp must be positive and finite, got {self.initial_temp}")
        if not 0.0 < self.cooling_rate < 1.0:
            raise ConfigError(f"cooling_rate must lie in (0, 1), got {self.cooling_rate}")
        if not math.isfinite(self.target_fitness):
            raise ConfigError(f"target_fitness must be finite, got {self.target_fitness}")
        if self.perturbation_threshold < 0:
            raise ConfigError(
                f"perturbation_threshold must be >= 0, got {self.perturbation_threshold}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class FFOState:
    """Mutable run state; created by :func:`initialize` and owned by one run."""

    config: FFOConfig
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


def current_temperature(config: FFOConfig, iteration: int) -> float:
    """Local-search temperature at a 1-based iteration: T0 * rate**iteration."""
    return config.initial_temp * config.cooling_rate**iteration


def perturbation_intensity(counter: int, threshold: int) -> float:
    """Stagnation pull strength, growing linearly past the threshold."""
    return 0.1 + 0.02 * (counter - threshold)


def initialize(config: FFOConfig, objective) -> FFOState:
    """Draw the initial population and evaluate it.

    The best initial agent seeds the global best (first index wins ties).
    Raises :class:`EvaluationError` if any initial agent evaluates non-finite.
    """
    rng = np.random.default_rng(config.seed)
    agents, _, best_agent, best_fitness = initial_population(
        rng, *config.bounds, (config.num_agents, config.dimension), objective
    )
    return FFOState(config, rng, agents, best_agent, best_fitness, config.step_size)


def evaluate_agents(state: FFOState, objective) -> None:
    """Evaluate the whole population and update the global best.

    A strictly better population minimum replaces the global best and resets
    the no-improvement counter; otherwise the counter increments exactly once
    per call, regardless of population size. Ties never count as improvement.
    """
    agents = state.agents
    fitness = evaluate_rows(objective, agents)
    best = int(fitness.argmin())
    if fitness[best] < state.best_global_fitness:
        state.best_global_fitness = float(fitness[best])
        state.best_global_agent = agents[best].copy()
        state.no_improve_counter = 0
    else:
        state.no_improve_counter += 1


def one_point_crossover(parent1, parent2, rng=None, point=None):
    """Swap tails of two equal-length parents after a cut point.

    The cut point is uniform on {1, ..., d-1} when not given explicitly, so
    each child keeps at least one coordinate from each parent. Both parents
    must have at least two coordinates.
    """
    p1 = np.asarray(parent1, dtype=float)
    p2 = np.asarray(parent2, dtype=float)
    if p1.shape != p2.shape:
        raise InputError(f"parent shapes differ: {p1.shape} vs {p2.shape}")
    d = p1.size
    if d < 2:
        raise InputError("crossover needs at least two coordinates")
    if point is None:
        if rng is None:
            raise InputError("either rng or point must be provided")
        point = int(rng.integers(1, d))
    if not 1 <= point <= d - 1:
        raise InputError(f"cut point must lie in [1, {d - 1}], got {point}")
    child1 = np.concatenate([p1[:point], p2[point:]])
    child2 = np.concatenate([p2[:point], p1[point:]])
    return child1, child2


def local_search(state: FFOState, agent: np.ndarray, objective) -> np.ndarray:
    """Annealing refinement of one agent.

    Runs 10 + 5*(counter // 100) candidate steps, each a Gaussian move with
    scale step_size * 0.1 from the current incumbent.
    Strictly better candidates are always accepted; worse ones with the
    annealing probability at the current iteration's temperature. Candidates
    are evaluated where they land, without clipping.
    """
    cfg = state.config
    temperature = current_temperature(cfg, state.iteration)
    scale = state.step_size * 0.1
    candidates = 10 + 5 * (state.no_improve_counter // 100)
    incumbent = agent
    incumbent_fitness = evaluate_checked(objective, agent)
    for _ in range(candidates):
        candidate = incumbent + state.rng.normal(0.0, scale, size=agent.shape[0])
        candidate_fitness = evaluate_checked(objective, candidate)
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


def update_agents(state: FFOState, objective) -> np.ndarray:
    """One full population update pass; returns the moved rows.

    Evaluates the population first, then sweeps agents in index order through
    crossover, optional local search, the stagnation perturbation and
    clipping. Crossover swaps the tails of the agent and its partner in place
    (the draws and values of :func:`one_point_crossover`), and the partner
    index may equal the agent's own (a no-op, as the children of two identical
    parents are that parent). With a single coordinate there is no cut point,
    so the crossover branch is skipped entirely. Row ``i`` of the returned
    array is agent ``i``'s position as it left its own update (a later
    crossover may still overwrite the agent as a partner); the rows are the
    sweep's part of the trajectory, in visiting order.
    """
    evaluate_agents(state, objective)
    cfg = state.config
    rng = state.rng
    agents = state.agents
    n_agents, dimension = agents.shape
    lower, upper = cfg.bounds
    stagnant = state.no_improve_counter > cfg.perturbation_threshold
    if stagnant:
        intensity = perturbation_intensity(state.no_improve_counter, cfg.perturbation_threshold)
    moved = np.empty_like(agents)
    for i in range(n_agents):
        row = agents[i]
        if dimension >= 2 and rng.random() < cfg.crossover_probability:
            partner = int(rng.integers(n_agents))
            point = int(rng.integers(1, dimension))
            tail = row[point:].copy()
            row[point:] = agents[partner, point:]
            agents[partner, point:] = tail
        # Only local search and the perturbation can leave the box: every
        # other coordinate is an initial uniform in [lower, upper) or was
        # clipped when its agent was updated, and crossover only exchanges them.
        displaced = False
        if rng.random() < cfg.mutation_probability:
            row[:] = local_search(state, row, objective)
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
    if state.no_improve_counter > state.config.perturbation_threshold:
        state.step_size *= 0.98
    else:
        state.step_size *= 0.99


def should_terminate(state: FFOState, config: FFOConfig) -> bool:
    """Whether the run loop should stop before the next update pass.

    The budget check alone applies by default; with
    ``use_additional_conditions`` the stagnation limit and the target fitness
    also stop the run.
    """
    if config.use_additional_conditions:
        return (
            state.iteration >= config.max_iter
            or state.no_improve_counter > config.no_improve_limit
            or state.best_global_fitness < config.target_fitness
        )
    return state.iteration >= config.max_iter


@driven
def run(config: FFOConfig, objective):
    """Execute a full run and report the outcome as a :class:`~ember.recording.RunOutcome`.

    The best-so-far fitness is appended to the history after every completed
    update pass, so the history is non-increasing and its last entry equals
    ``best_fitness``.
    """
    state = initialize(config, objective)
    yield None, state.best_global_agent, state.best_global_fitness
    while not should_terminate(state, config):
        moved = update_agents(state, objective)
        cooling_schedule(state)
        yield moved, state.best_global_agent, state.best_global_fitness
        state.iteration += 1
    return state.iteration
