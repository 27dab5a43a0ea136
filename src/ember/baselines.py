"""Reference optimizers behind one dispatch interface.

Four classic algorithms (particle swarm, simulated annealing, a real-coded
genetic algorithm, harmony search) plus the FFO adapter, all runnable through
:func:`run_optimizer` with an :class:`OptimizerSpec`. Every optimizer:

* draws all randomness from one generator seeded by the spec,
* keeps every reported position inside the domain box,
* appends a best-so-far value to the history after each iteration,
* logs moved positions to a trajectory tracker for the distance metric,
* returns a :class:`~ember.recording.RunOutcome`.

Parameter defaults follow the usual literature settings; anything not pinned
by convention (proposal widths, mutation scale) is expressed as a fraction of
the domain width and exposed as a named parameter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import ffo
from .errors import ConfigError
from .functions import DomainBox
from .recording import RunOutcome, TrajectoryTracker, evaluate_checked, evaluate_rows

__all__ = [
    "OptimizerSpec",
    "PARAM_DEFAULTS",
    "optimizer_names",
    "register_optimizer",
    "run_ga",
    "run_hs",
    "run_optimizer",
    "run_pso",
    "run_sa",
]


@dataclass(frozen=True)
class OptimizerSpec:
    """Which optimizer to run, with what parameters and budget."""

    name: str
    params: dict = field(default_factory=dict)
    max_iter: int = 500
    num_agents: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 0:
            raise ConfigError(f"max_iter must be >= 0, got {self.max_iter}")
        if self.num_agents < 1:
            raise ConfigError(f"num_agents must be >= 1, got {self.num_agents}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


PARAM_DEFAULTS: dict[str, dict] = {
    "ffo": {
        "step_size": 1.0,
        "crossover_probability": 0.5,
        "mutation_probability": 0.1,
        "initial_temp": 100.0,
        "cooling_rate": 0.95,
        "no_improve_limit": 30,
        "use_additional_conditions": False,
        "target_fitness": 1e-5,
        "perturbation_threshold": 50,
    },
    "pso": {
        "inertia": 0.7,
        "cognitive": 1.0,
        "social": 1.0,
    },
    "sa": {
        "initial_temp": 100.0,
        "cooling_rate": 0.95,
        "proposal_scale": 0.1,  # proposal sigma as a fraction of domain width
    },
    "ga": {
        "crossover_rate": 0.1,
        "mutation_rate": 0.1,
        "tournament_size": 2,
        "elitism": 1,
        "mutation_scale": 0.1,  # mutation sigma as a fraction of domain width
    },
    "hs": {
        "memory_consideration_rate": 0.9,
        "pitch_adjustment_rate": 0.3,
        "bandwidth_fraction": 0.01,  # pitch step as a fraction of domain width
    },
}


def _resolve_params(spec: OptimizerSpec, name: str) -> dict:
    defaults = PARAM_DEFAULTS[name]
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) for optimizer {name!r}: {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(defaults))}"
        )
    return {**defaults, **spec.params}


def _initial_population(rng, domain: DomainBox, size: int) -> np.ndarray:
    return rng.uniform(domain.lower, domain.upper, size=(size, domain.dimension))


def run_pso(spec, objective, domain, record_trajectory=True) -> RunOutcome:
    """Global-best particle swarm.

    Velocities start at zero and blend inertia with per-coordinate cognitive
    and social pulls toward the personal and global bests. Positions are
    clipped to the domain each move.
    """
    params = _resolve_params(spec, "pso")
    w, c1, c2 = params["inertia"], params["cognitive"], params["social"]
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_agents, domain.dimension
    positions = _initial_population(rng, domain, n)
    velocities = np.zeros((n, d))
    fitness = evaluate_rows(objective, positions)
    personal_best = positions.copy()
    personal_fitness = fitness.copy()
    g = int(np.argmin(fitness))
    best_agent = positions[g].copy()
    best_fitness = float(fitness[g])
    tracker = TrajectoryTracker(record=record_trajectory)
    history: list[float] = []
    start = time.perf_counter()
    for _ in range(spec.max_iter):
        r1 = rng.random((n, d))
        r2 = rng.random((n, d))
        velocities = (
            w * velocities
            + c1 * r1 * (personal_best - positions)
            + c2 * r2 * (best_agent - positions)
        )
        positions = np.clip(positions + velocities, domain.lower, domain.upper)
        fitness = evaluate_rows(objective, positions)
        improved = fitness < personal_fitness
        personal_best[improved] = positions[improved]
        personal_fitness[improved] = fitness[improved]
        g = int(np.argmin(personal_fitness))
        if personal_fitness[g] < best_fitness:
            best_fitness = float(personal_fitness[g])
            best_agent = personal_best[g].copy()
        tracker.extend(positions)
        history.append(best_fitness)
    elapsed = time.perf_counter() - start
    return RunOutcome(best_agent, best_fitness, history, elapsed, tracker.total, spec.max_iter)


def run_sa(spec, objective, domain, record_trajectory=True) -> RunOutcome:
    """Single-solution simulated annealing with geometric cooling.

    Gaussian proposals (sigma = proposal_scale * domain width) are clipped to
    the domain; downhill moves are always taken, uphill ones with probability
    exp(-dE/T). The temperature cools by the same factor every iteration.
    """
    params = _resolve_params(spec, "sa")
    rng = np.random.default_rng(spec.seed)
    d = domain.dimension
    sigma = params["proposal_scale"] * (domain.upper - domain.lower)
    temperature = params["initial_temp"]
    current = rng.uniform(domain.lower, domain.upper, size=d)
    current_fitness = evaluate_checked(objective, current)
    best_agent = current.copy()
    best_fitness = current_fitness
    tracker = TrajectoryTracker(record=record_trajectory)
    history: list[float] = []
    start = time.perf_counter()
    for _ in range(spec.max_iter):
        candidate = np.clip(
            current + rng.normal(0.0, sigma, size=d), domain.lower, domain.upper
        )
        candidate_fitness = evaluate_checked(objective, candidate)
        delta = candidate_fitness - current_fitness
        if delta <= 0 or rng.random() < ffo.acceptance_probability(delta, temperature):
            current = candidate
            current_fitness = candidate_fitness
        if current_fitness < best_fitness:
            best_fitness = current_fitness
            best_agent = current.copy()
        temperature *= params["cooling_rate"]
        tracker.append(current)
        history.append(best_fitness)
    elapsed = time.perf_counter() - start
    return RunOutcome(best_agent, best_fitness, history, elapsed, tracker.total, spec.max_iter)


def run_ga(spec, objective, domain, record_trajectory=True) -> RunOutcome:
    """Generational real-coded genetic algorithm.

    Tournament selection, one-point crossover, per-gene Gaussian mutation
    (sigma = mutation_scale * domain width), and elitism. Offspring are
    clipped to the domain.
    """
    params = _resolve_params(spec, "ga")
    tournament = int(params["tournament_size"])
    elitism = int(params["elitism"])
    if tournament < 1:
        raise ConfigError(f"tournament_size must be >= 1, got {tournament}")
    if not 0 <= elitism <= spec.num_agents:
        raise ConfigError(f"elitism must lie in [0, num_agents], got {elitism}")
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_agents, domain.dimension
    sigma = params["mutation_scale"] * (domain.upper - domain.lower)
    population = _initial_population(rng, domain, n)
    fitness = evaluate_rows(objective, population)
    g = int(np.argmin(fitness))
    best_agent = population[g].copy()
    best_fitness = float(fitness[g])
    tracker = TrajectoryTracker(record=record_trajectory)
    history: list[float] = []

    def select() -> np.ndarray:
        contenders = rng.integers(n, size=tournament)
        winner = contenders[int(np.argmin(fitness[contenders]))]
        return population[winner]

    start = time.perf_counter()
    for _ in range(spec.max_iter):
        elite_order = np.argsort(fitness, kind="stable")[:elitism]
        next_population = [population[i].copy() for i in elite_order]
        while len(next_population) < n:
            child1 = select().copy()
            child2 = select().copy()
            if d >= 2 and rng.random() < params["crossover_rate"]:
                child1, child2 = ffo.one_point_crossover(child1, child2, rng=rng)
            for child in (child1, child2):
                if len(next_population) >= n:
                    break
                mask = rng.random(d) < params["mutation_rate"]
                steps = rng.normal(0.0, sigma, size=d)
                next_population.append(np.where(mask, child + steps, child))
        population = np.clip(np.array(next_population), domain.lower, domain.upper)
        fitness = evaluate_rows(objective, population)
        g = int(np.argmin(fitness))
        if fitness[g] < best_fitness:
            best_fitness = float(fitness[g])
            best_agent = population[g].copy()
        tracker.extend(population)
        history.append(best_fitness)
    elapsed = time.perf_counter() - start
    return RunOutcome(best_agent, best_fitness, history, elapsed, tracker.total, spec.max_iter)


def run_hs(spec, objective, domain, record_trajectory=True) -> RunOutcome:
    """Harmony search over a fixed-size memory of candidate solutions.

    Each iteration improvises one new harmony: every coordinate is drawn from
    memory with probability memory_consideration_rate (then pitch-adjusted
    within the bandwidth with probability pitch_adjustment_rate), otherwise
    sampled uniformly from the domain. The new harmony replaces the worst
    memory entry when it improves on it.
    """
    params = _resolve_params(spec, "hs")
    hmcr = params["memory_consideration_rate"]
    par = params["pitch_adjustment_rate"]
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_agents, domain.dimension
    bandwidth = params["bandwidth_fraction"] * (domain.upper - domain.lower)
    memory = _initial_population(rng, domain, n)
    fitness = evaluate_rows(objective, memory)
    g = int(np.argmin(fitness))
    best_agent = memory[g].copy()
    best_fitness = float(fitness[g])
    tracker = TrajectoryTracker(record=record_trajectory)
    history: list[float] = []
    start = time.perf_counter()
    for _ in range(spec.max_iter):
        harmony = np.empty(d)
        for j in range(d):
            if rng.random() < hmcr:
                harmony[j] = memory[int(rng.integers(n)), j]
                if rng.random() < par:
                    harmony[j] += (2.0 * rng.random() - 1.0) * bandwidth
            else:
                harmony[j] = rng.uniform(domain.lower, domain.upper)
        harmony = np.clip(harmony, domain.lower, domain.upper)
        value = evaluate_checked(objective, harmony)
        worst = int(np.argmax(fitness))
        if value < fitness[worst]:
            memory[worst] = harmony
            fitness[worst] = value
        if value < best_fitness:
            best_fitness = value
            best_agent = harmony.copy()
        tracker.append(harmony)
        history.append(best_fitness)
    elapsed = time.perf_counter() - start
    return RunOutcome(best_agent, best_fitness, history, elapsed, tracker.total, spec.max_iter)


def _run_ffo(spec, objective, domain, record_trajectory=True) -> RunOutcome:
    params = _resolve_params(spec, "ffo")
    if spec.max_iter < 1:
        raise ConfigError("ffo needs max_iter >= 1 (its iteration counter is 1-based)")
    config = ffo.FFOConfig(
        dimension=domain.dimension,
        num_agents=spec.num_agents,
        max_iter=spec.max_iter,
        bounds=(domain.lower, domain.upper),
        seed=spec.seed,
        record_trajectory=record_trajectory,
        **params,
    )
    return ffo.run(config, objective)


_OPTIMIZERS: dict[str, object] = {
    "ffo": _run_ffo,
    "pso": run_pso,
    "sa": run_sa,
    "ga": run_ga,
    "hs": run_hs,
}


def optimizer_names() -> list[str]:
    return sorted(_OPTIMIZERS)


def register_optimizer(name: str, runner, defaults: dict | None = None) -> None:
    """Add an optimizer to the dispatch table.

    ``runner`` must accept (spec, objective, domain, record_trajectory) and
    return a RunOutcome. ``defaults`` declares its valid parameters.
    """
    _OPTIMIZERS[name] = runner
    PARAM_DEFAULTS.setdefault(name, dict(defaults or {}))


def run_optimizer(spec: OptimizerSpec, objective, domain: DomainBox, record_trajectory=True) -> RunOutcome:
    """Dispatch a run to the optimizer named by the spec."""
    try:
        runner = _OPTIMIZERS[spec.name]
    except KeyError:
        raise ConfigError(
            f"unknown optimizer {spec.name!r}; available: {', '.join(optimizer_names())}"
        ) from None
    return runner(spec, objective, domain, record_trajectory)
