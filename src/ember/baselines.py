"""Reference optimizers behind one dispatch interface.

Four classic algorithms (particle swarm, simulated annealing, a real-coded
genetic algorithm, harmony search) plus the FFO adapter, all runnable through
:func:`run_optimizer` with an :class:`OptimizerSpec`. Every optimizer:

* draws all randomness from one generator seeded by the spec,
* keeps every reported position inside the domain box,
* is a step generator run by :func:`~ember.recording.driven`, which times
  it, keeps its history and path length, and returns a
  :class:`~ember.recording.RunOutcome`.

:func:`resolve_params` checks parameter values for the runners and the grid.

Parameter defaults follow the usual literature settings; anything not pinned
by convention (proposal widths, mutation scale) is expressed as a fraction of
the domain width and exposed as a named parameter.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import ffo
from .errors import ConfigError
from .functions import DomainBox
from .recording import RunOutcome, driven, evaluate_checked, evaluate_rows

__all__ = [
    "OptimizerSpec",
    "PARAM_DEFAULTS",
    "optimizer_names",
    "register_optimizer",
    "resolve_params",
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
        f.name: f.default
        for f in fields(ffo.FFOConfig)
        if f.name not in {"dimension", "num_agents", "max_iter", "bounds", "seed"}
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


# The smallest value each parameter can run with; GA's elitism is also capped
# by the population, and FFOConfig checks FFO's parameters itself.
_MINIMA = {
    "sa": {"proposal_scale": 0},
    "ga": {"tournament_size": 1, "elitism": 0, "mutation_scale": 0},
}


def resolve_params(name: str, overrides: dict, num_agents: int) -> dict:
    """Optimizer ``name``'s parameters: its defaults updated with ``overrides``.

    Raises :class:`ConfigError` for an unknown key or a value the optimizer
    cannot run with; the message starts with the offending key.
    """
    defaults = PARAM_DEFAULTS[name]
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ConfigError(
            f"{unknown[0]}: unknown parameter for optimizer {name!r}; "
            f"valid: {', '.join(sorted(defaults))}"
        )
    for key, value in overrides.items():
        if isinstance(defaults[key], numbers.Real) and not isinstance(value, numbers.Real):
            raise ConfigError(f"{key} must be a number, got {value!r}")
    params = {**defaults, **overrides}
    for key, low in _MINIMA.get(name, {}).items():
        if not params[key] >= low:
            raise ConfigError(f"{key} must be >= {low}, got {params[key]!r}")
    if name == "ga" and params["elitism"] > num_agents:
        raise ConfigError(
            f"elitism must be <= num_agents ({num_agents}), got {params['elitism']!r}"
        )
    if name == "ffo":
        ffo.FFOConfig(dimension=1, num_agents=num_agents, **params)
    return params


def _initial_population(rng, domain: DomainBox, size: int) -> np.ndarray:
    return rng.uniform(domain.lower, domain.upper, size=(size, domain.dimension))


@driven
def run_pso(spec, objective, domain):
    """Global-best particle swarm.

    Velocities start at zero and blend inertia with per-coordinate cognitive
    and social pulls toward the personal and global bests. Positions are
    clipped to the domain each move.
    """
    params = resolve_params("pso", spec.params, spec.num_agents)
    w, c1, c2 = params["inertia"], params["cognitive"], params["social"]
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_agents, domain.dimension
    positions = _initial_population(rng, domain, n)
    velocities = np.zeros((n, d))
    fitness = evaluate_rows(objective, positions)
    personal_best = positions.copy()
    personal_fitness = fitness.copy()
    g = int(fitness.argmin())
    best_agent = positions[g].copy()
    best_fitness = float(fitness[g])
    yield None, best_agent, best_fitness
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
        g = int(personal_fitness.argmin())
        if personal_fitness[g] < best_fitness:
            best_fitness = float(personal_fitness[g])
            best_agent = personal_best[g].copy()
        yield positions, best_agent, best_fitness
    return spec.max_iter


@driven
def run_sa(spec, objective, domain):
    """Single-solution simulated annealing with geometric cooling.

    Gaussian proposals (sigma = proposal_scale * domain width) are clipped to
    the domain; downhill moves are always taken, uphill ones with probability
    exp(-dE/T). The temperature cools by the same factor every iteration.
    """
    params = resolve_params("sa", spec.params, spec.num_agents)
    rng = np.random.default_rng(spec.seed)
    d = domain.dimension
    sigma = params["proposal_scale"] * (domain.upper - domain.lower)
    temperature = params["initial_temp"]
    current = rng.uniform(domain.lower, domain.upper, size=d)
    current_fitness = evaluate_checked(objective, current)
    best_agent = current.copy()
    best_fitness = current_fitness
    yield None, best_agent, best_fitness
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
        yield current, best_agent, best_fitness
    return spec.max_iter


@driven
def run_ga(spec, objective, domain):
    """Generational real-coded genetic algorithm.

    Tournament selection, one-point crossover, per-gene Gaussian mutation
    (sigma = mutation_scale * domain width), and elitism. Offspring are
    clipped to the domain.
    """
    params = resolve_params("ga", spec.params, spec.num_agents)
    tournament = int(params["tournament_size"])
    elitism = int(params["elitism"])
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_agents, domain.dimension
    sigma = params["mutation_scale"] * (domain.upper - domain.lower)
    population = _initial_population(rng, domain, n)
    fitness = evaluate_rows(objective, population)
    g = int(fitness.argmin())
    best_agent = population[g].copy()
    best_fitness = float(fitness[g])

    def select(values: list[float]) -> int:
        # One scalar draw per contender: PCG64 hands out the same 32-bit
        # halves as integers(n, size=tournament), so the stream is unchanged.
        winner = int(rng.integers(n))
        for _ in range(tournament - 1):
            contender = int(rng.integers(n))
            if values[contender] < values[winner]:
                winner = contender
        return winner

    yield None, best_agent, best_fitness
    for _ in range(spec.max_iter):
        values = fitness.tolist()
        children = np.empty((n, d))
        children[:elitism] = population[np.argsort(fitness, kind="stable")[:elitism]]
        k = elitism
        while k < n:
            first, second = select(values), select(values)
            pair = children[k : k + 2]  # a single row when one slot is left
            pair[0] = population[first]
            pair[1:] = population[second]
            if d >= 2 and rng.random() < params["crossover_rate"]:
                point = int(rng.integers(1, d))
                pair[0, point:] = population[second, point:]
                pair[1:, point:] = population[first, point:]
            for child in pair:
                mask = rng.random(d) < params["mutation_rate"]
                steps = rng.normal(0.0, sigma, size=d)
                np.add(child, steps, out=child, where=mask)
            k += len(pair)
        population = np.clip(children, domain.lower, domain.upper, out=children)
        fitness = evaluate_rows(objective, population)
        g = int(fitness.argmin())
        if fitness[g] < best_fitness:
            best_fitness = float(fitness[g])
            best_agent = population[g].copy()
        yield population, best_agent, best_fitness
    return spec.max_iter


@driven
def run_hs(spec, objective, domain):
    """Harmony search over a fixed-size memory of candidate solutions.

    Each iteration improvises one new harmony: every coordinate is drawn from
    memory with probability memory_consideration_rate (then pitch-adjusted
    within the bandwidth with probability pitch_adjustment_rate), otherwise
    sampled uniformly from the domain. The new harmony replaces the worst
    memory entry when it improves on it.
    """
    params = resolve_params("hs", spec.params, spec.num_agents)
    hmcr = params["memory_consideration_rate"]
    par = params["pitch_adjustment_rate"]
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_agents, domain.dimension
    bandwidth = params["bandwidth_fraction"] * (domain.upper - domain.lower)
    memory = _initial_population(rng, domain, n)
    fitness = evaluate_rows(objective, memory)
    g = int(fitness.argmin())
    best_agent = memory[g].copy()
    best_fitness = float(fitness[g])
    yield None, best_agent, best_fitness
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
        worst = int(fitness.argmax())
        if value < fitness[worst]:
            memory[worst] = harmony
            fitness[worst] = value
        if value < best_fitness:
            best_fitness = value
            best_agent = harmony.copy()
        yield harmony, best_agent, best_fitness
    return spec.max_iter


def _run_ffo(spec, objective, domain) -> RunOutcome:
    params = resolve_params("ffo", spec.params, spec.num_agents)
    if spec.max_iter < 1:
        raise ConfigError("ffo needs max_iter >= 1 (its iteration counter is 1-based)")
    config = ffo.FFOConfig(
        dimension=domain.dimension,
        num_agents=spec.num_agents,
        max_iter=spec.max_iter,
        bounds=(domain.lower, domain.upper),
        seed=spec.seed,
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

    ``runner`` must accept (spec, objective, domain) and return a RunOutcome.
    ``defaults`` declares its valid parameters.
    """
    _OPTIMIZERS[name] = runner
    PARAM_DEFAULTS.setdefault(name, dict(defaults or {}))


def run_optimizer(spec: OptimizerSpec, objective, domain: DomainBox) -> RunOutcome:
    """Dispatch a run to the optimizer named by the spec."""
    try:
        runner = _OPTIMIZERS[spec.name]
    except KeyError:
        raise ConfigError(
            f"unknown optimizer {spec.name!r}; available: {', '.join(optimizer_names())}"
        ) from None
    return runner(spec, objective, domain)
