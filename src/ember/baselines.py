"""Reference optimizers behind one dispatch interface.

Five step generators, FFO and four classic algorithms (particle swarm,
simulated annealing, a real-coded genetic algorithm, harmony search), and one
way to run them: :func:`run_optimizer` with an :class:`OptimizerSpec`. The spec
checks its fields when it is built, as a grid does: the name must be in the one
table whose row for each optimizer holds its step generator and its parameter
table, and ``max_iter``, ``num_agents`` and ``seed`` exact integers
(:func:`~ember.functions.exact_int`) of at least 0 (1 for FFO), 1 and 0.
:func:`run_optimizer` hands the step generator and the resolved parameters to
:func:`~ember.recording.drive`, which gives the step generator the run's one
random generator, seeded by the spec, and an
:class:`~ember.recording.Evaluator` for its objective, times it, keeps its
history and path length, and returns a :class:`~ember.recording.RunOutcome`.
Every step generator ``(spec, params, rng, evaluate, domain)`` draws all its
randomness from ``rng`` and keeps every reported position inside the domain
box. An optimizer reads objective values only through comparisons and, for SA
and FFO, through delta/T, so scaling the objective and ``initial_temp`` by a
power of two only scales the history (FFO's ``use_additional_conditions``
also compares with an absolute ``target_fitness``).

:func:`resolve_params` checks parameter values for runs and for the grid,
and :func:`acceptance_probability` is the annealing rule of SA and of FFO's
local search. FFO's and GA's docstrings state the order of their draws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .functions import DomainBox, exact_int
from .recording import RunOutcome, best_of, drive, initial_population

__all__ = [
    "OptimizerSpec",
    "PARAM_DEFAULTS",
    "acceptance_probability",
    "optimizer_names",
    "resolve_params",
    "run_optimizer",
]


@dataclass(frozen=True)
class OptimizerSpec:
    """Which optimizer to run, with what parameters and budget, checked when built."""

    name: str
    params: dict = field(default_factory=dict)
    max_iter: int = 500
    num_agents: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.name not in _OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.name!r}; "
                              f"available: {', '.join(optimizer_names())}")
        for key, floor in (("max_iter", int(self.name == "ffo")), ("num_agents", 1), ("seed", 0)):
            value = getattr(self, key)
            try:
                object.__setattr__(self, key, exact_int(value))
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{key} must be a non-negative integer, got {value!r}") from None
            if getattr(self, key) < floor:
                raise ConfigError(f"{key} must be >= {floor}, got {value}")


_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number"}


def _is_kind(value, kind) -> bool:
    if kind is bool:
        return isinstance(value, bool)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return math.isfinite(value) and (kind is float or value == int(value))


def _in_range(value, interval: str) -> bool:
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    return above and (value < high if interval[-1] == ")" else value <= high)


def resolve_params(name: str, overrides: dict, num_agents: int) -> dict:
    """Optimizer ``name``'s parameters: its defaults updated with ``overrides``.

    Raises :class:`ConfigError` for an unknown key or a value the optimizer
    cannot run with; the message starts with the offending key.
    """
    _, table = _OPTIMIZERS[name]
    unknown = sorted(set(overrides) - set(table))
    if unknown:
        raise ConfigError(
            f"{unknown[0]}: unknown parameter for optimizer {name!r}; "
            f"valid: {', '.join(sorted(table))}"
        )
    for key, value in overrides.items():
        kind = type(table[key][0])
        if not _is_kind(value, kind):
            raise ConfigError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    params = {**PARAM_DEFAULTS[name], **overrides}
    for key, (_, interval) in table.items():
        if interval and not _in_range(params[key], interval):
            raise ConfigError(f"{key} must lie in {interval}, got {params[key]!r}")
    if name == "ga" and params["elitism"] > num_agents:
        raise ConfigError(
            f"elitism must be <= num_agents ({num_agents}), got {params['elitism']!r}"
        )
    return params


def acceptance_probability(delta_energy: float, temperature: float) -> float:
    """Annealing acceptance probability exp(-delta/T) for a fitness increase.

    Non-positive deltas are certain acceptances. A zero temperature (one that
    has underflowed) accepts nothing; ``math.exp`` returns 0.0 for a ratio too
    negative to represent and never raises.
    """
    if delta_energy <= 0.0:
        return 1.0
    if temperature <= 0.0:
        return 0.0
    return math.exp(-delta_energy / temperature)


def ffo_steps(spec, params, rng, evaluate, domain):
    """FFO: evolutionary recombination hybridized with an annealing local search.

    Each pass first values the whole population. A strictly better population
    minimum replaces the global best (by :func:`~ember.recording.best_of`, the
    first index wins ties) and resets the stagnation counter; otherwise the
    counter grows by one, once per pass whatever the population size, and ties
    never count as improvement. The pass then sweeps the agents in index order:

    * crossover (only when d >= 2): the agent picks a partner uniform on
      {0, ..., N-1}, possibly itself, and a cut point uniform on {1, ..., d-1},
      and the two swap their coordinates from the cut point on, in place;
    * local search: 10 + 5*(counter // 100) Gaussian candidate moves of scale
      step_size * 0.1 from the incumbent, valued where they land, unclipped.
      A strictly better candidate is always taken, a worse one with the
      annealing probability at temperature initial_temp * cooling_rate**k on
      pass k;
    * once the counter exceeds perturbation_threshold, a pull toward the global
      best with Gaussian coordinate gains of scale 0.1 + 0.02*(counter - threshold).

    An agent that local search or the pull moved is clipped to the domain.
    Row i of the pass's moved rows is agent i as it left its own update (a later
    crossover may still overwrite it as a partner). After the sweep the step
    size cools by 0.99, or by 0.98 while the counter exceeds the threshold.

    Randomness comes from one generator seeded by the spec, drawn in a fixed
    order so identical configurations replay identically: population init (N*d
    uniforms); then per pass, per agent: crossover gate, partner index, cut
    point, mutation gate, then per local-search candidate d normals plus one
    uniform only when the candidate did not improve, then d normals for the
    pull when it is active.

    The pass counter is 1-based and the loop stops when it reaches the budget,
    so a budget of K yields K-1 passes and K-1 history entries;
    ``RunOutcome.iterations_run`` reports the counter's final value. With
    ``use_additional_conditions`` the loop also stops once the counter exceeds
    no_improve_limit or the best value falls below target_fitness.
    """
    crossover_probability = params["crossover_probability"]
    mutation_probability = params["mutation_probability"]
    threshold = params["perturbation_threshold"]
    conditions = params["use_additional_conditions"]
    n, d = spec.num_agents, domain.dimension
    agents, _, best_agent, best_fitness = initial_population(rng, domain, n, evaluate)
    step_size = params["step_size"]
    counter = 0
    iteration = 1
    yield None, best_agent, best_fitness
    while iteration < spec.max_iter and not (conditions and (
        counter > params["no_improve_limit"] or best_fitness < params["target_fitness"]
    )):
        previous = best_fitness
        best_agent, best_fitness = best_of(agents, evaluate.rows(agents), best_agent, best_fitness)
        counter = 0 if best_fitness < previous else counter + 1
        stagnant = counter > threshold
        intensity = 0.1 + 0.02 * (counter - threshold)
        temperature = params["initial_temp"] * params["cooling_rate"] ** iteration
        scale = step_size * 0.1
        candidates = 10 + 5 * (counter // 100)
        moved = np.empty_like(agents)
        for i in range(n):
            row = agents[i]
            if d >= 2 and rng.random() < crossover_probability:
                partner = int(rng.integers(n))
                point = int(rng.integers(1, d))
                tail = row[point:].copy()
                row[point:] = agents[partner, point:]
                agents[partner, point:] = tail
            # Only local search and the pull can leave the box: every other
            # coordinate is an initial uniform in [lower, upper) or was clipped
            # when its agent was updated, and crossover only exchanges them.
            displaced = False
            if rng.random() < mutation_probability:
                incumbent, incumbent_fitness = row, evaluate(row)
                for _ in range(candidates):
                    candidate = incumbent + rng.normal(0.0, scale, size=d)
                    candidate_fitness = evaluate(candidate)
                    if candidate_fitness < incumbent_fitness or rng.random() < (
                        acceptance_probability(candidate_fitness - incumbent_fitness, temperature)
                    ):
                        incumbent, incumbent_fitness = candidate, candidate_fitness
                row[:] = incumbent
                displaced = True
            if stagnant:
                row += rng.normal(0.0, intensity, size=d) * (best_agent - row)
                displaced = True
            if displaced:
                row.clip(domain.lower, domain.upper, out=row)
            moved[i] = row
        step_size *= 0.98 if stagnant else 0.99
        yield moved, best_agent, best_fitness
        iteration += 1
    return iteration


def pso_steps(spec, params, rng, evaluate, domain):
    """Global-best particle swarm.

    Velocities start at zero and blend inertia with per-coordinate cognitive
    and social pulls toward the personal and global bests. Positions are
    clipped to the domain each move.
    """
    w, c1, c2 = params["inertia"], params["cognitive"], params["social"]
    n, d = spec.num_agents, domain.dimension
    positions, fitness, best_agent, best_fitness = initial_population(rng, domain, n, evaluate)
    velocities = np.zeros((n, d))
    personal_best = positions.copy()
    personal_fitness = fitness.copy()
    yield None, best_agent, best_fitness
    for _ in range(spec.max_iter):
        r1 = rng.random((n, d))
        r2 = rng.random((n, d))
        velocities = (
            w * velocities
            + c1 * r1 * (personal_best - positions)
            + c2 * r2 * (best_agent - positions)
        )
        positions = (positions + velocities).clip(domain.lower, domain.upper)
        fitness = evaluate.rows(positions)
        improved = fitness < personal_fitness
        personal_best[improved] = positions[improved]
        personal_fitness[improved] = fitness[improved]
        best_agent, best_fitness = best_of(personal_best, personal_fitness,
                                           best_agent, best_fitness)
        yield positions, best_agent, best_fitness
    return spec.max_iter


def sa_steps(spec, params, rng, evaluate, domain):
    """Single-solution simulated annealing with geometric cooling.

    Gaussian proposals (sigma = proposal_scale * domain width) are clipped to
    the domain; downhill moves are always taken, uphill ones with probability
    exp(-dE/T). The temperature cools by the same factor every iteration.
    """
    d = domain.dimension
    sigma = params["proposal_scale"] * (domain.upper - domain.lower)
    temperature = params["initial_temp"]
    _, _, current, current_fitness = initial_population(rng, domain, 1, evaluate)
    best_agent, best_fitness = current, current_fitness
    yield None, best_agent, best_fitness
    for _ in range(spec.max_iter):
        candidate = (current + rng.normal(0.0, sigma, size=d)).clip(domain.lower, domain.upper)
        candidate_fitness = evaluate(candidate)
        delta = candidate_fitness - current_fitness
        if delta <= 0 or rng.random() < acceptance_probability(delta, temperature):
            current = candidate
            current_fitness = candidate_fitness
        if current_fitness < best_fitness:
            best_fitness = current_fitness
            best_agent = current.copy()
        temperature *= params["cooling_rate"]
        yield current, best_agent, best_fitness
    return spec.max_iter


def ga_steps(spec, params, rng, evaluate, domain):
    """Generational real-coded genetic algorithm.

    Tournament selection, one-point crossover, per-gene Gaussian mutation
    (sigma = mutation_scale * domain width), and elitism. Offspring are
    clipped to the domain.

    Randomness comes from one seeded generator per run, drawn in a fixed
    order: population init (n*d uniforms); then per generation, with
    P = ceil((n - elitism) / 2) pairs, one draw per quantity: the (2P,
    tournament_size) contender indices, then only when d >= 2 the P
    crossover gates and the P crossover points, then the (2P, d) mutation
    gates and the (2P, d) mutation steps. A tournament's winner is its first
    fittest contender; children 2p and 2p+1 come from winners 2p and 2p+1
    and swap tails from ``points[p]`` when pair p is crossed. With an odd
    number of children the last one drawn is dropped. Elites (the fittest,
    by stable sort) come first in the next population.
    """
    tournament = int(params["tournament_size"])
    elitism = int(params["elitism"])
    n, d = spec.num_agents, domain.dimension
    sigma = params["mutation_scale"] * (domain.upper - domain.lower)
    population, fitness, best_agent, best_fitness = initial_population(rng, domain, n, evaluate)
    pairs = -(-(n - elitism) // 2)
    rows = np.arange(2 * pairs)
    columns = np.arange(d)

    yield None, best_agent, best_fitness
    for _ in range(spec.max_iter):
        contenders = rng.integers(n, size=(2 * pairs, tournament))
        winners = contenders[rows, fitness[contenders].argmin(axis=1)]
        kids = population[winners].reshape(pairs, 2, d)
        if d >= 2:
            crossed = rng.random(pairs) < params["crossover_rate"]
            points = rng.integers(1, d, size=pairs)
            tails = (columns >= points[:, None]) & crossed[:, None]
            kids = np.where(tails[:, None, :], kids[:, ::-1], kids)
        kids = kids.reshape(2 * pairs, d)
        mask = rng.random((2 * pairs, d)) < params["mutation_rate"]
        steps = rng.normal(0.0, sigma, size=(2 * pairs, d))
        np.add(kids, steps, out=kids, where=mask)
        elites = population[np.argsort(fitness, kind="stable")[:elitism]]
        children = np.concatenate((elites, kids[: n - elitism]))
        population = children.clip(domain.lower, domain.upper, out=children)
        fitness = evaluate.rows(population)
        best_agent, best_fitness = best_of(population, fitness, best_agent, best_fitness)
        yield population, best_agent, best_fitness
    return spec.max_iter


def hs_steps(spec, params, rng, evaluate, domain):
    """Harmony search over a fixed-size memory of candidate solutions.

    Each iteration improvises one new harmony: every coordinate is drawn from
    memory with probability memory_consideration_rate (then pitch-adjusted
    within the bandwidth with probability pitch_adjustment_rate), otherwise
    sampled uniformly from the domain. The new harmony replaces the worst
    memory entry when it improves on it.
    """
    hmcr = params["memory_consideration_rate"]
    par = params["pitch_adjustment_rate"]
    n, d = spec.num_agents, domain.dimension
    bandwidth = params["bandwidth_fraction"] * (domain.upper - domain.lower)
    memory, fitness, best_agent, best_fitness = initial_population(rng, domain, n, evaluate)
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
        harmony = harmony.clip(domain.lower, domain.upper)
        value = evaluate(harmony)
        worst = int(fitness.argmax())
        if value < fitness[worst]:
            memory[worst] = harmony
            fitness[worst] = value
        if value < best_fitness:
            best_fitness = value
            best_agent = harmony.copy()
        yield harmony, best_agent, best_fitness
    return spec.max_iter


# Each optimizer's step generator and its parameters as name: (default from
# the usual literature settings, interval it must lie in, or None). Besides,
# every number must be finite, a parameter whose default is an int must be an
# exact integer, and a boolean is not a number. GA's elitism is also capped by
# the population.
_OPTIMIZERS: dict[str, tuple] = {
    "ffo": (ffo_steps, {
        "no_improve_limit": (30, "[1, inf)"),
        "step_size": (1.0, "(0, inf)"),
        "crossover_probability": (0.5, "[0, 1]"),
        "mutation_probability": (0.1, "[0, 1]"),
        "initial_temp": (100.0, "(0, inf)"),
        "cooling_rate": (0.95, "(0, 1)"),
        "use_additional_conditions": (False, None),
        "target_fitness": (1e-5, None),
        "perturbation_threshold": (50, "[0, inf)"),
    }),
    "pso": (pso_steps, {
        "inertia": (0.7, None),
        "cognitive": (1.0, None),
        "social": (1.0, None),
    }),
    "sa": (sa_steps, {
        "initial_temp": (100.0, "(0, inf)"),
        "cooling_rate": (0.95, "(0, 1)"),
        "proposal_scale": (0.1, "[0, inf)"),  # proposal sigma as a fraction of domain width
    }),
    "ga": (ga_steps, {
        "crossover_rate": (0.1, "[0, 1]"),
        "mutation_rate": (0.1, "[0, 1]"),
        "tournament_size": (2, "[1, inf)"),
        "elitism": (1, "[0, inf)"),
        "mutation_scale": (0.1, "[0, inf)"),  # mutation sigma as a fraction of domain width
    }),
    "hs": (hs_steps, {
        "memory_consideration_rate": (0.9, "[0, 1]"),
        "pitch_adjustment_rate": (0.3, "[0, 1]"),
        "bandwidth_fraction": (0.01, "[0, inf)"),  # pitch step as a fraction of domain width
    }),
}

PARAM_DEFAULTS: dict[str, dict] = {
    name: {key: default for key, (default, _) in table.items()}
    for name, (_, table) in _OPTIMIZERS.items()
}


def optimizer_names() -> list[str]:
    return sorted(_OPTIMIZERS)


def run_optimizer(spec: OptimizerSpec, objective, domain: DomainBox) -> RunOutcome:
    """Run the optimizer named by the spec: resolve its parameters, then
    :func:`~ember.recording.drive` its step generator."""
    steps, _ = _OPTIMIZERS[spec.name]
    params = resolve_params(spec.name, spec.params, spec.num_agents)
    return drive(steps, spec, params, objective, domain)
