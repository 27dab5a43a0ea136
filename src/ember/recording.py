"""The run driver (:func:`drive`), which seeds each run's one generator and is
the one routine that turns visited positions into ``total_distance``; run
outcomes; the :class:`Evaluator`, each run's one path to its objective, which
checks and counts every evaluation; and every optimizer's start,
:func:`initial_population`, and best-so-far rule, :func:`best_of`."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError


def _non_finite(point, value: float) -> EvaluationError:
    """The error for ``point``'s non-finite ``value``, carrying a copy of the point."""
    return EvaluationError(f"objective returned non-finite value {value!r}",
                           agent=np.array(point, copy=True), value=value)


class Evaluator:
    """One run's objective. The objective maps an array of shape ``(..., d)`` to
    one value per point, reduced over the last axis. Calling the evaluator values
    one point; ``count`` is the number of points valued so far. A non-finite
    value raises :class:`EvaluationError` carrying the offending point and
    value."""

    __slots__ = ("objective", "count")

    def __init__(self, objective):
        self.objective = objective
        self.count = 0

    def __call__(self, point) -> float:
        value = float(self.objective(point))
        self.count += 1
        if math.isfinite(value):
            return value
        raise _non_finite(point, value)

    def rows(self, rows) -> np.ndarray:
        """The values of the rows of a 2-D array, from one call of the objective.
        A result of any other shape than ``(len(rows),)``, or the first non-finite
        row in index order, raises :class:`EvaluationError`."""
        values = np.asarray(self.objective(rows), dtype=float)
        if values.shape != (len(rows),):
            raise EvaluationError(f"objective returned shape {values.shape} "
                                  f"for {len(rows)} rows")
        self.count += len(rows)
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite))
            raise _non_finite(rows[first], float(values[first]))
        return values


def best_of(rows, fitness, best_agent, best_fitness):
    """A copy of the row of the lowest value in ``fitness`` (the first index wins
    ties) and that value, when it is strictly below ``best_fitness``; otherwise
    ``best_agent, best_fitness`` unchanged. The one best-so-far rule of a block."""
    best = int(fitness.argmin())
    if fitness[best] < best_fitness:
        return rows[best].copy(), float(fitness[best])
    return best_agent, best_fitness


def initial_population(rng, domain, count, evaluate):
    """``count`` rows drawn uniformly from the box ``domain`` and their values
    from the :class:`Evaluator` ``evaluate``, with the best row and its value by
    :func:`best_of`."""
    rows = rng.uniform(domain.lower, domain.upper, size=(count, domain.dimension))
    fitness = evaluate.rows(rows)
    return rows, fitness, *best_of(rows, fitness, None, math.inf)


@dataclass(frozen=True)
class RunOutcome:
    """What a single optimization run reports back.

    ``fitness_history`` holds the best-so-far value at the end of each
    completed iteration and is therefore non-increasing. ``best_fitness``
    always equals the last history entry when the history is non-empty.
    ``iterations_run`` is the final value of the optimizer's iteration
    counter (equal to the requested budget when no early stop fired).
    ``evaluations`` is the number of points the run's :class:`Evaluator` valued.
    """

    best_agent: np.ndarray
    best_fitness: float
    fitness_history: list[float] = field(repr=False)
    execution_time: float = 0.0
    total_distance: float = 0.0
    iterations_run: int = 0
    evaluations: int = 0


def drive(steps, spec, params, objective, domain) -> RunOutcome:
    """Run the step generator ``steps`` for ``spec`` with the resolved ``params``
    and return its :class:`RunOutcome`.

    ``steps(spec, params, rng, evaluate, domain)`` draws all its randomness from
    ``rng``, the run's one generator, seeded with ``spec.seed``, and values points
    through ``evaluate``, an :class:`Evaluator` of ``objective`` whose count is
    ``RunOutcome.evaluations``. It yields ``(None, best_agent, best_fitness)``
    after initialization, then ``(moved, best_agent, best_fitness)`` after each
    iteration, and returns its iteration counter. ``moved`` is the point or the 2-D block of
    rows the iteration visited, in order. The one timer covers initialization
    and every iteration, so execution time means the same for every optimizer.
    ``total_distance`` is the length of the path through the visited rows, in
    order, from the first row of the first iteration. Step lengths are added one
    at a time in that order, so the total is the same however the rows are
    grouped into yields.
    """
    start = time.perf_counter()
    evaluate = Evaluator(objective)
    run_steps = steps(spec, params, np.random.default_rng(spec.seed), evaluate, domain)
    _, best_agent, best_fitness = next(run_steps)
    last = np.empty((0, np.size(best_agent)))
    total = 0.0
    history: list[float] = []
    while True:
        try:
            moved, best_agent, best_fitness = next(run_steps)
        except StopIteration as stop:
            iterations_run = stop.value
            break
        # the concatenation also copies, so a step may reuse its arrays
        path = np.concatenate((last, moved.reshape(-1, moved.shape[-1])))
        steps_taken = path[1:] - path[:-1]
        for length in np.sqrt(np.vecdot(steps_taken, steps_taken)).tolist():
            total += length
        last = path[-1:]
        history.append(best_fitness)
    elapsed = time.perf_counter() - start
    return RunOutcome(best_agent, best_fitness, history, elapsed, total, iterations_run,
                      evaluate.count)
