"""The run driver (:func:`driven`), run outcomes, trajectory accounting, and
evaluation plumbing shared by every optimizer."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError


def batch_capable(fn):
    """Mark ``fn`` as accepting a batch of points.

    A marked callable takes an ``(n, d)`` array and returns its ``n`` values,
    each bit for bit what the callable gives for that row alone.
    :func:`evaluate_rows` hands a marked objective the whole batch in one call.
    """
    fn.batch_capable = True
    return fn


def _non_finite(point, value) -> EvaluationError:
    return EvaluationError(
        f"objective returned non-finite value {value!r}",
        agent=np.array(point, copy=True),
        value=value,
    )


def evaluate_checked(objective, point) -> float:
    """Call the objective and reject non-finite results.

    Raises :class:`EvaluationError` carrying the offending point, so a failed
    run can report where the objective broke down.
    """
    value = float(objective(point))
    if not math.isfinite(value):
        raise _non_finite(point, value)
    return value


def evaluate_rows(objective, rows) -> np.ndarray:
    """Evaluate every row of ``rows`` and reject non-finite results.

    A :func:`batch_capable` objective gets one call with the whole array; any
    other callable gets one :func:`evaluate_checked` call per row. Either way
    the first non-finite row in index order raises :class:`EvaluationError`.
    """
    if not getattr(objective, "batch_capable", False):
        values = np.empty(len(rows))
        for i in range(len(rows)):
            values[i] = evaluate_checked(objective, rows[i])
        return values
    values = np.asarray(objective(rows), dtype=float)
    if values.shape != (len(rows),):
        raise EvaluationError(
            f"batched objective returned shape {values.shape} for {len(rows)} rows"
        )
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.argmin(finite))
        raise _non_finite(rows[first], float(values[first]))
    return values


class TrajectoryTracker:
    """Accumulates the Euclidean path length of appended positions.

    Only the running total and the last point are kept, so memory does not
    grow with the run. Distances are summed in append order, each new point
    measured against the previously appended one.
    """

    __slots__ = ("total", "_prev")

    def __init__(self):
        self.total: float = 0.0
        self._prev: np.ndarray | None = None

    def append(self, position) -> None:
        point = np.array(position, dtype=float, copy=True)
        if self._prev is not None:
            self.total += float(np.linalg.norm(point - self._prev))
        self._prev = point

    def extend(self, rows) -> None:
        """Append the rows of a 2-D array in order; same result as one append each."""
        points = np.asarray(rows, dtype=float)
        if len(points) == 0:
            return
        if self._prev is None:
            steps = points[1:] - points[:-1]
        else:
            steps = np.empty_like(points)
            np.subtract(points[0], self._prev, out=steps[0])
            np.subtract(points[1:], points[:-1], out=steps[1:])
        # Summed one step at a time, in append order, exactly as append() does.
        total = self.total
        for length in np.sqrt(np.vecdot(steps, steps)).tolist():
            total += length
        self.total = total
        self._prev = points[-1].copy()


def path_length(positions) -> float:
    """Total Euclidean length of a stored position sequence.

    Brute-force re-summation over consecutive pairs; the streaming total
    kept by :class:`TrajectoryTracker` must agree with this value.
    """
    total = 0.0
    for prev, here in zip(positions, positions[1:]):
        total += float(np.linalg.norm(here - prev))
    return total


@dataclass(frozen=True)
class RunOutcome:
    """What a single optimization run reports back.

    ``fitness_history`` holds the best-so-far value at the end of each
    completed iteration and is therefore non-increasing. ``best_fitness``
    always equals the last history entry when the history is non-empty.
    ``iterations_run`` is the final value of the optimizer's iteration
    counter (equal to the requested budget when no early stop fired).
    """

    best_agent: np.ndarray
    best_fitness: float
    fitness_history: list[float] = field(repr=False)
    execution_time: float = 0.0
    total_distance: float = 0.0
    iterations_run: int = 0


def driven(steps):
    """Turn an optimizer's step generator into a runner returning a :class:`RunOutcome`.

    ``steps`` yields ``(None, best_agent, best_fitness)`` after initialization,
    then ``(moved, best_agent, best_fitness)`` after each iteration, and
    returns its iteration counter. ``moved`` is the point or the 2-D block of
    rows the iteration visited, in order. The one timer covers initialization
    and every iteration, so execution time means the same for every optimizer.
    """

    @functools.wraps(steps)
    def run(*args, **kwargs) -> RunOutcome:
        start = time.perf_counter()
        run_steps = steps(*args, **kwargs)
        _, best_agent, best_fitness = next(run_steps)
        tracker = TrajectoryTracker()
        history: list[float] = []
        while True:
            try:
                moved, best_agent, best_fitness = next(run_steps)
            except StopIteration as stop:
                iterations_run = stop.value
                break
            if moved.ndim == 1:
                tracker.append(moved)
            else:
                tracker.extend(moved)
            history.append(best_fitness)
        elapsed = time.perf_counter() - start
        return RunOutcome(best_agent, best_fitness, history, elapsed, tracker.total, iterations_run)

    return run
