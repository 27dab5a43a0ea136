"""Evaluation plumbing and trajectory accounting shared by every optimizer."""

import numpy as np
import pytest

from ember.errors import EvaluationError
from ember.functions import list_functions, make_objective
from ember.recording import TrajectoryTracker, batch_capable, evaluate_rows, path_length


def _rows(n=6, d=4, seed=0):
    return np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, d))


# ---------------------------------------------------------------------------
# evaluate_rows


def test_registry_objectives_are_batch_capable():
    for fn in list_functions():
        for d in (2, 20):
            if fn.accepts_dimension(d):
                assert make_objective(fn.name, d).batch_capable, (fn.name, d)


def test_batched_and_per_row_paths_agree():
    rows = _rows(d=20)
    objective = make_objective("rastrigin", 20)
    calls = []

    def per_point(x):
        calls.append(x.shape)
        return objective(x)

    batched = evaluate_rows(objective, rows)
    looped = evaluate_rows(per_point, rows)
    assert calls == [(20,)] * len(rows)  # an unmarked callable sees one point per call
    assert batched.tobytes() == looped.tobytes()


def test_batched_objective_gets_one_call():
    calls = []

    @batch_capable
    def sphere(x):
        calls.append(x.shape)
        return np.sum(x**2, axis=-1)

    values = evaluate_rows(sphere, _rows())
    assert calls == [(6, 4)]
    assert values.shape == (6,)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_batched_non_finite_matches_per_row_error(bad):
    rows = _rows()

    def per_point(x):
        return bad if x[0] > 0.0 else float(np.sum(x**2))

    batched = batch_capable(lambda x: np.where(x[:, 0] > 0.0, bad, np.sum(x**2, axis=-1)))
    with pytest.raises(EvaluationError) as looped:
        evaluate_rows(per_point, rows)
    with pytest.raises(EvaluationError) as at_once:
        evaluate_rows(batched, rows)
    first = int(np.argmax(rows[:, 0] > 0.0))
    for exc in (looped.value, at_once.value):
        assert np.array_equal(exc.agent, rows[first])
        assert exc.value == bad or (np.isnan(exc.value) and np.isnan(bad))
    assert str(at_once.value) == str(looped.value)


def test_batched_wrong_shape_is_rejected():
    scalar = batch_capable(lambda x: float(np.sum(x)))
    with pytest.raises(EvaluationError, match="shape"):
        evaluate_rows(scalar, _rows())


# ---------------------------------------------------------------------------
# TrajectoryTracker.extend


def _appended(chunks):
    tracker = TrajectoryTracker()
    for chunk in chunks:
        for row in chunk:
            tracker.append(row)
    return tracker


def _extended(chunks):
    tracker = TrajectoryTracker()
    for chunk in chunks:
        tracker.extend(chunk)
    return tracker


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("d", [1, 2, 20, 200])
def test_extend_equals_appending_each_row(d, record):
    rows = _rows(n=40, d=d, seed=d)
    # first call with no previous point, a single-row call, an empty call,
    # then calls that continue from the last point
    chunks = [rows[:7], rows[7:8], rows[8:8], rows[8:9], rows[9:30], rows[30:]]
    batched = _extended(chunks)
    assert batched.total == _appended(chunks).total
    if record:
        # the tracker keeps no positions; the caller's own record of them
        # re-sums to the same streaming total
        assert batched.total == path_length(np.concatenate(chunks))


def test_extend_copies_its_rows():
    rows = _rows(n=3)
    tracker = TrajectoryTracker()
    tracker.extend(rows)
    before = tracker.total
    rows[:] = 0.0
    tracker.extend(rows[:1])
    assert tracker.total > before  # measured from the copied last point, not the zeroed one
