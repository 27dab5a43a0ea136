"""Evaluation plumbing shared by every optimizer, and the run driver's path length."""

import numpy as np
import pytest

from ember.errors import EvaluationError
from ember.functions import list_functions, make_objective
from ember.recording import batch_capable, driven, evaluate_rows, path_length


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
# total_distance through driven


def _total_distance(groups, d, overwrite):
    """Run the yielded ``groups`` of rows through :func:`driven`; with
    ``overwrite`` each group is yielded from a buffer that is filled with NaN
    right after the yield."""

    @driven
    def steps():
        yield None, np.zeros(d), 0.0
        for group in groups:
            moved = np.array(group) if overwrite else group
            yield moved, np.zeros(d), 0.0
            if overwrite:
                moved[...] = np.nan
        return len(groups)

    return steps().total_distance


@pytest.mark.parametrize("overwrite", [True, False])
@pytest.mark.parametrize("d", [1, 2, 20, 200])
def test_extend_equals_appending_each_row(d, overwrite):
    # the path is the same whether an iteration appends one point or extends
    # it by a block of rows, and the driver keeps its own copy of the last one
    rows = _rows(n=40, d=d, seed=d)
    points = list(rows)
    one_row_blocks = [rows[i : i + 1] for i in range(len(rows))]
    chunks = [rows[:7], rows[7:8], rows[8:9], rows[9:30], rows[30:]]
    totals = [_total_distance(groups, d, overwrite) for groups in (points, one_row_blocks, chunks)]
    assert totals == [path_length(rows)] * 3
