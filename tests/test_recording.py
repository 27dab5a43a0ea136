"""The evaluator every run values points through, its counts, and the run
driver's path length."""

import numpy as np
import pytest

from ember import OptimizerSpec, domain_box, run_optimizer
from ember.errors import EvaluationError
from ember.functions import make_objective
from ember.recording import Evaluator, best_of, drive

from oracles import path_length


def _rows(n=6, d=4, seed=0):
    return np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, d))


# ---------------------------------------------------------------------------
# Evaluator


def test_batched_and_per_row_paths_agree():
    rows = _rows(d=20)
    objective = make_objective("rastrigin", 20)
    calls = []

    def per_point(x):
        calls.append(x.shape)
        return objective(x)

    batched = Evaluator(objective)
    looped = Evaluator(np.vectorize(per_point, signature="(d)->()"))
    assert batched.rows(rows).tobytes() == looped.rows(rows).tobytes()
    assert calls == [(20,)] * len(rows)  # the vectorized function sees one point per call
    assert batched.count == looped.count == len(rows)


def test_batched_objective_gets_one_call():
    calls = []

    def sphere(x):
        calls.append(x.shape)
        return np.sum(x**2, axis=-1)

    evaluate = Evaluator(sphere)
    values = evaluate.rows(_rows())
    assert calls == [(6, 4)]
    assert values.shape == (6,)
    assert evaluate.count == 6


def test_single_point_is_checked_and_counted():
    evaluate = Evaluator(lambda x: np.float64(np.sum(x)))
    value = evaluate(np.array([1.0, 2.0]))
    assert type(value) is float and value == 3.0
    evaluate(np.array([0.5, 0.5]))
    assert evaluate.count == 2
    point = np.array([np.inf, 1.0])
    with pytest.raises(EvaluationError, match="non-finite value inf") as exc:
        evaluate(point)
    point[0] = 0.0
    assert exc.value.agent[0] == np.inf  # the error keeps its own copy of the point
    assert exc.value.value == np.inf


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_batched_non_finite_matches_per_row_error(bad):
    rows = _rows()

    def per_point(x):
        return bad if x[0] > 0.0 else float(np.sum(x**2))

    batched = lambda x: np.where(x[:, 0] > 0.0, bad, np.sum(x**2, axis=-1))  # noqa: E731
    with pytest.raises(EvaluationError) as looped:
        Evaluator(np.vectorize(per_point, signature="(d)->()")).rows(rows)
    with pytest.raises(EvaluationError) as at_once:
        Evaluator(batched).rows(rows)
    first = int(np.argmax(rows[:, 0] > 0.0))
    for exc in (looped.value, at_once.value):
        assert np.array_equal(exc.agent, rows[first])
        assert exc.value == bad or (np.isnan(exc.value) and np.isnan(bad))
    assert str(at_once.value) == str(looped.value)


def test_batched_wrong_shape_is_rejected():
    scalar = lambda x: float(np.sum(x))  # noqa: E731 - one value for a whole block
    with pytest.raises(EvaluationError, match="shape"):
        Evaluator(scalar).rows(_rows())
    # an objective written for one point fails the run that values a population
    with pytest.raises(EvaluationError, match="shape"):
        run_optimizer(OptimizerSpec("pso", max_iter=1, num_agents=4), scalar,
                      domain_box("sphere", 2))


# ---------------------------------------------------------------------------
# the best-so-far rule


def test_best_of_takes_a_strictly_lower_value_first_index_first():
    rows = _rows(n=4, d=3)
    fitness = np.array([2.0, 1.0, 1.0, 3.0])
    agent, value = best_of(rows, fitness, None, 1.5)
    assert type(value) is float and value == 1.0
    assert agent.tobytes() == rows[1].tobytes() and not np.shares_memory(agent, rows)
    kept = np.zeros(3)
    agent, value = best_of(rows, fitness, kept, 1.0)  # a tie is no improvement
    assert agent is kept and value == 1.0


# ---------------------------------------------------------------------------
# evaluation counts of whole runs

AGENTS, ITERATIONS, SEED = 12, 40, 7  # the fingerprint matrix of tests/test_fingerprint.py

# FFO's count depends on how often its agents enter local search, so it has no
# formula: these are the counts of one counting run per case.
FFO_EVALUATIONS = {
    ("sphere", 2): 1041, ("sphere", 20): 964,
    ("rastrigin", 2): 1063, ("rastrigin", 20): 975,
    ("whitley", 2): 953, ("whitley", 20): 975,
}
EXPECTED_EVALUATIONS = {
    "sa": ITERATIONS + 1,  # the start point, then one proposal per iteration
    "hs": AGENTS + ITERATIONS,  # the memory, then one harmony per iteration
    "pso": AGENTS * (ITERATIONS + 1),  # the swarm, then every particle per iteration
    "ga": AGENTS * (ITERATIONS + 1),  # the population, then every child per generation
}


@pytest.mark.parametrize("algorithm", ["ffo", "ga", "hs", "pso", "sa"])
@pytest.mark.parametrize("function,dimension", sorted(FFO_EVALUATIONS))
def test_run_evaluation_counts(algorithm, function, dimension):
    objective = make_objective(function, dimension)
    calls = []

    def per_point(x):  # behind np.vectorize, so the run calls it once per point
        calls.append(1)
        return objective(x)

    spec = OptimizerSpec(algorithm, max_iter=ITERATIONS, num_agents=AGENTS, seed=SEED)
    domain = domain_box(function, dimension)
    batched = run_optimizer(spec, objective, domain)
    looped = run_optimizer(spec, np.vectorize(per_point, signature="(d)->()"), domain)
    expected = EXPECTED_EVALUATIONS.get(algorithm, FFO_EVALUATIONS[function, dimension])
    assert batched.evaluations == looped.evaluations == len(calls) == expected


# ---------------------------------------------------------------------------
# total_distance through drive


def _total_distance(groups, d, overwrite):
    """Run the yielded ``groups`` of rows through :func:`drive`; with
    ``overwrite`` each group is yielded from a buffer that is filled with NaN
    right after the yield."""

    def steps(spec, params, rng, evaluate, domain):
        yield None, np.zeros(d), 0.0
        for group in groups:
            moved = np.array(group) if overwrite else group
            yield moved, np.zeros(d), 0.0
            if overwrite:
                moved[...] = np.nan
        return len(groups)

    return drive(steps, OptimizerSpec("pso"), {}, None, None).total_distance


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
