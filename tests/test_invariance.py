"""Power-of-two scale invariance of every optimizer.

An optimizer reads objective values only through comparisons and, for SA and
FFO, through delta/T. Multiplying a finite double by 2**k rounds nothing, so a
run on 2**k * f, with SA's and FFO's ``initial_temp`` also scaled by 2**k,
must move through the same rows and report the same best agent, evaluation
count and path length as the run on f, and a history scaled by 2**k, bit for
bit. A step that used a value any other way (an absolute threshold, a
temperature that does not scale with it) would show here.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ember.baselines as baselines
from ember.baselines import OptimizerSpec, optimizer_names, resolve_params, run_optimizer
from ember.functions import domain_box, list_functions, make_objective
from ember.recording import Evaluator

# every (function, d) pair of the registry with 1 <= d <= 6
_SHAPES = [(f.name, d) for f in list_functions() for d in range(1, 7) if f.accepts_dimension(d)]


def _moved(spec, objective, domain):
    """The bytes of the rows each iteration of ``spec``'s raw step generator moved."""
    steps, _ = baselines._OPTIMIZERS[spec.name]
    run = steps(spec, resolve_params(spec.name, spec.params, spec.num_agents),
                np.random.default_rng(spec.seed), Evaluator(objective), domain)
    return [moved.tobytes() for moved, _, _ in itertools.islice(run, 1, None)]


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(optimizer_names()), shape=st.sampled_from(_SHAPES),
       seed=st.integers(0, 2**32 - 1), k=st.integers(-8, 8))
def test_power_of_two_scaling_scales_only_the_values(name, shape, seed, k):
    function, d = shape
    scale = math.ldexp(1.0, k)
    objective, domain = make_objective(function, d), domain_box(function, d)

    def scaled(x):
        return scale * objective(x)

    hot = {"initial_temp": 100.0 * scale} if name in ("sa", "ffo") else {}
    base = OptimizerSpec(name, {}, 20, 8, seed)
    spec = OptimizerSpec(name, hot, 20, 8, seed)
    assert _moved(spec, scaled, domain) == _moved(base, objective, domain)
    a = run_optimizer(base, objective, domain)
    b = run_optimizer(spec, scaled, domain)
    assert b.best_agent.tobytes() == a.best_agent.tobytes()
    assert (b.evaluations, b.total_distance, b.iterations_run) == (
        a.evaluations, a.total_distance, a.iterations_run)
    assert b.fitness_history == [scale * value for value in a.fitness_history]
    assert b.best_fitness == scale * a.best_fitness
