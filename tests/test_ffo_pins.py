"""Pinned FFO runs through the branches that ``test_fingerprint.py`` never takes.

``test_fingerprint.py`` runs 40 iterations at the default stagnation threshold
of 50 with the stop conditions off, so the pull toward the global best never
fires and neither early stop is reached. Each case here forces one of those
branches, or an extreme of the others: the pull from the first stagnant pass
on, a local search for every agent, a single coordinate (no crossover), the
stagnation stop, the target stop, and a temperature so low that the local
search is greedy. Each must reproduce its best fitness and total distance (as
``float.hex``), the sha256 of its history's float64 bytes, its iteration count
and its evaluation count, both with the registry objective, which values a
population in one call, and with the same evaluator wrapped in
``np.vectorize(..., signature="(d)->()")``, which calls it once per point.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from ember import OptimizerSpec, domain_box, make_objective, run_optimizer

AGENTS = 12
SEED = 7

# name: (function, dimension, max_iter, params)
CASES = {
    "pull-at-0": ("sphere", 2, 40, {"perturbation_threshold": 0}),
    "pull-at-2": ("rastrigin", 5, 40, {"perturbation_threshold": 2}),
    "always-local-search": ("schaffer_n2", 6, 20, {"mutation_probability": 1.0}),
    "single-coordinate": ("sphere", 1, 40, {"crossover_probability": 1.0}),
    "stagnation-stop": ("whitley", 3, 400,
                        {"use_additional_conditions": True, "no_improve_limit": 3}),
    "target-stop": ("booth", 2, 400, {"use_additional_conditions": True,
                                      "target_fitness": 1e-2, "no_improve_limit": 400}),
    "greedy-local-search": ("rastrigin", 2, 40,
                            {"initial_temp": 1e-300, "mutation_probability": 0.5}),
}

# name: (best_fitness, total_distance, history sha256, iterations_run, evaluations)
PINS = {
    "pull-at-0": (
        "0x1.858f631429c3cp-7", "0x1.e3c96749e6f1ep+10",
        "48fdeede94d6d13076d3289a8a3f67b00f6e86437982b788185ef4567ef7ee94", 40, 909,
    ),
    "pull-at-2": (
        "0x1.943866005aee6p+4", "0x1.d41752acfbb77p+11",
        "19f60abdff14be0129847f581bb4d56b24978284855105b55b0ce2ca5f322fba", 40, 964,
    ),
    "always-local-search": (
        "0x1.4480c534da73cp+1", "0x1.5110fcd3d1392p+15",
        "d5b2f61cb2104089ea707caba58a8d8f1543f4c2a52bfc3b1db734deca9f4680", 20, 2748,
    ),
    "single-coordinate": (
        "0x1.b9982f401f3d4p-4", "0x1.a5ea34972784bp+10",
        "284d8b666904df7c9bdf8966c3a6e57f0499184968c23c4109b36c8d27144276", 40, 1118,
    ),
    "stagnation-stop": (
        "0x1.98a21d79efa54p+3", "0x1.11000f26b30bcp+10",
        "80b03cc0070464ae310997e58b54f10ceede7b7c502346095ead575c5d4b4610", 8, 261,
    ),
    "target-stop": (
        "0x1.df8ccd0879552p-8", "0x1.6008c94879f00p+14",
        "b1895e4bfd4d8bf8c37ada6424ebcec0dc012bd3656f5bf32cfc682e4547f1c6", 206, 5343,
    ),
    "greedy-local-search": (
        "0x1.4e124a824b000p-8", "0x1.5559f3e62f826p+11",
        "b0a39eeefad88b75b0eb30ce0958fbd4ee5eefc7edc1698eeaac80dd28725fcb", 40, 3054,
    ),
}


@pytest.mark.parametrize("path", ["batched", "per-row"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_ffo_pin(name, path):
    function, dimension, max_iter, params = CASES[name]
    objective = make_objective(function, dimension)
    if path == "per-row":
        evaluator = objective
        objective = np.vectorize(evaluator, signature="(d)->()")
    spec = OptimizerSpec("ffo", params, max_iter, AGENTS, SEED)
    outcome = run_optimizer(spec, objective, domain_box(function, dimension))
    history = np.asarray(outcome.fitness_history, dtype=float).tobytes()
    assert (
        outcome.best_fitness.hex(),
        outcome.total_distance.hex(),
        hashlib.sha256(history).hexdigest(),
        outcome.iterations_run,
        outcome.evaluations,
    ) == PINS[name]
