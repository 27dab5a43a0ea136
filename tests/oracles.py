"""Plain reference implementations that tests compare the package against.

They are written for clarity, one element at a time, and are not part of the
package API.
"""

import math

import numpy as np


def path_length(positions) -> float:
    """Total Euclidean length of a stored position sequence, re-summed pair by
    pair in order: the value the streaming ``total_distance`` of
    :func:`ember.recording.drive` must reach."""
    total = 0.0
    for prev, here in zip(positions, positions[1:]):
        total += float(np.linalg.norm(here - prev))
    return total


def one_point_crossover(parent1, parent2, point):
    """The two children of a one-point crossover: the parents swap their
    coordinates from ``point`` on."""
    return (np.concatenate([parent1[:point], parent2[point:]]),
            np.concatenate([parent2[:point], parent1[point:]]))


def ffo_passes(objective, lower, upper, num_agents, dimension, max_iter, seed, params):
    """FFO's update passes as the draw order in :func:`ember.baselines.ffo_steps`'s
    docstring states them, one agent at a time, with the budget as the only stop.

    Yields, per pass, the rows as each agent left its own update, the best value
    so far, and the set of branches the pass took: ``"swap"`` and
    ``"self-partner"`` (a crossover with another agent or with itself),
    ``"uphill"`` (a worse local-search candidate accepted), ``"pull"`` and
    ``"clip"``.
    """
    rng = np.random.default_rng(seed)
    agents = rng.uniform(lower, upper, size=(num_agents, dimension))
    values = [objective(agent) for agent in agents]
    best = int(np.argmin(values))
    best_agent, best_value = agents[best].copy(), values[best]
    counter, step_size = 0, params["step_size"]
    threshold = params["perturbation_threshold"]
    for k in range(1, max_iter):
        values = [objective(agent) for agent in agents]
        best = int(np.argmin(values))
        if values[best] < best_value:
            best_agent, best_value, counter = agents[best].copy(), values[best], 0
        else:
            counter += 1
        temperature = params["initial_temp"] * params["cooling_rate"] ** k
        taken, moved = set(), []
        for i in range(num_agents):
            if dimension >= 2 and rng.random() < params["crossover_probability"]:
                partner = int(rng.integers(num_agents))
                taken.add("self-partner" if partner == i else "swap")
                agents[i], agents[partner] = one_point_crossover(
                    agents[i], agents[partner], int(rng.integers(1, dimension)))
            row = agents[i].copy()
            if rng.random() < params["mutation_probability"]:
                value = objective(row)
                for _ in range(10 + 5 * (counter // 100)):
                    candidate = row + rng.normal(0.0, step_size * 0.1, size=dimension)
                    candidate_value = objective(candidate)
                    if candidate_value < value or (
                            rng.random() < math.exp(-(candidate_value - value) / temperature)):
                        if candidate_value > value:
                            taken.add("uphill")
                        row, value = candidate, candidate_value
            if counter > threshold:
                taken.add("pull")
                gains = rng.normal(0.0, 0.1 + 0.02 * (counter - threshold), size=dimension)
                row = row + gains * (best_agent - row)
            if np.any(row < lower) or np.any(row > upper):
                taken.add("clip")
            agents[i] = np.clip(row, lower, upper)
            moved.append(agents[i].copy())
        step_size *= 0.98 if counter > threshold else 0.99
        yield np.array(moved), best_value, taken
