"""Plain reference implementations that tests compare the package against.

They are written for clarity, one element at a time, and are not part of the
package API.
"""

import numpy as np


def path_length(positions) -> float:
    """Total Euclidean length of a stored position sequence, re-summed pair by
    pair in order: the value the streaming ``total_distance`` of
    :func:`ember.recording.driven` must reach."""
    total = 0.0
    for prev, here in zip(positions, positions[1:]):
        total += float(np.linalg.norm(here - prev))
    return total


def one_point_crossover(parent1, parent2, point):
    """The two children of a one-point crossover: the parents swap their
    coordinates from ``point`` on."""
    return (np.concatenate([parent1[:point], parent2[point:]]),
            np.concatenate([parent2[:point], parent1[point:]]))
