"""The benchmark's three workloads, each a grid config built from a seed.

The workload seed becomes the grid ``master_seed``, so every cell's derived
RNG seed changes with it while the grid shape (and so the work per cell, up
to the optimizers' own random branching) stays fixed.

* ``pop-hd``: population optimizers on costly high-dimensional objectives,
  in-process. Objective evaluation and the per-row evaluation and trajectory
  loops dominate; harness overhead is negligible.
* ``grid-2d``: every optimizer on every function at d=2 through
  ``ember grid`` with two worker processes and histories on. Many short
  cells stress pool dispatch, CSV streaming, history export, summary and
  rankings.
* ``long-single``: the single-solution optimizers (SA, HS) with a long
  iteration budget, in-process. Per-iteration scalar overhead dominates and
  stored trajectories grow with the budget. It runs by hand only:
  ``BENCHMARK.json`` leaves it out because a third declared workload would
  shorten every run, and ``grid-2d`` needs the longest runs to stay steady.

Agent and iteration counts are values that the repo's presets run
(agents 10, 50, 100; iterations 100, 1000, 3000).
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_ALGORITHMS = ("ffo", "ga", "hs", "pso", "sa")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    via_cli: bool  # run through ``ember grid`` (cli.main) instead of run_grid
    # (function, dimension) pairs reported as functions.<fn>.d<d>.us_per_eval
    function_pairs: tuple = ()

    @property
    def jobs(self) -> int:
        return int(self.config.get("jobs", 1))

    def memory_config(self) -> dict:
        """The cells of the tracemalloc pass: sphere at the largest dimension.

        tracemalloc slows the optimizers several times over, so the memory
        pass runs one cell per optimizer. Peak memory of a run grows with
        dimension, agents and iterations, not with the objective.
        """
        return {
            **self.config,
            "functions": ["sphere"],
            "dimensions": [max(self.config["dimensions"])],
            "seeds": self.config["seeds"][:1],
        }


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with grid master seed ``seed``."""
    if name == "pop-hd":
        functions = ("sphere", "ackley", "rosenbrock", "whitley")
        dimensions = (20, 50)
        return Workload(
            name=name,
            config={
                "algorithms": ["ffo", "pso", "ga"],
                "functions": list(functions),
                "dimensions": list(dimensions),
                "agent_counts": [50],
                "iteration_counts": [100],
                "seeds": [0],
                "master_seed": seed,
                "jobs": 1,
            },
            via_cli=False,
            function_pairs=tuple((f, d) for f in functions for d in dimensions),
        )
    if name == "grid-2d":
        return Workload(
            name=name,
            config={
                "algorithms": list(ALL_ALGORITHMS),
                # functions omitted: the whole registry
                "dimensions": [2],
                "agent_counts": [10],
                "iteration_counts": [100],
                "seeds": [0, 1, 2, 3],
                "master_seed": seed,
                "save_histories": True,
                "jobs": 2,
            },
            via_cli=True,
        )
    if name == "long-single":
        return Workload(
            name=name,
            config={
                "algorithms": ["sa", "hs"],
                "functions": ["sphere", "schwefel", "griewank", "expanded_schaffer_f6"],
                "dimensions": [10],
                "agent_counts": [10],
                "iteration_counts": [10000],
                "seeds": [0],
                "master_seed": seed,
                "jobs": 1,
            },
            via_cli=False,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


NAMES = ("pop-hd", "grid-2d", "long-single")
