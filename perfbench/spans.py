"""In-memory spans around ember's public calls, and the per-layer arithmetic.

The traced pass replaces, from outside the program, the names that the
harness and the CLI look up at call time (``make_objective``, ``domain_box``,
``run_optimizer``, ``export_history``, ``run_grid``, ``summarize``,
``rank_top3``, ``write_summary_csv``) with wrappers that record spans. A
span is ``name, start, end, parent, trace`` where ``trace`` is the cell key.
Objective calls are far too many for one span each: the objective returned
by ``make_objective`` counts the points it evaluates and the time spent in
it, and the ``run_optimizer`` span carries the difference of those counters.

A cell span (``harness.cell``) opens at the cell's ``make_objective`` call
and closes when its ``run_optimizer`` call returns or raises.
"""

from __future__ import annotations

import statistics
import time


class Tracer:
    """Spans kept in memory, parented by a call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.cell: int | None = None

    def begin(self, name: str, trace: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent]["trace"]
        self.spans.append(
            {"name": name, "start": self.clock(), "end": None, "parent": parent, "trace": trace}
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span["end"] = self.clock()
        span.update(attrs)
        if index in self._stack:
            # Pop this span and anything an exception left open inside it.
            del self._stack[self._stack.index(index):]

    def set_trace(self, index: int, trace: str) -> None:
        """Label an open span and the spans already recorded under it."""
        self.spans[index]["trace"] = trace
        for span in self.spans[index + 1:]:
            if span["parent"] == index:
                span["trace"] = trace

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced


class CountingObjective:
    """An objective that counts the points it evaluates and times itself.

    A one-dimensional argument is one point; a two-dimensional argument is a
    batch of ``len(x)`` points, so a batched objective is counted the same way.
    """

    __slots__ = ("fn", "name", "evals", "seconds", "clock")

    def __init__(self, fn, name: str, clock=time.perf_counter):
        self.fn = fn
        self.name = name
        self.evals = 0
        self.seconds = 0.0
        self.clock = clock

    def __call__(self, x):
        start = self.clock()
        value = self.fn(x)
        self.seconds += self.clock() - start
        self.evals += len(x) if getattr(x, "ndim", 1) > 1 else 1
        return value


def install(tracer: Tracer, harness, cli, seed_to_key: dict) -> None:
    """Replace the names ``harness`` and ``cli`` call with traced wrappers.

    ``cli`` may be None when the pass does not go through the CLI.

    ``seed_to_key`` maps each cell's derived RNG seed to its cell key, which
    is how a ``run_optimizer`` call learns the trace id of its cell.
    """
    make_objective = harness.make_objective
    domain_box = harness.domain_box
    run_optimizer = harness.run_optimizer

    def close_cell():
        if tracer.cell is not None:
            tracer.end(tracer.cell)
            tracer.cell = None

    def cell_step(name, fn, *args):
        index = tracer.begin(name)
        try:
            result = fn(*args)
        except BaseException:
            tracer.end(index)
            close_cell()
            raise
        tracer.end(index)
        return result

    def traced_make_objective(name, dimension):
        if tracer.cell is None:
            tracer.cell = tracer.begin("harness.cell")
        fn = cell_step("functions.make_objective", make_objective, name, dimension)
        return CountingObjective(fn, name, tracer.clock)

    def traced_domain_box(name, dimension):
        return cell_step("functions.domain_box", domain_box, name, dimension)

    def traced_run_optimizer(spec, objective, domain, *args, **kwargs):
        key = seed_to_key.get(spec.seed)
        if tracer.cell is not None and key is not None:
            tracer.set_trace(tracer.cell, key)
        evals0, seconds0 = objective.evals, objective.seconds
        index = tracer.begin("optimizer.run", trace=key)
        try:
            return run_optimizer(spec, objective, domain, *args, **kwargs)
        finally:
            tracer.end(
                index,
                algorithm=spec.name,
                function=objective.name,
                dimension=domain.dimension,
                agents=spec.num_agents,
                iterations=spec.max_iter,
                evals=objective.evals - evals0,
                objective_s=objective.seconds - seconds0,
            )
            close_cell()

    harness.make_objective = traced_make_objective
    harness.domain_box = traced_domain_box
    harness.run_optimizer = traced_run_optimizer
    harness.export_history = tracer.wrap("harness.export_history", harness.export_history)
    if cli is None:
        return
    cli.run_grid = tracer.wrap("harness.run_grid", cli.run_grid)
    cli.summarize = tracer.wrap("harness.summarize", cli.summarize)
    cli.rank_top3 = tracer.wrap("harness.rank_top3", cli.rank_top3)
    cli.write_summary_csv = tracer.wrap("harness.write_summary_csv", cli.write_summary_csv)


# ---------------------------------------------------------------------------
# arithmetic over recorded spans


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[dict], function_pairs=()) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Only the layers the pass exercised appear; ``function_pairs`` selects the
    (function, dimension) pairs reported one by one.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(index)

    def duration(i):
        return spans[i]["end"] - spans[i]["start"]

    metrics: dict[str, float] = {}
    runs = [spans[i] for i in by_name.get("optimizer.run", ())]
    if runs:
        evals = sum(r["evals"] for r in runs)
        objective_s = sum(r["objective_s"] for r in runs)
        metrics["functions.evals"] = evals
        metrics["functions.self_s"] = objective_s
        metrics["functions.us_per_eval"] = 1e6 * objective_s / evals if evals else 0.0
    for fn, dim in function_pairs:
        group = [r for r in runs if r["function"] == fn and r["dimension"] == dim]
        evals = sum(r["evals"] for r in group)
        if evals:
            seconds = sum(r["objective_s"] for r in group)
            metrics[f"functions.{fn}.d{dim}.us_per_eval"] = 1e6 * seconds / evals

    for algorithm, (evals, base) in evals_bases(spans).items():
        group = [r for r in runs if r["algorithm"] == algorithm]
        prefix = "ffo" if algorithm == "ffo" else f"baselines.{algorithm}"
        wall = [r["end"] - r["start"] for r in group]
        overhead = sum(wall) - sum(r["objective_s"] for r in group)
        metrics[f"{prefix}.self_us_per_eval"] = 1e6 * overhead / evals if evals else 0.0
        metrics[f"{prefix}.run_p50_s"] = statistics.median(wall)
        metrics[f"{prefix}.evals_per_agent_iter"] = evals / base

    if "harness.run_grid" in by_name:
        metrics["harness.self_s"] = sum(selfs[i] for i in by_name["harness.run_grid"])
    cells = [duration(i) for i in by_name.get("harness.cell", ())]
    if cells:
        metrics["harness.cell_p50_s"] = percentile(cells, 50)
        metrics["harness.cell_p90_s"] = percentile(cells, 90)
        metrics["harness.cell_sum_s"] = sum(cells)
    for name, metric in (
        ("harness.export_history", "harness.export_history_s"),
        ("harness.summarize", "harness.summarize_s"),
        ("harness.rank_top3", "harness.rank_top3_s"),
    ):
        if name in by_name:
            metrics[metric] = sum(duration(i) for i in by_name[name])
    if "cli.main" in by_name:
        metrics["cli.self_s"] = sum(selfs[i] for i in by_name["cli.main"])
    return metrics


def evals_bases(spans: list[dict]) -> dict[str, tuple[int, int]]:
    """Per algorithm: (points evaluated, agents x iterations summed over cells)."""
    bases: dict[str, tuple[int, int]] = {}
    for span in spans:
        if span["name"] == "optimizer.run":
            evals, base = bases.get(span["algorithm"], (0, 0))
            bases[span["algorithm"]] = (
                evals + span["evals"],
                base + span["agents"] * span["iterations"],
            )
    return bases
