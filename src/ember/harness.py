"""Experiment harness: grids of runs, result records, summaries, rankings.

A grid is the cartesian product of algorithms, functions, dimensions, agent
counts, iteration budgets, and seed labels. Each cell is a :class:`RunRecord`
named by its six axis values; :attr:`RunRecord.cell_key` is the one spelling
of that name. Cells whose function does not carry the ``scalable`` tag are
skipped at dimensions other than 2 (recorded, not silently dropped). Every
other per-cell fact comes from the grid when the cell runs: its parameters,
whether it keeps a history, and its RNG seed, derived from the grid master
seed and the cell key, so any subset of a grid reproduces exactly.
:func:`run_cell` is the one path from a cell to its metrics, for a grid cell
and for ``ember run`` alike.

Results stream to ``<output>/results.csv`` in enumeration order with the
fixed column set::

    algorithm,function,dimension,agents,max_iter,seed,best_fitness,
    execution_time_s,total_distance,distance_per_unit_time,iterations_run,status

Beside it, ``<output>/cells.jsonl`` holds one JSON object per cell, in the
same order: ``{"key", "derived_seed", "status", "message", "evaluations"}``,
where the message says why a cell failed or was skipped and ``evaluations``
counts the points the run valued (null for skips and errors). Optional
per-run histories go to ``<output>/histories/<cell-key>.csv`` and live only
there, so a grid that saves them needs an output directory. The process that
ran the cell writes the file, so no history crosses to the parent and a
grid's memory does not grow with its budget; a write that fails makes only
that cell an error.

With ``jobs`` > 1 the runnable cells go to a process pool in chunks of
consecutive cells, and their records come back in enumeration order. The
parent holds one task and one result message per chunk, not per cell, so it
keeps a few hundred bytes per cell: the cell's record. A worker that dies
breaks the pool, and every cell not yet returned becomes an error record.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .baselines import OptimizerSpec, optimizer_names, resolve_params, run_optimizer
from .errors import ConfigError, MetricError
from .functions import domain_box, get_function, known_minimum, list_functions, make_objective
from .recording import RunOutcome

__all__ = [
    "CATEGORIES",
    "ExperimentGrid",
    "PRESETS",
    "RunRecord",
    "RESULT_COLUMNS",
    "derive_cell_seed",
    "distance_per_unit_time",
    "export_history",
    "grid_from_mapping",
    "rank_top3",
    "run_cell",
    "run_grid",
    "summarize",
]

# The results.csv columns in order, each with the RunRecord field it holds.
_RESULT_FIELDS = (
    ("algorithm", "algorithm"), ("function", "function"), ("dimension", "dimension"),
    ("agents", "agents"), ("max_iter", "max_iter"), ("seed", "seed"),
    ("best_fitness", "best_fitness"), ("execution_time_s", "execution_time"),
    ("total_distance", "total_distance"), ("distance_per_unit_time", "distance_per_unit_time"),
    ("iterations_run", "iterations_run"), ("status", "status"),
)
RESULT_COLUMNS = tuple(column for column, _ in _RESULT_FIELDS)

CATEGORIES = ("longest_time", "shortest_time", "most_accurate", "least_accurate")


def distance_per_unit_time(total_distance: float, execution_time: float) -> float:
    """Distance covered per second of wall-clock run time."""
    if execution_time <= 0.0:
        raise MetricError(f"execution time must be positive, got {execution_time}")
    return total_distance / execution_time


def derive_cell_seed(master_seed: int, cell_key: str) -> int:
    """Stable 64-bit seed mixing the grid master seed with a cell key.

    blake2b of ``"<master>|<key>"`` with an 8-byte digest, big-endian. The
    derivation is part of the output contract: it must not change between
    versions, or stored results stop being reproducible.
    """
    digest = hashlib.blake2b(f"{master_seed}|{cell_key}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(slots=True)
class RunRecord:
    """One grid cell and its outcome.

    Metric fields are None until the cell runs, and stay None for skips and
    errors.
    """

    algorithm: str
    function: str
    dimension: int
    agents: int
    max_iter: int
    seed: int
    best_fitness: float | None = None
    execution_time: float | None = None
    total_distance: float | None = None
    distance_per_unit_time: float | None = None
    iterations_run: int | None = None
    evaluations: int | None = None
    status: str = "ok"
    message: str = ""

    @property
    def cell_key(self) -> str:
        # Seed-bearing: derive_cell_seed hashes this string, so it must not change.
        return (f"{self.algorithm}__{self.function}__d{self.dimension}__a{self.agents}"
                f"__i{self.max_iter}__s{self.seed}")

    def csv_row(self) -> list[str]:
        values = (getattr(self, name) for _, name in _RESULT_FIELDS)
        return ["" if v is None else str(v) for v in values]


def _names(values) -> tuple[str, ...]:
    if isinstance(values, (str, dict)):
        raise TypeError
    names = tuple(values)
    if not all(isinstance(v, str) for v in names):
        raise TypeError
    return names


def _int(value) -> int:
    # exact conversions only: a bool or a dropped fraction would run another grid
    if isinstance(value, (bool, np.bool_)):
        raise TypeError
    number = int(value)
    if isinstance(value, numbers.Real) and number != value:
        raise ValueError
    return number


def _ints(values) -> tuple[int, ...]:
    if isinstance(values, (str, dict)):
        raise TypeError
    return tuple(_int(v) for v in values)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError
    return value


def _path(value) -> str | None:
    return None if value is None else os.fspath(value)


@dataclass(frozen=True)
class ExperimentGrid:
    """Full experiment description; see the module docstring for semantics.

    This is the only grid schema: :func:`grid_from_mapping` passes a config
    file's keys straight to it. ``algorithms`` and ``functions`` default to
    every optimizer and every registry function. ``__post_init__`` converts
    each value to its field's type and checks it. Conversions are exact: an
    integer field takes no boolean and no number with a fraction, and
    ``save_histories`` takes only a boolean. No axis may repeat a value, so
    every cell key is unique. A value that is rejected raises
    :class:`ConfigError` starting with the field name.
    """

    algorithms: tuple[str, ...] = field(default_factory=lambda: tuple(optimizer_names()))
    functions: tuple[str, ...] = field(
        default_factory=lambda: tuple(f.name for f in list_functions())
    )
    dimensions: tuple[int, ...] = (2,)
    agent_counts: tuple[int, ...] = (OptimizerSpec.num_agents,)
    iteration_counts: tuple[int, ...] = (OptimizerSpec.max_iter,)
    seeds: tuple[int, ...] = (0,)
    master_seed: int = 0
    params: dict = field(default_factory=dict)
    output: str | None = None
    save_histories: bool = False
    jobs: int = 1

    def __post_init__(self):
        for name, convert, kind, floor in (  # floor: the smallest value allowed
            ("algorithms", _names, "a list of names", None),
            ("functions", _names, "a list of names", None),
            ("dimensions", _ints, "a list of integers", 1),
            ("agent_counts", _ints, "a list of integers", 1),
            ("iteration_counts", _ints, "a list of integers", 1),
            ("seeds", _ints, "a list of integers", 0),
            ("master_seed", _int, "an integer", None),
            ("output", _path, "a path", None),
            ("save_histories", _bool, "a boolean", None),
            ("jobs", _int, "an integer", 1),
        ):
            value = getattr(self, name)
            try:
                value = convert(value)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{name} must be {kind}, got {value!r}") from None
            object.__setattr__(self, name, value)
            items = value if isinstance(value, tuple) else (value,)
            if not items:
                raise ConfigError(f"{name} must be non-empty")
            if floor is not None and min(items) < floor:
                raise ConfigError(f"{name} must be >= {floor}, got {value}")
            repeated = [v for i, v in enumerate(items) if v in items[:i]]
            if repeated:  # two cells under one key would share their row and history file
                raise ConfigError(f"{name} must be distinct, got {repeated[0]!r} more than once")
        known = set(optimizer_names())
        for name in self.algorithms:
            if name not in known:
                raise ConfigError(f"unknown optimizer {name!r} in grid")
        for name in self.functions:
            get_function(name)
        if not isinstance(self.params, dict) or any(
            not isinstance(v, dict) for v in self.params.values()
        ):
            raise ConfigError("params must map optimizer names to parameter objects")
        for algo, overrides in self.params.items():
            if algo not in known:
                raise ConfigError(f"params.{algo}: unknown optimizer")
            try:
                # the smallest population bounds what GA's elitism may be
                resolve_params(algo, overrides, min(self.agent_counts))
            except ConfigError as exc:
                raise ConfigError(f"params.{algo}.{exc}") from None


def enumerate_cells(grid: ExperimentGrid) -> list[RunRecord]:
    """All grid cells in deterministic enumeration order, as records to run.

    High-dimensional regimes pair only with functions tagged scalable (the
    published experiment design; the direct API is less strict), so a cell
    whose function is not tagged scalable comes back already skipped at any
    dimension other than 2.
    """
    cells = []
    for axes in itertools.product(grid.algorithms, grid.functions, grid.dimensions,
                                  grid.agent_counts, grid.iteration_counts, grid.seeds):
        cell = RunRecord(*axes)
        if cell.dimension != 2 and "scalable" not in get_function(cell.function).attributes:
            cell.status = "skipped"
            cell.message = (f"{cell.function} is not tagged scalable; "
                            f"dimension {cell.dimension} skipped")
        cells.append(cell)
    return cells


def _failed(cell: RunRecord, exc: Exception) -> RunRecord:
    return replace(cell, status="error", message=f"{type(exc).__name__}: {exc}")


def run_cell(cell: RunRecord, params: dict, seed: int) -> tuple[RunRecord, RunOutcome]:
    """Run ``cell``'s optimizer with ``params`` and RNG ``seed``: the record
    filled in with its metrics and the run's outcome. Raises whatever the run
    raises."""
    objective = make_objective(cell.function, cell.dimension)
    domain = domain_box(cell.function, cell.dimension)
    spec = OptimizerSpec(cell.algorithm, params, cell.max_iter, cell.agents, seed)
    outcome = run_optimizer(spec, objective, domain)
    speed = distance_per_unit_time(outcome.total_distance, outcome.execution_time)
    return replace(cell, best_fitness=outcome.best_fitness, execution_time=outcome.execution_time,
                   total_distance=outcome.total_distance, distance_per_unit_time=speed,
                   iterations_run=outcome.iterations_run,
                   evaluations=outcome.evaluations), outcome


def _execute_cell(grid: ExperimentGrid, cell: RunRecord) -> RunRecord:
    """Run one cell with its parameters, derived seed and history flag from ``grid``.

    A requested history is written to the cell's file under ``histories/`` here,
    in the process that ran the cell; a failed write makes it an error record,
    like any failure.
    """
    try:
        seed = derive_cell_seed(grid.master_seed, cell.cell_key)
        record, outcome = run_cell(cell, grid.params.get(cell.algorithm, {}), seed)
        if grid.save_histories:
            export_history(outcome.fitness_history,
                           Path(grid.output, "histories", f"{cell.cell_key}.csv"))
    except Exception as exc:  # a failing cell must not abort the grid
        return _failed(cell, exc)
    return record


def run_grid(grid: ExperimentGrid) -> list[RunRecord]:
    """Execute a grid and return its records in enumeration order.

    With an output path, rows stream to ``results.csv`` and ``cells.jsonl``
    as cells finish (in enumeration order, so reruns are byte-identical).
    With ``jobs`` > 1 the runnable cells reach the worker pool in chunks of
    consecutive cells, and the parent keeps a few hundred bytes per cell.
    Requested histories are written by the process that ran each cell, into
    ``histories/``, and live only in those files: this function creates the
    directory, and raises :class:`ConfigError` before any cell runs when
    ``save_histories`` has no output path. Failing cells become
    ``status=error`` records, and so do cells whose history could not be
    written and the cells lost when a worker process dies (a broken pool
    fails every cell it has not yet returned); the grid always runs to
    completion.
    """
    if grid.save_histories and not grid.output:
        raise ConfigError("save_histories needs an output directory")
    cells = enumerate_cells(grid)
    execute = functools.partial(_execute_cell, grid)
    records: list[RunRecord] = []
    with contextlib.ExitStack() as stack:
        writer = None
        if grid.output:
            out_dir = Path(grid.output)
            out_dir.mkdir(parents=True, exist_ok=True)
            if grid.save_histories:
                (out_dir / "histories").mkdir(exist_ok=True)
            handle = stack.enter_context((out_dir / "results.csv").open("w", newline=""))
            writer = csv.writer(handle)
            writer.writerow(RESULT_COLUMNS)
            log = stack.enter_context((out_dir / "cells.jsonl").open("w"))
        runnable = [cell for cell in cells if cell.status != "skipped"]
        if grid.jobs > 1:
            # imported here: a serial grid, and ``import ember``, never load multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(max_workers=grid.jobs)
            stack.callback(executor.shutdown)
            # about 16 chunks per worker bound the wait on the slowest last chunk;
            # a grid of fewer than 32 * jobs runnable cells still sends one cell per task
            chunksize = max(1, len(runnable) // (16 * grid.jobs))
            results = executor.map(execute, runnable, chunksize=chunksize)
        else:
            results = map(execute, runnable)
        failure = None  # what ended the pool's results; every later runnable cell fails with it
        for cell in cells:
            if cell.status == "skipped":
                record = cell
            elif failure is not None:
                record = _failed(cell, failure)
            else:
                try:
                    record = next(results)
                except Exception as exc:  # e.g. BrokenProcessPool after a worker died
                    failure = exc
                    record = _failed(cell, exc)
            if writer is not None:
                writer.writerow(record.csv_row())
                handle.flush()
                seed = derive_cell_seed(grid.master_seed, record.cell_key)
                log.write(json.dumps({"key": record.cell_key, "derived_seed": seed,
                                      "status": record.status, "message": record.message,
                                      "evaluations": record.evaluations}) + "\n")
                log.flush()
            records.append(record)
    return records


def export_history(history, path) -> Path:
    """Write a best-so-far history to ``path`` as ``iteration,best_fitness`` rows.

    Iterations are numbered from 1 and an empty history produces a header-only
    file; missing parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # the bytes csv.writer gives: str(float) never needs quoting
    rows = "".join(f"{i},{value}\r\n" for i, value in enumerate(history, start=1))
    path.write_text("iteration,best_fitness\r\n" + rows, newline="")
    return path


# ---------------------------------------------------------------------------
# aggregation


# Each of these RunRecord fields gets its mean, std, min and max in summary.csv.
_SUMMARIZED = ("best_fitness", "execution_time", "total_distance")
SUMMARY_COLUMNS = (
    "algorithm",
    *(f"{metric}_{stat}" for metric in _SUMMARIZED for stat in ("mean", "std", "min", "max")),
    "distance_per_unit_time",
)


def summarize(records) -> list[dict]:
    """The ``summary.csv`` rows: one dict per algorithm, keyed by ``SUMMARY_COLUMNS``.

    Only successful records count, and rows are sorted by algorithm name. Each
    metric gets its mean, sample standard deviation (zero for a single record),
    min and max. ``distance_per_unit_time`` is the quotient of the aggregates,
    mean total distance over mean execution time, not the mean of per-run
    quotients.
    """
    groups: dict[str, list[RunRecord]] = {}
    for record in records:
        if record.status == "ok":
            groups.setdefault(record.algorithm, []).append(record)
    rows = []
    for algorithm in sorted(groups):
        row = {"algorithm": algorithm}
        for metric in _SUMMARIZED:
            values = [getattr(r, metric) for r in groups[algorithm]]
            n = len(values)
            mean = sum(values) / n
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
            row.update({f"{metric}_mean": mean, f"{metric}_std": std,
                        f"{metric}_min": min(values), f"{metric}_max": max(values)})
        row["distance_per_unit_time"] = distance_per_unit_time(row["total_distance_mean"],
                                                               row["execution_time_mean"])
        rows.append(row)
    return rows


def write_summary_csv(rows: list[dict], path) -> Path:
    """Write :func:`summarize`'s rows to ``path`` as CSV under a ``SUMMARY_COLUMNS`` header.

    Floats are written by ``str``, so they read back exactly.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# rankings


def rank_top3(records) -> dict:
    """The ``rankings.json`` object: the top 3 algorithms of every setting, counted.

    A setting is a (function, dimension, agents, max_iter) tuple; within one,
    successful records are averaged over seeds per algorithm before ranking.
    Categories: longest/shortest mean execution time, and most/least accurate
    by mean |best_fitness - known minimum|. Where no minimum is published the
    accuracy metric falls back to the raw best fitness (ascending = more
    accurate). Ties break by algorithm name.

    Returns ``{"global_counts": {category: {algorithm: count}}, "per_setting":
    [{"function", "dimension", "agents", "max_iter", category: [algorithm, ...]}]}``
    with settings in sorted order and each category's counts keyed in name
    order. A global count sums per-setting appearances, so it is bounded by
    the number of settings.
    """
    buckets: dict[tuple, dict[str, list[RunRecord]]] = {}
    for record in records:
        if record.status != "ok":
            continue
        key = (record.function, record.dimension, record.agents, record.max_iter)
        buckets.setdefault(key, {}).setdefault(record.algorithm, []).append(record)

    per_setting = []
    counts: dict[str, dict[str, int]] = {c: {} for c in CATEGORIES}
    for key in sorted(buckets):
        known, _ = known_minimum(key[0], key[1])
        times = {}
        errors = {}
        for algorithm, bucket in buckets[key].items():
            times[algorithm] = sum(r.execution_time for r in bucket) / len(bucket)
            if known is None:
                errors[algorithm] = sum(r.best_fitness for r in bucket) / len(bucket)
            else:
                errors[algorithm] = sum(abs(r.best_fitness - known) for r in bucket) / len(bucket)
        tops = {
            "longest_time": sorted(times, key=lambda a: (-times[a], a))[:3],
            "shortest_time": sorted(times, key=lambda a: (times[a], a))[:3],
            "most_accurate": sorted(errors, key=lambda a: (errors[a], a))[:3],
            "least_accurate": sorted(errors, key=lambda a: (-errors[a], a))[:3],
        }
        per_setting.append({"function": key[0], "dimension": key[1], "agents": key[2],
                            "max_iter": key[3], **tops})
        for category, names in tops.items():
            for algorithm in names:
                counts[category][algorithm] = counts[category].get(algorithm, 0) + 1
    return {"global_counts": {c: dict(sorted(v.items())) for c, v in counts.items()},
            "per_setting": per_setting}


# ---------------------------------------------------------------------------
# presets and config mappings


def _preset(functions, dimensions):
    return {
        "algorithms": list(optimizer_names()),
        "functions": functions,
        "dimensions": dimensions,
        "agent_counts": [10, 50, 100],
        "iteration_counts": [100, 1000, 3000],
    }


PRESETS: dict[str, dict] = {
    "paper-2d": _preset([f.name for f in list_functions()], [2]),
    "paper-hd": _preset([f.name for f in list_functions({"scalable"})], [20, 50]),
    "paper-full": _preset([f.name for f in list_functions()], [2, 20, 50]),
}

_GRID_KEYS = {f.name for f in fields(ExperimentGrid)} | {"preset"}


def grid_from_mapping(config: dict) -> ExperimentGrid:
    """Build a grid from a plain mapping (the JSON config file shape).

    The keys are :class:`ExperimentGrid`'s fields plus ``preset``, whose
    defaults explicit keys override. ``functions`` may also take the form
    ``{"filter": [tags]}``. Unknown keys are rejected with their path.
    """
    if not isinstance(config, dict):
        raise ConfigError("grid config must be a JSON object")
    for key in config:
        if key not in _GRID_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    merged = dict(config)
    preset_name = merged.pop("preset", None)
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            raise ConfigError(
                f"preset: unknown preset {preset_name!r}; available: {', '.join(sorted(PRESETS))}"
            )
        merged = {**PRESETS[preset_name], **merged}

    functions = merged.get("functions")
    if isinstance(functions, dict):
        extra = set(functions) - {"filter"}
        if extra:
            raise ConfigError(f"functions.{sorted(extra)[0]}: unknown key")
        tags = functions.get("filter", [])
        if not isinstance(tags, (list, tuple)) or not all(isinstance(t, str) for t in tags):
            raise ConfigError("functions.filter must be a list of tags")
        merged["functions"] = [f.name for f in list_functions(set(tags))]
        if not merged["functions"]:
            raise ConfigError(f"functions.filter {sorted(tags)} matches no functions")
    return ExperimentGrid(**merged)
