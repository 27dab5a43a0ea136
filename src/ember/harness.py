"""Experiment harness: grids of runs, result records, summaries, rankings.

A grid is the cartesian product of algorithms, functions, dimensions, agent
counts, iteration budgets, and seed labels. Cells whose function does not
carry the ``scalable`` tag are skipped at dimensions other than 2 (recorded,
not silently dropped). Each executed cell derives its RNG seed from the grid
master seed and the cell key, so any subset of a grid reproduces exactly.

Results stream to ``<output>/results.csv`` in enumeration order with the
fixed column set::

    algorithm,function,dimension,agents,max_iter,seed,best_fitness,
    execution_time_s,total_distance,distance_per_unit_time,iterations_run,status

Optional per-run histories go to ``<output>/histories/<cell-key>.csv``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .baselines import OptimizerSpec, optimizer_names, resolve_params, run_optimizer
from .errors import ConfigError, EmberError, MetricError
from .functions import domain_box, get_function, known_minimum, list_functions, make_objective

__all__ = [
    "CATEGORIES",
    "ExperimentGrid",
    "MetricStats",
    "PRESETS",
    "RankingReport",
    "RunRecord",
    "SummaryRow",
    "RESULT_COLUMNS",
    "derive_cell_seed",
    "distance_per_unit_time",
    "export_history",
    "grid_from_mapping",
    "rank_top3",
    "run_grid",
    "summarize",
    "write_history",
]

RESULT_COLUMNS = (
    "algorithm",
    "function",
    "dimension",
    "agents",
    "max_iter",
    "seed",
    "best_fitness",
    "execution_time_s",
    "total_distance",
    "distance_per_unit_time",
    "iterations_run",
    "status",
)

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


def _cell_key(algorithm, function, dimension, agents, max_iter, seed) -> str:
    # Seed-bearing: derive_cell_seed hashes this string, so it must not change.
    return f"{algorithm}__{function}__d{dimension}__a{agents}__i{max_iter}__s{seed}"


@dataclass
class RunRecord:
    """One grid cell's outcome. Metric fields are None for skips and errors."""

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
    status: str = "ok"
    message: str = ""
    history_path: str | None = None
    history: list[float] | None = field(default=None, repr=False)

    @property
    def cell_key(self) -> str:
        return _cell_key(
            self.algorithm, self.function, self.dimension, self.agents, self.max_iter, self.seed
        )

    def csv_row(self) -> list[str]:
        values = (
            self.algorithm,
            self.function,
            self.dimension,
            self.agents,
            self.max_iter,
            self.seed,
            self.best_fitness,
            self.execution_time,
            self.total_distance,
            self.distance_per_unit_time,
            self.iterations_run,
            self.status,
        )
        return ["" if v is None else str(v) for v in values]


@dataclass(frozen=True)
class ExperimentGrid:
    """Full experiment description; see the module docstring for semantics."""

    algorithms: tuple[str, ...]
    functions: tuple[str, ...]
    dimensions: tuple[int, ...] = (2,)
    agent_counts: tuple[int, ...] = (100,)
    iteration_counts: tuple[int, ...] = (500,)
    seeds: tuple[int, ...] = (0,)
    master_seed: int = 0
    params: dict = field(default_factory=dict)
    output: str | None = None
    save_histories: bool = False
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "dimensions", tuple(int(d) for d in self.dimensions))
        object.__setattr__(self, "agent_counts", tuple(int(a) for a in self.agent_counts))
        object.__setattr__(self, "iteration_counts", tuple(int(i) for i in self.iteration_counts))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        known = set(optimizer_names())
        for name in self.algorithms:
            if name not in known:
                raise ConfigError(f"unknown optimizer {name!r} in grid")
        for name in self.functions:
            get_function(name)
        for label, values, floor in (
            ("algorithms", self.algorithms, None),
            ("functions", self.functions, None),
            ("dimensions", self.dimensions, 1),
            ("agent_counts", self.agent_counts, 1),
            ("iteration_counts", self.iteration_counts, 1),
            ("seeds", self.seeds, 0),
        ):
            if not values:
                raise ConfigError(f"grid {label} must be non-empty")
            if floor is not None and any(v < floor for v in values):
                raise ConfigError(f"grid {label} must all be >= {floor}, got {values}")
        for algo, overrides in self.params.items():
            if algo not in known:
                raise ConfigError(f"params.{algo}: unknown optimizer")
            try:
                # the smallest population bounds what GA's elitism may be
                resolve_params(algo, overrides, min(self.agent_counts))
            except ConfigError as exc:
                raise ConfigError(f"params.{algo}.{exc}") from None
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class _Cell:
    algorithm: str
    function: str
    dimension: int
    agents: int
    max_iter: int
    seed: int
    derived_seed: int
    params: dict
    collect_history: bool
    accepted: bool

    def record(self, **outcome) -> RunRecord:
        return RunRecord(self.algorithm, self.function, self.dimension, self.agents,
                         self.max_iter, self.seed, **outcome)

    def failed(self, exc: Exception) -> RunRecord:
        return self.record(status="error", message=f"{type(exc).__name__}: {exc}")


def _cell_accepted(function_name: str, dimension: int) -> bool:
    # High-dimensional regimes pair only with functions tagged scalable; the
    # direct API is less strict, this mirrors the published experiment design.
    if dimension == 2:
        return True
    return "scalable" in get_function(function_name).attributes


def enumerate_cells(grid: ExperimentGrid) -> list[_Cell]:
    """All grid cells in deterministic enumeration order."""
    cells = []
    for algo in grid.algorithms:
        overrides = dict(grid.params.get(algo, {}))
        for fn in grid.functions:
            for dim in grid.dimensions:
                accepted = _cell_accepted(fn, dim)
                for agents in grid.agent_counts:
                    for iters in grid.iteration_counts:
                        for seed in grid.seeds:
                            key = _cell_key(algo, fn, dim, agents, iters, seed)
                            cells.append(
                                _Cell(
                                    algorithm=algo,
                                    function=fn,
                                    dimension=dim,
                                    agents=agents,
                                    max_iter=iters,
                                    seed=seed,
                                    derived_seed=derive_cell_seed(grid.master_seed, key),
                                    params=overrides,
                                    collect_history=grid.save_histories,
                                    accepted=accepted,
                                )
                            )
    return cells


def _execute_cell(cell: _Cell) -> RunRecord:
    try:
        objective = make_objective(cell.function, cell.dimension)
        domain = domain_box(cell.function, cell.dimension)
        spec = OptimizerSpec(
            name=cell.algorithm,
            params=cell.params,
            max_iter=cell.max_iter,
            num_agents=cell.agents,
            seed=cell.derived_seed,
        )
        outcome = run_optimizer(spec, objective, domain)
        speed = distance_per_unit_time(outcome.total_distance, outcome.execution_time)
    except Exception as exc:  # a failing cell must not abort the grid
        return cell.failed(exc)
    return cell.record(
        best_fitness=outcome.best_fitness,
        execution_time=outcome.execution_time,
        total_distance=outcome.total_distance,
        distance_per_unit_time=speed,
        iterations_run=outcome.iterations_run,
        history=list(outcome.fitness_history) if cell.collect_history else None,
    )


def _skip_record(cell: _Cell) -> RunRecord:
    return cell.record(
        status="skipped",
        message=f"{cell.function} is not tagged scalable; dimension {cell.dimension} skipped",
    )


def run_grid(grid: ExperimentGrid) -> list[RunRecord]:
    """Execute a grid and return its records in enumeration order.

    With an output path, rows stream to ``results.csv`` as cells finish (in
    enumeration order, so reruns are byte-identical) and histories are written
    when requested. Failing cells become ``status=error`` records, and so do
    the cells lost when a worker process dies (a broken pool fails every cell
    still queued on it); the grid always runs to completion.
    """
    cells = enumerate_cells(grid)
    out_dir = Path(grid.output) if grid.output else None
    histories_dir = None
    writer = None
    handle = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if grid.save_histories:
            histories_dir = out_dir / "histories"
            histories_dir.mkdir(exist_ok=True)
        handle = (out_dir / "results.csv").open("w", newline="")
        writer = csv.writer(handle)
        writer.writerow(RESULT_COLUMNS)

    records: list[RunRecord] = []
    pending = {}
    executor = None
    try:
        if grid.jobs > 1:
            executor = ProcessPoolExecutor(max_workers=grid.jobs)
            for index, cell in enumerate(cells):
                if cell.accepted:
                    pending[index] = executor.submit(_execute_cell, cell)
        for index, cell in enumerate(cells):
            if not cell.accepted:
                record = _skip_record(cell)
            elif executor is not None:
                try:
                    record = pending[index].result()
                except Exception as exc:  # e.g. BrokenProcessPool after a worker died
                    record = cell.failed(exc)
            else:
                record = _execute_cell(cell)
            if record.history is not None and histories_dir is not None:
                record.history_path = str(export_history(record, histories_dir))
            if writer is not None:
                writer.writerow(record.csv_row())
                handle.flush()
            records.append(record)
    finally:
        if executor is not None:
            executor.shutdown()
        if handle is not None:
            handle.close()
    return records


def export_history(record: RunRecord, directory) -> Path:
    """Write one run's best-so-far history as ``<cell-key>.csv``.

    Rows are ``iteration,best_fitness`` with iterations numbered from 1; an
    empty history produces a header-only file.
    """
    if record.history is None:
        raise ConfigError(f"record {record.cell_key} carries no history to export")
    return write_history(record.history, Path(directory) / f"{record.cell_key}.csv")


def write_history(history, path) -> Path:
    """Write a best-so-far history to ``path`` as ``iteration,best_fitness`` rows.

    Iterations are numbered from 1; missing parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("iteration", "best_fitness"))
        for i, value in enumerate(history, start=1):
            writer.writerow((i, str(value)))
    return path


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class MetricStats:
    mean: float
    std: float
    min: float
    max: float


def _stats(values: list[float]) -> MetricStats:
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0
    return MetricStats(mean=mean, std=std, min=min(values), max=max(values))


@dataclass(frozen=True)
class SummaryRow:
    """Per-algorithm aggregate over successful records.

    ``distance_per_unit_time`` is the quotient of the aggregates,
    mean total distance over mean execution time, not the mean of
    per-run quotients.
    """

    algorithm: str
    best_fitness: MetricStats
    execution_time: MetricStats
    total_distance: MetricStats
    distance_per_unit_time: float


def summarize(records, dimensions=None) -> list[SummaryRow]:
    """Aggregate successful records per algorithm, optionally filtered.

    ``dimensions`` restricts the aggregation to a set of dimensions. Rows are
    sorted by algorithm name; single-record groups report a std of zero.
    """
    if dimensions is not None:
        dimensions = set(dimensions)
    groups: dict[str, list[RunRecord]] = {}
    for record in records:
        if record.status != "ok":
            continue
        if dimensions is not None and record.dimension not in dimensions:
            continue
        groups.setdefault(record.algorithm, []).append(record)
    rows = []
    for algorithm in sorted(groups):
        bucket = groups[algorithm]
        time_stats = _stats([r.execution_time for r in bucket])
        distance_stats = _stats([r.total_distance for r in bucket])
        rows.append(
            SummaryRow(
                algorithm=algorithm,
                best_fitness=_stats([r.best_fitness for r in bucket]),
                execution_time=time_stats,
                total_distance=distance_stats,
                distance_per_unit_time=distance_per_unit_time(
                    distance_stats.mean, time_stats.mean
                ),
            )
        )
    return rows


SUMMARY_COLUMNS = (
    "algorithm",
    "best_fitness_mean", "best_fitness_std", "best_fitness_min", "best_fitness_max",
    "execution_time_mean", "execution_time_std", "execution_time_min", "execution_time_max",
    "total_distance_mean", "total_distance_std", "total_distance_min", "total_distance_max",
    "distance_per_unit_time",
)


def write_summary_csv(rows: list[SummaryRow], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow(
                [row.algorithm]
                + [str(v) for stats in (row.best_fitness, row.execution_time, row.total_distance)
                   for v in (stats.mean, stats.std, stats.min, stats.max)]
                + [str(row.distance_per_unit_time)]
            )
    return path


# ---------------------------------------------------------------------------
# rankings


@dataclass(frozen=True)
class RankingReport:
    """Top-3 appearances per setting and their global frequencies.

    A setting is a (function, dimension, agents, max_iter) tuple; within one,
    records are averaged over seeds per algorithm before ranking. Ties break
    by algorithm name.
    """

    per_setting: dict
    global_counts: dict

    def as_dict(self) -> dict:
        return {
            "global_counts": {c: dict(sorted(v.items())) for c, v in self.global_counts.items()},
            "per_setting": [
                {
                    "function": key[0],
                    "dimension": key[1],
                    "agents": key[2],
                    "max_iter": key[3],
                    **{category: list(tops[category]) for category in CATEGORIES},
                }
                for key, tops in sorted(self.per_setting.items())
            ],
        }


def _registry_minimum(function: str, dimension: int) -> float | None:
    try:
        value, _ = known_minimum(function, dimension)
    except EmberError:
        return None
    return value


def rank_top3(records, known_lookup=_registry_minimum) -> RankingReport:
    """Rank algorithms within every setting and count top-3 appearances.

    Categories: longest/shortest mean execution time, and most/least accurate
    by mean |best_fitness - known minimum|. Where no minimum is published the
    accuracy metric falls back to the raw best fitness (ascending = more
    accurate). Global counts sum per-setting appearances, so an algorithm's
    count is bounded by the number of settings.
    """
    buckets: dict[tuple, dict[str, list[RunRecord]]] = {}
    for record in records:
        if record.status != "ok":
            continue
        key = (record.function, record.dimension, record.agents, record.max_iter)
        buckets.setdefault(key, {}).setdefault(record.algorithm, []).append(record)

    per_setting: dict[tuple, dict[str, list[str]]] = {}
    global_counts: dict[str, dict[str, int]] = {c: {} for c in CATEGORIES}
    for key in sorted(buckets):
        by_algo = buckets[key]
        known = known_lookup(key[0], key[1])
        times = {}
        errors = {}
        for algorithm, bucket in by_algo.items():
            times[algorithm] = sum(r.execution_time for r in bucket) / len(bucket)
            if known is None:
                errors[algorithm] = sum(r.best_fitness for r in bucket) / len(bucket)
            else:
                errors[algorithm] = sum(abs(r.best_fitness - known) for r in bucket) / len(bucket)
        tops = {
            "longest_time": [a for a in sorted(times, key=lambda a: (-times[a], a))[:3]],
            "shortest_time": [a for a in sorted(times, key=lambda a: (times[a], a))[:3]],
            "most_accurate": [a for a in sorted(errors, key=lambda a: (errors[a], a))[:3]],
            "least_accurate": [a for a in sorted(errors, key=lambda a: (-errors[a], a))[:3]],
        }
        per_setting[key] = tops
        for category in CATEGORIES:
            for algorithm in tops[category]:
                counts = global_counts[category]
                counts[algorithm] = counts.get(algorithm, 0) + 1
    return RankingReport(per_setting=per_setting, global_counts=global_counts)


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

_GRID_KEYS = {
    "preset",
    "algorithms",
    "functions",
    "dimensions",
    "agent_counts",
    "iteration_counts",
    "seeds",
    "master_seed",
    "params",
    "output",
    "save_histories",
    "jobs",
}


def grid_from_mapping(config: dict) -> ExperimentGrid:
    """Build a grid from a plain mapping (the JSON config file shape).

    A ``preset`` key supplies defaults that explicit keys override.
    ``functions`` is either a list of names or ``{"filter": [tags]}``.
    Unknown keys are rejected with their path.
    """
    if not isinstance(config, dict):
        raise ConfigError("grid config must be a JSON object")
    for key in config:
        if key not in _GRID_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    merged: dict = {}
    preset_name = config.get("preset")
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"preset: unknown preset {preset_name!r}; available: {', '.join(sorted(PRESETS))}"
            )
        merged.update(PRESETS[preset_name])
    for key, value in config.items():
        if key != "preset":
            merged[key] = value

    functions = merged.get("functions")
    if functions is None:
        functions = [f.name for f in list_functions()]
    elif isinstance(functions, dict):
        extra = set(functions) - {"filter"}
        if extra:
            raise ConfigError(f"functions.{sorted(extra)[0]}: unknown key")
        tags = functions.get("filter", [])
        if not isinstance(tags, (list, tuple)):
            raise ConfigError("functions.filter must be a list of tags")
        functions = [f.name for f in list_functions(set(tags))]
        if not functions:
            raise ConfigError(f"functions.filter {sorted(tags)} matches no functions")
    elif not isinstance(functions, (list, tuple)):
        raise ConfigError("functions must be a list of names or {'filter': [tags]}")

    params = merged.get("params", {})
    if not isinstance(params, dict) or any(not isinstance(v, dict) for v in params.values()):
        raise ConfigError("params must map optimizer names to parameter objects")

    return ExperimentGrid(
        algorithms=tuple(merged.get("algorithms", optimizer_names())),
        functions=tuple(functions),
        dimensions=tuple(merged.get("dimensions", [2])),
        agent_counts=tuple(merged.get("agent_counts", [100])),
        iteration_counts=tuple(merged.get("iteration_counts", [500])),
        seeds=tuple(merged.get("seeds", [0])),
        master_seed=int(merged.get("master_seed", 0)),
        params=params,
        output=merged.get("output"),
        save_histories=bool(merged.get("save_histories", False)),
        jobs=int(merged.get("jobs", 1)),
    )
