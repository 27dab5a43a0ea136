"""Command-line interface.

Three subcommands::

    ember run       one optimizer on one benchmark function
    ember grid      a full experiment grid from a JSON config file
    ember validate  evaluate every registry function at its known minimum

Exit codes: 0 success, 1 validation or experiment failure, 2 configuration
error (a bad name, value or output path), 3 evaluation error (an objective
returned NaN or infinity). The ``EMBER_SEED`` environment variable, when set,
overrides the master seed of any grid config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .baselines import OptimizerSpec, optimizer_names
from .errors import ConfigError, EmberError, EvaluationError
from .functions import get_function, validate_registry
from .harness import (
    CATEGORIES,
    RunRecord,
    export_history,
    grid_from_mapping,
    rank_top3,
    run_cell,
    run_grid,
    summarize,
    write_summary_csv,
)

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_EVALUATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ember",
        description="Benchmark harness for FFO and reference optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one optimizer on one function")
    run_p.add_argument("--fn", required=True, help="benchmark function name")
    run_p.add_argument("--dim", type=int, default=2, help="problem dimension (default %(default)s)")
    run_p.add_argument("--algo", default="ffo", choices=optimizer_names(),
                       help="optimizer to run (default %(default)s)")
    run_p.add_argument("--agents", type=int, default=OptimizerSpec.num_agents,
                       help="population size (default %(default)s)")
    run_p.add_argument("--iters", type=int, default=OptimizerSpec.max_iter,
                       help="iteration budget (default %(default)s)")
    run_p.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")
    run_p.add_argument("--conditions", choices=("on", "off"), default=None,
                       help="FFO early-termination conditions (default off)")
    run_p.add_argument("--out", default=None,
                       help="write the best-so-far history to this CSV file")

    grid_p = sub.add_parser("grid", help="run an experiment grid from a JSON config")
    grid_p.add_argument("config", help="path to the grid config JSON file")
    grid_p.add_argument("--jobs", type=int, default=None,
                        help="worker processes (overrides the config)")
    grid_p.add_argument("--out", default=None,
                        help="output directory (overrides the config)")

    val_p = sub.add_parser("validate", help="check registry values at known minima")
    val_p.add_argument("--fn", action="append", default=None,
                       help="restrict to this function (repeatable)")
    val_p.add_argument("--tol", type=float, default=None,
                       help="uniform residual tolerance (overrides per-function values)")
    return parser


def cmd_run(args) -> int:
    params = {}
    if args.conditions is not None:
        if args.algo != "ffo":
            raise ConfigError("--conditions only applies to the ffo optimizer")
        params["use_additional_conditions"] = args.conditions == "on"
    if args.out is not None:  # fail before the run when the history has nowhere to go
        out = Path(args.out)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc}") from exc
        if out.is_dir():
            raise ConfigError(f"cannot write --out {out}: it is a directory")
    record, outcome = run_cell(RunRecord(args.algo, args.fn, args.dim, args.agents, args.iters,
                                         args.seed, derived_seed=args.seed), params)
    print(f"function: {record.function}")
    print(f"dimension: {record.dimension}")
    print(f"algorithm: {record.algorithm}")
    print(f"seed: {record.seed}")
    print(f"best_fitness: {record.best_fitness}")
    print(f"best_agent: {outcome.best_agent.tolist()}")
    print(f"iterations_run: {record.iterations_run}")
    print(f"evaluations: {record.evaluations}")
    print(f"execution_time_s: {record.execution_time}")
    print(f"total_distance: {record.total_distance}")
    print(f"distance_per_unit_time: {record.distance_per_unit_time}")
    if args.out is not None:
        path = export_history(outcome.fitness_history, args.out)
        print(f"history: {path}")
    return EXIT_OK


def cmd_grid(args) -> int:
    config_path = Path(args.config)
    try:
        text = config_path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
    grid = grid_from_mapping(mapping)

    overrides = {"output": grid.output or "ember_results" if args.out is None else args.out,
                 "jobs": grid.jobs if args.jobs is None else args.jobs}
    env_seed = os.environ.get("EMBER_SEED")
    if env_seed is not None:
        try:
            overrides["master_seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"EMBER_SEED must be an integer, got {env_seed!r}") from exc
    grid = replace(grid, **overrides)  # checks the grid again, with every override at once

    records = run_grid(grid)
    out_dir = Path(grid.output)
    write_summary_csv(summarize(records), out_dir / "summary.csv")
    report = rank_top3(records)
    with (out_dir / "rankings.json").open("w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    counts = {status: 0 for status in ("ok", "skipped", "error")}
    for record in records:
        counts[record.status] = counts.get(record.status, 0) + 1
    print(f"cells: {len(records)} total, {counts['ok']} ok, "
          f"{counts['skipped']} skipped, {counts['error']} error")
    print(f"output: {out_dir}")
    for category in CATEGORIES:
        ranked = sorted(report["global_counts"][category].items(), key=lambda kv: (-kv[1], kv[0]))
        top = ", ".join(f"{name} ({count})" for name, count in ranked[:3]) or "none"
        print(f"top3 {category}: {top}")
    if counts["ok"] == 0:
        print("no cell completed successfully", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_validate(args) -> int:
    functions = None
    if args.fn:
        functions = {name: get_function(name) for name in args.fn}
    rows = validate_registry(functions=functions, tolerance=args.tol)
    width = max(len(r.name) for r in rows)
    failed = 0
    for row in rows:
        if row.status == "skipped":
            print(f"{row.name:<{width}} dim={row.dimension:<3} skipped ({row.detail})")
            continue
        detail = f" ({row.detail})" if row.detail else ""
        print(f"{row.name:<{width}} dim={row.dimension:<3} residual={row.residual:.3e} "
              f"tol={row.tolerance:.3e} {row.status}{detail}")
        if not row.ok:
            failed += 1
    checked = sum(1 for r in rows if r.status != "skipped")
    print(f"checked {checked} function/dimension pairs, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_FAILURE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"run": cmd_run, "grid": cmd_grid, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except EmberError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except BrokenPipeError:  # stdout's reader has gone, e.g. `| head`: not a configuration error
        # point stdout at devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAILURE
    except OSError as exc:  # an output path that cannot be written, e.g. --out naming a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
