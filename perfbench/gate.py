"""Correctness gate over the passes of one benchmark run.

Each pass reports its result rows (the ``results.csv`` columns as strings)
and, for a CLI pass, what it found in its output directory. A cell fails the
gate in a pass when any of these holds:

* it did not end ``ok``;
* its ``best_fitness``, ``total_distance``, ``iterations_run`` or evaluation
  count differ from the reference pass (the first traced pass, run at
  ``jobs=1``), bit for bit;
* its ``best_fitness`` is below the published minimum by more than the
  registry's own tolerance;
* its row, its history file, its algorithm's ``summary.csv`` row or its
  setting's ``rankings.json`` entry is missing or incomplete.

The expected file layouts are the output contract documented in the
project README, stated here again so that the check does not take its
expectations from the code it checks.
"""

from __future__ import annotations

import hashlib
import math

RESULT_COLUMNS = (
    "algorithm", "function", "dimension", "agents", "max_iter", "seed",
    "best_fitness", "execution_time_s", "total_distance", "distance_per_unit_time",
    "iterations_run", "status",
)
TIMING_COLUMNS = ("execution_time_s", "distance_per_unit_time")
COMPARED_COLUMNS = ("status", "best_fitness", "total_distance", "iterations_run")
SUMMARY_WIDTH = 14  # algorithm + 3 metrics x (mean, std, min, max) + distance per unit time
CATEGORIES = ("longest_time", "shortest_time", "most_accurate", "least_accurate")


def cell_key(row: dict) -> str:
    return (
        f"{row['algorithm']}__{row['function']}__d{row['dimension']}"
        f"__a{row['agents']}__i{row['max_iter']}__s{row['seed']}"
    )


def rows_by_key(columns, rows) -> dict[str, dict]:
    table = {}
    for values in rows:
        row = dict(zip(columns, values))
        table[cell_key(row)] = row
    return table


def results_digest(columns, rows) -> str:
    """sha256 over the non-timing result columns, in enumeration order."""
    h = hashlib.sha256()
    kept = [c for c in columns if c not in TIMING_COLUMNS]
    for values in rows:
        row = dict(zip(columns, values))
        h.update(("|".join(row[c] for c in kept) + "\n").encode())
    return h.hexdigest()


def _output_problems(result: dict, table: dict[str, dict], expected: list[str]) -> dict[str, str]:
    """Cells whose CLI outputs are missing or incomplete, with the reason."""
    problems: dict[str, str] = {}
    if tuple(result["columns"]) != RESULT_COLUMNS:
        return {key: "results.csv header differs from the documented columns" for key in expected}
    for key in expected:
        if key not in table:
            problems[key] = "row missing from results.csv"
    ok = {k: r for k, r in table.items() if r["status"] == "ok"}
    for key, row in ok.items():
        history = result["histories"].get(key)
        if history is None:
            problems.setdefault(key, "history file missing")
        elif history["rows"] < 1 or history["last"] != row["best_fitness"]:
            problems.setdefault(key, "history file incomplete")

    summary = {}
    for values in result["summary"]:
        if len(values) == SUMMARY_WIDTH and all(_finite(v) for v in values[1:]):
            summary[values[0]] = values
    settings: dict[tuple, set] = {}
    for key, row in ok.items():
        if row["algorithm"] not in summary:
            problems.setdefault(key, "summary.csv row missing or incomplete")
        setting = (row["function"], int(row["dimension"]), int(row["agents"]), int(row["max_iter"]))
        settings.setdefault(setting, set()).add(row["algorithm"])

    rankings = result["rankings"]
    listed = {}
    for entry in rankings.get("per_setting", []):
        setting = (entry["function"], entry["dimension"], entry["agents"], entry["max_iter"])
        listed[setting] = entry
    counts_ok = set(rankings.get("global_counts", {})) == set(CATEGORIES)
    for key, row in ok.items():
        setting = (row["function"], int(row["dimension"]), int(row["agents"]), int(row["max_iter"]))
        entry = listed.get(setting)
        want = min(3, len(settings[setting]))
        if not counts_ok or entry is None or any(
            len(entry.get(c, ())) != want for c in CATEGORIES
        ):
            problems.setdefault(key, "rankings.json entry missing or incomplete")
    return problems


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check(passes: list[dict], reference: dict) -> dict:
    """Gate every pass against the reference pass.

    ``passes`` holds every pass of the run, the reference included. Each pass
    is ``{"columns", "rows", "minima", "evals"?, "histories"?, "summary"?,
    "rankings"?}``. ``minima`` maps the key of every cell the pass should
    have run to ``(published minimum or None, tolerance)``; ``evals`` maps
    cell keys to points evaluated (traced passes only) and the last three
    are present for CLI passes.

    Returns ``{"attempted", "failed", "problems", "per_pass"}`` where
    ``attempted`` counts accepted cells over all passes, ``problems`` lists
    ``(pass index, cell key, reason)`` for each failed cell and ``per_pass``
    holds ``(attempted, failed)`` for each pass.
    """
    ref_table = rows_by_key(reference["columns"], reference["rows"])
    ref_hist = reference.get("histories", {})
    ref_evals = reference.get("evals", {})
    per_pass = []
    problems = []
    for index, result in enumerate(passes):
        minima = result["minima"]
        expected = sorted(minima)
        table = rows_by_key(result["columns"], result["rows"])
        reasons: dict[str, str] = {}
        if "histories" in result:
            reasons.update(_output_problems(result, table, expected))
        for key in expected:
            row = table.get(key)
            if key in reasons or row is None:
                reasons.setdefault(key, "row missing")
                continue
            if row["status"] != "ok":
                reasons[key] = f"status {row['status']}"
                continue
            ref = ref_table.get(key)
            if ref is None or any(row[c] != ref[c] for c in COMPARED_COLUMNS):
                reasons[key] = "result differs from the reference pass"
                continue
            hist = result.get("histories", {}).get(key)
            if hist is not None and hist["sha"] != ref_hist.get(key, {}).get("sha"):
                reasons[key] = "history differs from the reference pass"
                continue
            evals = result.get("evals", {}).get(key)
            if evals is not None and evals != ref_evals.get(key):
                reasons[key] = "evaluation count differs from the reference pass"
                continue
            minimum, tolerance = minima[key]
            if minimum is not None and float(row["best_fitness"]) < minimum - tolerance:
                reasons[key] = f"best_fitness below the published minimum {minimum}"
        per_pass.append((len(expected), len(reasons)))
        problems.extend((index, key, reason) for key, reason in sorted(reasons.items()))
    return {
        "attempted": sum(a for a, _ in per_pass),
        "failed": len(problems),
        "problems": problems,
        "per_pass": per_pass,
    }
