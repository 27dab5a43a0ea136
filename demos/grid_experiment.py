"""A small experiment grid, end to end.

Run with:  python3 demos/grid_experiment.py

A grid crosses algorithms, functions, dimensions, population sizes,
iteration budgets, and seeds. Every cell gets its own RNG seed derived from
the grid's master seed and the cell's key, so any cell can be reproduced in
isolation. Results stream to CSV; summaries and rankings are computed from
the records afterwards.
"""

import tempfile
from pathlib import Path

from ember import ExperimentGrid, rank_top3, run_grid, summarize

with tempfile.TemporaryDirectory(prefix="ember_demo_") as tmp:
    workdir = Path(tmp)
    grid = ExperimentGrid(
        algorithms=("ffo", "pso", "sa", "ga", "hs"),
        functions=("sphere", "rastrigin", "booth"),
        dimensions=(2, 20),
        agent_counts=(20,),
        iteration_counts=(100,),
        seeds=(0, 1, 2),
        master_seed=2024,
        output=str(workdir),
        save_histories=True,
    )
    records = run_grid(grid)
    artifacts = sorted(p.relative_to(workdir) for p in workdir.rglob("*.csv"))
    sample = next(workdir.glob("histories/*.csv"))
    head = sample.read_text().splitlines()[:4]

counts = {}
for record in records:
    counts[record.status] = counts.get(record.status, 0) + 1
print(f"ran {len(records)} cells: {counts}")
print("(booth is 2-d only, so its 20-d cells are recorded as skipped,")
print(" keeping the row count equal to the full cartesian product)")
print()

print("per-algorithm summary over successful cells")
print("-" * 72)
print(f"{'algorithm':<10} {'best mean':>12} {'best std':>12} {'time mean':>12} "
      f"{'dist/sec':>12}")
for row in summarize(records):
    print(f"{row.algorithm:<10} {row.best_fitness.mean:>12.4e} "
          f"{row.best_fitness.std:>12.4e} {row.execution_time.mean:>12.4e} "
          f"{row.distance_per_unit_time:>12.4e}")
print()

report = rank_top3(records)
print("global top-3 appearance counts")
print("-" * 72)
for category, tally in report.global_counts.items():
    ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    line = ", ".join(f"{name} x{count}" for name, count in ranked)
    print(f"{category:<16} {line}")
print()

print(f"artifacts written under {workdir} (removed on exit):")
print(f"  results.csv plus {len(artifacts) - 1} history files")
print(f"  {sample.name} starts with: {head}")
