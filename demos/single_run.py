"""One FFO run, inspected closely.

Run with:  python3 demos/single_run.py

FFO evolves a population of agents through crossover, an annealing local
search, and a stagnation perturbation that pulls agents toward the global
best when progress stalls. This script runs it once on the 2-d rastrigin
surface and unpacks what the outcome object carries.
"""

import numpy as np

from ember import OptimizerSpec, domain_box, make_objective, run_optimizer

# allow stopping on stagnation or on reaching the target
params = {"use_additional_conditions": True, "target_fitness": 1e-8}
spec = OptimizerSpec("ffo", params, 300, 60, 42)  # 300 iterations, 60 agents, seed 42
objective = make_objective("rastrigin", 2)
domain = domain_box("rastrigin", 2)

outcome = run_optimizer(spec, objective, domain)

print("run outcome")
print("-" * 50)
print(f"best fitness     : {outcome.best_fitness:.6e}")
print(f"best agent       : {np.array2string(outcome.best_agent, precision=6)}")
print(f"iterations run   : {outcome.iterations_run} of {spec.max_iter} allowed")
print(f"wall time        : {outcome.execution_time * 1e3:.1f} ms")
print(f"distance covered : {outcome.total_distance:.1f}")

history = outcome.fitness_history
print()
print("convergence (best-so-far, sampled every 25 iterations)")
print("-" * 50)
for i in range(0, len(history), 25):
    bar = "#" * max(1, int(40 * history[i] / max(history[0], 1e-12)))
    print(f"iter {i + 1:>4}  {history[i]:>12.4e}  {bar}")
print(f"iter {len(history):>4}  {history[-1]:>12.4e}")

# the history is a contract, not a convenience: it never increases, and its
# last entry is the reported best
assert all(b <= a for a, b in zip(history, history[1:]))
assert history[-1] == outcome.best_fitness
print()
print("history is non-increasing and ends at the reported best fitness")

# a fresh run with the same seed reproduces everything bit for bit
again = run_optimizer(spec, objective, domain)
assert again.best_fitness == outcome.best_fitness
assert again.fitness_history == outcome.fitness_history
print("an identically seeded rerun reproduced the run exactly")
