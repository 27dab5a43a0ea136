"""Continuous black-box optimization toolkit.

Three layers:

* a registry of 24 benchmark functions with domains, attribute tags, and
  known minima (:func:`get_function`, :func:`evaluate`,
  :func:`validate_registry`),
* the FFO optimizer plus four reference algorithms behind one dispatch
  (:func:`run_optimizer`),
* an experiment harness that runs grids, streams CSV results, and aggregates
  summaries and rankings (:func:`run_grid`, :func:`summarize`,
  :func:`rank_top3`).

Everything is deterministic given a seed; the docstrings of the step
generators in :mod:`ember.baselines` state the exact draw-order contracts.
"""

from .baselines import (
    PARAM_DEFAULTS,
    OptimizerSpec,
    optimizer_names,
    run_optimizer,
)
from .errors import (
    ConfigError,
    DimensionError,
    EmberError,
    EvaluationError,
    InputError,
    MetricError,
    UnknownFunctionError,
)
from .functions import (
    BenchmarkFunction,
    DomainBox,
    ValidationRow,
    domain_box,
    evaluate,
    get_function,
    known_minimum,
    list_functions,
    make_objective,
    validate_registry,
)
from .harness import (
    ExperimentGrid,
    PRESETS,
    RunRecord,
    derive_cell_seed,
    distance_per_unit_time,
    export_history,
    grid_from_mapping,
    rank_top3,
    run_grid,
    summarize,
)
from .recording import RunOutcome

__version__ = "0.1.0"

__all__ = [
    "BenchmarkFunction",
    "ConfigError",
    "DimensionError",
    "DomainBox",
    "EmberError",
    "EvaluationError",
    "ExperimentGrid",
    "InputError",
    "MetricError",
    "OptimizerSpec",
    "PARAM_DEFAULTS",
    "PRESETS",
    "RunOutcome",
    "RunRecord",
    "UnknownFunctionError",
    "ValidationRow",
    "derive_cell_seed",
    "distance_per_unit_time",
    "domain_box",
    "evaluate",
    "export_history",
    "get_function",
    "grid_from_mapping",
    "known_minimum",
    "list_functions",
    "make_objective",
    "optimizer_names",
    "rank_top3",
    "run_grid",
    "run_optimizer",
    "summarize",
    "validate_registry",
    "__version__",
]
