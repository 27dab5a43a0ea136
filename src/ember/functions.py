"""Benchmark function registry.

Twenty-four continuous test functions for minimization, each carrying its
search domain, the dimensions it accepts, attribute tags, and published
optimum. One table row per function holds all of it; the registry is built
from the table at import. Evaluators are plain numpy. Each takes a float
array of shape ``(..., d)`` and reduces over the last axis: a single point of
shape ``(d,)`` gives a scalar, a batch of shape ``(n, d)`` gives ``n`` values,
each bit for bit the value of that row alone. That is the contract of every
objective (:class:`~ember.recording.Evaluator`), so the optimizers evaluate a
whole population in one call.

An entry's ``dimensions`` field is the range of dimensions ``evaluate``
accepts, ``(smallest, largest or None)``: any n (``ANY_N``, functions with an
n-dimensional closed form), any n >= 2 (``N_FROM_2``, the five expanded
two-variable kernels) or n = 2 only (``N_IS_2``, the remaining eight).
"Scalable" names only the attribute tag, which marks the twelve functions
conventionally used for high-dimensional comparisons; experiment grids pair
dimensions above 2 with tagged functions only. alpine, michalewicz, rastrigin
and styblinski_tang accept any n yet do not carry the tag.

The five expanded kernels (easom, eggholder, goldstein_price, schaffer_n2,
expanded_schaffer_f6) keep their plain two-variable form at n = 2 and use the
cyclic composition F(x) = sum_i f2(x_i, x_{i+1 mod n}) at n > 2.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionError, InputError, UnknownFunctionError

__all__ = [
    "BenchmarkFunction",
    "DomainBox",
    "ValidationRow",
    "domain_box",
    "evaluate",
    "get_function",
    "known_minimum",
    "list_functions",
    "make_objective",
    "validate_registry",
]


def exact_int(value) -> int:
    """``value`` as an int. A bool or a number with a fraction raises ValueError."""
    number = int(value)
    if isinstance(value, (bool, np.bool_)) or isinstance(value, numbers.Real) and number != value:
        raise ValueError
    return number


def _dimension(n) -> int:
    try:
        return exact_int(n)
    except (TypeError, ValueError, OverflowError):
        raise DimensionError(f"dimension must be an integer, got {n!r}") from None


@dataclass(frozen=True)
class DomainBox:
    """A hypercube search region: the same [lower, upper] on every coordinate."""

    lower: float
    upper: float
    dimension: int

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InputError("domain bounds must be finite")
        if self.lower >= self.upper:
            raise InputError(f"domain lower bound {self.lower} must be below upper bound {self.upper}")
        object.__setattr__(self, "dimension", _dimension(self.dimension))
        if self.dimension < 1:
            raise DimensionError(f"dimension must be at least 1, got {self.dimension}")


@dataclass(frozen=True)
class BenchmarkFunction:
    """Registry entry: evaluator plus everything known about the function."""

    name: str
    evaluator: Callable[[np.ndarray], float]
    domain: tuple[float, float]
    dimensions: tuple[int, int | None]
    attributes: frozenset[str]
    minimum: float | None
    minimum_rule: str
    minimizer: float | tuple[tuple[float, float], ...]
    tolerance: float

    def min_value(self, n: int) -> float | None:
        """The published minimum value at dimension n, None where none is published."""
        if self.minimum_rule == PER_COORDINATE or (self.minimum_rule == CYCLIC and n > 2):
            return self.minimum * n
        if self.minimum_rule == AT_2 and n != 2:
            return None
        return self.minimum

    def minimizers(self, n: int) -> list[np.ndarray]:
        """The published minimizers at dimension n, as new arrays on every call."""
        if isinstance(self.minimizer, tuple):
            return [np.array(p, dtype=float) for p in self.minimizer] if n == 2 else []
        return [np.full(n, self.minimizer)]

    def tolerance_at(self, n: int) -> float:
        return self.tolerance * (n if self.minimum_rule == PER_COORDINATE else 1)

    def accepts_dimension(self, n: int) -> bool:
        smallest, largest = self.dimensions
        return smallest <= n and (largest is None or n <= largest)


# ---------------------------------------------------------------------------
# evaluators
#
# Every evaluator takes an array of shape (..., d), reduces over the last
# axis, and returns one value per point: a scalar for a single point, an
# array of shape (...) for a batch. A batch gives bit for bit the values of
# its rows evaluated one at a time.
#
# One numpy detail shapes the two-variable kernels: a float64 scalar raised to
# a power goes through C ``pow``, while an array ``**`` squares by exact
# product and takes other powers from a vectorized ``pow``; the two differ in
# the last bit for a fraction of inputs. ``np.float_power`` calls C ``pow``
# element by element, so it matches the scalar. Formulas that a single point
# evaluates on scalars therefore take their ``power`` from ``_split``:
# ``operator.pow`` for a point, ``np.float_power`` for a batch.


def _split(x: np.ndarray):
    """The two coordinates of a point or batch, and the power that matches them."""
    if x.ndim == 1:
        return x[0], x[1], operator.pow
    return x[..., 0], x[..., 1], np.float_power


def _pair_easom(a, b, power):
    return -np.cos(a) * np.cos(b) * np.exp(-(power(a - np.pi, 2) + power(b - np.pi, 2)))


def _pair_eggholder(a, b, power):
    return -(b + 47.0) * np.sin(np.sqrt(np.abs(0.5 * a + b + 47.0))) - a * np.sin(
        np.sqrt(np.abs(a - (b + 47.0)))
    )


def _pair_goldstein_price(a, b, power):
    part1 = 1.0 + power(a + b + 1.0, 2) * (
        19.0 - 14.0 * a + 3.0 * power(a, 2) - 14.0 * b + 6.0 * a * b + 3.0 * power(b, 2)
    )
    part2 = 30.0 + power(2.0 * a - 3.0 * b, 2) * (
        18.0 - 32.0 * a + 12.0 * power(a, 2) + 48.0 * b - 36.0 * a * b + 27.0 * power(b, 2)
    )
    return part1 * part2


def _pair_schaffer_n2(a, b, power):
    return 0.5 + (power(np.sin(power(a, 2) - power(b, 2)), 2) - 0.5) / power(
        1.0 + 0.001 * (power(a, 2) + power(b, 2)), 2
    )


def _pair_schaffer_f6(a, b, power):
    rr = power(a, 2) + power(b, 2)
    return 0.5 + (power(np.sin(np.sqrt(rr)), 2) - 0.5) / power(1.0 + 0.001 * rr, 2)


def _expand_cyclic(pair):
    """Lift a two-variable kernel to n > 2 by summing over the cyclic pairs.

    At n = 2 the kernel sees the two coordinates as a plain pair (``_split``);
    the cyclic sum works on whole coordinate arrays, with array ``**``.
    """

    def wrapped(x: np.ndarray):
        if x.shape[-1] == 2:
            return pair(*_split(x))
        partner = np.concatenate((x[..., 1:], x[..., :1]), axis=-1)  # x_{i+1 mod n}
        return np.add.reduce(pair(x, partner, operator.pow), axis=-1)

    return wrapped


def ackley(x: np.ndarray):
    """Nearly flat outer region with a central funnel; minimum 0 at the origin."""
    n = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.add.reduce(x**2, axis=-1) / n))
        - np.exp(np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / n)
        + 20.0
        + np.e
    )


def alpine(x: np.ndarray):
    """Sum of |x sin x + 0.1 x|; kinked, separable, minimum 0 at the origin."""
    return np.add.reduce(np.abs(x * np.sin(x) + 0.1 * x), axis=-1)


def booth(x: np.ndarray):
    """Smooth quadratic valley; minimum 0 at (1, 3)."""
    a, b, power = _split(x)
    return power(a + 2.0 * b - 7.0, 2) + power(2.0 * a + b - 5.0, 2)


def cross_in_tray(x: np.ndarray):
    """Cross-shaped ridges with four symmetric minima of -2.06261."""
    a, b, power = _split(x)
    inner = np.abs(np.sin(a) * np.sin(b) * np.exp(np.abs(100.0 - np.hypot(a, b) / np.pi)))
    return -0.0001 * power(inner + 1.0, 0.1)


def drop_wave(x: np.ndarray):
    """Radial ripples around a single global minimum of -1 at the origin."""
    a, b, power = _split(x)
    rr = power(a, 2) + power(b, 2)
    return -(1.0 + np.cos(12.0 * np.sqrt(rr))) / (0.5 * rr + 2.0)


def griewank(x: np.ndarray):
    """Quadratic bowl modulated by an oscillatory product; minimum 0 at the origin."""
    i = np.arange(1.0, x.shape[-1] + 1.0)
    return (
        1.0
        + np.add.reduce(x**2, axis=-1) / 4000.0
        - np.multiply.reduce(np.cos(x / np.sqrt(i)), axis=-1)
    )


def himmelblau(x: np.ndarray):
    """Four distinct global minimizers, all with value 0."""
    a, b, power = _split(x)
    return power(power(a, 2) + b - 11.0, 2) + power(a + power(b, 2) - 7.0, 2)


def holder_table(x: np.ndarray):
    """Table-shaped surface with four symmetric minima of -19.2085."""
    a, b, power = _split(x)
    return -np.abs(np.sin(a) * np.cos(b) * np.exp(np.abs(1.0 - np.hypot(a, b) / np.pi)))


def levy_n13(x: np.ndarray):
    """Oscillatory two-variable surface; minimum 0 at (1, 1)."""
    a, b, power = _split(x)
    return (
        power(np.sin(3.0 * np.pi * a), 2)
        + power(a - 1.0, 2) * (1.0 + power(np.sin(3.0 * np.pi * b), 2))
        + power(b - 1.0, 2) * (1.0 + power(np.sin(2.0 * np.pi * b), 2))
    )


def matyas(x: np.ndarray):
    """Shallow coupled quadratic; minimum 0 at the origin."""
    a, b, power = _split(x)
    return 0.26 * (power(a, 2) + power(b, 2)) - 0.48 * a * b


def michalewicz(x: np.ndarray):
    """Steep separable valleys (steepness m = 10); minima depend on dimension."""
    i = np.arange(1.0, x.shape[-1] + 1.0)
    return -np.add.reduce(np.sin(x) * np.sin(i * x**2 / np.pi) ** 20, axis=-1)


def rastrigin(x: np.ndarray):
    """Regular lattice of local minima on a quadratic bowl; minimum 0 at the origin."""
    return 10.0 * x.shape[-1] + np.add.reduce(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def rosenbrock(x: np.ndarray):
    """Curved narrow valley; minimum 0 at the all-ones point."""
    head, tail = x[..., :-1], x[..., 1:]
    return np.add.reduce(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)


def schwefel(x: np.ndarray):
    """Deep deceptive wells far from the origin; minimum near 420.9687 per coordinate."""
    return 418.9829 * x.shape[-1] - np.add.reduce(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def sphere(x: np.ndarray):
    """Plain quadratic bowl; minimum 0 at the origin."""
    return np.add.reduce(x**2, axis=-1)


def styblinski_tang(x: np.ndarray):
    """Separable quartic with one global well per coordinate; -39.16599 per coordinate."""
    return 0.5 * np.add.reduce(x**4 - 16.0 * x**2 + 5.0 * x, axis=-1)


def three_hump_camel(x: np.ndarray):
    """Three local minima; global minimum 0 at the origin."""
    a, b, power = _split(x)
    return 2.0 * power(a, 2) - 1.05 * power(a, 4) + power(a, 6) / 6.0 + a * b + power(b, 2)


# Largest (k, d, d) temporary whitley builds per block of rows, in elements:
# 4 points at d = 50, 25 at d = 20 (80 KB per buffer). Blocks this size cut
# the per-block dispatch (about 11-13 % per point at d = 20 and 50 against
# 2,500-element blocks); 125,000-element blocks ran slower again.
_WHITLEY_BLOCK = 10_000


def _whitley(x: np.ndarray, ridge: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whitley of the ``k`` rows of ``x``, computed in the ``(k, d, d)`` buffers.

    Each in-place step computes the same floats as the plain expression
    ``sum((100 r + t)**2 / 4000 - cos(200 r + t) + 1)`` with
    ``r = (x_i**2 - x_j)**2`` and ``t = (1 - x_j)**2``, and the sum over the
    contiguous ``d * d`` block adds them in the order ``np.sum`` does.
    """
    np.subtract(np.square(x)[:, :, None], x[:, None, :], out=ridge)
    np.square(ridge, out=ridge)
    tail = np.square(1.0 - x)[:, None, :]
    np.multiply(ridge, 100.0, out=y)
    np.add(y, tail, out=y)
    np.square(y, out=y)
    np.divide(y, 4000.0, out=y)
    np.multiply(ridge, 200.0, out=ridge)
    np.add(ridge, tail, out=ridge)
    np.cos(ridge, out=ridge)
    np.subtract(y, ridge, out=y)
    np.add(y, 1.0, out=y)
    return np.add.reduce(y.reshape(len(x), -1), axis=1)


def whitley(x: np.ndarray):
    """Composition of Rosenbrock ridges through a Griewank-style envelope.

    Minimum 0 at the all-ones point. The cosine term uses a 200 scale on the
    squared ridge, the quartic term the usual 100 scale. A batch is evaluated
    in blocks of rows, reusing two buffers so that the (d, d) temporaries
    stay small.
    """
    d = x.shape[-1]
    if x.ndim == 1:
        return _whitley(x[None], np.empty((1, d, d)), np.empty((1, d, d)))[0]
    rows = x.reshape(-1, d)
    step = max(1, min(len(rows), _WHITLEY_BLOCK // (d * d)))
    ridge = np.empty((step, d, d))
    y = np.empty((step, d, d))
    values = np.empty(len(rows))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        k = len(block)
        values[start : start + k] = _whitley(block, ridge[:k], y[:k])
    return values.reshape(x.shape[:-1])


def zakharov(x: np.ndarray):
    """Quadratic bowl plus even powers of a weighted sum; minimum 0 at the origin."""
    i = np.arange(1.0, x.shape[-1] + 1.0)
    s = np.add.reduce(0.5 * i * x, axis=-1)
    power = operator.pow if x.ndim == 1 else np.float_power  # s is a scalar for one point
    return np.add.reduce(x**2, axis=-1) + power(s, 2) + power(s, 4)


# ---------------------------------------------------------------------------
# registry table
#
# One row per function:
#   name, evaluator, domain: the same [lower, upper] on every coordinate;
#   dimensions: the dimensions the function accepts, as (smallest, largest or None):
#     ANY_N     any n >= 1;
#     N_FROM_2  any n >= 2: a two-variable kernel, expanded cyclically above 2;
#     N_IS_2    n = 2 only;
#   minimum and its rule, giving the minimum value at dimension n:
#     CONSTANT        the stored value at every n (None: no published value);
#     AT_2            the stored value at n = 2, None above (no published value);
#     CYCLIC          the stored value at n = 2, n times it above: each of the n
#                     cyclic pairs sits at the kernel's minimizer;
#     PER_COORDINATE  n times the stored value, and n times the tolerance too,
#                     because the value is a rounded constant per coordinate;
#   minimizer: a float is one coordinate repeated at every n; a tuple lists 2-D
#     points, published at n = 2 only (empty: no published minimizer);
#   tolerance: the largest deviation validate_registry accepts at the minimizers;
#   tags: the attribute tags. "scalable" among them marks the functions that
#     experiment grids run above d = 2, which is narrower than accepting n > 2.

ANY_N = (1, None)
N_FROM_2 = (2, None)
N_IS_2 = (2, 2)

CONSTANT = "constant"
AT_2 = "at-2"
CYCLIC = "cyclic"
PER_COORDINATE = "per-coordinate"

_TABLE = [
    ("ackley", ackley, (-5.0, 5.0), ANY_N, 0.0, CONSTANT, 0.0, 1e-4,
     "multimodal non-separable differentiable continuous scalable"),
    ("alpine", alpine, (-10.0, 10.0), ANY_N, 0.0, CONSTANT, 0.0, 1e-4,
     "multimodal separable non-differentiable continuous"),
    ("booth", booth, (-10.0, 10.0), N_IS_2, 0.0, CONSTANT, ((1.0, 3.0),), 1e-4,
     "unimodal non-separable differentiable continuous"),
    ("cross_in_tray", cross_in_tray, (-10.0, 10.0), N_IS_2, -2.06261, CONSTANT,
     ((1.34941, 1.34941), (1.34941, -1.34941), (-1.34941, 1.34941), (-1.34941, -1.34941)),
     1e-4, "multimodal non-separable non-differentiable continuous"),
    ("drop_wave", drop_wave, (-5.12, 5.12), N_IS_2, -1.0, CONSTANT, ((0.0, 0.0),), 1e-4,
     "multimodal non-separable differentiable continuous"),
    ("easom", _expand_cyclic(_pair_easom), (-100.0, 100.0), N_FROM_2, -1.0, CYCLIC, np.pi, 1e-4,
     "unimodal non-separable differentiable continuous scalable"),
    ("eggholder", _expand_cyclic(_pair_eggholder), (-512.0, 512.0), N_FROM_2, -959.6407, AT_2,
     ((512.0, 404.2319),), 1e-3, "multimodal non-separable non-differentiable continuous scalable"),
    ("expanded_schaffer_f6", _expand_cyclic(_pair_schaffer_f6), (-10.0, 10.0), N_FROM_2,
     0.0, CONSTANT, 0.0, 1e-4, "multimodal non-separable differentiable continuous scalable"),
    ("expanded_zakharov", zakharov, (-10.0, 10.0), ANY_N, 0.0, CONSTANT, 0.0, 1e-4,
     "unimodal non-separable differentiable continuous scalable"),
    ("goldstein_price", _expand_cyclic(_pair_goldstein_price), (-2.0, 2.0), N_FROM_2, 3.0, AT_2,
     ((0.0, -1.0),), 1e-4, "multimodal non-separable differentiable continuous scalable"),
    ("griewank", griewank, (-600.0, 600.0), ANY_N, 0.0, CONSTANT, 0.0, 1e-4,
     "multimodal non-separable differentiable continuous scalable"),
    ("himmelblau", himmelblau, (-5.0, 5.0), N_IS_2, 0.0, CONSTANT,
     ((3.0, 2.0), (-2.805118, 3.131312), (-3.779310, -3.283186), (3.584428, -1.848126)),
     1e-4, "multimodal non-separable differentiable continuous"),
    ("holder_table", holder_table, (-10.0, 10.0), N_IS_2, -19.2085, CONSTANT,
     ((8.05502, 9.66459), (8.05502, -9.66459), (-8.05502, 9.66459), (-8.05502, -9.66459)),
     1e-3, "multimodal non-separable non-differentiable continuous"),
    ("levy_n13", levy_n13, (-10.0, 10.0), N_IS_2, 0.0, CONSTANT, ((1.0, 1.0),), 1e-4,
     "multimodal non-separable differentiable continuous"),
    ("matyas", matyas, (-10.0, 10.0), N_IS_2, 0.0, CONSTANT, ((0.0, 0.0),), 1e-4,
     "unimodal non-separable differentiable continuous"),
    ("michalewicz", michalewicz, (0.0, np.pi), ANY_N, None, CONSTANT, (), 1e-3,
     "multimodal separable differentiable continuous"),
    ("rastrigin", rastrigin, (-5.12, 5.12), ANY_N, 0.0, CONSTANT, 0.0, 1e-4,
     "multimodal separable differentiable continuous"),
    ("rosenbrock", rosenbrock, (-2.048, 2.048), ANY_N, 0.0, CONSTANT, 1.0, 1e-4,
     "unimodal non-separable differentiable continuous scalable"),
    ("schaffer_n2", _expand_cyclic(_pair_schaffer_n2), (-100.0, 100.0), N_FROM_2,
     0.0, CONSTANT, 0.0, 1e-4, "multimodal non-separable differentiable continuous scalable"),
    ("schwefel", schwefel, (-500.0, 500.0), ANY_N, 0.0, CONSTANT, 420.9687, 1e-3,
     "multimodal separable non-differentiable continuous scalable"),
    ("sphere", sphere, (-5.12, 5.12), ANY_N, 0.0, CONSTANT, 0.0, 1e-4,
     "unimodal separable differentiable continuous scalable"),
    ("styblinski_tang", styblinski_tang, (-5.0, 5.0), ANY_N, -39.16599, PER_COORDINATE,
     -2.903534, 1e-3, "multimodal separable differentiable continuous"),
    ("three_hump_camel", three_hump_camel, (-5.0, 5.0), N_IS_2, 0.0, CONSTANT, ((0.0, 0.0),),
     1e-4, "multimodal non-separable differentiable continuous"),
    ("whitley", whitley, (-10.0, 10.0), ANY_N, 0.0, CONSTANT, 1.0, 1e-4,
     "multimodal non-separable differentiable continuous scalable"),
]

_REGISTRY: dict[str, BenchmarkFunction] = {
    name: BenchmarkFunction(
        name, evaluator, domain, dimensions, frozenset(tags.split()),
        minimum, rule, minimizer, tolerance,
    )
    for (name, evaluator, domain, dimensions, minimum, rule, minimizer, tolerance, tags) in _TABLE
}


# ---------------------------------------------------------------------------
# public API


def get_function(name: str) -> BenchmarkFunction:
    """Look up a registry entry by its exact name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownFunctionError(f"unknown function {name!r}; registered: {known}") from None


def list_functions(tags=None) -> list[BenchmarkFunction]:
    """All registered functions sorted by name, optionally filtered by tags.

    ``tags`` is a set of attribute strings; only functions carrying every
    requested tag are returned. An unknown tag simply matches nothing.
    """
    functions = sorted(_REGISTRY.values(), key=lambda f: f.name)
    if tags:
        wanted = frozenset(tags)
        functions = [f for f in functions if wanted <= f.attributes]
    return functions


def _check_dimension(fn: BenchmarkFunction, n) -> int:
    n = _dimension(n)
    if fn.accepts_dimension(n):
        return n
    if fn.dimensions == N_IS_2:
        raise DimensionError(f"{fn.name} is a fixed two-dimensional function, got dimension {n}")
    raise DimensionError(f"{fn.name} requires dimension >= {fn.dimensions[0]}, got {n}")


def evaluate(name: str, x) -> float:
    """Evaluate a registered function at a point, with full input validation."""
    fn = get_function(name)
    point = np.asarray(x, dtype=float)
    if point.ndim != 1:
        raise InputError(f"expected a one-dimensional point, got shape {point.shape}")
    if not np.all(np.isfinite(point)):
        raise InputError(f"point contains non-finite coordinates: {point!r}")
    _check_dimension(fn, point.size)
    return float(fn.evaluator(point))


def make_objective(name: str, dimension: int) -> Callable[[np.ndarray], float]:
    """Dimension-checked bare evaluator for hot loops.

    Validation happens once here; the returned callable skips per-call checks.
    It takes one point of shape ``(d,)`` or an array of shape ``(..., d)`` and
    gives one value per point, as every objective must.
    """
    fn = get_function(name)
    _check_dimension(fn, dimension)
    return fn.evaluator


def domain_box(name: str, dimension: int) -> DomainBox:
    """The search region for a function at the requested dimension."""
    fn = get_function(name)
    return DomainBox(fn.domain[0], fn.domain[1], _check_dimension(fn, dimension))


def known_minimum(name: str, dimension: int) -> tuple[float | None, list[np.ndarray]]:
    """Published minimum value and minimizers at a dimension.

    The value is ``None`` where no scalar optimum is published (michalewicz,
    and the cyclic expansions of eggholder and goldstein_price above two
    dimensions). The minimizer list may be empty independently of the value.
    """
    fn = get_function(name)
    n = _check_dimension(fn, dimension)
    return fn.min_value(n), fn.minimizers(n)


@dataclass(frozen=True)
class ValidationRow:
    """One line of the registry self-check report."""

    name: str
    dimension: int
    residual: float | None
    tolerance: float
    status: str  # "ok" | "fail" | "skipped"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def validate_registry(functions=None, tolerance: float | None = None) -> list[ValidationRow]:
    """Check every stored optimum against its own evaluator.

    For each function and each of the dimensions 2, 20 and 50 that it accepts,
    evaluates the function at every stored minimizer and reports the worst
    absolute deviation from the stored minimum value. Functions without stored
    minimizers at a dimension produce a "skipped" row. Passing ``tolerance``
    overrides each function's own gate uniformly; it must be a finite number
    >= 0, or :class:`ConfigError` is raised before any row is checked.
    """
    if tolerance is not None and not 0 <= tolerance < math.inf:  # NaN fails the comparison
        raise ConfigError(f"tolerance must be a finite number >= 0, got {tolerance}")
    if functions is None:
        functions = _REGISTRY
    rows: list[ValidationRow] = []
    for name in sorted(functions):
        fn = functions[name]
        for n in filter(fn.accepts_dimension, (2, 20, 50)):
            tol = fn.tolerance_at(n) if tolerance is None else tolerance
            value = fn.min_value(n)
            minimizers = fn.minimizers(n)
            if not minimizers:
                why = "no published minimizer" if value is None else "value-only entry"
                rows.append(ValidationRow(name, n, None, tol, "skipped", why))
                continue
            if value is None:
                rows.append(ValidationRow(name, n, None, tol, "skipped", "no published value"))
                continue
            worst = 0.0
            worst_point = minimizers[0]
            for m in minimizers:
                residual = abs(float(fn.evaluator(np.asarray(m, dtype=float))) - value)
                if residual > worst:
                    worst, worst_point = residual, m
            status = "ok" if worst <= tol else "fail"
            detail = "" if status == "ok" else f"residual {worst:.3e} at {worst_point.tolist()}"
            rows.append(ValidationRow(name, n, worst, tol, status, detail))
    return rows
