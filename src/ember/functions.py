"""Benchmark function registry.

Twenty-four continuous test functions for minimization, each carrying its
search domain, dimensionality class, attribute tags, and published optimum.
Evaluators are plain numpy. Each takes a float array of shape ``(..., d)``
and reduces over the last axis: a single point of shape ``(d,)`` gives a
scalar, a batch of shape ``(n, d)`` gives ``n`` values, each bit for bit the
value of that row alone. Evaluators are marked
:func:`~ember.recording.batch_capable`, so the optimizers evaluate a whole
population in one call.

Two notions of scalability coexist here and should not be confused:

* ``dim_class`` says whether ``evaluate`` accepts dimensions other than 2.
  Functions with an n-dimensional closed form (sphere, rastrigin, ...) and
  the five pairwise-expanded 2D kernels are ``"scalable"``; the remaining
  eight are ``"fixed-2d"``.
* The ``"scalable"`` attribute tag marks the twelve functions conventionally
  used for high-dimensional comparisons. Some functions (alpine, michalewicz,
  rastrigin, styblinski_tang) evaluate at any dimension yet do not carry the
  tag; experiment grids pair dimensions above 2 with tagged functions only.

The five 2D-native kernels tagged scalable (easom, eggholder, goldstein_price,
schaffer_n2, expanded_schaffer_f6) keep their plain two-variable form at n = 2
and use the expanded cyclic composition F(x) = sum_i f2(x_i, x_{i+1 mod n})
at n > 2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, InputError, UnknownFunctionError
from .recording import batch_capable

__all__ = [
    "BenchmarkFunction",
    "DomainBox",
    "ValidationRow",
    "evaluate",
    "get_function",
    "known_minimum",
    "list_functions",
    "make_objective",
    "validate_registry",
]

FIXED_2D = "fixed-2d"
SCALABLE = "scalable"


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
        if self.dimension < 1:
            raise DimensionError(f"dimension must be at least 1, got {self.dimension}")


@dataclass(frozen=True)
class BenchmarkFunction:
    """Registry entry: evaluator plus everything known about the function."""

    name: str
    evaluator: Callable[[np.ndarray], float]
    domain: tuple[float, float]
    dim_class: str
    attributes: frozenset[str]
    min_value: Callable[[int], float | None] = field(repr=False)
    minimizers: Callable[[int], list[np.ndarray]] = field(repr=False)
    min_dimension: int = 1
    tolerance: float = 1e-3
    # Set where the stored optimum is a rounded per-coordinate constant, so the
    # acceptable deviation grows with dimension (styblinski_tang).
    tolerance_per_coordinate: bool = False

    def tolerance_at(self, n: int) -> float:
        return self.tolerance * (n if self.tolerance_per_coordinate else 1)

    def accepts_dimension(self, n: int) -> bool:
        if self.dim_class == FIXED_2D:
            return n == 2
        return n >= self.min_dimension


# ---------------------------------------------------------------------------
# evaluators
#
# Every evaluator takes an array of shape (..., d), reduces over the last
# axis, and returns one value per point: a scalar for a single point, an
# array of shape (...) for a batch. A batch gives bit for bit the values of
# its rows evaluated one at a time.
#
# One numpy detail shapes the two-variable kernels: a float64 scalar raised to
# a power goes through C ``pow``, while an array squares by exact product and
# takes other powers from a vectorized ``pow``; the two differ in the last bit
# for a fraction of inputs. Formulas that a single point evaluates on scalars
# therefore take their ``power`` from ``_split``: plain ``**`` for a point,
# ``_pow`` (scalar semantics element by element) for a batch.


def _pow(base: np.ndarray, exponent):
    """``base ** exponent`` computed element by element as for numpy float64 scalars."""
    return np.array([v**exponent for v in base.ravel()]).reshape(base.shape)


def _split(x: np.ndarray):
    """The two coordinates of a point or batch, and the power that matches them.

    One point gives numpy scalars, whose ``**`` is already C ``pow``; a batch
    gives coordinate arrays, raised through :func:`_pow`.
    """
    if x.ndim == 1:
        return x[0], x[1], operator.pow
    return x[..., 0], x[..., 1], _pow


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

    @batch_capable
    def wrapped(x: np.ndarray):
        if x.shape[-1] == 2:
            return pair(*_split(x))
        return np.sum(pair(x, np.roll(x, -1, axis=-1), operator.pow), axis=-1)

    return wrapped


@batch_capable
def ackley(x: np.ndarray):
    """Nearly flat outer region with a central funnel; minimum 0 at the origin."""
    n = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x**2, axis=-1) / n))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x), axis=-1) / n)
        + 20.0
        + np.e
    )


@batch_capable
def alpine(x: np.ndarray):
    """Sum of |x sin x + 0.1 x|; kinked, separable, minimum 0 at the origin."""
    return np.sum(np.abs(x * np.sin(x) + 0.1 * x), axis=-1)


@batch_capable
def booth(x: np.ndarray):
    """Smooth quadratic valley; minimum 0 at (1, 3)."""
    a, b, power = _split(x)
    return power(a + 2.0 * b - 7.0, 2) + power(2.0 * a + b - 5.0, 2)


@batch_capable
def cross_in_tray(x: np.ndarray):
    """Cross-shaped ridges with four symmetric minima of -2.06261."""
    a, b, power = _split(x)
    inner = np.abs(np.sin(a) * np.sin(b) * np.exp(np.abs(100.0 - np.hypot(a, b) / np.pi)))
    return -0.0001 * power(inner + 1.0, 0.1)


@batch_capable
def drop_wave(x: np.ndarray):
    """Radial ripples around a single global minimum of -1 at the origin."""
    a, b, power = _split(x)
    rr = power(a, 2) + power(b, 2)
    return -(1.0 + np.cos(12.0 * np.sqrt(rr))) / (0.5 * rr + 2.0)


@batch_capable
def griewank(x: np.ndarray):
    """Quadratic bowl modulated by an oscillatory product; minimum 0 at the origin."""
    i = np.arange(1.0, x.shape[-1] + 1.0)
    return 1.0 + np.sum(x**2, axis=-1) / 4000.0 - np.prod(np.cos(x / np.sqrt(i)), axis=-1)


@batch_capable
def himmelblau(x: np.ndarray):
    """Four distinct global minimizers, all with value 0."""
    a, b, power = _split(x)
    return power(power(a, 2) + b - 11.0, 2) + power(a + power(b, 2) - 7.0, 2)


@batch_capable
def holder_table(x: np.ndarray):
    """Table-shaped surface with four symmetric minima of -19.2085."""
    a, b, power = _split(x)
    return -np.abs(np.sin(a) * np.cos(b) * np.exp(np.abs(1.0 - np.hypot(a, b) / np.pi)))


@batch_capable
def levy_n13(x: np.ndarray):
    """Oscillatory two-variable surface; minimum 0 at (1, 1)."""
    a, b, power = _split(x)
    return (
        power(np.sin(3.0 * np.pi * a), 2)
        + power(a - 1.0, 2) * (1.0 + power(np.sin(3.0 * np.pi * b), 2))
        + power(b - 1.0, 2) * (1.0 + power(np.sin(2.0 * np.pi * b), 2))
    )


@batch_capable
def matyas(x: np.ndarray):
    """Shallow coupled quadratic; minimum 0 at the origin."""
    a, b, power = _split(x)
    return 0.26 * (power(a, 2) + power(b, 2)) - 0.48 * a * b


@batch_capable
def michalewicz(x: np.ndarray):
    """Steep separable valleys (steepness m = 10); minima depend on dimension."""
    i = np.arange(1.0, x.shape[-1] + 1.0)
    return -np.sum(np.sin(x) * np.sin(i * x**2 / np.pi) ** 20, axis=-1)


@batch_capable
def rastrigin(x: np.ndarray):
    """Regular lattice of local minima on a quadratic bowl; minimum 0 at the origin."""
    return 10.0 * x.shape[-1] + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


@batch_capable
def rosenbrock(x: np.ndarray):
    """Curved narrow valley; minimum 0 at the all-ones point."""
    head, tail = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)


@batch_capable
def schwefel(x: np.ndarray):
    """Deep deceptive wells far from the origin; minimum near 420.9687 per coordinate."""
    return 418.9829 * x.shape[-1] - np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


@batch_capable
def sphere(x: np.ndarray):
    """Plain quadratic bowl; minimum 0 at the origin."""
    return np.sum(x**2, axis=-1)


@batch_capable
def styblinski_tang(x: np.ndarray):
    """Separable quartic with one global well per coordinate; -39.16599 per coordinate."""
    return 0.5 * np.sum(x**4 - 16.0 * x**2 + 5.0 * x, axis=-1)


@batch_capable
def three_hump_camel(x: np.ndarray):
    """Three local minima; global minimum 0 at the origin."""
    a, b, power = _split(x)
    return 2.0 * power(a, 2) - 1.05 * power(a, 4) + power(a, 6) / 6.0 + a * b + power(b, 2)


# Largest (d, d) temporary whitley builds per block of rows: the size of one
# point at d = 50. Bigger blocks run no faster (the cosine dominates) and
# only raise peak memory.
_WHITLEY_BLOCK = 2500


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


@batch_capable
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


@batch_capable
def zakharov(x: np.ndarray):
    """Quadratic bowl plus even powers of a weighted sum; minimum 0 at the origin."""
    i = np.arange(1.0, x.shape[-1] + 1.0)
    s = np.sum(0.5 * i * x, axis=-1)
    power = operator.pow if x.ndim == 1 else _pow  # s is a scalar for one point
    return np.sum(x**2, axis=-1) + power(s, 2) + power(s, 4)


easom_nd = _expand_cyclic(_pair_easom)
eggholder_nd = _expand_cyclic(_pair_eggholder)
goldstein_price_nd = _expand_cyclic(_pair_goldstein_price)
schaffer_n2_nd = _expand_cyclic(_pair_schaffer_n2)
expanded_schaffer_f6_nd = _expand_cyclic(_pair_schaffer_f6)


# ---------------------------------------------------------------------------
# registry assembly


def _const_vector(value: float):
    def minimizers(n: int) -> list[np.ndarray]:
        return [np.full(n, value)]

    return minimizers


def _points_2d(*points):
    def minimizers(n: int) -> list[np.ndarray]:
        if n != 2:
            return []
        return [np.array(p, dtype=float) for p in points]

    return minimizers


def _no_minimizers(n: int) -> list[np.ndarray]:
    return []


def _fixed_value(v: float | None):
    def min_value(n: int) -> float | None:
        return v

    return min_value


_REGISTRY: dict[str, BenchmarkFunction] = {}


def _register(
    name,
    evaluator,
    domain,
    dim_class,
    tags,
    min_value,
    minimizers,
    min_dimension=1,
    tolerance=1e-3,
    tolerance_per_coordinate=False,
):
    fn = BenchmarkFunction(
        name=name,
        evaluator=evaluator,
        domain=domain,
        dim_class=dim_class,
        attributes=frozenset(tags),
        min_value=min_value,
        minimizers=minimizers,
        min_dimension=min_dimension,
        tolerance=tolerance,
        tolerance_per_coordinate=tolerance_per_coordinate,
    )
    _REGISTRY[name] = fn


_MULTI = "multimodal"
_UNI = "unimodal"
_SEP = "separable"
_NONSEP = "non-separable"
_DIFF = "differentiable"
_NONDIFF = "non-differentiable"
_CONT = "continuous"
_SCAL = "scalable"

_register(
    "ackley", ackley, (-5.0, 5.0), SCALABLE,
    {_MULTI, _NONSEP, _DIFF, _CONT, _SCAL},
    _fixed_value(0.0), _const_vector(0.0), tolerance=1e-4,
)
_register(
    "alpine", alpine, (-10.0, 10.0), SCALABLE,
    {_MULTI, _SEP, _NONDIFF, _CONT},
    _fixed_value(0.0), _const_vector(0.0), tolerance=1e-4,
)
_register(
    "booth", booth, (-10.0, 10.0), FIXED_2D,
    {_UNI, _NONSEP, _DIFF, _CONT},
    _fixed_value(0.0), _points_2d((1.0, 3.0)), tolerance=1e-4,
)
_register(
    "cross_in_tray", cross_in_tray, (-10.0, 10.0), FIXED_2D,
    {_MULTI, _NONSEP, _NONDIFF, _CONT},
    _fixed_value(-2.06261),
    _points_2d((1.34941, 1.34941), (1.34941, -1.34941), (-1.34941, 1.34941), (-1.34941, -1.34941)),
    tolerance=1e-4,
)
_register(
    "drop_wave", drop_wave, (-5.12, 5.12), FIXED_2D,
    {_MULTI, _NONSEP, _DIFF, _CONT},
    _fixed_value(-1.0), _points_2d((0.0, 0.0)), tolerance=1e-4,
)


def _easom_value(n: int) -> float:
    return -1.0 if n == 2 else -float(n)


_register(
    "easom", easom_nd, (-100.0, 100.0), SCALABLE,
    {_UNI, _NONSEP, _DIFF, _CONT, _SCAL},
    _easom_value, _const_vector(np.pi), min_dimension=2, tolerance=1e-4,
)


def _eggholder_value(n: int) -> float | None:
    return -959.6407 if n == 2 else None


def _eggholder_minimizers(n: int) -> list[np.ndarray]:
    if n != 2:
        return []
    return [np.array([512.0, 404.2319])]


_register(
    "eggholder", eggholder_nd, (-512.0, 512.0), SCALABLE,
    {_MULTI, _NONSEP, _NONDIFF, _CONT, _SCAL},
    _eggholder_value, _eggholder_minimizers, min_dimension=2, tolerance=1e-3,
)
_register(
    "expanded_schaffer_f6", expanded_schaffer_f6_nd, (-10.0, 10.0), SCALABLE,
    {_MULTI, _NONSEP, _DIFF, _CONT, _SCAL},
    _fixed_value(0.0), _const_vector(0.0), min_dimension=2, tolerance=1e-4,
)
_register(
    "expanded_zakharov", zakharov, (-10.0, 10.0), SCALABLE,
    {_UNI, _NONSEP, _DIFF, _CONT, _SCAL},
    _fixed_value(0.0), _const_vector(0.0), tolerance=1e-4,
)


def _goldstein_value(n: int) -> float | None:
    return 3.0 if n == 2 else None


def _goldstein_minimizers(n: int) -> list[np.ndarray]:
    if n != 2:
        return []
    return [np.array([0.0, -1.0])]


_register(
    "goldstein_price", goldstein_price_nd, (-2.0, 2.0), SCALABLE,
    {_MULTI, _NONSEP, _DIFF, _CONT, _SCAL},
    _goldstein_value, _goldstein_minimizers, min_dimension=2, tolerance=1e-4,
)
_register(
    "griewank", griewank, (-600.0, 600.0), SCALABLE,
    {_MULTI, _NONSEP, _DIFF, _CONT, _SCAL},
    _fixed_value(0.0), _const_vector(0.0), tolerance=1e-4,
)
_register(
    "himmelblau", himmelblau, (-5.0, 5.0), FIXED_2D,
    {_MULTI, _NONSEP, _DIFF, _CONT},
    _fixed_value(0.0),
    _points_2d(
        (3.0, 2.0),
        (-2.805118, 3.131312),
        (-3.779310, -3.283186),
        (3.584428, -1.848126),
    ),
    tolerance=1e-4,
)
_register(
    "holder_table", holder_table, (-10.0, 10.0), FIXED_2D,
    {_MULTI, _NONSEP, _NONDIFF, _CONT},
    _fixed_value(-19.2085),
    _points_2d(
        (8.05502, 9.66459), (8.05502, -9.66459), (-8.05502, 9.66459), (-8.05502, -9.66459)
    ),
    tolerance=1e-3,
)
_register(
    "levy_n13", levy_n13, (-10.0, 10.0), FIXED_2D,
    {_MULTI, _NONSEP, _DIFF, _CONT},
    _fixed_value(0.0), _points_2d((1.0, 1.0)), tolerance=1e-4,
)
_register(
    "matyas", matyas, (-10.0, 10.0), FIXED_2D,
    {_UNI, _NONSEP, _DIFF, _CONT},
    _fixed_value(0.0), _points_2d((0.0, 0.0)), tolerance=1e-4,
)
_register(
    "michalewicz", michalewicz, (0.0, np.pi), SCALABLE,
    {_MULTI, _SEP, _DIFF, _CONT},
    _fixed_value(None), _no_minimizers, tolerance=1e-3,
)
_register(
    "rastrigin", rastrigin, (-5.12, 5.12), SCALABLE,
    {_MULTI, _SEP, _DIFF, _CONT},
    _fixed_value(0.0), _const_vector(0.0), tolerance=1e-4,
)
_register(
    "rosenbrock", rosenbrock, (-2.048, 2.048), SCALABLE,
    {_UNI, _NONSEP, _DIFF, _CONT, _SCAL},
    _fixed_value(0.0), _const_vector(1.0), tolerance=1e-4,
)
_register(
    "schaffer_n2", schaffer_n2_nd, (-100.0, 100.0), SCALABLE,
    {_MULTI, _NONSEP, _DIFF, _CONT, _SCAL},
    _fixed_value(0.0), _const_vector(0.0), min_dimension=2, tolerance=1e-4,
)
_register(
    "schwefel", schwefel, (-500.0, 500.0), SCALABLE,
    {_MULTI, _SEP, _NONDIFF, _CONT, _SCAL},
    _fixed_value(0.0), _const_vector(420.9687), tolerance=1e-3,
)
_register(
    "sphere", sphere, (-5.12, 5.12), SCALABLE,
    {_UNI, _SEP, _DIFF, _CONT, _SCAL},
    _fixed_value(0.0), _const_vector(0.0), tolerance=1e-4,
)


def _styblinski_value(n: int) -> float:
    return -39.16599 * n


_register(
    "styblinski_tang", styblinski_tang, (-5.0, 5.0), SCALABLE,
    {_MULTI, _SEP, _DIFF, _CONT},
    _styblinski_value, _const_vector(-2.903534),
    tolerance=1e-3, tolerance_per_coordinate=True,
)
_register(
    "three_hump_camel", three_hump_camel, (-5.0, 5.0), FIXED_2D,
    {_MULTI, _NONSEP, _DIFF, _CONT},
    _fixed_value(0.0), _points_2d((0.0, 0.0)), tolerance=1e-4,
)
_register(
    "whitley", whitley, (-10.0, 10.0), SCALABLE,
    {_MULTI, _NONSEP, _DIFF, _CONT, _SCAL},
    _fixed_value(0.0), _const_vector(1.0), tolerance=1e-4,
)


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


def _check_dimension(fn: BenchmarkFunction, n: int) -> None:
    if fn.dim_class == FIXED_2D and n != 2:
        raise DimensionError(f"{fn.name} is a fixed two-dimensional function, got dimension {n}")
    if n < fn.min_dimension:
        raise DimensionError(f"{fn.name} requires dimension >= {fn.min_dimension}, got {n}")


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
    It is batch-capable: it accepts one point or an ``(n, d)`` array of points.
    """
    fn = get_function(name)
    _check_dimension(fn, dimension)
    return fn.evaluator


def domain_box(name: str, dimension: int) -> DomainBox:
    """The search region for a function at the requested dimension."""
    fn = get_function(name)
    _check_dimension(fn, dimension)
    return DomainBox(fn.domain[0], fn.domain[1], dimension)


def known_minimum(name: str, dimension: int) -> tuple[float | None, list[np.ndarray]]:
    """Published minimum value and minimizers at a dimension.

    The value is ``None`` where no scalar optimum is published (michalewicz,
    and the cyclic expansions of eggholder and goldstein_price above two
    dimensions). The minimizer list may be empty independently of the value.
    """
    fn = get_function(name)
    _check_dimension(fn, dimension)
    return fn.min_value(dimension), [m.copy() for m in fn.minimizers(dimension)]


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


def validate_registry(
    functions=None,
    tolerance: float | None = None,
    dimensions=(2, 20, 50),
) -> list[ValidationRow]:
    """Check every stored optimum against its own evaluator.

    For each function and each applicable dimension, evaluates the function at
    every stored minimizer and reports the worst absolute deviation from the
    stored minimum value. Functions without stored minimizers at a dimension
    produce a "skipped" row. Passing ``tolerance`` overrides each function's
    own gate uniformly.
    """
    if functions is None:
        functions = _REGISTRY
    rows: list[ValidationRow] = []
    for name in sorted(functions):
        fn = functions[name]
        dims = [2] if fn.dim_class == FIXED_2D else [n for n in dimensions if n >= fn.min_dimension]
        for n in dims:
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
            detail = "" if status == "ok" else f"residual {worst:.3e} at {np.asarray(worst_point)}"
            rows.append(ValidationRow(name, n, worst, tol, status, detail))
    return rows
