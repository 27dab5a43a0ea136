"""Benchmark function registry tests.

Frozen expected values in this file were computed once from the closed-form
definitions with an independent script and pasted in as literals, so a silent
change to any evaluator shows up as a numeric diff, not just a tolerance
failure.
"""

import hashlib
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ember.functions as functions
from ember.errors import DimensionError, InputError, UnknownFunctionError
from ember.functions import (
    DomainBox,
    domain_box,
    evaluate,
    get_function,
    known_minimum,
    list_functions,
    make_objective,
    validate_registry,
)

ALL_NAMES = [
    "ackley", "alpine", "booth", "cross_in_tray", "drop_wave", "easom",
    "eggholder", "expanded_schaffer_f6", "expanded_zakharov", "goldstein_price",
    "griewank", "himmelblau", "holder_table", "levy_n13", "matyas",
    "michalewicz", "rastrigin", "rosenbrock", "schaffer_n2", "schwefel",
    "sphere", "styblinski_tang", "three_hump_camel", "whitley",
]

SCALABLE_TWELVE = [
    "ackley", "easom", "eggholder", "expanded_schaffer_f6", "expanded_zakharov",
    "goldstein_price", "griewank", "rosenbrock", "schaffer_n2", "schwefel",
    "sphere", "whitley",
]

FIXED_2D = [
    "booth", "cross_in_tray", "drop_wave", "himmelblau", "holder_table",
    "levy_n13", "matyas", "three_hump_camel",
]


def test_registry_is_complete_and_sorted():
    names = [fn.name for fn in list_functions()]
    assert names == ALL_NAMES
    assert len(names) == 24


def _registry_dump() -> str:
    """Every entry's fields, and its minimum, tolerance and minimizer bytes at
    d = 1, 2, 3, 20 and 50, as canonical text."""
    lines = []
    for fn in list_functions():
        lines.append(
            f"{fn.name} domain={fn.domain!r} dimensions={fn.dimensions} "
            f"attributes={sorted(fn.attributes)} tolerance={fn.tolerance!r}"
        )
        for d in (1, 2, 3, 20, 50):
            if not fn.accepts_dimension(d):
                lines.append(f"  d={d} rejected")
                continue
            lines.append(f"  d={d} min={fn.min_value(d)!r} tol={fn.tolerance_at(d)!r}")
            lines.extend(f"    {m.dtype} {m.tobytes().hex()}" for m in fn.minimizers(d))
    return "\n".join(lines) + "\n"


def test_registry_entries_are_pinned():
    digest = hashlib.sha256(_registry_dump().encode()).hexdigest()
    assert digest == "c5527c7fa4c8eedcc9e9fb56c5e32662433b80e20ffcde8052c323f71198ff0e"


def test_scalable_tag_matches_experiment_set():
    tagged = [fn.name for fn in list_functions({"scalable"})]
    assert tagged == SCALABLE_TWELVE


def test_fixed_2d_functions_reject_other_dimensions():
    for name in FIXED_2D:
        fn = get_function(name)
        assert fn.accepts_dimension(2)
        assert not fn.accepts_dimension(1)
        assert not fn.accepts_dimension(3)
        with pytest.raises(DimensionError):
            evaluate(name, np.zeros(3))


def test_dimension_error_messages_are_pinned():
    cases = [
        ("booth", 1, "booth is a fixed two-dimensional function, got dimension 1"),
        ("booth", 3, "booth is a fixed two-dimensional function, got dimension 3"),
        ("easom", 1, "easom requires dimension >= 2, got 1"),
        ("sphere", 0, "sphere requires dimension >= 1, got 0"),
    ]
    for name, n, message in cases:
        for check in (make_objective, domain_box, known_minimum,
                      lambda name, n: evaluate(name, np.zeros(n))):
            with pytest.raises(DimensionError) as exc:
                check(name, n)
            assert str(exc.value) == message


def test_unknown_function_error_names_candidates():
    with pytest.raises(UnknownFunctionError) as exc:
        get_function("sphere_typo")
    assert "sphere" in str(exc.value)


# ---------------------------------------------------------------------------
# values at known optima (independently computed literals)


def test_booth_exact_zero_at_optimum():
    assert evaluate("booth", [1.0, 3.0]) == 0.0


def test_goldstein_price_exactly_three_at_optimum():
    assert evaluate("goldstein_price", [0.0, -1.0]) == 3.0


def test_eggholder_value_at_published_optimum():
    value = evaluate("eggholder", [512.0, 404.2319])
    assert abs(value - (-959.6406627106155)) < 1e-9


def test_cross_in_tray_value_at_published_optimum():
    value = evaluate("cross_in_tray", [1.34941, 1.34941])
    assert abs(value - (-2.062611870820258)) < 1e-9


def test_holder_table_value_at_published_optimum():
    value = evaluate("holder_table", [8.05502, 9.66459])
    assert abs(value - (-19.208502567767603)) < 1e-9


def test_styblinski_tang_two_dimensional_value():
    x = np.full(2, -2.903534)
    assert abs(evaluate("styblinski_tang", x) - (-78.3323314075428)) < 1e-9


def test_himmelblau_all_four_roots():
    roots = [
        (3.0, 2.0),
        (-2.805118, 3.131312),
        (-3.779310, -3.283186),
        (3.584428, -1.848126),
    ]
    for root in roots:
        assert evaluate("himmelblau", root) < 1e-6


def test_easom_minimum_scales_with_dimension():
    assert abs(evaluate("easom", [math.pi, math.pi]) - (-1.0)) < 1e-12
    x20 = np.full(20, math.pi)
    assert abs(evaluate("easom", x20) - (-20.0)) < 1e-9
    value, minimizers = known_minimum("easom", 20)
    assert value == -20.0
    assert np.allclose(minimizers[0], math.pi)


def test_whitley_zero_at_all_ones():
    for n in (2, 5, 20):
        assert evaluate("whitley", np.ones(n)) == 0.0


def test_michalewicz_known_point_value():
    value = evaluate("michalewicz", [2.20, 1.57])
    assert abs(value - (-1.801140718473825)) < 1e-9
    assert known_minimum("michalewicz", 10) == (None, [])


@pytest.mark.parametrize("name", ["sphere", "rastrigin", "griewank", "ackley", "alpine",
                                  "expanded_zakharov", "schaffer_n2", "expanded_schaffer_f6"])
def test_zero_vector_optima(name):
    for n in (2, 5, 20):
        fn = get_function(name)
        if not fn.accepts_dimension(n):
            continue
        assert abs(evaluate(name, np.zeros(n))) < 1e-9


def test_schwefel_residual_stays_small():
    # the 420.9687 minimizer is a published rounding, so the value is not an
    # exact zero; the residual grows linearly with dimension
    for n in (2, 20, 50):
        residual = abs(evaluate("schwefel", np.full(n, 420.9687)))
        assert residual < 3e-5 * n


def test_drop_wave_minimum():
    assert abs(evaluate("drop_wave", [0.0, 0.0]) - (-1.0)) < 1e-12


def test_rosenbrock_zero_at_ones():
    for n in (2, 20):
        assert evaluate("rosenbrock", np.ones(n)) == 0.0


def test_levy_n13_zero_at_ones():
    assert abs(evaluate("levy_n13", [1.0, 1.0])) < 1e-12


# ---------------------------------------------------------------------------
# derived minimizer oracle


def _refine_holder_table(steps=6):
    """Locate the first-quadrant holder_table minimizer by grid refinement."""
    fn = get_function("holder_table").evaluator
    lo = np.array([0.0, 0.0])
    hi = np.array([10.0, 10.0])
    best = None
    for _ in range(steps):
        xs = np.linspace(lo[0], hi[0], 41)
        ys = np.linspace(lo[1], hi[1], 41)
        values = [(fn(np.array([x, y])), x, y) for x in xs for y in ys]
        _, bx, by = min(values)
        span_x = (hi[0] - lo[0]) / 40
        span_y = (hi[1] - lo[1]) / 40
        lo = np.array([bx - span_x, by - span_y])
        hi = np.array([bx + span_x, by + span_y])
        best = (bx, by)
    return np.array(best)


def test_holder_table_minimizer_matches_grid_refinement():
    found = _refine_holder_table()
    stored_value, minimizers = known_minimum("holder_table", 2)
    positives = [m for m in minimizers if m[0] > 0 and m[1] > 0]
    assert len(positives) == 1
    assert np.allclose(found, positives[0], atol=1e-4)
    fn = get_function("holder_table").evaluator
    assert abs(fn(found) - stored_value) < 1e-4


# ---------------------------------------------------------------------------
# structural properties


def test_cyclic_expansion_matches_manual_pairwise_sum():
    rng = np.random.default_rng(11)
    fn = get_function("expanded_schaffer_f6").evaluator
    for n in (3, 5, 8):
        x = rng.uniform(-5, 5, n)
        manual = 0.0
        for i in range(n):
            manual += fn(np.array([x[i], x[(i + 1) % n]]))
        assert abs(fn(x) - manual) < 1e-9


def test_two_dimensional_native_forms_have_min_dimension_two():
    for name in ("easom", "eggholder", "goldstein_price", "schaffer_n2",
                 "expanded_schaffer_f6"):
        fn = get_function(name)
        assert not fn.accepts_dimension(1)
        assert fn.accepts_dimension(2)
        assert fn.accepts_dimension(3)
        with pytest.raises(DimensionError):
            evaluate(name, [0.0])


@pytest.mark.parametrize("name,value,points", [
    ("eggholder", -959.6407, [[512.0, 404.2319]]),
    ("goldstein_price", 3.0, [[0.0, -1.0]]),
    ("michalewicz", None, []),
])
def test_known_minimum_at_two_dimensions(name, value, points):
    stored, minimizers = known_minimum(name, 2)
    assert stored == value
    assert [m.tolist() for m in minimizers] == points
    assert all(m.dtype == np.float64 for m in minimizers)


def test_eggholder_and_goldstein_price_high_dim_minima_unpublished():
    for name in ("eggholder", "goldstein_price"):
        assert known_minimum(name, 20) == (None, [])


@pytest.mark.parametrize("name", ["sphere", "rastrigin", "ackley", "griewank"])
def test_sign_flip_symmetry(name):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-5, 5, 6)
        assert abs(evaluate(name, x) - evaluate(name, -x)) < 1e-9


def test_separable_functions_decompose_coordinatewise():
    # for f(x) = sum_i g(x_i): sum_i f(x_i * e_i) = f(x) + (n-1) * f(0)
    rng = np.random.default_rng(17)
    separable = [fn.name for fn in list_functions({"separable"})]
    assert set(separable) == {
        "alpine", "michalewicz", "rastrigin", "schwefel", "sphere",
        "styblinski_tang",
    }
    n = 6
    for name in separable:
        fn = get_function(name)
        lower, upper = fn.domain
        for _ in range(10):
            x = rng.uniform(max(lower, -10), min(upper, 10), n)
            direct = fn.evaluator(x)
            axis_sum = sum(
                fn.evaluator(np.eye(n)[i] * x[i]) for i in range(n)
            )
            origin = fn.evaluator(np.zeros(n))
            reconstructed = axis_sum - (n - 1) * origin
            assert abs(direct - reconstructed) < 1e-8 * max(1.0, abs(direct))


def test_nondifferentiable_tag_set():
    kinked = {fn.name for fn in list_functions({"non-differentiable"})}
    assert kinked == {"alpine", "cross_in_tray", "eggholder", "holder_table", "schwefel"}


def test_every_function_is_tagged_continuous():
    for fn in list_functions():
        assert "continuous" in fn.attributes


def test_tag_filter_requires_all_tags():
    both = {fn.name for fn in list_functions({"separable", "unimodal"})}
    assert both == {"sphere"}
    assert list_functions({"no-such-tag"}) == []


def test_finite_over_random_domain_samples():
    rng = np.random.default_rng(23)
    for fn in list_functions():
        lower, upper = fn.domain
        n = 7 if fn.accepts_dimension(7) else 2
        points = rng.uniform(lower, upper, size=(200, n))
        for p in points:
            value = fn.evaluator(p)
            assert isinstance(value, float)
            assert math.isfinite(value)


# ---------------------------------------------------------------------------
# access helpers


def test_evaluate_validates_input():
    with pytest.raises(InputError):
        evaluate("sphere", np.zeros((2, 2)))
    with pytest.raises(InputError):
        evaluate("sphere", [1.0, float("nan")])
    with pytest.raises(InputError):
        evaluate("sphere", [1.0, float("inf")])
    assert evaluate("sphere", [1, 2]) == 5.0  # ints and lists accepted


def test_make_objective_is_a_bare_evaluator():
    objective = make_objective("rastrigin", 5)
    fn = get_function("rastrigin")
    x = np.ones(5)
    assert objective(x) == fn.evaluator(x)
    with pytest.raises(DimensionError):
        make_objective("booth", 3)


def test_domain_box_contents():
    box = domain_box("schwefel", 10)
    assert (box.lower, box.upper, box.dimension) == (-500.0, 500.0, 10)
    assert domain_box("eggholder", 2).upper == 512.0
    assert domain_box("sphere", 2) == DomainBox(-5.12, 5.12, 2)
    with pytest.raises(InputError):
        DomainBox(3.0, -3.0, 2)
    with pytest.raises(InputError):
        DomainBox(0.0, math.inf, 2)
    with pytest.raises(DimensionError):
        DomainBox(-1.0, 1.0, 0)


def test_known_minimum_returns_copies():
    value, minimizers = known_minimum("booth", 2)
    minimizers[0][0] = 99.0
    again = known_minimum("booth", 2)[1][0]
    assert again[0] == 1.0 and value == 0.0


def test_styblinski_tolerance_scales_with_dimension():
    # styblinski_tang stores a rounded minimum per coordinate, so its gate grows
    # with n; every other entry keeps one tolerance at every dimension
    for fn in list_functions():
        for n in filter(fn.accepts_dimension, (2, 20, 50)):
            scale = n if fn.name == "styblinski_tang" else 1
            assert fn.tolerance_at(n) == scale * fn.tolerance, (fn.name, n)
    assert get_function("styblinski_tang").tolerance_at(50) == 50 * 1e-3


# ---------------------------------------------------------------------------
# batch contract: evaluator(X) equals [evaluator(x) for x in X] bit for bit

BATCH_CASES = [
    (fn.name, d) for fn in list_functions() for d in (2, 3, 20, 50) if fn.accepts_dimension(d)
]


@pytest.mark.parametrize("name, dimension", BATCH_CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_batch_equals_row_by_row(name, dimension, data):
    fn = get_function(name)
    lower, upper = fn.domain
    # a few hypothesis-chosen rows (edges, repeats, signed zeros) on top of a
    # large uniform sample: a last-bit mismatch hits well under 1 % of points
    n = data.draw(st.integers(1, 6), label="rows")
    chosen = data.draw(
        arrays(np.float64, (n, dimension), elements=st.floats(lower, upper)), label="points"
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    sample = rng.uniform(lower, upper, size=(max(8, 1000 // dimension), dimension))
    points = np.vstack([chosen, sample])
    one_by_one = np.array([fn.evaluator(x) for x in points])
    batch = fn.evaluator(points)
    assert batch.shape == (len(points),)
    assert batch.tobytes() == one_by_one.tobytes()
    assert fn.evaluator(points[:1]).tobytes() == one_by_one[:1].tobytes()
    stacked = fn.evaluator(chosen[None])  # any leading shape (..., d)
    assert stacked.shape == (1, n)
    assert stacked.tobytes() == one_by_one[:n].tobytes()


@pytest.mark.parametrize("exponent", [2, 4, 6, 0.1])
def test_float_power_matches_scalar_power(exponent):
    # a batch in the two-variable kernels is raised by np.float_power, one
    # point by numpy-scalar **; these are the exponents the registry uses
    rng = np.random.default_rng(7)
    base = rng.uniform(-1.0, 1.0, size=20_000) * rng.choice([1.0, 10.0, 500.0], size=20_000)
    if exponent == 0.1:
        base = np.abs(base)  # cross_in_tray raises a non-negative base
    scalar = np.array([v**exponent for v in base])  # v is a numpy float64 scalar
    assert np.float_power(base, exponent).tobytes() == scalar.tobytes()


def _whitley_expression(x):
    # whitley as one broadcast expression, the form its buffered kernel replays
    ridge = (x[..., :, None] ** 2 - x[..., None, :]) ** 2
    tail = (1.0 - x[..., None, :]) ** 2
    y = 100.0 * ridge + tail
    return np.sum(y**2 / 4000.0 - np.cos(200.0 * ridge + tail) + 1.0, axis=(-2, -1))


@pytest.mark.parametrize("dimension", [1, 2, 3, 7, 20, 50])
def test_whitley_buffers_match_plain_expression(dimension):
    whitley = get_function("whitley").evaluator
    rng = np.random.default_rng(dimension)
    points = rng.uniform(-10.0, 10.0, size=(62, dimension)) * rng.choice([1e-3, 1.0], size=(62, 1))
    expected = np.array([_whitley_expression(x) for x in points])
    assert np.array([whitley(x) for x in points]).tobytes() == expected.tobytes()
    # 60 rows fill whole blocks at d = 50; 62 leave a partial last block
    assert whitley(points[:60]).tobytes() == expected[:60].tobytes()
    assert whitley(points).tobytes() == expected.tobytes()
    assert whitley(points[:0]).shape == (0,)


CYCLIC_KERNELS = {
    "easom": functions._pair_easom,
    "eggholder": functions._pair_eggholder,
    "expanded_schaffer_f6": functions._pair_schaffer_f6,
    "goldstein_price": functions._pair_goldstein_price,
    "schaffer_n2": functions._pair_schaffer_n2,
}


def _roll_form(pair, x):
    # the cyclic sum with its partner x_{i+1 mod n} built by np.roll
    return np.add.reduce(pair(x, np.roll(x, -1, axis=-1), operator.pow), axis=-1)


@pytest.mark.parametrize("dimension", [3, 20, 50])
@pytest.mark.parametrize("name", sorted(CYCLIC_KERNELS))
def test_cyclic_expansion_matches_roll_form(name, dimension):
    fn = get_function(name)
    pair = CYCLIC_KERNELS[name]
    rng = np.random.default_rng(dimension)
    points = rng.uniform(*fn.domain, size=(500, dimension))
    assert fn.evaluator(points).tobytes() == _roll_form(pair, points).tobytes()
    singles = np.array([fn.evaluator(x) for x in points[:100]])
    assert singles.tobytes() == np.array([_roll_form(pair, x) for x in points[:100]]).tobytes()


# ---------------------------------------------------------------------------
# registry self-check


def test_validate_registry_all_green():
    rows = validate_registry()
    assert all(row.ok for row in rows)
    checked = [row for row in rows if row.status == "ok"]
    assert len(checked) >= 40


def test_validate_registry_catches_a_corrupt_entry():
    import dataclasses

    good = get_function("easom")
    broken = dataclasses.replace(good, evaluator=lambda x: -good.evaluator(x))
    rows = validate_registry(functions={"easom": broken})
    failing = [row for row in rows if row.status == "fail"]
    assert failing, "sign-flipped easom must fail validation"
    assert failing[0].name == "easom"
    assert "residual" in failing[0].detail


def test_validate_registry_uniform_tolerance_override():
    rows = validate_registry(functions={"eggholder": get_function("eggholder")},
                             tolerance=1e-12)
    assert any(row.status == "fail" for row in rows)


def test_validate_registry_reports_skips():
    rows = validate_registry(functions={"michalewicz": get_function("michalewicz")})
    assert all(row.status == "skipped" for row in rows)
