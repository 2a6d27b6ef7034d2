"""Every scalar real parameter and bounded integer of the public API goes
through `_util.real` or `_util.integer`: NaN, a string, None, a complex
number and a value out of range each raise one ValueError that names the
parameter, states its range and shows the value."""

import math
import re
import warnings

import numpy as np
import pytest

from circle_lab import (
    ArcSystem,
    DyadicScale,
    FiniteSystem,
    IntPolynomial,
    PipelineConfig,
    Signal,
    approx_average_op,
    arc_split,
    average_bilinear,
    average_linear,
    average_series,
    canonical_fractions,
    convergence_diagnostic,
    discrepancy,
    dyadic_shell,
    factorization_gap,
    jump_count,
    kernel,
    lacunary,
    lemma1_grid_sweep,
    lemma1_residual,
    lepingle_stat,
    lp_norm_probe,
    minor_sup_grid,
    oscillation,
    projection_op,
    projection_property_report,
    variation,
    variation_values,
    weyl_decay_scan,
    weyl_sum,
)
from circle_lab._util import integer, pnorm, real
from circle_lab.arcs import ReducedFraction, TorusIntervalSet
from circle_lab.expsums import scan_arcs
from circle_lab.multipliers import MultiplierOp, eta_at_scale, shell_vanishing_overlap

SQUARE = IntPolynomial((0, 0, 1))
LINEAR = IntPolynomial((0, 1))
SERIES = average_series(FiniteSystem(8, 1), LINEAR, Signal.delta(8), [2, 4, 8])
ONES = lambda x: np.ones_like(np.asarray(x, dtype=float))  # noqa: E731

SCALE = "an integer in [1, 16777216]"

# (name in the message, its range as printed, a value out of it, call with the value,
# and, where the name repeats, the test id in its place)
CASES = [
    # reals
    ("norm exponent p", "a real number in (0, inf]", 0.0, lambda v: pnorm(np.ones(3), v)),
    ("norm exponent p", "a real number in (0, inf]", -1.0, lambda v: Signal(4, [1, 2, 3, 4]).norm(v)),
    ("denominator bound n1", "a real number in [1, 2049)", 2049, canonical_fractions),
    ("arc halfwidth", "a real number in [0, inf)", -0.1, lambda v: ArcSystem(4, v)),
    ("arc halfwidth", "a real number in [0, inf)", math.inf, lambda v: TorusIntervalSet.from_arcs([0.5], v)),
    ("diagnostic exponent r", "a real number in [1, inf)", math.inf,
     lambda v: convergence_diagnostic(SERIES, v, 2)),
    ("theta", "a real number in (-inf, inf)", math.inf, lambda v: discrepancy(LINEAR, v, [10])),
    ("M", "a real number in (0, inf)", 0.0,
     lambda v: lemma1_residual(SQUARE, 64, ReducedFraction(1, 3), 0.3333, v)),
    ("projection halfwidth n2", "a real number in (0, inf)", 0.0, lambda v: projection_op(4, v)),
    ("probe exponent p", "a real number in (1, inf)", 1.0,
     lambda v: lp_norm_probe(MultiplierOp(np.zeros(1), 1.0, ONES), v, 8, 1, 0)),
    ("alpha for degree 2 and p0 4", "a real number in (0, 1.25e-07)", 1e-3,
     lambda v: PipelineConfig(alpha=v, c0=64, p0=4, degree=2)),
    ("jump threshold lam", "a real number in (0, inf]", 0.0, lambda v: jump_count([0.0, 1.0], v)),
    ("variation exponent r", "a real number in [1, inf]", 0.5, lambda v: variation([0.0, 1.0], v)),
    ("variation exponent r", "a real number in [1, inf]", 0.5, lambda v: variation_values(np.ones((3, 2)), v)),
    ("oscillation exponent r", "a real number in [1, inf]", 0.5,
     lambda v: oscillation([1.0, 2.0, 3.0], [0, 2], v)),
    ("lacunary ratio tau", "a real number in (1, inf)", 1.0, lambda v: lacunary(v, 64)),
    ("norm exponent p", "a real number in (0, inf)", math.inf, lambda v: lepingle_stat(v, 3, 4, 2, 0)),
    # reals read for the first time: OverflowError, TypeError or a quiet answer before
    ("cut_log2", "a real number in (-inf, 1024)", 2000, lambda v: shell_vanishing_overlap(2, v, 1, -3)),
    ("lower_cut_log2", "a real number in (-inf, 1024)", 2000, lambda v: shell_vanishing_overlap(3, -7, 2, v)),
    ("log2_scale", "a real number in (-1024, inf)", -2000, eta_at_scale),
    ("eps", "a real number in (-inf, inf)", math.inf, lambda v: weyl_decay_scan(SQUARE, [64], v, 1.0, 10, 1)),
    ("big_c", "a real number in (-inf, inf)", -math.inf,
     lambda v: weyl_decay_scan(SQUARE, [64], 0.125, v, 10, 1)),
    ("support_halfwidth", "a real number in [0, inf)", -1,
     lambda v: MultiplierOp(np.zeros(1), 1.0, ONES, support_halfwidth=v)),
    # bounded integers
    ("shell level", "an integer in [0, 11]", 12, dyadic_shell),
    ("shell level l", "an integer in [0, 11]", 2000, lambda v: DyadicScale(v, -3)),
    ("halfwidth exponent m", "an integer <= 1023", 1024, lambda v: DyadicScale(2, v)),
    ("level", "an integer in [0, 11]", 2000, lambda v: approx_average_op(SQUARE, 64, v, 2)),
    ("depth", "an integer in [0, 20]", 21, lambda v: lepingle_stat(2, 3, v, 2, 0)),
    ("trials", "an integer in [1, 1000000]", 10**6 + 1, lambda v: lepingle_stat(2, 3, 2, v, 0)),
    ("l_max", "an integer in [0, 11]", 12, lambda v: lemma1_grid_sweep(SQUARE, [64], v, 1, 3)),
    ("uniform_from", "an integer in [0, 3]", 4,
     lambda v: average_series(FiniteSystem(8, 1), LINEAR, Signal.delta(8), [4, 8], uniform_from=v)),
    ("numerator", "an integer in [0, 4]", 5, lambda v: ReducedFraction(v, 5)),
    ("N", "an integer >= 64", 32, lambda v: arc_split(Signal.delta(64), SQUARE, v, PipelineConfig.desk(2))),
    # bounded integers read for the first time
    ("lower_level", "an integer in [0, 11]", 2000, lambda v: shell_vanishing_overlap(3, -7, v, -7)),
    ("high_scale", "an integer in [-512, 511]", 600, lambda v: approx_average_op(SQUARE, 64, 2, v)),
    ("narrow_scale", "an integer in [-1024, 1023]", 2000,
     lambda v: factorization_gap(Signal.delta(64), SQUARE, 64, 2, 1, v)),
    # scales N whose work grows with N, at most _util.MAX_SCALE: a huge N ran without end or
    # failed inside numpy
    ("N", SCALE, 2**24 + 1, lambda v: discrepancy(LINEAR, 0.5, [v]), "N of scales"),
    ("N", SCALE, 2**24 + 1, lambda v: average_linear(SQUARE, v, Signal.delta(8)), "N of averages"),
    ("N", SCALE, 2**24 + 1, lambda v: kernel(SQUARE, v, 8), "N of kernel"),
    ("N", SCALE, 2**24 + 1, lambda v: average_bilinear(SQUARE, v, Signal.delta(8), Signal.delta(8)),
     "N of average_bilinear"),
    ("N", SCALE, 2**24 + 1, lambda v: lemma1_residual(SQUARE, v, ReducedFraction(1, 3), 0.3333, 4.0),
     "N of lemma1_residual"),
    ("N", SCALE, 2**24 + 1, lambda v: weyl_sum(SQUARE, v, 0.3), "N of weyl_sum"),
    # moduli Q of a table of length Q, at most _util.MAX_MODULUS: 2^40 asked numpy for
    # 8 TiB in kernel and minor_sup_grid
    ("modulus", SCALE, 2**24 + 1, lambda v: kernel(SQUARE, 4, v), "modulus of kernel"),
    ("modulus", SCALE, 2**24 + 1, lambda v: minor_sup_grid(SQUARE, 64, scan_arcs(64, 2, 0.125, 1.0), v),
     "modulus of minor_sup_grid"),
    ("modulus", SCALE, 2**24 + 1, MultiplierOp(np.zeros(1), 1.0, ONES).symbol_on_grid,
     "modulus of symbol_on_grid"),
    ("modulus", SCALE, 2**24 + 1, lambda v: projection_property_report(v, 2, -6, 0),
     "modulus of projection_property_report"),
    ("modulus", SCALE, 2**40, Signal.delta, "modulus of Signal.delta"),  # asked numpy for 16 TiB
]


@pytest.mark.parametrize("name, kind, call, value", [
    pytest.param(name, kind, call, value, id=f"{label[0] if label else name}-{value!r}")
    for name, kind, out_of_range, call, *label in CASES
    for value in (math.nan, "0.5", None, 1j, out_of_range)
    if not (name == "support_halfwidth" and value is None)  # None: no support limit
])
def test_bad_value_is_named(name, kind, call, value):
    message = f"{name} must be {kind}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_values_in_range_pass_through_unchanged():
    assert integer(np.int64(3), "x", 0, 3) == 3 and type(integer(np.int64(3), "x", 0, 3)) is int
    for value in (2, 2.5, np.float32(2.5), np.int64(2)):
        assert real(value, "x", "[2, 3)") is value  # reports echo what the caller gave
    assert real(math.inf, "x", "[1, inf]") == math.inf
    with pytest.raises(ValueError, match=re.escape("x must be a real number in [1, inf), got inf")):
        real(math.inf, "x", "[1, inf)")
    with pytest.raises(ValueError, match=re.escape("x must be a real number in (-inf, inf), got -inf")):
        real(-math.inf, "x", "(-inf, inf)")
    assert jump_count([0.0, 1.0], 1).parameters == {"lambda": 1}


def test_multiplier_centers_are_finite():
    # a NaN center gave an all-zero or all-one symbol
    for halfwidth in (None, 0.1):
        with pytest.raises(ValueError, match="^multiplier needs at least one center, and finite ones$"):
            MultiplierOp(np.array([0.25, math.nan]), 1.0, ONES, support_halfwidth=halfwidth)


def test_huge_arc_halfwidth_covers_the_torus_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # "overflow encountered in subtract" before
        assert ArcSystem(4, 1e308).coverage == 1.0
        assert TorusIntervalSet.from_arcs([0.1, 0.7], 1e308).intervals == ((0.0, 1.0),)
    # every halfwidth >= 1/2 covers the torus, the float width test included
    wide = ArcSystem(2048, 0.5 + 2.0**-40).intervals
    assert wide.intervals == ((0.0, 1.0),) and wide.measure == 1.0
