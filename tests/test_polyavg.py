import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circle_lab.polyavg import (
    IntPolynomial,
    Signal,
    average_bilinear,
    average_linear,
    kernel,
    maximal_function,
    riesz_split,
    signal_from_spectrum,
    spectrum,
)
from circle_lab._util import integer, substream
from circle_lab.ergodic_lab import FiniteSystem, average_series

from oracles import exact_pnorm, grouped_average, naive_average

SQUARE = IntPolynomial((0, 0, 1))
LINEAR = IntPolynomial((0, 1))


def random_signal(q, seed, real=False):
    rng = substream(seed)
    vals = rng.standard_normal(q)
    if not real:
        vals = vals + 1j * rng.standard_normal(q)
    return Signal(q, vals)


class TestIntPolynomial:
    def test_eval_examples(self):
        assert SQUARE(0) == 0
        assert SQUARE(7) == 49
        assert IntPolynomial((0, 2, 0, 1))(5) == 135

    def test_exact_wide_arithmetic(self):
        poly = IntPolynomial((3, -7, 0, 11))
        n = 10**9
        assert poly(n) == 11 * n**3 - 7 * n + 3

    def test_normalization(self):
        assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
        assert IntPolynomial(()).coefficients == (0,)
        assert IntPolynomial((0, 0)).degree == 0
        assert IntPolynomial((0, 1, 5)).degree == 2

    @pytest.mark.parametrize("coefficients", [(0, 0.5), (0, 1.0), ("1",)])
    def test_coefficients_are_integers(self, coefficients):
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            IntPolynomial(coefficients)
        assert IntPolynomial((np.int64(2), 3)) == IntPolynomial((2, 3))

    def test_parse_and_str(self):
        assert IntPolynomial.parse("0,0,1") == SQUARE
        assert str(SQUARE) == "n^2"
        assert str(IntPolynomial((1, -2))) == "1 + -2*n"

    def test_residue_wide_integer_fallback(self):
        # modulus large enough to force the exact-Python path
        from circle_lab.polyavg import _residues

        poly = IntPolynomial((3, -1, 0, 9))
        modulus = (1 << 61) + 1
        got = _residues(poly, 6, modulus)
        expect = [poly(n) % modulus for n in range(1, 7)]
        assert got.tolist() == expect

    @pytest.mark.parametrize("n_max, modulus", [(2000, 2**52), (50, 10**30 + 57), (300, 97)])
    def test_residues_match_exact(self, n_max, modulus):
        from circle_lab.polyavg import _residues

        poly = IntPolynomial((10**25 + 3, -7, 0, -(10**20)))
        got = _residues(poly, n_max, modulus)
        assert got.tolist() == [poly(n) % modulus for n in range(1, n_max + 1)]


class TestKernel:
    def test_linear_uniform(self):
        k = kernel(LINEAR, 4, 4)
        assert np.allclose(k.values.real, 0.25)

    def test_squares_mod_five(self):
        k = kernel(SQUARE, 5, 5)
        assert np.allclose(k.values.real, [0.2, 0.4, 0.0, 0.0, 0.4])

    def test_single_term_point_mass(self):
        poly = IntPolynomial((4, 3))
        k = kernel(poly, 1, 10)
        expect = np.zeros(10)
        expect[poly(1) % 10] = 1.0
        assert np.allclose(k.values.real, expect)

    @pytest.mark.parametrize("modulus", [8.0, 0, -2])
    def test_rejects_bad_modulus(self, modulus):
        # 8.0 raised numpy's UFuncTypeError
        with pytest.raises(ValueError, match=re.escape(f"modulus must be an integer in [1, 16777216], got {modulus!r}")):
            kernel(SQUARE, 4, modulus)

    def test_mass_one(self):
        for q in (7, 64, 257):
            k = kernel(SQUARE, 100, q)
            assert abs(k.values.sum() - 1.0) < 1e-12
            assert (k.values.real >= 0).all()


class TestAverageLinear:
    def test_constant_fixed(self):
        f = Signal(16, np.full(16, 3.5 - 1j, dtype=complex))
        out = average_linear(SQUARE, 9, f)
        assert np.allclose(out.values, 3.5 - 1j)

    def test_delta_squares(self):
        out = average_linear(SQUARE, 5, Signal.delta(5))
        assert np.allclose(out.values.real, [0.2, 0.4, 0.0, 0.0, 0.4], atol=1e-12)

    def test_full_orbit_gives_mean(self):
        f = random_signal(12, 1)
        for k in (1, 3):
            out = average_linear(LINEAR, 12 * k, f)
            assert np.allclose(out.values, f.values.mean(), atol=1e-12)

    def test_matches_naive_definition(self):
        f = random_signal(17, 2)
        poly = IntPolynomial((1, 2, 3))
        out = average_linear(poly, 23, f)
        assert np.allclose(out.values, naive_average(poly, 23, f), atol=1e-12)

    def test_fft_agrees_with_direct(self):
        for q, seed in ((64, 3), (257, 4), (1024, 5)):
            f = random_signal(q, seed)
            a = grouped_average(SQUARE, 200, f)
            b = average_linear(SQUARE, 200, f)
            assert np.linalg.norm(a - b.values) <= 1e-9 * f.norm(2)

    @pytest.mark.parametrize(
        "poly, q, n",
        [(IntPolynomial((1, 2, 3)), 257, 301), (LINEAR, 64, (1 << 16) + 1), (SQUARE, 1024, 4097)],
        ids=["below", "above-linear", "above-square"],
    )
    def test_matches_oracles_on_both_sides_of_nq_2_22(self, poly, q, n):
        # the literal sum costs O(N*Q) Python steps, seconds at N*Q = 2^22,
        # so only the grouped oracle runs above that size
        f = random_signal(q, n)
        out = average_linear(poly, n, f).values
        assert np.linalg.norm(out - grouped_average(poly, n, f)) <= 1e-9 * f.norm(2)
        if n * q < 1 << 22:
            assert np.allclose(out, naive_average(poly, n, f), atol=1e-12)

    def test_mass_conservation(self):
        f = random_signal(50, 7)
        out = average_linear(SQUARE, 31, f)
        assert abs(out.values.sum() - f.values.sum()) <= 1e-10 * abs(f.values.sum())

    def test_positivity_and_contraction(self):
        rng = substream(8)
        f = Signal(40, np.abs(rng.standard_normal(40)))
        out = average_linear(SQUARE, 21, f)
        assert (out.values.real >= -1e-14).all()
        g = random_signal(40, 9)
        avg = average_linear(SQUARE, 21, g)
        assert np.abs(avg.values).max() <= np.abs(g.values).max() + 1e-12


def _divisors(q):
    return [g for g in range(1, q + 1) if q % g == 0]


@st.composite
def invariant_cases(draw):
    """Q, g | Q, a polynomial whose coefficients are multiples of g, a shift,
    N, a window start M < N, and a period-g signal."""
    q = draw(st.integers(1, 96))
    g = draw(st.sampled_from(_divisors(q)))
    coeffs = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4))
    n = draw(st.integers(1, 300))
    m = draw(st.integers(0, n - 1))
    shift = draw(st.integers(-q, q))
    parts = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    period = draw(st.lists(st.tuples(parts, parts), min_size=g, max_size=g))
    f = Signal(q, np.tile([complex(re, im) for re, im in period], q // g))
    return q, IntPolynomial(g * c for c in coeffs), shift, n, m, f


class TestInvariantSignalsExact:
    @given(invariant_cases())
    @example((12, SQUARE, 5, 7, 3, Signal(12, np.full(12, 0.1, dtype=complex))))
    @settings(max_examples=120, deadline=None)
    def test_period_signals_come_back_bit_identical(self, case):
        q, poly, shift, n, m, f = case
        assert np.array_equal(average_linear(poly, n, f).values, f.values)
        system = FiniteSystem(q, shift)
        for start in {0, m}:
            series = average_series(system, poly, f, [n, n + 7], uniform_from=start)
            for sig in series.signals:
                assert np.array_equal(sig.values, f.values)
        mx = maximal_function(poly, f, [n, max(1, m), n + 3])
        assert np.array_equal(mx.values, np.abs(f.values).astype(np.complex128))


class TestAverageBilinear:
    def test_ones(self):
        f = Signal(11, np.full(11, 1, dtype=complex))
        out = average_bilinear(SQUARE, 8, f, f)
        assert np.allclose(out.values, 1.0)

    def test_degenerate_second_factor(self):
        f = random_signal(13, 10)
        ones = Signal(13, np.full(13, 1, dtype=complex))
        out = average_bilinear(SQUARE, 9, f, ones)
        ref = average_linear(LINEAR, 9, f)
        assert np.allclose(out.values, ref.values, atol=1e-12)

    def test_double_delta(self):
        d = Signal.delta(5)
        out = average_bilinear(SQUARE, 5, d, d)
        assert np.allclose(out.values.real, [0.2, 0.2, 0.0, 0.0, 0.0], atol=1e-12)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="modulus mismatch"):
            average_bilinear(SQUARE, 3, Signal.delta(4), Signal.delta(5))


class TestMaximalFunction:
    def test_constant(self):
        out = maximal_function(SQUARE, Signal(9, np.full(9, 1, dtype=complex)), [2, 5, 7])
        assert np.allclose(out.values.real, 1.0)

    def test_delta_reciprocal(self):
        out = maximal_function(
            LINEAR, Signal.delta(1024), list(range(1, 513))
        )
        xs = np.arange(1, 513)
        assert np.allclose(out.values.real[1:513], 1.0 / xs, atol=1e-12)

    def test_single_n(self):
        f = random_signal(20, 11)
        out = maximal_function(SQUARE, f, [6])
        ref = np.abs(average_linear(SQUARE, 6, f).values)
        assert np.allclose(out.values.real, ref)

    def test_needs_scales(self):
        with pytest.raises(ValueError):
            maximal_function(SQUARE, Signal.delta(4), [])

    def test_ratio_recorded_only(self):
        # empirical l2 ratio of the maximal function; no constant asserted
        f = random_signal(128, 12)
        out = maximal_function(SQUARE, f, [2**k for k in range(1, 7)])
        ratio = out.norm(2) / f.norm(2)
        assert math.isfinite(ratio) and ratio > 0


class TestRieszSplit:
    def test_zero_shift(self):
        f = random_signal(10, 13)
        for shift in (0, 10, -20):  # every shift that acts trivially
            inv, comp = riesz_split(f, shift)
            assert np.array_equal(inv.values, f.values)
            assert np.array_equal(comp.values, np.zeros(10))
            assert not np.signbit(comp.values.view(float)).any()  # no negative zeros

    def test_coprime_shift_gives_mean(self):
        f = random_signal(12, 14)
        inv, _ = riesz_split(f, 5)
        assert np.allclose(inv.values, f.values.mean())

    def test_two_cosets(self):
        inv, comp = riesz_split(Signal(4, np.array([1.0, 2.0, 3.0, 4.0])), 2)
        assert np.allclose(inv.values.real, [2.0, 3.0, 2.0, 3.0])
        assert np.allclose((inv + comp).values.real, [1.0, 2.0, 3.0, 4.0])

    def test_orthogonal_and_invariant(self):
        f = random_signal(24, 15)
        for s in (0, 2, 3, 8, 23):
            inv, comp = riesz_split(f, s)
            assert abs(np.vdot(inv.values, comp.values)) <= 1e-10 * f.norm(2) ** 2
            shifted = np.roll(inv.values, s % 24)
            assert np.allclose(shifted, inv.values, atol=1e-12)

    @pytest.mark.parametrize("shift", [1.5, 2.0, "2"])
    def test_shift_is_an_integer(self, shift):
        # 1.5 raised TypeError from math.gcd
        with pytest.raises(ValueError, match=re.escape(f"shift must be an integer, got {shift!r}")):
            riesz_split(random_signal(8, 16), shift)


class TestSignal:
    def test_json_roundtrip(self):
        f = random_signal(6, 16)
        g = Signal.from_dict(json.loads(json.dumps(f.to_dict())))
        assert g.modulus == 6 and np.allclose(g.values, f.values)

    @pytest.mark.parametrize("build", [
        lambda: Signal(2.5, np.zeros(2)),
        lambda: Signal(0, np.zeros(0)),
        lambda: Signal.delta(0),  # was a ZeroDivisionError
        lambda: Signal.delta(-1),
        lambda: Signal.from_dict({"modulus": 2.0, "re": [0, 0], "im": [0, 0]}),
    ])
    def test_modulus_is_a_positive_integer(self, build):
        with pytest.raises(ValueError) as exc:
            build()
        # Signal.delta allocates its table, so its range stops at MAX_MODULUS
        kind = "in [1, 16777216]" if "delta" in build.__code__.co_names else ">= 1"
        assert str(exc.value).startswith(f"modulus must be an integer {kind}, got ")

    def test_delta_position_is_an_integer(self):
        with pytest.raises(ValueError, match=re.escape("at must be an integer, got 1.5")):
            Signal.delta(4, 1.5)
        assert Signal.delta(np.int64(4), np.int32(-1)).values[3] == 1.0

    def test_json_shape(self):
        d = json.loads(json.dumps(Signal.delta(3).to_dict()))
        assert set(d) == {"modulus", "re", "im"} and d["modulus"] == 3

    def test_csv_roundtrip(self):
        f = random_signal(5, 17)
        buf = io.StringIO("index,re,im\n" + "".join(
            f"{i},{float(v.real)!r},{float(v.imag)!r}\n" for i, v in enumerate(f.values)
        ))
        g = Signal.from_csv(buf)
        assert np.allclose(g.values, f.values)

    @pytest.mark.parametrize(
        "indices",
        [[1, 0, 2, 3], [0, 1, 1, 3], [0, 1, 3, 4], [1, 2, 3, 4], [0, 2, 1, 3]],
        ids=["swapped-head", "duplicated", "missing", "shifted", "shuffled"],
    )
    def test_csv_rejects_bad_index_column(self, indices):
        f = random_signal(4, 18)
        rows = "".join(
            f"{i},{float(v.real)!r},{float(v.imag)!r}\n" for i, v in zip(indices, f.values)
        )
        with pytest.raises(ValueError, match="index"):
            Signal.from_csv(io.StringIO("index,re,im\n" + rows))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Signal(2, np.array([1.0, np.nan]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Signal(3, np.zeros(4))

    def test_norms(self):
        f = Signal(2, np.array([3.0, 4.0]))
        assert abs(f.norm(2) - 5.0) < 1e-12
        assert f.norm(math.inf) == 4.0

    @pytest.mark.parametrize("p", [math.nan, -1.0, 0, 0.0, -math.inf])
    def test_norm_exponent_must_be_positive(self, p):
        # nan gave nan, -1 gave 0.48, and 0 raised ZeroDivisionError
        with pytest.raises(ValueError, match=re.escape(f"norm exponent p must be a real number in (0, inf], got {p!r}")):
            Signal(4, [1, 2, 3, 4]).norm(p)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160, 1e150, 1.0])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
    def test_norm_matches_exact_sum(self, scale, p):
        rng = substream(19)
        vals = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) * scale
        assert Signal(16, vals).norm(p) == pytest.approx(exact_pnorm(vals, p), rel=1e-13, abs=0)

    def test_norm_of_extreme_spikes(self):
        # the square of 1e200 overflows, the fourth power of 1e-200 underflows
        assert Signal(4, [1e200, 0, 0, 0]).norm(2) == pytest.approx(1e200, rel=1e-15)
        assert Signal(4, [1e-200, 0, 0, 0]).norm(4) == pytest.approx(1e-200, rel=1e-15)

    def test_ordinary_norm_keeps_its_bits(self):
        vals = random_signal(32, 20).values
        for p in (1, 2, 2.5, 3, 4):
            assert Signal(32, vals).norm(p) == float((np.abs(vals) ** p).sum() ** (1.0 / p))

    def test_values_frozen(self):
        f = Signal.delta(4)
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestSpectrum:
    def test_roundtrip(self):
        f = random_signal(32, 18)
        assert np.allclose(signal_from_spectrum(32, spectrum(f)).values, f.values)

    def test_average_is_multiplier(self):
        # spectrum of A_N f equals m_N(j/Q) * spectrum of f
        from circle_lab.expsums import weyl_sum

        f = random_signal(16, 19)
        out = spectrum(average_linear(SQUARE, 6, f))
        base = spectrum(f)
        for j in range(16):
            m = weyl_sum(SQUARE, 6, j / 16)
            assert abs(out[j] - m * base[j]) < 1e-9


class TestAliasingSafeModulus:
    def test_no_wraparound(self):
        poly = SQUARE
        n = 6
        diameter = 4
        q = 2 * diameter + poly.abs_bound(n) + 1  # the smallest Q with no wraparound
        # place a bump of diameter 4 at the origin and average on Z and on Z/QZ
        support = {0: 1.0, 1: -2.0, 3: 0.5, 4: 1.5}
        f = Signal(q, np.array([support.get(x, 0.0) for x in range(q)]))
        out = average_linear(poly, n, f)
        direct = {}
        for x, w in support.items():
            for k in range(1, n + 1):
                direct[x + poly(k)] = direct.get(x + poly(k), 0.0) + w / n
        for pos, val in direct.items():
            assert abs(out.values[pos % q] - val) < 1e-12


class TestIndexRange:
    def test_validation(self):
        # N is a Python or numpy integer in [1, 2^24]: nothing else is read as one
        for n in (0, -3, 2.5, 64.0, "8"):
            with pytest.raises(ValueError, match=re.escape(f"N must be an integer in [1, 16777216], got {n!r}")):
                kernel(SQUARE, n, 16)
        assert np.array_equal(kernel(SQUARE, np.int64(5), 16).values, kernel(SQUARE, 5, 16).values)


class TestIntegerCheck:
    @pytest.mark.parametrize("value, low, message", [
        (2.0, None, "q must be an integer, got 2.0"),
        ("3", None, "q must be an integer, got '3'"),
        (None, 0, "q must be a non-negative integer, got None"),
        (-1, 0, "q must be a non-negative integer, got -1"),
        (1, 2, "q must be an integer >= 2, got 1"),
        (np.float64(4), 1, f"q must be an integer >= 1, got {np.float64(4)!r}"),
    ])
    def test_message_names_the_value(self, value, low, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            integer(value, "q", low)

    @pytest.mark.parametrize("value", [5, np.int64(5), np.uint8(5), np.int32(5)])
    def test_python_and_numpy_integers_pass(self, value):
        out = integer(value, "q", 5)
        assert out == 5 and type(out) is int

    def test_bool_is_an_integer(self):
        assert integer(True, "q") == 1
