import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circle_lab.expsums as expsums
from circle_lab._util import substream
from circle_lab.arcs import ArcSystem, ReducedFraction, TorusPoint, minor_sample
from circle_lab.expsums import (
    _TILE_CELLS,
    _expi,
    _mm_many,
    _phases,
    _reduce,
    _weyl_many,
    DecayScanReport,
    complete_sum,
    continuous_multiplier,
    lemma1_grid_sweep,
    lemma1_residual,
    minor_sup_grid,
    scan_arcs,
    weyl_decay_scan,
    weyl_sum,
)
from circle_lab.polyavg import IntPolynomial, kernel, spectrum

from oracles import (
    exact_weyl,
    fine_mm,
    fresnel_mm_square,
    linear_mm,
    naive_weyl,
    trial_totient,
)

SQUARE = IntPolynomial((0, 0, 1))
LINEAR = IntPolynomial((0, 1))
CUBE = IntPolynomial((0, 0, 0, 1))


class TestWeylSum:
    def test_zero_frequency(self):
        for poly in (SQUARE, CUBE, IntPolynomial((5, -1, 4))):
            assert weyl_sum(poly, 17, 0.0) == pytest.approx(1.0)
        assert abs(weyl_sum(SQUARE, 17, 0.0) - 1.0) < 1e-15

    def test_two_term_cancellation(self):
        assert abs(weyl_sum(SQUARE, 2, ReducedFraction(1, 2))) < 1e-15

    def test_alternating_linear(self):
        assert abs(weyl_sum(LINEAR, 4, 0.5)) < 1e-14

    def test_reads_torus_points(self):
        assert weyl_sum(SQUARE, 40, TorusPoint(0.137)) == weyl_sum(SQUARE, 40, 0.137)
        with pytest.raises(ValueError, match="finite"):
            weyl_sum(SQUARE, 40, math.nan)

    @pytest.mark.parametrize("n", [0, 2.5, 64.0, "8"])
    def test_rejects_non_integer_scales(self, n):
        # the rational path costs O(min(N, q)), so only real points bound N
        for xi, kind in ((0.3, "an integer in [1, 16777216]"), (ReducedFraction(1, 3), "an integer >= 1")):
            with pytest.raises(ValueError, match=re.escape(f"N must be {kind}, got {n!r}")):
                weyl_sum(SQUARE, n, xi)
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            continuous_multiplier(SQUARE, n, 0.3)

    def test_matches_naive(self):
        for xi in (0.137, 0.61803, 0.25):
            got = weyl_sum(SQUARE, 40, xi)
            assert abs(got - naive_weyl(SQUARE, 40, xi)) < 1e-11

    def test_rational_and_float_paths_agree(self):
        fr = ReducedFraction(3, 7)
        for n in (5, 23, 100):
            exact = weyl_sum(SQUARE, n, fr)
            floaty = weyl_sum(SQUARE, n, 3 / 7)
            assert abs(exact - floaty) < 1e-10

    def test_fraction_argument(self):
        assert weyl_sum(SQUARE, 12, Fraction(1, 4)) == pytest.approx(
            weyl_sum(SQUARE, 12, ReducedFraction(1, 4))
        )

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_modulus_bound_and_symmetries(self, xi, n):
        val = weyl_sum(SQUARE, n, xi)
        assert abs(val) <= 1.0 + 1e-12
        assert abs(weyl_sum(SQUARE, n, xi + 1.0) - val) < 1e-9
        assert abs(weyl_sum(SQUARE, n, -xi) - val.conjugate()) < 1e-9


class TestExactPhaseReduction:
    """Huge, negative and ~10^30 coefficients at real points, and rational
    points at N << q, N = q and N > q, against the Fraction oracle."""

    BIG = [
        IntPolynomial((0, 10**20 + 7)),
        IntPolynomial((0, -(10**20 + 7))),
        IntPolynomial((3, -(10**30) - 1)),
        IntPolynomial((10**30 + 7, 10**29 + 3)),
        IntPolynomial((1, -(10**30) + 9, 10**30 + 11)),
    ]

    @pytest.mark.parametrize("xi", [0.1234567, -0.1234567, 0.9, 0.77 * 2**-30])
    def test_big_coefficients_real_point(self, xi):
        for poly in self.BIG:
            assert abs(weyl_sum(poly, 200, xi) - exact_weyl(poly, 200, xi)) < 1e-12

    def test_big_coefficients_array_path(self):
        xs = substream(4).uniform(size=12)
        for poly in self.BIG:
            ref = np.array([exact_weyl(poly, 200, x) for x in xs])
            assert np.abs(_weyl_many(poly, 200, xs) - ref).max() < 1e-12

    def test_big_coefficient_decay_scan(self):
        poly = self.BIG[0]
        rep = weyl_decay_scan(poly, [64, 200], 0.125, 1.0, 20, 11, threads=1)
        for idx, (n, sup) in enumerate(rep.points):
            pts = minor_sample(scan_arcs(n, 1, 0.125, 1.0), 20, substream(11, idx))
            ref = max(abs(exact_weyl(poly, n, p.value)) for p in pts)
            assert abs(sup - ref) < 1e-12

    @given(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=5),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_coefficients_exact(self, coeffs, xs, n):
        poly = IntPolynomial(coeffs)
        ref = np.array([exact_weyl(poly, n, x) for x in xs])
        assert np.abs(np.array([weyl_sum(poly, n, x) for x in xs]) - ref).max() <= 1e-15
        assert np.abs(_weyl_many(poly, n, np.array(xs)) - ref).max() <= 1e-15

    @pytest.mark.parametrize("n, a, q", [(10, 3, 10**7), (97, 5, 97), (250, 37, 101)])
    def test_rational_point_ranges(self, n, a, q):
        got = weyl_sum(SQUARE, n, ReducedFraction(a, q))
        assert abs(got - naive_weyl(SQUARE, n, Fraction(a, q))) < 1e-12

    @pytest.mark.parametrize("n, a, q", [(1000, 7, 24), (333, 11, 100), (5, 1, 10**30)])
    def test_rational_big_coefficients(self, n, a, q):
        poly = IntPolynomial((0, 10**20 + 7, -(10**30)))
        got = weyl_sum(poly, n, Fraction(a, q))
        assert abs(got - exact_weyl(poly, n, Fraction(a, q))) < 1e-12

    @pytest.mark.parametrize("a, q", [(1, 3), (5, 97), (3, 1024), (2, 70001)])
    def test_rational_huge_n(self, a, q):
        # N = 10^30 is N // q whole periods of the phase plus a head of N % q terms
        n, xi = 10**30, Fraction(a, q)
        k, r = divmod(n, q)
        want = (k * q * exact_weyl(SQUARE, q, xi) + (r * exact_weyl(SQUARE, r, xi) if r else 0)) / n
        assert abs(weyl_sum(SQUARE, n, xi) - want) < 1e-12

    @pytest.mark.parametrize("n, q", [(1, 5), (20, 23), (23, 23), (30, 23), (100, 30), (100, 7), (45, 1000)])
    def test_rational_chunks(self, monkeypatch, n, q):
        # chunks of 7 residues: the head of weight N // q + 1 ends inside, at or past a chunk
        monkeypatch.setattr(expsums, "_RATIONAL_CHUNK", 7)
        poly = IntPolynomial((3, -(10**20), 10**30 + 11))
        for a in (1, q - 1):
            got = weyl_sum(poly, n, Fraction(a, q))
            assert abs(got - exact_weyl(poly, n, Fraction(a, q))) < 1e-12

    def test_rational_memory_is_bounded(self):
        # the whole min(N, q) = 2^20 residue table took 48 MiB at once
        tracemalloc.start()
        try:
            weyl_sum(SQUARE, 2**20, Fraction(1, 2**20 + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_rational_sum_does_not_depend_on_blas_threads(self):
        # one dot over all 20011 residues was split over the OpenBLAS threads, so
        # its last bits followed the CPU count
        code = ("from fractions import Fraction; from circle_lab import IntPolynomial, weyl_sum; "
                "print(repr(weyl_sum(IntPolynomial((0, 0, 1)), 20011, Fraction(1, 20011))))")
        env = {**os.environ, "PYTHONPATH": str(Path(expsums.__file__).parents[1])}
        outs = {
            subprocess.run([sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": t},
                           capture_output=True, text=True, check=True).stdout
            for t in ("1", "2")
        }
        assert len(outs) == 1

    @pytest.mark.parametrize("n, q", [(2**24 + 1, 2**24 + 1), (10**30, 2**24 + 3), (2**24 + 1, 10**30 + 1)])
    def test_rational_work_past_the_ceiling(self, n, q):
        message = f"min(N, q) must be at most 16777216, got N = {n} and q = {q}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            weyl_sum(SQUARE, n, Fraction(1, q))

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    def test_nonfinite_xi_rejected(self, xi):
        with pytest.raises(ValueError, match="finite"):
            weyl_sum(SQUARE, 10, xi)
        with pytest.raises(ValueError, match="finite"):
            continuous_multiplier(SQUARE, 10, xi)


QUINTIC = IntPolynomial((0, 0, 0, 0, 0, 1))


def exact_units(poly, n: int, xi: float) -> Fraction:
    """xi * P(n) mod 1 in units of 2^-64 turn, exact in rationals."""
    return Fraction(xi) * poly(n) % 1 * 2**64


class TestPhaseKernel:
    """The uint64 phase kernel against exact Fraction phases: exact whenever
    xi's binary denominator is at most 2^64, within the README bound below
    that, for coefficients and P(n) of any size."""

    @given(
        coeffs=st.lists(st.integers(-(10**30), 10**30), min_size=2, max_size=7).filter(lambda c: c[-1]),
        num=st.integers(-(2**70), 2**70),
        shift=st.integers(0, 64),
        n=st.integers(1, 2**14),
    )
    @settings(max_examples=80, deadline=None)
    def test_phases_exact_when_den_divides_two_to_64(self, coeffs, num, shift, n):
        poly = IntPolynomial(coeffs)
        xi = num * 2.0**-shift  # num rounds to an integer, so den divides 2^shift
        ns = np.array(sorted({1, n, max(1, n - 1), (n + 1) // 2}), dtype=np.uint64)
        hi, lo = _reduce(poly.coefficients, np.array([xi]))
        out = np.empty((1, ns.size), dtype=np.uint64)
        assert _phases(hi, lo, ns, out) is None
        assert out[0].tolist() == [exact_units(poly, int(k), xi) for k in ns]

    @pytest.mark.parametrize("xi", [0.77 * 2**-30, 1e-5, -3e-7, 2.0**-11 * 0.999, 5e-324])
    @pytest.mark.parametrize("poly", [IntPolynomial((0, 10**20 + 7)), IntPolynomial((3, -(10**20), 0, 0, 0, 10**20 + 1))])
    def test_tiny_point_huge_coefficient_within_bound(self, xi, poly):
        # README: below |xi| = 2^-11 the phase error is at most
        # 2^-65 + (2d + 1)(d + 1) N^d 2^-117 turns
        n, d = 4096, poly.degree
        bound = 2.0**-65 + (2 * d + 1) * (d + 1) * float(n) ** d * 2.0**-117
        ns = np.arange(1, n + 1, 37, dtype=np.uint64)
        hi, lo = _reduce(poly.coefficients, np.array([xi]))
        out = np.empty((1, ns.size), dtype=np.uint64)
        rest = _phases(hi, lo, ns, out)
        rest = np.zeros(ns.size) if rest is None else rest[0]
        for k, unit, part in zip(ns.tolist(), out[0].tolist(), rest.tolist()):
            err = (unit + Fraction(part) - exact_units(poly, k, xi) + 2**63) % 2**64 - 2**63
            assert abs(err) * 2.0**-64 <= bound
        assert abs(weyl_sum(poly, n, xi) - exact_weyl(poly, n, xi)) <= 1e-15

    def test_table_matches_cos_sin(self):
        units = np.concatenate([
            substream(12).integers(0, 2**64, size=10**5, dtype=np.uint64),
            np.array([0, 2**52 - 1, 2**52, 2**64 - 1], dtype=np.uint64),
        ])
        # the signed view is t - round(t) in units, so the angle is within pi
        angle = 2 * math.pi * units.view(np.int64).astype(float) * 2.0**-64
        got = _expi(units)
        assert np.abs(got.real - np.cos(angle)).max() <= 1e-15
        assert np.abs(got.imag - np.sin(angle)).max() <= 1e-15

    @pytest.mark.parametrize("xi", [0.1234567, 0.3 + 1e-5])
    def test_degree_five_weyl_sum(self, xi):
        # the float Horner was 1.7e-2 off here
        assert abs(weyl_sum(QUINTIC, 4096, xi) - exact_weyl(QUINTIC, 4096, xi)) <= 1e-15

    def test_degree_five_decay_scan(self):
        rep = weyl_decay_scan(QUINTIC, [64, 4096], 0.125, 1.0, 6, 7, threads=1)
        for idx, (n, sup) in enumerate(rep.points):
            pts = minor_sample(scan_arcs(n, 5, 0.125, 1.0), 6, substream(7, idx))
            assert abs(sup - max(abs(exact_weyl(QUINTIC, n, p.value)) for p in pts)) <= 1e-15

    def test_tiles_split_along_n(self):
        n = _TILE_CELLS + 3
        assert abs(weyl_sum(SQUARE, n, 0.61803) - exact_weyl(SQUARE, n, 0.61803)) <= 1e-15

    @pytest.mark.parametrize("n", [64, 100, 5000])
    @pytest.mark.parametrize("poly", [SQUARE, IntPolynomial((3, -7, 0, 2, 0, 5))])
    def test_tiles_over_points_match_one_point_calls(self, poly, n):
        # at N = 64 and 100 the last row tile is partial; every 7th point lies
        # below 2^-11, so the float rests are sliced per tile too
        xs = substream(14).uniform(-1.0, 1.0, 1500)
        xs[::7] *= 2.0**-12
        want = [weyl_sum(poly, n, x) for x in xs.tolist()]
        assert np.array_equal(_weyl_many(poly, n, xs), want)

    def test_scratch_memory_is_bounded(self):
        weyl_sum(SQUARE, 64, 0.3)  # the table and caches are built outside the window
        tracemalloc.start()
        try:
            weyl_sum(SQUARE, 2**20, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestCompleteSum:
    def test_trivial_center(self):
        assert complete_sum(SQUARE, ReducedFraction(0, 1)) == pytest.approx(1.0)

    def test_half(self):
        assert abs(complete_sum(SQUARE, ReducedFraction(1, 2))) < 1e-15

    def test_gauss_magnitude_five(self):
        val = abs(complete_sum(SQUARE, ReducedFraction(1, 5)))
        assert val == pytest.approx(5**-0.5, abs=1e-12)

    def test_matches_weyl_sum_up_to_500(self):
        for q in (2, 3, 17, 123, 256, 499, 500):
            a = max(x for x in range(1, q + 1) if math.gcd(x, q) == 1) % q
            theta = ReducedFraction(a if q > 1 else 0, q)
            diff = abs(complete_sum(SQUARE, theta) - weyl_sum(SQUARE, q, theta))
            assert diff < 1e-12

    def test_gauss_all_odd_primes_to_97(self):
        primes = [p for p in range(3, 98) if trial_totient(p) == p - 1]
        for p in primes:
            for a in range(1, p):
                g = abs(complete_sum(SQUARE, ReducedFraction(a, p)))
                assert abs(g - p**-0.5) < 1e-9

    def test_modulus_bound(self):
        for q in (7, 24, 111):
            for a in (1, q - 1):
                if math.gcd(a, q) == 1:
                    assert abs(complete_sum(CUBE, ReducedFraction(a, q))) <= 1 + 1e-12


class TestContinuousMultiplier:
    def test_zero(self):
        assert continuous_multiplier(SQUARE, 31, 0.0) == pytest.approx(1.0)
        assert continuous_multiplier(IntPolynomial((0, 1, 1)), 10**160, 0.0) == pytest.approx(1.0)

    def test_linear_closed_form(self):
        n = 100
        for z in (0.5, 3.7, 12.25):
            xi = z / n
            got = continuous_multiplier(LINEAR, n, xi)
            exact = (np.exp(2j * np.pi * z) - 1) / (2j * np.pi * z)
            assert abs(got - exact) < 1e-8

    def test_small_phase_consistency(self):
        n = 256
        for xi in (n**-2 / 4, -(n**-2) / 4, n**-2 / 8):
            w = weyl_sum(SQUARE, n, xi % 1.0)
            m = continuous_multiplier(SQUARE, n, xi)
            assert abs(w - m) <= 0.05

    def test_budget_error(self):
        # binomials are in closed form; only other polynomials have a budget
        with pytest.raises(RuntimeError, match="panel"):
            continuous_multiplier(IntPolynomial((0, 1, 1)), 4096, 0.49)

    def test_modulus_bound(self):
        for xi in (1e-4, 7e-3):
            assert abs(continuous_multiplier(CUBE, 32, xi)) <= 1 + 1e-9


def binomial(d: int, c0: int, lead: int) -> IntPolynomial:
    return IntPolynomial((c0,) + (0,) * (d - 1) + (lead,))


LEADS = [1, -1, 3, -7, 10**20, -(10**20)]


class TestMmClosedForm:
    """Binomials c0 + c n^d in closed form against independent oracles."""

    @given(
        d=st.integers(1, 6),
        c0=st.sampled_from([0, 5, -(10**20 + 3)]),
        lead=st.sampled_from(LEADS),
        n=st.sampled_from([1, 7, 64, 1000]),
        log_lam=st.floats(-6.0, 5.0),
        sign=st.sampled_from([1, -1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_fine_quadrature(self, d, c0, lead, n, log_lam, sign):
        xi = sign * 10.0**log_lam / (lead * n**d)
        poly = binomial(d, c0, lead)
        got = continuous_multiplier(poly, n, xi)
        assert abs(got - fine_mm(poly, n, xi)) < 1e-12
        if d == 1:
            assert abs(got - linear_mm(c0, lead, n, xi)) < 1e-12

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("lam", [0.5, 1 - 2**-40, 1.0, 1 + 2**-40, 2.0])
    def test_both_sides_of_unit_phase(self, d, lam):
        # |lam| = 1 is where the power series hands over to steepest descent
        poly = binomial(d, 0, 1)
        for xi in (lam, -lam):
            assert abs(continuous_multiplier(poly, 1, xi) - fine_mm(poly, 1, xi)) < 1e-13

    @given(
        d=st.integers(1, 6),
        lead=st.sampled_from(LEADS),
        n=st.sampled_from([1, 64, 4096]),
        log_lam=st.floats(-6.0, 12.0),
        sign=st.sampled_from([1, -1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_van_der_corput_bound(self, d, lead, n, log_lam, sign):
        xi = sign * 10.0**log_lam / (lead * n**d)
        lam = abs(xi * lead * float(n) ** d)
        # |f^(d)| = 2 pi d! lam for f = 2 pi lam t^d; constant 5 * 2^(d-1) - 2
        bound = (5 * 2 ** (d - 1) - 2) * (2 * math.pi * math.factorial(d) * lam) ** (-1 / d)
        assert abs(continuous_multiplier(binomial(d, 3, lead), n, xi)) <= min(1.0, bound) + 1e-15

    @pytest.mark.parametrize("n, xi", [(4096, 0.4), (1024, 0.4), (4096, 0.1234567), (300, 0.25)])
    def test_square_matches_fresnel(self, n, xi):
        assert abs(continuous_multiplier(SQUARE, n, xi) - fresnel_mm_square(n, xi)) < 1e-14

    def test_cube_large_phase(self):
        # lam = 0.01 * 256^3 ~ 1.7e5, past any panel budget
        assert abs(continuous_multiplier(CUBE, 256, 0.01) - fine_mm(CUBE, 256, 0.01)) < 1e-12

    def test_array_matches_points(self):
        xs = np.concatenate([substream(8).uniform(-1e-3, 1e-3, 40), [0.0, 2.0**-16, -(2.0**-16)]])
        many = _mm_many(SQUARE, 256, xs)
        single = np.array([continuous_multiplier(SQUARE, 256, x) for x in xs])
        assert many.shape == xs.shape and np.abs(many - single).max() <= 1e-15

    @pytest.mark.parametrize("xi", [1e-5, -3e-4, 2e-3])
    def test_non_binomial_takes_gauss_legendre(self, xi):
        poly = IntPolynomial((0, 1, 1))
        got = continuous_multiplier(poly, 64, xi)
        assert abs(got - fine_mm(poly, 64, xi)) < 1e-9


class TestMmConstantTerm:
    """c0 only turns mm_N by e(xi c0), so it never counts as phase variation;
    checked against `fine_mm`, which also factors c0 out exactly."""

    @given(
        c0=st.integers(-(10**30), 10**30),
        middle=st.lists(st.integers(-3, 3), min_size=1, max_size=2).filter(any),
        lead=st.sampled_from([1, -1, 2, -3]),
        n=st.sampled_from([1, 8, 64]),
        xi=st.floats(-1e-3, 1e-3),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_binomial_matches_fine_quadrature(self, c0, middle, lead, n, xi):
        poly = IntPolynomial((c0, *middle, lead))
        got = continuous_multiplier(poly, n, xi)
        assert abs(got - fine_mm(poly, n, xi)) < 1e-9
        shifted = continuous_multiplier(IntPolynomial((0, *middle, lead)), n, xi)
        assert abs(got - complex(np.exp(2j * math.pi * float(Fraction(xi) * c0 % 1))) * shifted) < 1e-15

    @given(c0=st.integers(-(10**30), 10**30), n=st.sampled_from([1, 64, 10**9]), xi=st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_constant_is_a_pure_turn(self, c0, n, xi):
        poly = IntPolynomial((c0,))
        assert abs(continuous_multiplier(poly, n, xi) - fine_mm(poly, n, xi)) < 1e-14

    def test_huge_constant_within_budget(self):
        # the variation of P - c0 is about 4; with c0 counted it would be 1e9
        poly = IntPolynomial((10**12 + 7, 1, 1))
        assert abs(continuous_multiplier(poly, 64, 1e-3) - fine_mm(poly, 64, 1e-3)) < 1e-9

    @pytest.mark.parametrize("d", range(1, 7))
    def test_lam_past_float_range_is_zero(self, d):
        # |mm_N| <= (5 * 2^(d-1) - 2) (2 pi d! |lam|)^(-1/d) < 1e-49 once |lam| > 1.8e308
        xs = np.array([0.1, -0.25, 1e-80])
        assert np.array_equal(_mm_many(binomial(d, 5, 10**400), 3, xs), np.zeros(3))

    def test_huge_non_binomial_hits_budget(self):
        with pytest.raises(RuntimeError, match="panel"):
            continuous_multiplier(IntPolynomial((0, 1, 10**400)), 4, 0.1)


class TestDecayScan:
    def test_single_point_single_sample(self):
        rep = weyl_decay_scan(SQUARE, [64], 0.125, 1.0, 1, 3)
        assert len(rep.points) == 1 and rep.points[0][0] == 64
        assert 0.0 <= rep.points[0][1] <= 1.0

    def test_deterministic(self):
        a = weyl_decay_scan(SQUARE, [64, 128], 0.125, 1.0, 50, 9)
        b = weyl_decay_scan(SQUARE, [64, 128], 0.125, 1.0, 50, 9)
        assert a.points == b.points

    def test_threads_do_not_change_results(self):
        a = weyl_decay_scan(SQUARE, [64, 128, 256], 0.125, 1.0, 40, 9, threads=1)
        b = weyl_decay_scan(SQUARE, [64, 128, 256], 0.125, 1.0, 40, 9, threads=4)
        assert a.points == b.points

    def test_degree_one_reciprocal_decay(self):
        ns = [2**k for k in range(6, 13)]
        rep = weyl_decay_scan(LINEAR, ns, 0.0, 1.0, 1000, 2, halfwidth=0.05)
        assert abs(rep.exponent - 1.0) <= 0.2
        sups = dict(rep.points)
        # geometric-series oracle: |m_N| <= 1 / (N sin(pi * dist)) off the arcs
        for n, s in sups.items():
            assert s <= 1.0 / (n * math.sin(math.pi * 0.05)) + 1e-12

    def test_sampled_sup_vs_grid_oracle(self):
        arcs = scan_arcs(64, 2, 0.125, 1.0)
        grid = minor_sup_grid(SQUARE, 64, arcs, 2**16)
        rep = weyl_decay_scan(SQUARE, [64], 0.125, 1.0, 2000, 7)
        sampled = rep.points[0][1]
        assert sampled <= grid + 1e-12
        assert sampled >= 0.3 * grid

    @pytest.mark.parametrize("eps, big_c", [(1000.0, 1000.0), (1e200, 1e200), (2.0, 1.0)])
    def test_arc_bound_past_the_farey_table_raises(self, eps, big_c):
        # 64^(10^6) raised OverflowError; 64^2 = 4096 already passes the bound 2048
        with pytest.raises(ValueError, match=re.escape("eps * big_c must keep delta^(-C) = N^(eps * big_c) within the Farey")):
            scan_arcs(64, 2, eps, big_c)

    def test_arc_bound_below_the_farey_table_holds(self):
        # 64^(11/6 - 1e-9) is just below 2048, and 64^-10^6 is 0, clamped to 1
        assert scan_arcs(64, 2, 11 / 6 - 1e-9, 1.0).denominator_bound == 64.0 ** (11 / 6 - 1e-9)
        assert scan_arcs(64, 2, -1000.0, 1000.0).denominator_bound == 1.0

    @pytest.mark.parametrize("n", [10**400, 2**1024 - 1, int(sys.float_info.max) + 1])
    def test_scale_past_the_float_range_raises(self, n):
        # float(n) raised OverflowError (exit 1 from weyl-scan --eps 0)
        message = f"N must be an integer in [1, {sys.float_info.max!r}], got a {n.bit_length()}-bit N"
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError, match=re.escape(message)):
                scan_arcs(n, 2, eps, 1.0)

    def test_largest_float_scale_holds(self):
        arcs = scan_arcs(int(sys.float_info.max), 2, 0.0, 1.0)
        assert arcs.denominator_bound == 1.0 and arcs.halfwidth == 0.0

    def test_grid_multiplier_values(self):
        grid = spectrum(kernel(SQUARE, 12, 32))
        for j in (0, 5, 17):
            assert abs(grid[j] - weyl_sum(SQUARE, 12, j / 32)) < 1e-12

    @pytest.mark.parametrize("ns", [[0, 64], [-64, 64]])
    def test_rejects_scales_below_one(self, ns):
        with pytest.raises(ValueError, match=re.escape(f"N must be an integer in [1, 16777216], got {ns[0]}")):
            weyl_decay_scan(SQUARE, ns, 0.125, 1.0, 5, 0)

    @pytest.mark.parametrize("ns, message", [
        pytest.param([2.5, 64], "N must be an integer in [1, 16777216], got 2.5",  # was read as N = 2
                     id="ns0-N must be an integer >= 1, got 2.5"),
        ([], "need at least one N"),
    ])
    def test_rejects_bad_scale_lists(self, ns, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            weyl_decay_scan(SQUARE, ns, 0.125, 1.0, 5, 0)

    @pytest.mark.parametrize("samples", [0, 2.0])
    def test_rejects_bad_sample_count(self, samples):
        with pytest.raises(ValueError, match=re.escape(f"samples must be an integer >= 1, got {samples!r}")):
            weyl_decay_scan(SQUARE, [64], 0.125, 1.0, samples, 0)

    def test_grid_oracle_needs_a_minor_point(self):
        with pytest.raises(ValueError, match="arcs cover every grid frequency"):
            minor_sup_grid(SQUARE, 64, ArcSystem(2, 0.3), 8)

    @pytest.mark.parametrize("grid_q", [2**40, 10**30])
    def test_grid_oracle_modulus_past_the_ceiling(self, grid_q):
        # 2^40 asked numpy for 8 TiB; 10^30 failed in a cast from dtype('O')
        message = f"modulus must be an integer in [1, 16777216], got {grid_q}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            minor_sup_grid(SQUARE, 64, scan_arcs(64, 2, 0.125, 1.0), grid_q)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            DecayScanReport(points=((64, 0.5), (32, 0.4)), exponent=1.0, fit_residual=0.0, params={})


class TestLemma1:
    def test_zero_center(self):
        res = lemma1_residual(SQUARE, 64, ReducedFraction(0, 1), 0.0, 4096.0)
        assert res.residual == 0.0 and res.ratio == 0.0

    def test_exact_at_center_multiple_period(self):
        theta = ReducedFraction(2, 5)
        res = lemma1_residual(SQUARE, 30, theta, theta.value, 900.0 / 4)
        assert res.residual < 1e-12

    def test_offset_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            lemma1_residual(SQUARE, 64, ReducedFraction(0, 1), 0.25, 100.0)

    @pytest.mark.parametrize("big_m", [math.nan, 0.0, -4.0, math.inf])
    def test_rejects_bad_big_m(self, big_m):
        with pytest.raises(ValueError, match=re.escape(f"M must be a real number in (0, inf), got {big_m!r}")):
            lemma1_residual(SQUARE, 64, ReducedFraction(1, 3), 0.3333, big_m)

    def test_shell_index(self):
        # the bound's 2^l has the smallest l with q <= 2^l; at N = M = 64 the rest is 1 + 1/64
        thetas = [ReducedFraction(0, 1)] + [ReducedFraction(1, q) for q in (2, 3, 4, 5, 8, 9, 16)]
        bounds = [lemma1_residual(SQUARE, 64, t, t.value, 64.0).bound for t in thetas]
        assert bounds == [2.0**l * (1 + 1 / 64) for l in (0, 1, 2, 2, 3, 3, 4, 4)]

    @pytest.mark.parametrize("q", [2.5, 0, -4])
    def test_shell_index_needs_a_denominator(self, q):
        # the shell (q - 1).bit_length() is taken of a checked denominator:
        # 2.5 raised AttributeError, and 0 gave shell 1
        with pytest.raises(ValueError, match=re.escape(f"denominator must be an integer >= 1, got {q!r}")):
            lemma1_residual(SQUARE, 64, ReducedFraction(0, q), 0.0, 64.0)

    def test_square_cell_1024_0_matches_exact_phases(self):
        # cell "1024,0" of the README sweep (seed 3, 100 samples); with float
        # Horner phases its ratio was 2.85e-10 relative off
        n, big_m = 1024, 1024.0**2
        sweep = lemma1_grid_sweep(SQUARE, [64, 128, 256, 512, 1024], 0, 100, 3)
        rng = substream(3, 4, 0)  # the sweep's stream for (N index 4, level 0)
        ratios = []
        for _ in range(100):
            rng.integers(1)  # the level-0 shell holds only 0/1
            xi = (0.0 + rng.uniform(-1.0, 1.0) / big_m) % 1.0
            residual = abs(exact_weyl(SQUARE, n, xi) - fine_mm(SQUARE, n, xi - round(xi)))
            ratios.append(residual / (n / big_m + 1.0 / n))
        assert sweep["cells"][(n, 0)] == pytest.approx(max(ratios), rel=1e-11, abs=0)

    def test_reads_torus_points(self):
        theta = ReducedFraction(1, 3)
        got = lemma1_residual(SQUARE, 64, theta, TorusPoint(0.3334), 4096.0)
        assert got == lemma1_residual(SQUARE, 64, theta, 0.3334, 4096.0)
        lifted = lemma1_residual(SQUARE, 64, ReducedFraction(3, 8), TorusPoint(1.375), 4096.0)
        assert lifted == lemma1_residual(SQUARE, 64, ReducedFraction(3, 8), 0.375, 4096.0)
        with pytest.raises(ValueError, match="finite"):
            lemma1_residual(SQUARE, 64, theta, math.nan, 4096.0)

    @pytest.mark.parametrize("ns, message", [
        pytest.param([0], "N must be an integer in [1, 16777216], got 0",  # was a ZeroDivisionError
                     id="ns0-N must be an integer >= 1, got 0"),
        ([], "need at least one N"),  # was "max() arg is an empty sequence"
        pytest.param([2.5, 4], "N must be an integer in [1, 16777216], got 2.5",  # was read as N = 2
                     id="ns2-N must be an integer >= 1, got 2.5"),
    ])
    def test_sweep_rejects_bad_scales(self, ns, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            lemma1_grid_sweep(SQUARE, ns, 1, 2, 3)

    @pytest.mark.parametrize("l_max, samples, message", [
        (1, 0, "samples_per_cell must be an integer >= 1, got 0"),
        # an explicit id names the case; the message is checked in full
        pytest.param(1.0, 2, "l_max must be an integer in [0, 11], got 1.0",
                     id="1.0-2-l_max must be a non-negative integer, got 1.0"),
        pytest.param(-1, 2, "l_max must be an integer in [0, 11], got -1",
                     id="-1-2-l_max must be a non-negative integer, got -1"),
    ])
    def test_sweep_rejects_bad_counts(self, l_max, samples, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            lemma1_grid_sweep(SQUARE, [64], l_max, samples, 3)

    def test_sweep_stability(self):
        sweep = lemma1_grid_sweep(SQUARE, [64, 128], 2, 20, 3)
        per_n = sweep["max_ratio_per_n"]
        assert all(math.isfinite(v) for v in per_n.values())
        assert 0.5 <= per_n[128] / per_n[64] <= 2.0
