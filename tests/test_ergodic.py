import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_lab import _util, ergodic_lab, seminorms
from circle_lab._util import substream
from circle_lab.ergodic_lab import (
    AverageSeries,
    FiniteSystem,
    average_series,
    convergence_diagnostic,
    discrepancy,
    mean_ergodic_check,
    star_discrepancy,
)
from circle_lab.polyavg import IntPolynomial, Signal, average_linear, riesz_split
from circle_lab.seminorms import lacunary, variation_values

from oracles import exact_pnorm

SQUARE = IntPolynomial((0, 0, 1))
LINEAR = IntPolynomial((0, 1))


def random_signal(q, seed, real=False):
    rng = substream(seed)
    vals = rng.standard_normal(q)
    if not real:
        vals = vals + 1j * rng.standard_normal(q)
    return Signal(q, vals)


def naive_orbit_average(sys, poly, f, n):
    q = sys.modulus
    out = np.zeros(q, dtype=np.complex128)
    for x in range(q):
        acc = 0j
        for k in range(1, n + 1):
            acc += f.values[(x - sys.shift * poly(k)) % q]
        out[x] = acc / n
    return out


class TestAverageSeries:
    def test_matches_naive_orbit_sum(self):
        sys = FiniteSystem(17, 5)
        f = random_signal(17, 1)
        series = average_series(sys, SQUARE, f, [3, 7, 19])
        for n, sig in zip(series.indices, series.signals):
            assert np.allclose(sig.values, naive_orbit_average(sys, SQUARE, f, n), atol=1e-12)

    def test_full_orbit_mean(self):
        sys = FiniteSystem(12, 1)
        f = random_signal(12, 2)
        series = average_series(sys, LINEAR, f, [12, 24, 36])
        for sig in series.signals:
            assert np.allclose(sig.values, f.values.mean(), atol=1e-12)

    def test_constant_signal(self):
        sys = FiniteSystem(9, 4)
        series = average_series(sys, SQUARE, Signal(9, np.full(9, 3.0, dtype=complex)), [2, 5])
        for sig in series.signals:
            assert np.allclose(sig.values, 3.0)

    def test_matches_kernel_example(self):
        sys = FiniteSystem(5, 1)
        series = average_series(sys, SQUARE, Signal.delta(5), [5])
        assert np.allclose(series.signals[0].values.real, [0.2, 0.4, 0, 0, 0.4], atol=1e-12)

    def test_modulus_checked(self):
        with pytest.raises(ValueError, match="modulus"):
            average_series(FiniteSystem(8, 1), LINEAR, Signal.delta(4), [2])

    def test_uniform_mode(self):
        sys = FiniteSystem(11, 3)
        f = random_signal(11, 3)
        m, n = 4, 9
        got = average_series(sys, SQUARE, f, [n], uniform_from=m).signals[0]
        expect = np.zeros(11, dtype=np.complex128)
        for x in range(11):
            expect[x] = sum(
                f.values[(x - 3 * SQUARE(k)) % 11] for k in range(m + 1, n + 1)
            ) / (n - m)
        assert np.allclose(got.values, expect, atol=1e-12)

    def test_uniform_windows_match_literal_sum(self):
        # one call, windows (M, N] with M and N on both sides of Q
        q, m = 13, 20
        sys = FiniteSystem(q, 5)
        f = random_signal(q, 4)
        ns = [21, 22, 30, 57, 200]
        series = average_series(sys, SQUARE, f, ns, uniform_from=m)
        for n, sig in zip(ns, series.signals):
            expect = np.array([
                sum(f.values[(x - 5 * SQUARE(k)) % q] for k in range(m + 1, n + 1)) / (n - m)
                for x in range(q)
            ])
            assert np.allclose(sig.values, expect, atol=1e-12)

    def test_uniform_needs_room(self):
        sys = FiniteSystem(7, 1)
        with pytest.raises(ValueError, match="uniform"):
            average_series(sys, LINEAR, Signal.delta(7), [3], uniform_from=3)

    def test_uniform_windows_on_lacunary_indices_above_m(self):
        # a lacunary set always holds 1, so windows (M, N] take its N > M
        sys, m = FiniteSystem(16, 3), 4
        f = random_signal(16, 5)
        ns = [n for n in lacunary(2, 64) if n > m]
        series = average_series(sys, LINEAR, f, ns, uniform_from=m)
        assert series.indices == (8, 16, 32, 64)
        for n, sig in zip(ns, series.signals):
            expect = np.array([
                sum(f.values[(x - 3 * k) % 16] for k in range(m + 1, n + 1)) / (n - m)
                for x in range(16)
            ])
            assert np.allclose(sig.values, expect, atol=1e-12)

    @pytest.mark.parametrize("m", [-1, -3])
    def test_negative_uniform_from_rejected(self, m):
        sys = FiniteSystem(7, 1)
        with pytest.raises(ValueError, match="uniform_from"):
            average_series(sys, LINEAR, Signal.delta(7), [3, 5], uniform_from=m)
        with pytest.raises(ValueError, match="uniform_from"):
            average_series(sys, LINEAR, Signal.delta(7), [3], uniform_from=m)

    def test_scales_are_sorted_distinct_integers(self):
        sys = FiniteSystem(7, 1)
        f = random_signal(7, 6)
        series = average_series(sys, LINEAR, f, [9, 3, np.int64(9), 5])
        assert series.indices == (3, 5, 9) and all(type(n) is int for n in series.indices)
        assert np.array_equal(series.values, average_series(sys, LINEAR, f, [3, 5, 9]).values)

    @pytest.mark.parametrize("ns, m, message", [
        pytest.param([2.5, 4], 0, "N must be an integer in [1, 16777216], got 2.5",  # was read as N = 2
                     id="ns0-0-N must be an integer >= 1, got 2.5"),
        pytest.param([0, 4], 0, "N must be an integer in [1, 16777216], got 0",
                     id="ns1-0-N must be an integer >= 1, got 0"),
        ([], 0, "need at least one N"),
        # an explicit id names the case; the message is checked in full
        pytest.param([4], 1.0, "uniform_from must be an integer in [0, 3], got 1.0",
                     id="ns3-1.0-uniform_from must be a non-negative integer, got 1.0"),
    ])
    def test_rejects_bad_scales(self, ns, m, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            average_series(FiniteSystem(7, 1), LINEAR, Signal.delta(7), ns, uniform_from=m)

    @pytest.mark.parametrize("modulus, shift, message", [
        (2.5, 1, "modulus must be an integer >= 1, got 2.5"),  # failed later with a TypeError
        (0, 1, "modulus must be an integer >= 1, got 0"),
        (8, 1.0, "shift must be an integer, got 1.0"),
    ])
    def test_system_rejects_non_integers(self, modulus, shift, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FiniteSystem(modulus, shift)

    def test_series_size_is_checked_before_allocating(self):
        # 128 scales on Z/2^20Z would be 2 GiB; Q = 2^24 at --tau 1.05 asked numpy for 32 GiB
        f = Signal.delta(2**20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    "128 scales N times modulus 1048576 exceed 67108864 values")):
                average_series(FiniteSystem(2**20, 3), LINEAR, f, range(1, 129))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_series_size_ceiling_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(ergodic_lab, "MAX_SERIES", 64)
        f = random_signal(16, 3)
        assert average_series(FiniteSystem(16, 3), LINEAR, f, [1, 2, 3, 4]).values.shape == (4, 16)
        with pytest.raises(ValueError, match=re.escape("5 scales N times modulus 16 exceed 64 values")):
            average_series(FiniteSystem(16, 3), LINEAR, f, [1, 2, 3, 4, 5])

    def test_ergodic_flag(self):
        assert FiniteSystem(10, 3).is_ergodic
        assert not FiniteSystem(10, 4).is_ergodic
        assert not FiniteSystem(10, 0).is_ergodic


class TestSeriesLayout:
    """One read-only (T, Q) array; rows, signals and the matrix view it."""

    @staticmethod
    def series(q=32, shift=3, poly=SQUARE, tau=1.5, nmax=200):
        sys = FiniteSystem(q, shift)
        f = random_signal(q, 11)
        return average_series(sys, poly, f, lacunary(tau, nmax)), f

    def test_matrix_is_the_read_only_values(self):
        series, _ = self.series()
        mat = series.matrix()
        assert mat.shape == (len(series.indices), 32) and mat.dtype == np.complex128
        assert np.shares_memory(mat, series.values)
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_signals_view_rows_bit_equal_to_average_linear(self):
        series, f = self.series()
        orbit = IntPolynomial(series.system.shift * c for c in series.poly.coefficients)
        for n, sig in zip(series.indices, series.signals):
            assert sig.modulus == 32 and np.shares_memory(sig.values, series.values)
            assert np.array_equal(sig.values, average_linear(orbit, n, f).values)

    def test_constructor_keeps_its_own_read_only_copy(self):
        vals = np.ones((2, 4), dtype=np.complex128)
        series = AverageSeries((1, 2), vals, FiniteSystem(4, 1), LINEAR)
        vals[0, 0] = 5.0
        assert series.values[0, 0] == 1.0 and not series.values.flags.writeable
        frozen = series.values
        assert AverageSeries((1, 2), frozen, FiniteSystem(4, 1), LINEAR).values is frozen

    @pytest.mark.parametrize("vals, message", [
        (np.ones((3, 4)), "one row of Q values per index"),
        (np.ones((2, 5)), "one row of Q values per index"),
        (np.array([[1.0, 2.0, np.nan, 0.0], [0.0] * 4]), "finite"),
        (np.array([[1.0, 2.0, 0.0, 0.0], [complex(0, np.inf)] * 4]), "finite"),
    ])
    def test_constructor_checks_values(self, vals, message):
        with pytest.raises(ValueError, match=message):
            AverageSeries((1, 2), vals, FiniteSystem(4, 1), LINEAR)

    @pytest.mark.parametrize("indices", [(2, 1), (1, 1)])
    def test_constructor_needs_increasing_indices(self, indices):
        with pytest.raises(ValueError, match="strictly increasing"):
            AverageSeries(indices, np.zeros((2, 4)), FiniteSystem(4, 1), LINEAR)

    def test_diagnostic_holds_less_than_one_copy_of_the_series(self):
        sys = FiniteSystem(4096, 3)
        series = average_series(sys, SQUARE, random_signal(4096, 12), lacunary(1.05, 4096))
        assert series.values.shape == (128, 4096)
        tracemalloc.start()
        try:
            convergence_diagnostic(series, 2.0, tail_start=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < series.values.nbytes


class TestConvergenceDiagnostic:
    @staticmethod
    def series(q=64, shift=3, seed=9, tau=1.5, nmax=2048):
        sys = FiniteSystem(q, shift)
        f = random_signal(q, seed, real=True)
        return average_series(sys, LINEAR, f, lacunary(tau, nmax)), f

    def test_constant_gives_zeros(self):
        sys = FiniteSystem(16, 3)
        series = average_series(sys, LINEAR, Signal(16, np.full(16, 1, dtype=complex)), lacunary(2, 64))
        diag = convergence_diagnostic(series, 2.0, tail_start=4)
        assert diag["variation"]["max"] == 0.0
        assert diag["oscillation"]["max"] == 0.0
        assert diag["tail_width"]["max"] == 0.0

    def test_ergodic_tail_bound(self):
        q = 64
        series, f = self.series(q=q)
        diag = convergence_diagnostic(series, 2.0, tail_start=4 * q)
        bound = 2 * np.abs(f.values).max() * q / (4 * q)
        assert diag["tail_width"]["max"] <= bound

    def test_tail_width_monotone(self):
        series, _ = self.series()
        widths = [
            convergence_diagnostic(series, 2.0, tail_start=t)["tail_width"]["max"]
            for t in (16, 64, 256)
        ]
        assert widths[0] >= widths[1] >= widths[2]

    def test_two_index_width_is_pair_gap(self):
        sys = FiniteSystem(8, 3)
        f = random_signal(8, 10)
        series = average_series(sys, LINEAR, f, [4, 9])
        diag = convergence_diagnostic(series, 2.0, tail_start=1)
        gap = np.abs(series.signals[1].values - series.signals[0].values).max()
        assert diag["tail_width"]["max"] == pytest.approx(gap)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_aggregates_match_exact_sums(self, scale):
        # (1e200)^2 overflows and (1e-200)^2 underflows without units
        vals = substream(23).standard_normal((6, 16)) * scale
        series = AverageSeries((1, 2, 4, 8, 16, 32), vals, FiniteSystem(16, 3), LINEAR)
        diag = convergence_diagnostic(series, 2.0, tail_start=8, p_values=(1.0, 2.0, 3.0))
        stats = {"variation": variation_values(vals, 2.0), "tail_width": variation_values(vals[3:], math.inf)}
        for name, stat in stats.items():
            assert diag[name]["max"] == stat.max()
            for p in (1, 2, 3):
                want = exact_pnorm(stat, p, mean=True)
                assert diag[name][f"l{p}"] == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("r", [2.0, 3.0])
    def test_worker_count_moves_no_bit(self, monkeypatch, r):
        # 6145 columns split unevenly over 2 and 3 workers; the tail of 40
        # rows is wide enough to split as well
        started = []

        def pool(max_workers):
            started.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        def diagnostic(count):
            monkeypatch.setattr(seminorms, "resolve_threads", lambda: count)
            return convergence_diagnostic(series, r, tail_start=41)

        monkeypatch.setattr(_util, "ThreadPoolExecutor", pool)
        vals = substream(24).standard_normal((80, 6145)) + 1j * substream(25).standard_normal((80, 6145))
        series = AverageSeries(tuple(range(1, 81)), vals, FiniteSystem(6145, 3), LINEAR)
        want = diagnostic(1)
        assert started == []
        for count in (2, 3):
            assert diagnostic(count) == want
        assert started == [2, 2, 3, 3]
        assert want["variation"]["max"] == variation_values(vals, r).max()

    def test_small_series_start_no_pool(self, monkeypatch):
        def refuse(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(_util, "ThreadPoolExecutor", refuse)
        series = average_series(FiniteSystem(64, 3), SQUARE, random_signal(64, 13), lacunary(1.05, 4096))
        for count in (1, 2, 4):
            monkeypatch.setattr(seminorms, "resolve_threads", lambda: count)
            convergence_diagnostic(series, 2.0, tail_start=1024)

    def test_rejects_infinite_exponent(self):
        series = average_series(FiniteSystem(8, 1), LINEAR, Signal.delta(8), [2, 4])
        with pytest.raises(ValueError, match=re.escape("diagnostic exponent r must be a real number in [1, inf), got inf")):
            convergence_diagnostic(series, math.inf, tail_start=1)

    def test_tail_start_is_an_integer(self):
        series = average_series(FiniteSystem(8, 1), LINEAR, Signal.delta(8), [2, 4, 8])
        with pytest.raises(ValueError, match=re.escape("tail_start must be an integer, got 2.5")):
            convergence_diagnostic(series, 2.0, tail_start=2.5)
        assert convergence_diagnostic(series, 2.0, tail_start=np.int64(2))["tail_start"] == 2

    def test_needs_tail_points(self):
        sys = FiniteSystem(8, 1)
        series = average_series(sys, LINEAR, Signal.delta(8), [2, 4])
        with pytest.raises(ValueError, match="tail_start"):
            convergence_diagnostic(series, 2.0, tail_start=5)


class TestDiscrepancy:
    def test_total_concentration(self):
        rep = discrepancy(LINEAR, 0.0, [10])
        assert rep.entries == ((10, 1.0),)

    def test_universal_bounds(self):
        rep = discrepancy(SQUARE, math.sqrt(2), [13, 61, 200])
        for n, d in rep.entries:
            assert 1.0 / (2 * n) - 1e-15 <= d <= 1.0

    def test_sqrt2_linear_decay(self):
        rep = discrepancy(LINEAR, math.sqrt(2), [100, 10000])
        d = dict(rep.entries)
        assert d[10000] <= 0.01
        assert d[10000] <= d[100] / 5

    @pytest.mark.parametrize("ns, message", [
        ([], "need at least one N"),
        pytest.param([2.5, 10], "N must be an integer in [1, 16777216], got 2.5",  # was read as N = 2
                     id="ns1-N must be an integer >= 1, got 2.5"),
    ])
    def test_rejects_bad_scales(self, ns, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            discrepancy(LINEAR, math.sqrt(2), ns)

    def test_square_orbit_trend_recorded(self):
        rep = discrepancy(SQUARE, math.sqrt(2), [100, 1000, 10000])
        ds = [d for _, d in rep.entries]
        assert ds[-1] < ds[0]

    def test_orbit_matches_float_arithmetic(self):
        theta = math.sqrt(2)
        rep = discrepancy(LINEAR, theta, [50])
        direct = sorted((k * theta) % 1.0 for k in range(1, 51))
        assert rep.entries[0][1] == pytest.approx(star_discrepancy(np.array(direct)), abs=1e-9)

    @given(
        coeffs=st.lists(st.integers(-(10**25), 10**25), min_size=1, max_size=5),
        num=st.integers(-(2**60), 2**60),
        shift=st.integers(0, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_fraction_reference(self, coeffs, num, shift):
        # den <= 2^64: each point is the exact residue over den, rounded once
        theta = num * 2.0**-shift
        ns = [1, 7, 300]
        x = Fraction(theta)
        pts = np.array([float(x * IntPolynomial(coeffs)(k) % 1) for k in range(1, 301)])
        ref = tuple((n, star_discrepancy(pts[:n])) for n in ns)
        assert discrepancy(IntPolynomial(coeffs), theta, ns).entries == ref

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_rejects_nonfinite_theta(self, theta):
        with pytest.raises(ValueError, match=re.escape(f"theta must be a real number in (-inf, inf), got {theta!r}")):
            discrepancy(LINEAR, theta, [10])

    def test_star_discrepancy_formula(self):
        # one point at 0.5: D* = max(1 - 0.5, 0.5 - 0) = 0.5
        assert star_discrepancy(np.array([0.5])) == pytest.approx(0.5)
        # uniform grid {0, .25, .5, .75}: D* = 1/4
        assert star_discrepancy(np.arange(4) / 4) == pytest.approx(0.25)


class TestMeanErgodicCheck:
    def test_invariant_signal(self):
        sys = FiniteSystem(12, 5)
        rep = mean_ergodic_check(sys, Signal(12, np.full(12, 2.5, dtype=complex)), [3, 7, 12])
        assert all(dev == 0.0 for _, dev in rep["entries"])

    def test_exact_at_orbit_multiples(self):
        sys = FiniteSystem(16, 3)
        f = random_signal(16, 11)
        rep = mean_ergodic_check(sys, f, [16, 32, 48])
        assert all(dev <= 1e-13 for _, dev in rep["entries"])

    def test_coboundary_telescoping(self):
        sys = FiniteSystem(32, 7)
        rng = substream(12)
        g = Signal(32, rng.standard_normal(32))
        cob = g - Signal(32, np.roll(g.values, sys.shift))  # g after T
        for n in (5, 20, 100):
            rep = mean_ergodic_check(sys, cob, [n])
            bound = 2 * np.abs(g.values).max() / n
            assert rep["entries"][0][1] <= bound + 1e-12

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_deviation_matches_exact_sum(self, scale):
        # squares of 1e200 overflow and squares of 1e-200 underflow without units
        sys = FiniteSystem(16, 3)
        f = Signal(16, substream(24).standard_normal(16) * scale)
        rep = mean_ergodic_check(sys, f, [5, 9])
        series = average_series(sys, LINEAR, f, [5, 9])
        invariant = riesz_split(f, 3).invariant.values
        for (n, dev), row in zip(rep["entries"], series.values):
            assert dev == pytest.approx(exact_pnorm(row - invariant, 2, mean=True), rel=1e-13, abs=0)

    def test_modulus_checked(self):
        with pytest.raises(ValueError, match="signal modulus must match the system"):
            mean_ergodic_check(FiniteSystem(8, 1), Signal.delta(4), [2])

    def test_rejects_non_integer_scales(self):
        # [2.5, 4] was read as N = 2 and 4
        with pytest.raises(ValueError, match=re.escape("N must be an integer in [1, 16777216], got 2.5")):
            mean_ergodic_check(FiniteSystem(8, 1), Signal.delta(8), [2.5, 4])

    def test_nonergodic_reports_flag(self):
        rep = mean_ergodic_check(FiniteSystem(12, 4), Signal.delta(12), [6])
        assert not rep["ergodic"]


class TestFiniteSystem:
    def test_compose_power(self):
        # T^power f, f(x - power * s), is the N = 1 average along the constant
        # polynomial power; the retired compose is np.roll by power * s
        sys = FiniteSystem(8, 3)
        f = Signal.delta(8)
        for power, at in ((np.int64(2), 6), (-1, 5)):
            moved = average_series(sys, IntPolynomial((power,)), f, [1]).signals[0]
            assert np.array_equal(moved.values, Signal.delta(8, at).values)
            assert np.array_equal(np.roll(f.values, (power * sys.shift) % 8), moved.values)

    @pytest.mark.parametrize("power", [1.5, 2.0, "2"])
    def test_compose_power_is_an_integer(self, power):
        # 1.5 rolled the signal by int(4.5) = 4 without a word
        with pytest.raises(ValueError, match=re.escape(f"coefficient must be an integer, got {power!r}")):
            average_series(FiniteSystem(8, 3), IntPolynomial((power,)), Signal.delta(8), [1])
