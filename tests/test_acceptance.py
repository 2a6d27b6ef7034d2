"""Acceptance battery: every release-gating check at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output) and also enforces its runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import circle_lab as cl
from circle_lab._util import substream

from oracles import fast_brute_jump, fast_brute_variation, grouped_average, trial_totient

SQUARE = cl.IntPolynomial((0, 0, 1))
CUBE = cl.IntPolynomial((0, 0, 0, 1))
LINEAR = cl.IntPolynomial((0, 1))


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d} [{label}]")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {num:2d} [{label}] ({elapsed:.2f}s / {budget_s:.0f}s budget)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_01_seminorm_oracle_equivalence():
    with criterion(1, "seminorm DP vs exhaustive enumeration", 30):
        rng = substream(101)
        for case in range(500):
            length = int(rng.integers(2, 13))
            vals = rng.standard_normal(length)
            for r in (1.0, 2.0, 3.0, math.inf):
                got = cl.variation(vals, r).value
                want = fast_brute_variation(vals, r)
                assert abs(got - want) <= 1e-12, (case, r)
            for lam in (0.1, 0.5, 1.0):
                got = cl.jump_count(vals, lam).value
                assert got == fast_brute_jump(vals, lam), (case, lam)


def test_02_convolution_oracle():
    with criterion(2, "FFT averaging vs grouped-sum oracle", 10):
        rng = substream(102)
        cases = 0
        while cases < 50:
            for q in (64, 257, 1024):
                degree = int(rng.integers(1, 4))
                coeffs = rng.integers(-9, 10, size=degree + 1).tolist()
                coeffs[-1] = int(coeffs[-1]) or 1
                poly = cl.IntPolynomial(coeffs)
                n = int(rng.integers(1, 300))
                f = cl.Signal(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))
                a = grouped_average(poly, n, f)
                b = cl.average_linear(poly, n, f)
                assert np.linalg.norm(a - b.values) <= 1e-9 * max(np.linalg.norm(a), 1e-30)
                cases += 1


def test_03_farey_totient_identity():
    with criterion(3, "Farey counts vs totient sums", 1):
        running = 1
        for n in range(1, 201):
            if n >= 2:
                running += trial_totient(n)
            assert len(cl.canonical_fractions(n)) == running


def test_04_gauss_sum_magnitudes():
    with criterion(4, "quadratic Gauss sum magnitudes", 5):
        primes = [p for p in range(3, 98) if all(p % d for d in range(2, p))]
        for p in primes:
            expect = p**-0.5
            for a in range(1, p):
                g = abs(cl.complete_sum(SQUARE, cl.ReducedFraction(a, p)))
                assert abs(g - expect) <= 1e-9


def test_05_projection_property_suite():
    with criterion(5, "projection structure on Z/512", 30):
        from circle_lab.multipliers import projection_property_report as remark2_checks

        q = 512
        for l in range(0, 5):
            for m in (-2 * l - 2, -2 * l - 4):
                rep = remark2_checks(q, l, m, seed=500 + l)
                assert rep["self_adjoint_gap"] <= 1e-10 * q
                assert rep["l2_contraction_ratio"] <= 1.0 + 1e-10
                assert rep["support_leak"] <= 1e-10
                assert rep["deep_support_size"] >= 1
                assert rep["reproduction_gap"] <= 1e-10


def test_06_weyl_decay_scan():
    with criterion(6, "minor-arc decay of |m_N|", 180):
        ns = [2**k for k in range(6, 13)]
        report = cl.weyl_decay_scan(SQUARE, ns, eps=0.125, big_c=1.0, samples=2000, seed=7)
        sups = dict(report.points)
        # sampling adequacy against the full-grid oracle at the smallest scale
        from circle_lab.expsums import scan_arcs

        arcs = scan_arcs(64, 2, 0.125, 1.0)
        grid_sup = cl.minor_sup_grid(SQUARE, 64, arcs, 2**16)
        assert sups[64] <= grid_sup + 1e-12
        assert sups[64] >= 0.3 * grid_sup
        assert report.exponent > 0.03
        assert sups[4096] <= 0.6 * sups[64]
        assert all(s > 0 for s in sups.values())


def test_07_lemma1_residual_grid():
    with criterion(7, "rational approximation residual stability", 120):
        ns = [2**k for k in range(6, 11)]
        for poly in (SQUARE, CUBE):
            sweep = cl.lemma1_grid_sweep(poly, ns, l_max=4, samples_per_cell=100, seed=3)
            per_n = [sweep["max_ratio_per_n"][n] for n in ns]
            assert all(math.isfinite(v) and v > 0 for v in per_n)
            for a, b in zip(per_n, per_n[1:]):
                assert 0.5 <= b / a <= 2.0


def test_08_minor_arc_split_decay():
    with criterion(8, "pipeline minor ratio decay", 120):
        q = 2**14
        rng = substream(108)
        f = cl.Signal(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))
        cfg = cl.PipelineConfig.desk(degree=2)
        ratios = {}
        for k in range(6, 13):
            major, minor, report = cl.arc_split(f, SQUARE, 2**k, cfg)
            total = cl.average_linear(SQUARE, 2**k, f)
            assert (major + minor - total).norm(2) <= 1e-9 * total.norm(2)
            ratios[2**k] = report["l2_ratio"]
        assert ratios[4096] <= 0.6 * ratios[64]


def test_09_lepingle_harness():
    with criterion(9, "martingale variation ratios", 60):
        stat = cl.lepingle_stat(2, 3, depth=10, trials=500, seed=11)
        # analytic ceiling sqrt(10) = 3.16 documents the margin below 10
        assert stat["max"] <= 10.0
        assert stat["max"] <= math.sqrt(10) + 1e-9
        low = cl.lepingle_stat(2, 3, depth=8, trials=500, seed=11)
        high = cl.lepingle_stat(2, 3, depth=16, trials=500, seed=11)
        assert high["max"] / low["max"] <= 1.5


def test_10_ergodic_exactness_and_coboundaries():
    with criterion(10, "orbit-cover exactness and telescoping", 5):
        rng = substream(110)
        for case in range(50):
            q = int(rng.integers(4, 64))
            shifts = [s for s in range(1, q) if math.gcd(s, q) == 1]
            s = int(shifts[rng.integers(len(shifts))])
            sys = cl.FiniteSystem(q, s)
            f = cl.Signal(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))
            k = int(rng.integers(1, 4))
            avg = cl.average_series(sys, LINEAR, f, [k * q]).signals[0]
            assert np.abs(avg.values - f.values.mean()).max() <= 1e-12
        for case in range(50):
            q = int(rng.integers(4, 64))
            sys = cl.FiniteSystem(q, int(rng.integers(1, q)))
            g = cl.Signal(q, rng.standard_normal(q))
            cob = g - cl.Signal(q, np.roll(g.values, sys.shift % q))  # g after T
            n = int(rng.integers(1, 200))
            avg = cl.average_series(sys, LINEAR, cob, [n]).signals[0]
            bound = 2 * np.abs(g.values).max() / n
            assert np.abs(avg.values).max() <= bound + 1e-12


def test_11_discrepancy_linear_sqrt2():
    with criterion(11, "equidistribution discrepancy", 5):
        report = cl.discrepancy(LINEAR, math.sqrt(2), [100, 10000])
        d = dict(report.entries)
        assert d[10000] <= 0.01
        assert d[10000] <= d[100] / 5


def test_12_seminorm_inequalities():
    with criterion(12, "duality and dominance inequalities", 10):
        rng = substream(112)
        for case in range(1000):
            vals = rng.standard_normal(int(rng.integers(2, 17)))
            variations = {
                r: cl.variation(vals, r).value for r in (1.0, 1.5, 2.0, 3.0, math.inf)
            }
            for lam in (0.1, 0.5, 1.0):
                jumps = cl.jump_count(vals, lam).value
                for r in (1.0, 2.0, 3.0):
                    assert lam * jumps ** (1.0 / r) <= variations[r] + 1e-9
            for r in (1.0, 2.0, 3.0):
                assert np.abs(vals).max() <= variations[r] + abs(vals[0]) + 1e-12
            ordered = [variations[r] for r in (1.0, 1.5, 2.0, 3.0, math.inf)]
            for a, b in zip(ordered, ordered[1:]):
                assert a >= b - 1e-12
