import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circle_lab.multipliers as multipliers
from circle_lab._util import MAX_MODULUS, substream
from circle_lab.arcs import DyadicScale, ReducedFraction, canonical_fractions, wrap_signed
from circle_lab.multipliers import (
    MultiplierOp,
    PipelineConfig,
    approx_average_op,
    arc_split,
    eta,
    eta_at_scale,
    factorization_gap,
    kernel_l1_bound,
    l2_operator_norm,
    lp_norm_probe,
    multiplier_apply,
    project,
    project_dyadic,
    projection_op,
    projection_property_report,
    projection_symbol,
)
from circle_lab.polyavg import (
    IntPolynomial,
    Signal,
    average_linear,
    kernel,
    signal_from_spectrum,
    spectrum,
)
from oracles import exact_pnorm, planted_symbol

SQUARE = IntPolynomial((0, 0, 1))
IDENTITY = MultiplierOp(np.zeros(1), 1.0, np.ones_like)  # symbol 1 at every frequency


def random_signal(q, seed, real=False):
    rng = substream(seed)
    vals = rng.standard_normal(q)
    if not real:
        vals = vals + 1j * rng.standard_normal(q)
    return Signal(q, vals)


def signal_supported_near_centers(q, level, halfwidth, seed):
    """Random spectrum living within `halfwidth` of the level-l fractions."""
    rng = substream(seed)
    xs = np.arange(q) / q
    centers = np.array([fr.value for fr in canonical_fractions(2.0**level)])
    dist = np.abs(wrap_signed(xs[:, None] - centers[None, :])).min(axis=1)
    sel = dist <= halfwidth
    spec = np.zeros(q, dtype=np.complex128)
    spec[sel] = rng.standard_normal(int(sel.sum())) + 1j * rng.standard_normal(
        int(sel.sum())
    )
    return signal_from_spectrum(q, spec), sel


class TestEta:
    def test_flat_and_vanishing(self):
        assert eta(0.2) == 1.0
        assert eta(0.25) == 1.0
        assert eta(0.5) == 0.0
        assert eta(0.6) == 0.0
        assert 0.0 < eta(0.35) < 1.0  # strictly inside the band

    def test_even(self):
        for x in (0.1, 0.3, 0.45):
            assert eta(-x) == eta(x)

    def test_range_and_monotone_band(self):
        xs = np.linspace(0.25, 0.5, 200)
        vals = eta(xs)
        assert ((vals >= 0.0) & (vals <= 1.0)).all()
        assert (np.diff(vals) <= 1e-12).all()

    def test_vectorized_matches_scalar(self):
        xs = np.array([-0.6, -0.3, 0.0, 0.26, 0.49])
        assert np.allclose(eta(xs), [eta(float(x)) for x in xs])

    def test_scaled(self):
        cut = eta_at_scale(-3)
        assert cut(np.array([2.0**-5]))[0] == 1.0
        assert cut(np.array([2.0**-3]))[0] == 0.0


class TestProject:
    def test_constant_unchanged(self):
        f = Signal(64, np.full(64, 2.0 - 1j, dtype=complex))
        out = project(f, 4, 2**-8)
        assert np.allclose(out.values, f.values, atol=1e-12)

    def test_wide_bump_is_identity(self):
        f = random_signal(128, 1)
        out = project(f, 1, 2)
        assert (out - f).norm(2) <= 1e-12 * f.norm(2)

    def test_l2_contraction(self):
        f = random_signal(512, 2)
        out = project(f, 4, 2**-10)
        assert out.norm(2) <= f.norm(2)

    def test_symbol_real_even(self):
        sym = projection_symbol(256, 4, 2**-6)
        assert np.all(sym >= 0) and np.all(sym <= 1 + 1e-12)
        assert np.allclose(sym[1:], sym[1:][::-1])

    def test_support_confinement(self):
        q, l, m = 512, 3, -8
        f = random_signal(q, 3)
        out = project_dyadic(f, DyadicScale(l, m))
        xs = np.arange(q) / q
        centers = np.array([fr.value for fr in canonical_fractions(2.0**l)])
        dist = np.abs(wrap_signed(xs[:, None] - centers[None, :])).min(axis=1)
        outside = dist > 2.0 ** (m - 1)
        assert np.abs(spectrum(out)[outside]).max() <= 1e-12 * f.norm(2)


class TestProjectDyadic:
    def test_reproduction_on_deep_support(self):
        q, l = 512, 2
        m = -2 * l - 2
        f, sel = signal_supported_near_centers(q, l, 2.0 ** (m - 2), 4)
        assert sel.any()
        out = project_dyadic(f, DyadicScale(l, m))
        assert (out - f).norm(2) <= 1e-10 * max(f.norm(2), 1e-30)

    def test_annihilation_off_support(self):
        q, l, m = 512, 2, -6
        rng = substream(5)
        xs = np.arange(q) / q
        centers = np.array([fr.value for fr in canonical_fractions(2.0**l)])
        dist = np.abs(wrap_signed(xs[:, None] - centers[None, :])).min(axis=1)
        spec = np.zeros(q, dtype=np.complex128)
        far = dist > 2.0 ** (m - 1)
        spec[far] = rng.standard_normal(int(far.sum()))
        f = signal_from_spectrum(q, spec)
        out = project_dyadic(f, DyadicScale(l, m))
        assert out.norm(2) <= 1e-10 * f.norm(2)

    def test_shell_is_difference(self):
        f = random_signal(256, 6)
        scale = DyadicScale(3, -8)
        shell = project_dyadic(f, scale, shell=True)
        full = project_dyadic(f, scale)
        lower = project_dyadic(f, DyadicScale(2, -8))
        assert (shell - (full - lower)).norm(2) <= 1e-12 * f.norm(2)

    def test_self_adjoint(self):
        q = 256
        f, g = random_signal(q, 7), random_signal(q, 8)
        scale = DyadicScale(2, -6)
        pf, pg = project_dyadic(f, scale), project_dyadic(g, scale)
        lhs = np.vdot(g.values, pf.values)
        rhs = np.vdot(pg.values, f.values)
        assert abs(lhs - rhs) <= 1e-10 * f.norm(2) * g.norm(2)

    def test_report_gap_does_not_depend_on_blas_threads(self):
        # two dots over all 65536 values were split over the OpenBLAS threads: the
        # gap read 4.41e-13 on one thread and 3.27e-13 on two
        code = ("from circle_lab import projection_property_report; "
                "print(repr(projection_property_report(65536, 2, -6, 1)['self_adjoint_gap']))")
        env = {**os.environ, "PYTHONPATH": str(Path(multipliers.__file__).parents[1])}
        outs = {
            subprocess.run([sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": t},
                           capture_output=True, text=True, check=True).stdout
            for t in ("1", "2")
        }
        assert len(outs) == 1


class TestMultiplierOp:
    def test_identity(self):
        f = random_signal(64, 9)
        out = multiplier_apply(f, IDENTITY)
        assert (out - f).norm(2) <= 1e-12 * f.norm(2)

    def test_projection_op_reproduces_project(self):
        f = random_signal(128, 10)
        op = projection_op(4, 2**-7)
        a = multiplier_apply(f, op)
        b = project(f, 4, 2**-7)
        assert (a - b).norm(2) <= 1e-12 * f.norm(2)

    def test_weighted_symbol(self):
        op = MultiplierOp(np.zeros(1), np.array([2.0]), lambda x: eta(np.asarray(x) / 0.25))
        assert l2_operator_norm(op, 64) == pytest.approx(2.0)

    @pytest.mark.parametrize("modulus", [0, -4, 64.0])
    def test_symbol_grid_needs_a_modulus(self, modulus):
        # 0 divided by zero and -4 asked numpy for a negative dimension
        with pytest.raises(ValueError, match=re.escape(f"modulus must be an integer in [1, {MAX_MODULUS}], got {modulus!r}")):
            IDENTITY.symbol_on_grid(modulus)

    @pytest.mark.parametrize("modulus", [MAX_MODULUS + 1, 2**40, 10**30])
    def test_modulus_past_the_ceiling(self, modulus):
        # 2^40 asked numpy for 16 TiB; 10^30 warned "invalid value encountered in cast"
        assert MAX_MODULUS >= 1 << 16  # the largest grid the bench uses
        message = re.escape(f"modulus must be an integer in [1, {MAX_MODULUS}], got {modulus}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                IDENTITY.symbol_on_grid(modulus)
            with pytest.raises(ValueError, match=message):
                projection_symbol(modulus, 4, 0.01)
            with pytest.raises(ValueError, match=message):
                projection_property_report(modulus, 2, -6, 0)

    def test_needs_frequencies(self):
        with pytest.raises(ValueError):
            MultiplierOp(np.zeros(0), 1.0, lambda x: x)

    def test_support_halfwidth_skips_far_offsets(self):
        calls = []

        def base(x):
            calls.append(np.abs(x).max())
            return np.ones_like(x)

        op = MultiplierOp(np.zeros(1), 1.0, base, support_halfwidth=0.1)
        op.symbol_on_grid(64)
        assert calls and max(calls) <= 0.1

    def test_projection_centers_are_the_table(self):
        op = projection_op(30, 1e-3)
        assert np.shares_memory(op.centers, canonical_fractions(30).values)

    @pytest.mark.parametrize("n2", [-0.01, 0.0, math.nan, math.inf, -math.inf])
    def test_projection_halfwidth_must_be_positive_and_finite(self, n2):
        # -0.01 and nan gave an all-zero symbol; 0 divided by zero
        with pytest.raises(ValueError, match=re.escape(f"halfwidth n2 must be a real number in (0, inf), got {n2!r}")):
            projection_op(4, n2)
        with pytest.raises(ValueError, match="n2"):
            projection_symbol(16, 2, n2)

    def test_projection_build_does_not_copy_the_table(self):
        projection_op(1024, 1e-7)  # the Farey table is built outside the window
        tracemalloc.start()
        try:
            projection_op(1024, 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a copy of the 318,964 centers would be 2.4 MB


class TestOperatorNorms:
    def test_identity_norm(self):
        assert l2_operator_norm(IDENTITY, 32) == pytest.approx(1.0)

    def test_disjoint_projection_contracts(self):
        assert l2_operator_norm(projection_op(4, 2**-8), 256) <= 1.0 + 1e-12

    def test_probe_identity(self):
        assert lp_norm_probe(IDENTITY, 4.0, 64, 2, 0) == pytest.approx(1.0, abs=1e-12)

    def test_probe_of_small_operator(self):
        # T = 1e-100 I: the fourth powers of Tf (about 1e-400) underflow
        # unless counted in units; the next ascent step underflows to 0
        op = MultiplierOp(np.zeros(1), 1e-100, lambda x: np.ones_like(np.asarray(x, dtype=float)))
        sym = op.symbol_on_grid(64)
        want = 0.0
        for t in range(2):
            rng = substream(0, t)
            f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            tf = np.fft.fft(sym * np.fft.ifft(f))
            want = max(want, exact_pnorm(tf, 4) / exact_pnorm(f, 4))
        assert want > 0
        assert lp_norm_probe(op, 4.0, 64, 2, 0) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("size", [1e100, 1e-100])
    @pytest.mark.parametrize("p", [4.0, 1.5])
    def test_probe_of_extreme_operators(self, size, p):
        # T = size * I: the ascent's powers, or their image under T, left the
        # float range ("overflow encountered in multiply" at 1e100, p = 4)
        op = MultiplierOp(np.zeros(1), size, lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert lp_norm_probe(op, p, 64, 2, 0) == pytest.approx(size, rel=1e-12, abs=0)

    def test_probe_consistent_with_l2(self):
        op = projection_op(3, 2**-6)
        probe = lp_norm_probe(op, 2.0, 128, 4, 1)
        assert probe <= l2_operator_norm(op, 128) + 1e-9

    def test_probe_below_kernel_l1(self):
        op = projection_op(3, 2**-6)
        for p in (1.5, 2.0, 4.0):
            probe = lp_norm_probe(op, p, 128, 3, 2)
            assert probe <= kernel_l1_bound(op, 128) + 1e-9

    def test_growth_curve_below_crude_bound(self):
        p = 4.0
        for level in range(0, 6):
            m = -6 * (level + 1) * 4
            op = projection_op(2.0**level, 2.0**m)
            probe = lp_norm_probe(op, p, 512, 2, 17)
            assert probe <= 2.0 ** (2 * level) * 4.0

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            lp_norm_probe(IDENTITY, 4.0, 16, 0, 0)
        with pytest.raises(ValueError):
            lp_norm_probe(IDENTITY, 1.0, 16, 1, 0)

    @pytest.mark.parametrize("p", [math.nan, math.inf, 1.0, 0.5, -2.0])
    def test_probe_exponent_is_checked(self, p):
        # NaN slipped past `p <= 1` and came back as a "certified" 0.0
        with pytest.raises(ValueError, match=re.escape(f"probe exponent p must be a real number in (1, inf), got {p!r}")):
            lp_norm_probe(IDENTITY, p, 8, 1, 0)

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_probe_of_zero_operator(self, p):
        # Tf = 0: every ratio is 0, and the ascent stops at the zero adjoint image
        op = MultiplierOp(np.zeros(1), 0.0, lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert lp_norm_probe(op, p, 16, 3, 0) == 0.0


class TestPipelineConfig:
    def test_desk_defaults_valid(self):
        cfg = PipelineConfig.desk(degree=2)
        assert cfg.p0 == 4 and cfg.c0 == 64 and cfg.degree == 2
        assert 0 < cfg.alpha < 1.0 / (1_000_000 * 2 * 4)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            PipelineConfig(alpha=1e-3, c0=64, p0=4, degree=2)

    @pytest.mark.parametrize("c0", [0, 2.5])
    def test_c0_must_be_a_positive_integer(self, c0):
        with pytest.raises(ValueError, match=re.escape(f"c0 must be an integer >= 1, got {c0!r}")):
            PipelineConfig(alpha=1e-9, c0=c0, p0=4, degree=2)

    def test_constant_polynomial_has_no_desk_config(self):
        # degree 0 divided by zero in the alpha rule
        with pytest.raises(ValueError, match=re.escape("degree must be an integer >= 1, got 0")):
            PipelineConfig.desk(degree=0)

    def test_p0_must_be_even(self):
        with pytest.raises(ValueError, match="p0"):
            PipelineConfig(alpha=1e-9, c0=64, p0=3, degree=2)

    def test_scales(self):
        cfg = PipelineConfig.desk(degree=2)
        # denominators up to 2^0 and halfwidth 2^(-2 * 12): the low scale is 0, the high 12
        assert cfg.scale_at(4096) == DyadicScale(0, -2 * 12)


class TestArcSplit:
    def test_exact_additivity(self):
        f = random_signal(1024, 11)
        cfg = PipelineConfig.desk(degree=2)
        major, minor, report = arc_split(f, SQUARE, 128, cfg)
        total = average_linear(SQUARE, 128, f)
        assert (major + minor - total).norm(2) <= 1e-9 * total.norm(2)

    def test_constant_has_no_minor_part(self):
        f = Signal(256, np.full(256, 1.5, dtype=complex))
        cfg = PipelineConfig.desk(degree=2)
        _, minor, report = arc_split(f, SQUARE, 64, cfg)
        assert minor.norm(2) <= 1e-10
        assert report["minor_ratio"]["2.0"] <= 1e-10

    def test_spectrum_off_arcs_goes_entirely_minor(self):
        q = 2048
        cfg = PipelineConfig.desk(degree=2)
        n = 256
        scale = cfg.scale_at(n)
        rng = substream(12)
        xs = np.arange(q) / q
        centers = np.array(
            [fr.value for fr in canonical_fractions(2.0**scale.l)]
        )
        dist = np.abs(wrap_signed(xs[:, None] - centers[None, :])).min(axis=1)
        far = dist > 2.0 ** (scale.m - 1)
        spec = np.zeros(q, dtype=np.complex128)
        spec[far] = rng.standard_normal(int(far.sum()))
        f = signal_from_spectrum(q, spec)
        major, minor, report = arc_split(f, SQUARE, n, cfg)
        assert major.norm(2) <= 1e-10 * f.norm(2)
        grid_sup = float(np.abs(spectrum(kernel(SQUARE, n, q))[far]).max())
        assert report["l2_ratio"] <= grid_sup + 1e-9

    def test_floor_enforced(self):
        cfg = PipelineConfig.desk(degree=2, c0=128)
        with pytest.raises(ValueError, match=re.escape("N must be an integer >= 128, got 64")):
            arc_split(random_signal(64, 13), SQUARE, 64, cfg)

    def test_degree_mismatch(self):
        cfg = PipelineConfig.desk(degree=3)
        with pytest.raises(ValueError, match="degree"):
            arc_split(random_signal(64, 14), SQUARE, 64, cfg)

    @pytest.mark.parametrize("p", [math.nan, 0.0, -1.0])
    def test_ratio_exponent_is_checked(self, p):
        # p = nan reported {"nan": 0.0}
        with pytest.raises(ValueError, match=re.escape(f"norm exponent p must be a real number in (0, inf], got {p!r}")):
            arc_split(random_signal(64, 14), SQUARE, 64, PipelineConfig.desk(2), p_values=[p])


class TestShellVanishing:
    def test_disjoint_when_cuts_are_narrow(self):
        from circle_lab.multipliers import shell_vanishing_overlap

        assert shell_vanishing_overlap(3, -9, 2, -7) == 0.0

    def test_overlap_when_lower_cut_is_wide(self):
        from circle_lab.multipliers import shell_vanishing_overlap

        assert shell_vanishing_overlap(3, -9, 2, -4) > 0.0

    def test_shell_meets_its_own_level(self):
        from circle_lab.multipliers import shell_vanishing_overlap

        assert shell_vanishing_overlap(2, -9, 2, -9) > 0.0

    def test_nan_cut_is_no_certificate(self):
        from circle_lab.multipliers import shell_vanishing_overlap

        # a NaN halfwidth dropped every arc and "certified" a zero overlap
        with pytest.raises(ValueError, match=re.escape("cut_log2 must be a real number in (-inf, 1024), got nan")):
            shell_vanishing_overlap(2, math.nan, 1, -3)


class TestApproximationOperators:
    def test_matches_average_of_projection(self):
        q, n, level, high = 2**12, 2**7, 2, 5
        f = random_signal(q, 15)
        op = approx_average_op(SQUARE, n, level, high)
        lhs = multiplier_apply(f, op)
        rhs = average_linear(SQUARE, n, project_dyadic(f, DyadicScale(level, -2 * high)))
        # budget: the rational-approximation bound at M = 2^(d*high), with the
        # empirical grid constant from the residual sweep (about 1/2) doubled
        budget = 2.0**level * (n / 2.0 ** (2 * high) + 1.0 / n)
        assert (lhs - rhs).norm(2) <= budget * f.norm(2)

    def test_factorization_identity(self):
        q = 2**12
        f = random_signal(q, 16)
        gap = factorization_gap(f, SQUARE, 2**7, level=2, high_scale=5, narrow_scale=9)
        assert gap <= 1e-9 * f.norm(2)

    def test_factorization_shell_zero(self):
        q = 2**10
        f = random_signal(q, 17)
        gap = factorization_gap(f, SQUARE, 2**6, level=0, high_scale=5, narrow_scale=8)
        assert gap <= 1e-9 * f.norm(2)


class TestSymbolEngine:
    """The windowed evaluator against the full-grid planted-sum oracle."""

    @given(
        st.sampled_from([1, 2, 7, 97, 127, 256, 331, 1000, 1024]),
        st.sampled_from([1, 2, 3, 5, 8]),
        st.one_of(
            st.floats(1e-5, 0.02),
            st.floats(0.02, 0.6),
            st.sampled_from([0.25, 0.5, 0.75, 1.0, 3.0]),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_projection_op_matches_oracle(self, q, n1, halfwidth):
        # n2 = 2 * halfwidth: halfwidths below 1/Q hit no grid point except
        # exact centers, halfwidths >= 1/2 make every window the whole grid
        op = projection_op(n1, 2.0 * halfwidth)
        assert np.array_equal(op.symbol_on_grid(q), planted_symbol(op, q))
        assert np.array_equal(
            projection_symbol(q, n1, 2.0 * halfwidth), op.symbol_on_grid(q).real
        )

    @given(
        st.sampled_from([5, 64, 97, 101, 256, 509]),
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 41)), min_size=1, max_size=12
        ),
        st.one_of(
            st.none(), st.floats(1e-4, 0.7), st.sampled_from([2.0**-k for k in range(1, 9)])
        ),
        st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_weighted_centers_match_oracle(self, q, pairs, halfwidth, seed):
        # repeated and wrapping centers (near 0 and 1), complex weights on
        # every other center and 1 elsewhere; the base does not vanish
        # at the support edge, and dyadic halfwidths put grid points on it
        centers = np.array([ReducedFraction.reduce(a, b).value for a, b in pairs])
        rng = substream(seed)
        weights = np.ones(centers.size, dtype=complex)
        weights[::2] = [complex(*rng.standard_normal(2)) for _ in weights[::2]]
        base = lambda x: np.exp(2j * np.asarray(x)) * (1.5 + np.asarray(x))
        op = MultiplierOp(centers, weights, base, support_halfwidth=halfwidth)
        assert np.array_equal(op.symbol_on_grid(q), planted_symbol(op, q))

    def test_wrapping_centers(self):
        centers = np.array([0.0, 1 / 97, 96 / 97])
        op = MultiplierOp(centers, 1.0, lambda x: 1.0 - np.abs(x) * 10, support_halfwidth=0.03)
        for q in (97, 100, 1009):
            assert np.array_equal(op.symbol_on_grid(q), planted_symbol(op, q))

    def test_wide_windows_split_into_batches(self):
        # about 1300 whole-grid windows do not fit one evaluation batch
        op = projection_op(64, 1.0)
        assert np.array_equal(op.symbol_on_grid(1024), planted_symbol(op, 1024))

    @pytest.mark.parametrize(
        "q, n, level, high, shell",
        [(4096, 64, 2, 2, False), (1000, 256, 2, 2, False), (1024, 256, 2, 3, True)],
    )
    def test_approx_average_op_matches_oracle(self, q, n, level, high, shell):
        op = approx_average_op(SQUARE, n, level, high, shell_only=shell)
        assert np.array_equal(op.symbol_on_grid(q), planted_symbol(op, q))

    def test_projection_work_is_total_support(self):
        q, halfwidth = 2**16, 2.0**-15
        op = projection_op(64, 2 * halfwidth)
        received = []

        def counting(x):
            received.append(np.size(x))
            return op.base_symbol(x)

        sym = dataclasses.replace(op, base_symbol=counting).symbol_on_grid(q)
        assert np.array_equal(sym, op.symbol_on_grid(q))
        assert len(received) == 1
        assert 0 < received[0] <= op.centers.size * (2 * halfwidth * q + 4)

    # an explicit id names the case; the message is checked in full
    @pytest.mark.parametrize("level, message", [
        # 2.0**2000 overflows
        pytest.param(2000, "level must be an integer in [0, 11], got 2000", id="2000-Farey table limit"),
        pytest.param(1.5, "level must be an integer in [0, 11], got 1.5",
                     id="1.5-level must be an integer, got 1.5"),
        pytest.param(-1, "level must be an integer in [0, 11], got -1", id="-1-level must be >= 0"),
    ])
    @pytest.mark.parametrize("shell", [False, True])
    def test_level_is_checked_first(self, level, message, shell):
        with pytest.raises(ValueError, match=re.escape(message)):
            approx_average_op(SQUARE, 64, level, 2, shell_only=shell)

    def test_approx_mm_once_per_distinct_offset(self, monkeypatch):
        calls = []
        original = multipliers._mm_many

        def counting(poly, n, xs):
            calls.append(np.array(xs))
            return original(poly, n, xs)

        monkeypatch.setattr(multipliers, "_mm_many", counting)
        op = approx_average_op(SQUARE, 256, 2, 2)
        op.symbol_on_grid(4096)
        assert op.centers.size == 6
        # one call; 0, 1/4, 1/2, 3/4 share their 257 grid offsets and 1/3 and
        # 2/3 add 256 each
        assert len(calls) == 1
        assert calls[0].size == np.unique(calls[0]).size == 769
