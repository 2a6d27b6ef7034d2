import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_lab import seminorms
from circle_lab._util import parallel_map, pnorm, substream
from circle_lab.ergodic_lab import AverageSeries, FiniteSystem, convergence_diagnostic
from circle_lab.polyavg import IntPolynomial, Signal
from circle_lab.seminorms import (
    RealSequence,
    _block_levels,
    _Exponent,
    _pointwise_variation,
    _variation_dp,
    jump_count,
    lacunary,
    lepingle_stat,
    oscillation,
    variation,
    variation_values,
)

from oracles import (
    brute_jump,
    brute_variation,
    exact_chain,
    exact_oscillation,
    exact_pnorm,
    exact_variation,
    martingale_levels,
    martingale_variation,
)

finite_values = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=10
)
# integers in -2..2 are full of ties: equal increments, equal chain values
tied_values = st.lists(st.integers(-2, 2).map(float), min_size=1, max_size=10)


def recompute_variation_witness(seq: RealSequence, report) -> float:
    pos = {int(t): i for i, t in enumerate(seq.labels)}
    idx = [pos[t] for t in report.witness]
    r = report.parameters["r"]
    if len(idx) < 2:
        return 0.0
    if r == math.inf:
        return max(
            abs(seq.values[b] - seq.values[a]) for a, b in zip(idx, idx[1:])
        )
    return sum(
        abs(seq.values[b] - seq.values[a]) ** r for a, b in zip(idx, idx[1:])
    ) ** (1.0 / r)


class TestVariation:
    def test_constant(self):
        for r in (1, 2, 3, math.inf):
            assert variation(np.zeros(6) + 2.5, r).value == 0.0

    def test_skip_midpoint(self):
        rep = variation([0.0, 0.5, 1.0], 2)
        assert rep.value == pytest.approx(1.0)
        assert rep.witness == (0, 2)

    def test_zigzag_total(self):
        rep = variation([0.0, 1.0, 0.0, 1.0], 1)
        assert rep.value == pytest.approx(3.0)
        assert rep.witness == (0, 1, 2, 3)

    def test_infinity_is_best_pair(self):
        rep = variation([0.0, 3.0, -1.0, 2.0], math.inf)
        assert rep.value == pytest.approx(4.0)
        assert rep.witness == (1, 2)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            variation([1.0, 2.0], 0.5)

    @pytest.mark.parametrize("r", [0.5, math.nan, -math.inf])
    def test_every_entry_rejects_bad_exponent(self, r):
        message = re.escape(f" exponent r must be a real number in [1, inf], got {r!r}")
        with pytest.raises(ValueError, match="variation" + message):
            variation([1.0, 2.0], r)
        with pytest.raises(ValueError, match="variation" + message):
            variation_values(np.ones((3, 2)), r)
        with pytest.raises(ValueError, match="oscillation" + message):
            oscillation([1.0, 2.0, 3.0], [0, 2], r)
        with pytest.raises(ValueError, match="variation" + message):
            lepingle_stat(2, r, 4, 2, 0)

    @given(finite_values, st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, math.inf]))
    @settings(max_examples=120, deadline=None)
    def test_matches_batched_kernel_bit_for_bit(self, vals, r):
        seq = np.array(vals)
        assert variation(seq, r).value == variation_values(seq[:, None], r)[0]

    def test_singleton(self):
        rep = variation([4.2], 2)
        assert rep.value == 0.0 and rep.witness == (0,)

    def test_complex_modulus(self):
        rep = variation(np.array([0.0, 1j, 1.0 + 1j]), 1)
        assert rep.value == pytest.approx(2.0)

    def test_batch_needs_a_sample(self):
        with pytest.raises(ValueError, match="at least one sample"):
            variation_values(np.zeros((0, 3)), 2)

    def test_custom_labels(self):
        seq = RealSequence([0.0, 1.0, 0.0], labels=[3, 10, 20])
        rep = variation(seq, 1)
        assert rep.witness == (3, 10, 20)

    @given(st.one_of(finite_values, tied_values), st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, vals, r):
        got = variation(np.array(vals), r).value
        want = brute_variation(vals, r)
        assert got == pytest.approx(want, abs=1e-12)

    @given(st.one_of(finite_values, tied_values))
    @settings(max_examples=60, deadline=None)
    def test_witness_reproduces_value(self, vals):
        seq = RealSequence(np.array(vals))
        for r in (1.0, 2.5, math.inf):
            rep = variation(seq, r)
            assert recompute_variation_witness(seq, rep) == pytest.approx(
                rep.value, abs=1e-12
            )


class TestJumpCount:
    def test_constant(self):
        assert jump_count(np.ones(5), 0.5).value == 0

    def test_zigzag(self):
        rep = jump_count([0.0, 1.0, 0.0, 1.0], 1.0)
        assert rep.value == 3 and rep.witness == (0, 1, 2, 3)

    def test_greedy_trap(self):
        rep = jump_count([0.5, 0.0, 1.0], 1.0)
        assert rep.value == 1
        assert rep.witness == (1, 2)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            jump_count([1.0], 0.0)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="jump threshold"):
            jump_count([0.0, 1.0, 0.0], math.nan)

    @given(st.one_of(finite_values, tied_values), st.sampled_from([0.1, 0.5, 1.0]))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, vals, lam):
        assert jump_count(np.array(vals), lam).value == brute_jump(vals, lam)

    @given(st.one_of(finite_values, tied_values))
    @settings(max_examples=60, deadline=None)
    def test_witness_chain_is_valid(self, vals):
        lam = 0.5
        rep = jump_count(np.array(vals), lam)
        w = list(rep.witness)
        assert len(w) == rep.value + 1
        for a, b in zip(w, w[1:]):
            assert abs(vals[b] - vals[a]) >= lam


class TestOscillation:
    def test_constant(self):
        assert oscillation(np.full(5, 1.3), [0, 2, 4], 2).value == 0.0

    def test_single_block(self):
        rep = oscillation([0.0, 5.0, 1.0], [0, 2], 1)
        assert rep.value == pytest.approx(5.0)
        assert rep.witness == (1,)

    def test_block_count_bound(self):
        rng = substream(2)
        vals = rng.standard_normal(16)
        anchors = [0, 4, 8, 12, 15]
        for r in (1.0, 2.0, 3.0):
            rep = oscillation(vals, anchors, r)
            sups = []
            for a, b in zip(anchors, anchors[1:]):
                sups.append(max(abs(vals[t] - vals[a]) for t in range(a, b)))
            blocks = len(anchors) - 1
            assert rep.value <= blocks ** (1.0 / r) * max(sups) + 1e-12

    def test_oscillation_below_variation(self):
        rng = substream(3)
        vals = rng.standard_normal(12)
        anchors = [0, 3, 7, 11]
        for r in (1.0, 2.0):
            o = oscillation(vals, anchors, r).value
            v = variation(vals[: anchors[-1] + 1], r).value
            assert o <= v + 1e-12

    def test_infinity_is_largest_block_deviation(self):
        rep = oscillation([0.0, 5.0, 1.0], [0, 2], math.inf)
        assert rep.value == 5.0 and rep.witness == (1,)

    @given(
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=12),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_infinity_matches_block_maximum(self, vals, data):
        inner = data.draw(st.sets(st.integers(1, len(vals) - 2), max_size=4)) if len(vals) > 2 else set()
        anchors = sorted({0, len(vals) - 1} | inner)
        rep = oscillation(np.array(vals), anchors, math.inf)
        want = max(
            max(abs(vals[t] - vals[a]) for t in range(a, b))
            for a, b in zip(anchors, anchors[1:])
        )
        assert rep.value == want
        assert max(abs(vals[t] - vals[a]) for t, a in zip(rep.witness, anchors)) == want

    def test_doubling_flag(self):
        vals = np.arange(8.0)
        assert oscillation(vals, [1, 3, 7], 2).parameters["doubling"]
        assert not oscillation(vals, [1, 2, 7], 2).parameters["doubling"]

    def test_anchor_validation(self):
        with pytest.raises(ValueError, match="label"):
            oscillation([1.0, 2.0], [0, 5], 2)
        with pytest.raises(ValueError, match="increasing"):
            oscillation([1.0, 2.0, 3.0], [2, 0], 2)
        with pytest.raises(ValueError, match="anchors"):
            oscillation([1.0, 2.0], [0], 2)


    @pytest.mark.parametrize("anchor", [2.0, "2"])
    def test_anchors_are_integers(self, anchor):
        with pytest.raises(ValueError, match=re.escape(f"anchor must be an integer, got {anchor!r}")):
            oscillation([1.0, 2.0, 3.0], [0, anchor], 2)


class TestInequalities:
    def test_jump_variation_duality(self):
        rng = substream(4)
        for _ in range(50):
            vals = rng.standard_normal(rng.integers(2, 20))
            for lam in (0.1, 0.5, 1.0):
                n_lam = jump_count(vals, lam).value
                for r in (1.0, 2.0, 3.0):
                    vr = variation(vals, r).value
                    assert lam * n_lam ** (1.0 / r) <= vr + 1e-9

    def test_sup_dominance(self):
        rng = substream(5)
        for _ in range(50):
            vals = rng.standard_normal(rng.integers(1, 16))
            for r in (1.0, 2.0, 3.0):
                vr = variation(vals, r).value
                assert np.abs(vals).max() <= vr + abs(vals[0]) + 1e-12

    def test_monotone_in_exponent(self):
        rng = substream(6)
        for _ in range(50):
            vals = rng.standard_normal(rng.integers(2, 16))
            seq = [variation(vals, r).value for r in (1.0, 1.5, 2.0, 3.0)]
            assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))
            assert seq[-1] >= variation(vals, math.inf).value - 1e-12


# increments whose r-th powers overflow or underflow float64
OUT_OF_RANGE = [
    [1e300, -1e300, 1e300],
    [1e-200, -1e-200, 1e-200],
    [3e250, -1e249, 7e250, 2e250, -5e250, 1e250],
    [1e-300, 3e-300, -2e-300, 5e-301, 0.0],
    [1e154, -1e154, 3e153, 2e154],
    [2.0**-1000, 0.0, 2.0**-1001, 3 * 2.0**-1002],
]


class TestFloatRange:
    @pytest.mark.parametrize("vals", OUT_OF_RANGE)
    @pytest.mark.parametrize("r", [2, 3, 4, 7])
    def test_variation_matches_exact_oracle(self, vals, r):
        rep = variation(np.array(vals), r)
        want = exact_variation(vals, r)
        assert want > 0
        assert rep.value == pytest.approx(want, rel=1e-13, abs=0)
        assert exact_chain([vals[t] for t in rep.witness], r) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("vals", OUT_OF_RANGE)
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_oscillation_matches_exact_oracle(self, vals, r):
        anchors = [0, 2, len(vals) - 1] if len(vals) > 4 else [0, len(vals) - 1]
        got = oscillation(np.array(vals), anchors, r).value
        want = exact_oscillation(vals, anchors, r)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("r", [2, 3, 7])
    def test_batch_takes_units_per_column(self, r):
        cols = OUT_OF_RANGE[:3] + [[0.3, -1.2, 2.5]]
        size = max(map(len, cols))
        cols = [c + [c[-1]] * (size - len(c)) for c in cols]  # repeats add no increment
        a = np.array(cols).T
        got = variation_values(a, r)
        for c, col in enumerate(cols):
            assert got[c] == pytest.approx(exact_variation(col, r), rel=1e-13, abs=0)
        # the ordinary column keeps the bits it has on its own
        assert got[-1] == variation_values(a[:, -1:], r)[0]

    def test_complex_series(self):
        vals = np.array([1e300, 1e300j, -1e300, 0.0])
        # |1e300 - 1e300 j| = sqrt(2) 1e300 and so on: the variation of the
        # unit-free sequence, times 1e300
        want = variation(vals / 1e300, 2).value * 1e300
        assert variation(vals, 2).value == pytest.approx(want, rel=1e-13, abs=0)
        assert variation_values(vals[:, None], 2)[0] == pytest.approx(want, rel=1e-13, abs=0)

    def test_float32_samples(self):
        # float32 spans are compared with range bounds beyond float32
        a = substream(22).standard_normal((10, 4))
        for r in (2.0, 3.0):
            got = variation_values(a.astype(np.float32), r)
            want = variation_values(a.astype(np.float32).astype(float), r)
            assert got == pytest.approx(want, rel=1e-6)

    def test_ordinary_inputs_take_no_units(self):
        a = substream(21).standard_normal((40, 30)) * 1e6
        for r in (1.0, 1.5, 2.0, 3.0, 7.0, math.inf):
            assert _Exponent(r, "variation").in_units(a).unit is None
        extreme = np.array([1e300, -1e300, 1e300])
        for r in (1.0, math.inf):  # no powers, so no units
            assert _Exponent(r, "variation").in_units(extreme).unit is None
        assert _Exponent(2.0, "variation").in_units(extreme).unit == 2.0**998


# past r = 969 no power-of-two unit keeps the largest r-th power normal
LARGE_EXPONENT = [[0.0, 0.5], [0.3, -1.2, 2.5, 0.7, -0.4], [1e-3, 0.0, 2e-3]]


class TestLargeExponent:
    @pytest.mark.parametrize("vals", LARGE_EXPONENT)
    @pytest.mark.parametrize("r", [2000, 10**4])
    def test_matches_exact_oracle(self, vals, r):
        want = exact_variation(vals, r)
        rep = variation(np.array(vals), r)
        assert rep.value == pytest.approx(want, rel=1e-13, abs=0)
        assert exact_chain([vals[t] for t in rep.witness], r) == pytest.approx(want, rel=1e-13, abs=0)
        got = variation_values(np.array(vals)[:, None], r)[0]
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_batch_takes_units_per_column(self):
        r = 2000
        cols = [[0.0, 0.5, 0.5], [1e-3, 0.0, 2e-3], [3.0, 1.0, 3.0]]
        got = variation_values(np.array(cols).T, r)
        for c, col in enumerate(cols):
            assert got[c] == pytest.approx(exact_variation(col, r), rel=1e-13, abs=0)


class TestBlocks:
    """The one variation DP folds blocks of levels; no layout may move a bit."""

    @given(
        st.integers(1, 10),
        st.integers(1, 4),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_columns_match_chains_bit_for_bit(self, t, cols, complex_, data):
        ties = st.lists(st.integers(-2, 2).map(float), min_size=t * cols, max_size=t * cols)
        a = np.array(data.draw(ties)).reshape(t, cols)
        if complex_:
            a = a + 1j * np.array(data.draw(ties)).reshape(t, cols)
        for r in (1.0, 2.0, 2.5, 3.0, math.inf):
            got = variation_values(a, r)
            for c in range(cols):
                assert got[c] == variation(a[:, c], r).value

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 7, 40])
    def test_block_budget_moves_no_bit(self, monkeypatch, budget):
        rng = substream(31)
        chains = [
            rng.integers(-2, 3, 41).astype(float),
            rng.integers(-2, 3, 38) + 1j * rng.integers(-2, 3, 38),
        ]
        batch = rng.integers(-2, 3, (12, 5)).astype(float)

        def run():
            reports = [variation(ch, r) for ch in chains for r in (1.0, 2.0, 2.5, 3.0, math.inf)]
            reports += [jump_count(ch, lam) for ch in chains for lam in (0.5, 1.0, 2.0, 3.0)]
            return reports, [variation_values(batch, r) for r in (1.0, 2.0, 3.0, math.inf)]

        want_reports, want_values = run()
        monkeypatch.setattr(seminorms, "_BLOCK_CELLS", budget)
        got_reports, got_values = run()
        assert got_reports == want_reports
        for got, want in zip(got_values, want_values):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("tile", [1, 7, 1 << 17])
    def test_piece_budget_moves_no_bit(self, monkeypatch, tile):
        # pieces of one column, of 2 at T = 3, and of the whole stack
        rng = substream(33)
        real_ = rng.standard_normal((12, 37))
        stacks = {
            "real": real_,
            "complex": real_ + 1j * rng.standard_normal((12, 37)),
            "int64": rng.integers(-10**6, 10**6, (12, 37)),
            "scaled": real_ * 1e200,
            "short": rng.standard_normal((3, 29)),
            "three axes": rng.standard_normal((9, 4, 5)),
        }

        def run():
            values = [variation_values(a, r) for a in stacks.values() for r in (1.0, 2.0, 2.5, 3.0, math.inf)]
            diagnostics = [
                convergence_diagnostic(AverageSeries(tuple(range(1, len(a) + 1)), a, FiniteSystem(a.shape[1], 3),
                                                     IntPolynomial((0, 1))), r, 2)
                for a in list(stacks.values())[:5] for r in (1.0, 2.0, 2.5, 3.0)
            ]
            return values, diagnostics

        want_values, want_diagnostics = run()
        monkeypatch.setattr(seminorms, "_TILE_CELLS", tile)
        got_values, got_diagnostics = run()
        for got, want in zip(got_values, want_values):
            assert np.array_equal(got, want)
        assert got_diagnostics == want_diagnostics

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_integer_samples_match_their_floats(self, dtype):
        # integer increments are taken exactly, then go the float64 way
        a = substream(32).integers(-10**6, 10**6, (30, 7)).astype(dtype)
        for r in (1.0, 2.0, 3.0, math.inf):
            assert np.array_equal(variation_values(a, r), variation_values(a.astype(float), r))


def pairwise_values(a: np.ndarray, r: float) -> np.ndarray:
    """The variation DP one pair of rows at a time over the whole stack,
    with fresh arrays at every step and r = 3 as (m*m)*m: the serial
    path every split and buffer layout must match bit for bit."""
    unit = _Exponent(r, "variation").in_units(a).unit
    v = np.zeros(a.shape)
    for i in range(1, a.shape[0]):
        for j in range(i):
            m = np.abs(a[i] - a[j]).astype(float)
            if unit is not None:
                m = m / unit
            if r == 2.0:
                m = m * m
            elif r == 3.0:
                m = (m * m) * m
            elif r not in (1.0, math.inf):
                m = m**r
            v[i] = np.maximum(v[i], m + v[j] if r != math.inf else m)
    top = v.max(axis=0)
    out = top if r == math.inf else top ** (1.0 / r)
    return out if unit is None else out * unit


def wide_stack(name: str) -> np.ndarray:
    """A stack of 40 rows wide enough to split: 6145 columns, or 3 x 2100."""
    rng = substream(41)
    if name == "int64":
        return rng.integers(-10**6, 10**6, (40, 6145))
    if name == "complex":
        return rng.standard_normal((40, 6145)) + 1j * rng.standard_normal((40, 6145))
    if name == "three axes":
        return rng.standard_normal((40, 3, 2100))
    a = rng.standard_normal((40, 6145))
    if name == "scaled":
        a[:, :2000] *= 1e300  # units in the first range only
    return a


class TestWorkers:
    """Wide stacks split over one worker per CPU of the affinity set, in column
    ranges; no worker count may move a bit, and small stacks never start a pool."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The work-item counts of the maps run through seminorms."""
        started = []

        def spy(fn, items, threads=None):
            items = list(items)
            started.append(len(items))
            return parallel_map(fn, items, threads)

        monkeypatch.setattr(seminorms, "parallel_map", spy)
        return started

    @staticmethod
    def on_workers(monkeypatch, count, a, r):
        monkeypatch.setattr(seminorms, "resolve_threads", lambda: count)
        return variation_values(a, r)

    @pytest.mark.parametrize("name, r", [
        *((name, r) for name in ("real", "int64", "complex", "scaled", "three axes")
          for r in (1.0, 2.0, 3.0, math.inf)),
        ("scaled", 2000.0),  # units of the largest increment, found per range
    ])
    def test_worker_count_moves_no_bit(self, monkeypatch, pools, name, r):
        a = wide_stack(name)
        want = pairwise_values(a, r).tobytes()
        for count in (1, 2, 3):
            assert self.on_workers(monkeypatch, count, a, r).tobytes() == want, count
        # 6145 and 3 columns split unevenly over 2 and 3 workers
        assert pools == [2, 3]

    def test_small_trailing_shapes_stay_serial(self, monkeypatch, pools):
        a = substream(42).standard_normal((80, 3, 5))
        for r in (2.0, 3.0):
            want = pairwise_values(a, r).tobytes()
            assert all(self.on_workers(monkeypatch, c, a, r).tobytes() == want for c in (1, 2, 3))
        assert pools == []

    def test_narrow_wide_stack_stays_serial(self, monkeypatch, pools):
        # 2^22 pair increments but fewer than 2^11 cells per worker
        self.on_workers(monkeypatch, 2, substream(43).standard_normal((300, 2047)), 2.0)
        assert pools == []

    def test_martingale_fallback_starts_no_pool_in_a_worker(self, monkeypatch, pools):
        # at r = 700 the leaves go through the batched DP at full resolution,
        # on the worker's own thread even when the split would see 3 CPUs
        monkeypatch.setattr(seminorms, "resolve_threads", lambda: 3)
        want = lepingle_stat(2, 700, 6, 40, 3, threads=1)
        assert lepingle_stat(2, 700, 6, 40, 3, threads=2) == want
        assert lepingle_stat(2, 700, 6, 40, 3, threads=3) == want
        assert pools == [1, 1, 1]  # lepingle_stat's own map, one work item each


class TestLacunary:
    def test_powers_of_two(self):
        assert lacunary(2.0, 10) == (1, 2, 4, 8)

    def test_three_halves(self):
        assert lacunary(1.5, 12) == (1, 2, 3, 5, 7, 11)

    def test_bound_one(self):
        assert lacunary(3.0, 1) == (1,)

    def test_rejects_tau(self):
        with pytest.raises(ValueError):
            lacunary(1.0, 5)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_rejects_nonfinite_tau(self, tau):
        with pytest.raises(ValueError, match="tau"):
            lacunary(tau, 64)

    @pytest.mark.parametrize("bound", [0, 64.0])
    def test_rejects_bad_bound(self, bound):
        with pytest.raises(ValueError, match=re.escape(f"bound must be an integer >= 1, got {bound!r}")):
            lacunary(2, bound)

    def test_bound_past_the_float_range_raises(self):
        # tau^n overflowed with OverflowError before it passed the bound
        with pytest.raises(ValueError, match="bound must be below 2\\^1024 for a non-integer tau"):
            lacunary(1.5, 10**400)

    def test_power_past_the_float_range_passes_a_smaller_bound(self):
        # (1e200)^2 overflows, and is past any bound below 2^1024
        assert lacunary(1e200, 10**250) == (1, math.floor(1e200))
        assert lacunary(1.5, 2**1024 - 1)[-1] == math.floor(1.5 ** 1750)

    def test_numpy_tau_powers_in_python(self):
        # np.float64(1e200)**2 overflowed to inf with a RuntimeWarning, and
        # np.int64(3)**n wrapped past int64 and never passed the bound
        assert lacunary(np.float64(1e200), 10**250) == (1, math.floor(1e200))
        assert lacunary(np.int64(3), 10**20) == tuple(3**n for n in range(42))
        assert lacunary(np.float32(1.5), 10**50) == lacunary(1.5, 10**50)

    def test_integer_tau_stays_exact(self):
        got = lacunary(3, 10**400)
        assert got == tuple(3**n for n in range(len(got))) and 3 ** len(got) > 10**400


def full_resolution(levels) -> list[np.ndarray]:
    """Martingale levels of one signal, each repeated out to every point."""
    q = levels[-1].shape[1]
    return [np.repeat(lev[0], q // lev.shape[1]) for lev in levels]


class TestMartingale:
    def test_delta_levels(self):
        levels = _block_levels(Signal.delta(8, weight=8.0).values[None])
        assert len(levels) == 4
        for n, level in enumerate(levels):
            expect = np.zeros(2**n)
            expect[0] = 2.0**n
            assert level.shape == (1, 2**n)
            assert np.allclose(level[0].real, expect)

    def test_constant(self):
        levels = _block_levels(Signal(16, np.full(16, 2.0, dtype=complex)).values[None])
        stack = np.stack(full_resolution(levels))
        assert np.allclose(variation_values(stack, 2.0), 0.0)
        rule = _Exponent(2.0, "variation")
        assert np.allclose(rule.root(_variation_dp(levels, rule.step, rule.folds)), 0.0)

    def test_tower_property_exact(self):
        rng = substream(7)
        q = 32
        levels = _block_levels(rng.standard_normal((1, q)))
        assert len(levels) == 6  # depth 5
        for n in range(5):
            finer = levels[n + 1]
            pairwise = (finer[:, 0::2] + finer[:, 1::2]) / 2.0
            assert np.array_equal(levels[n], pairwise)

    def test_level_norm_contraction(self):
        rng = substream(8)
        g = Signal(64, rng.standard_normal(64))
        levels = full_resolution(_block_levels(g.values[None]))
        for p in (1.0, 2.0, 4.0):
            norms = [Signal(64, lev).norm(p) for lev in levels]
            assert all(n <= g.norm(p) + 1e-12 for n in norms)


class TestLevelKernel:
    @given(
        st.integers(0, 4),
        st.integers(1, 3),
        st.sampled_from([1.0, 2.0, 3.0, math.inf]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_martingale_levels_match_oracle(self, depth, batch, r, data):
        q = 2**depth
        flat = data.draw(
            st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=batch * q, max_size=batch * q)
        )
        g = np.array(flat).reshape(batch, q)
        rule = _Exponent(r, "variation")
        got = rule.root(_variation_dp(_block_levels(g), rule.step, rule.folds))
        want = np.stack([martingale_variation(row, r) for row in g])
        assert got.shape == (batch, q)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_martingale_levels_share_block_levels(self):
        g = substream(9).standard_normal(16)
        for lev, want in zip(full_resolution(_block_levels(g[None])), martingale_levels(g)):
            assert np.allclose(lev, want, rtol=0, atol=1e-15)


class TestLepingle:
    @pytest.mark.parametrize("r", [1.0, 3.0, math.inf])
    def test_matches_oracle(self, r):
        seed, depth, trials, p = 11, 4, 12, 2.0
        stat = lepingle_stat(p, r, depth, trials, seed)
        ratios = []
        for t in range(trials):
            g = substream(seed, t).standard_normal(2**depth)
            num = np.mean(martingale_variation(g, r) ** p) ** (1 / p)
            den = max(np.mean(np.abs(lev) ** p) ** (1 / p) for lev in martingale_levels(g))
            ratios.append(num / den)
        assert stat["max"] == pytest.approx(max(ratios), rel=1e-12)
        assert stat["mean"] == pytest.approx(np.mean(ratios), rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_norm_exponent(self, p):
        with pytest.raises(ValueError, match="norm exponent p"):
            lepingle_stat(p, 3, 4, 2, 0)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match=re.escape("depth must be an integer in [0, 20], got -1")):
            lepingle_stat(2, 3, -1, 1, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            lepingle_stat(2, 3, 4, 2, seed)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            substream(seed, 0)

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_row_norms_match_exact_sums(self, p):
        # lepingle_stat's norms: the mean over each row, in units where the
        # p-th powers would overflow or underflow
        rows = substream(12).standard_normal((4, 32)) * np.array([[1e200], [1e-200], [1.0], [1e-170]])
        got = pnorm(rows, p, axis=1, mean=True)
        for row, value in zip(rows, got):
            assert value == pytest.approx(exact_pnorm(row, p, mean=True), rel=1e-13, abs=0)
        ordinary = rows[2:3]
        assert got[2] == ((np.abs(ordinary) ** p).mean(axis=1) ** (1.0 / p))[0]

    def test_deterministic(self):
        a = lepingle_stat(2, 3, 6, 25, 11)
        b = lepingle_stat(2, 3, 6, 25, 11)
        assert a == b

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0, math.inf])
    def test_tile_and_thread_invariance(self, monkeypatch, r):
        # work items of 1 and 16 leaf cells split the trials into one item
        # each, or into uneven runs at depths 0-3; none of it may move a bit
        default = seminorms._TILE_CELLS
        want = [lepingle_stat(2, r, depth, 3, 11, threads=1) for depth in range(10)]
        for tile, threads in ((1, 2), (16, 1), (16, 4), (default, 2), (16, 2)):
            monkeypatch.setattr(seminorms, "_TILE_CELLS", tile)
            got = [lepingle_stat(2, r, depth, 3, 11, threads=threads) for depth in range(10)]
            assert got == want, (tile, threads)

    def test_trial_chunks_invariant_under_threads(self):
        # depth 9 at the default tile: 600 trials make three work items
        a = lepingle_stat(2, 3, 9, 600, 11, threads=1)
        assert lepingle_stat(2, 3, 9, 600, 11, threads=2) == a
        assert lepingle_stat(2, 3, 9, 600, 11, threads=4) == a

    def test_deep_trials_match_one_item(self, monkeypatch):
        # depth 18 runs one trial per item, or both in one item at 2^20 cells
        split = lepingle_stat(2, 3, 18, 2, 5)
        monkeypatch.setattr(seminorms, "_TILE_CELLS", 1 << 20)
        assert lepingle_stat(2, 3, 18, 2, 5) == split

    @pytest.mark.parametrize("depth, trials", [
        (2.5, 3), (4.0, 3), ("4", 3), (4, 2.5), (4, 0), (4, 10**6 + 1), (2, 10**13),
    ])
    def test_rejects_bad_counts(self, depth, trials):
        with pytest.raises(ValueError, match="must be an integer"):
            lepingle_stat(2, 3, depth, trials, 1)

    def test_numpy_integer_counts(self):
        assert lepingle_stat(2, 3, np.int64(4), np.int32(3), 1) == lepingle_stat(2, 3, 4, 3, 1)

    @pytest.mark.parametrize("r", [700, 1000, 3000])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_large_exponents_match_exact_sums(self, r, depth):
        # per-trial units overflowed to inf, and leaves far below their
        # trial's span underflowed to 0: each leaf counts in its own units
        seed, trials, p = 3, 5, 2
        ratios = []
        for t in range(trials):
            levels = martingale_levels(substream(seed, t).standard_normal(2**depth))
            vr = [exact_variation([lev[x] for lev in levels], r) for x in range(2**depth)]
            den = max(exact_pnorm(lev, p, mean=True) for lev in levels)
            ratios.append(exact_pnorm(vr, p, mean=True) / den)
        stat = lepingle_stat(p, r, depth, trials, seed)
        assert stat["max"] == pytest.approx(max(ratios), rel=1e-12, abs=0)
        assert stat["mean"] == pytest.approx(np.mean(ratios), rel=1e-12, abs=0)

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 4.0, 50.0])
    def test_leaf_units_keep_in_range_bits(self, r):
        # an ordinary trial keeps its bits next to one far out of range
        g = substream(4).standard_normal((2, 64))
        g[1] *= 1e300
        rule = _Exponent(r, "variation")
        got = _pointwise_variation(_block_levels(g), rule)
        alone = rule.root(_variation_dp(_block_levels(g[:1]), rule.step, rule.folds))
        assert np.array_equal(got[0], alone[0])
        down = rule.root(_variation_dp(_block_levels(g[1:] / 1e300), rule.step, rule.folds))
        assert got[1] == pytest.approx(down[0] * 1e300, rel=1e-12, abs=0)

    def test_sqrt_depth_ceiling(self):
        stat = lepingle_stat(2, 3, 10, 50, 11)
        assert stat["max"] <= math.sqrt(10) + 1e-9

    def test_r_two_flagged(self):
        stat = lepingle_stat(2, 2, 5, 5, 1)
        assert not stat["bound_asserted"]
        assert stat["note"] is not None

    def test_depth_cap(self):
        with pytest.raises(ValueError, match=re.escape("depth must be an integer in [0, 20], got 21")):
            lepingle_stat(2, 3, 21, 1, 0)

    def test_quantile_order(self):
        stat = lepingle_stat(2, 3, 8, 40, 2)
        q = stat["quantiles"]
        assert q["0.5"] <= q["0.9"] <= q["1.0"] == pytest.approx(stat["max"])


class TestRealSequence:
    def test_label_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            RealSequence([1.0, 2.0], labels=[3, 3])
        with pytest.raises(ValueError, match="length"):
            RealSequence([1.0, 2.0], labels=[0])
        with pytest.raises(ValueError, match="length"):
            RealSequence([1.0], labels=5)
        with pytest.raises(ValueError):
            RealSequence([])

    @pytest.mark.parametrize("labels", [
        [0.5, 1.5], [0.0, 1.0], np.array([0.0, 1.0]), ["0", "1"], np.array([0, 1], dtype=object),
        [2**63, 2**63 + 1],  # uint64, which int64 would wrap
    ])
    def test_labels_are_integers(self, labels):
        # [0.5, 1.5] became [0, 1], so a witness named labels never given
        with pytest.raises(ValueError, match="labels must be integers within int64, got "):
            RealSequence([0.0, 1.0], labels=labels)

    def test_integer_labels_of_any_width(self):
        seq = RealSequence([0.0, 1.0], labels=np.array([3, 7], dtype=np.uint8))
        assert seq.labels.dtype == np.int64 and seq.labels.tolist() == [3, 7]
        assert variation(seq, 2).witness == (3, 7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RealSequence([0.0, bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            variation([0.0, bad, 1.0], 2.0)

    def test_report_dict(self):
        rep = variation([0.0, 1.0], math.inf)
        d = rep.to_dict()
        assert d["kind"] == "variation" and d["parameters"]["r"] == math.inf
