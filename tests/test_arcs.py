import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circle_lab.arcs import (
    FAREY_MAX_DENOMINATOR,
    ArcSystem,
    DyadicScale,
    FareyTable,
    ReducedFraction,
    TorusIntervalSet,
    TorusPoint,
    canonical_fractions,
    dyadic_arcs,
    dyadic_shell,
    minor_sample,
    wrap_signed,
)

from circle_lab.expsums import complete_sum, scan_arcs
from circle_lab.polyavg import IntPolynomial

from oracles import (
    dense_distances,
    dense_nearest,
    farey_fractions,
    farey_min_gap,
    gap_complement,
    pairwise_intersect,
    torus_member,
    trial_totient,
    wrapped_intervals,
)


def bits(intervals):
    """Interval endpoints as hex strings, so equality is bit for bit."""
    return [(float(lo).hex(), float(hi).hex()) for lo, hi in intervals]


class TestReducedFraction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReducedFraction(2, 4)
        with pytest.raises(ValueError):
            ReducedFraction(3, 2)
        with pytest.raises(ValueError):
            ReducedFraction(1, 0)

    def test_reduce(self):
        assert ReducedFraction.reduce(2, 4) == ReducedFraction(1, 2)
        assert ReducedFraction.reduce(7, 3) == ReducedFraction(1, 3)
        assert ReducedFraction.reduce(-1, 3) == ReducedFraction(2, 3)
        assert ReducedFraction.reduce(5, 5) == ReducedFraction(0, 1)
        assert ReducedFraction.reduce(1, -3) == ReducedFraction(2, 3)  # the sign moves up
        with pytest.raises(ValueError, match="denominator must be nonzero"):
            ReducedFraction.reduce(1, 0)

    def test_value(self):
        fr = ReducedFraction(2, 5)
        assert fr.value == 0.4

    @pytest.mark.parametrize("a, q, bad", [
        (1.5, 2, "numerator"), (1.0, 2, "numerator"), ("1", 2, "numerator"),
        (1, 2.0, "denominator"), (1, None, "denominator"),
    ])
    def test_non_integer_parts_raise_value_error(self, a, q, bad):
        value, kind = (a, "an integer in [0, 1]") if bad == "numerator" else (q, "an integer >= 1")
        with pytest.raises(ValueError, match=re.escape(f"{bad} must be {kind}, got {value!r}")):
            ReducedFraction(a, q)

    @pytest.mark.parametrize("a, q", [(0.5, 1), (1, 2.5), ("1", "2")])
    def test_reduce_rejects_non_integer_parts(self, a, q):
        with pytest.raises(ValueError, match="must be an integer"):
            ReducedFraction.reduce(a, q)

    @pytest.mark.parametrize("a, q", [(np.int64(1), 2), (True, 2), (1, np.int32(3))])
    def test_parts_are_stored_as_python_ints(self, a, q):
        fr = ReducedFraction(a, q)
        assert type(fr.numerator) is int and type(fr.denominator) is int
        assert fr == ReducedFraction(int(a), int(q))
        fr = ReducedFraction.reduce(a, q)
        assert type(fr.numerator) is int and type(fr.denominator) is int


class TestWrap:
    def test_signed_interval(self):
        assert wrap_signed(0.5) == 0.5
        assert wrap_signed(-0.5) == 0.5
        assert wrap_signed(0.75) == -0.25
        assert wrap_signed(3.25) == 0.25

    def test_distance(self):
        assert np.abs(wrap_signed(np.asarray(0.1, dtype=float) - 0.9)) == pytest.approx(0.2)
        assert np.abs(wrap_signed(np.asarray(0.0, dtype=float) - 0.5)) == 0.5


class TestCanonicalFractions:
    def test_only_unit(self):
        assert canonical_fractions(1) == [ReducedFraction(0, 1)]

    def test_order_three(self):
        got = [str(fr) for fr in canonical_fractions(3)]
        assert got == ["0/1", "1/3", "1/2", "2/3"]

    def test_order_four_count(self):
        assert len(canonical_fractions(4)) == 6

    def test_totient_identity_small(self):
        for n in range(1, 51):
            expect = 1 + sum(trial_totient(q) for q in range(2, n + 1))
            assert len(canonical_fractions(n)) == expect

    def test_sorted_unique(self):
        fracs = canonical_fractions(20)
        vals = [fr.value for fr in fracs]
        assert vals == sorted(vals) and len(set(vals)) == len(vals)

    def test_fractional_bound_floors(self):
        assert len(canonical_fractions(3.99)) == 4

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            canonical_fractions(0.5)

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_rejects_nonfinite_bound(self, bound):
        with pytest.raises(ValueError, match=re.escape(f"denominator bound n1 must be a real number in [1, 2049), got {bound!r}")):
            canonical_fractions(bound)

    def test_table_size_limit(self):
        # the table grows as q^2: past the limit it is a ValueError, not a
        # multi-gigabyte allocation
        bound = "denominator bound n1 must be a real number in [1, 2049), got "
        for make, message in (
            (lambda: canonical_fractions(FAREY_MAX_DENOMINATOR + 1), bound + "2049"),
            (lambda: canonical_fractions(1e5), bound + "100000.0"),
            (lambda: dyadic_shell(FAREY_MAX_DENOMINATOR.bit_length()),
             "shell level must be an integer in [0, 11], got 12"),
            (lambda: ArcSystem(1e5, 1e-6), bound + "100000.0"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                make()
        assert FAREY_MAX_DENOMINATOR >= 1024  # the largest bound any caller uses


class TestClassify:
    def test_on_center(self):
        arcs = ArcSystem(3, 1e-6)
        res = arcs.classify(0.0)
        assert res.is_major and str(res.nearest) == "0/1" and res.distance == 0.0

    def test_on_half(self):
        res = ArcSystem(2, 1e-6).classify(0.5)
        assert res.is_major and str(res.nearest) == "1/2"

    def test_tie_breaks_to_small_denominator(self):
        res = ArcSystem(2, 1e-4).classify(0.25)
        assert not res.is_major
        assert str(res.nearest) == "0/1"
        assert res.distance == pytest.approx(0.25)

    def test_reads_torus_points(self):
        arcs = ArcSystem(5, 1e-3)
        assert arcs.classify(TorusPoint(0.3)) == arcs.classify(0.3)
        assert arcs.classify(TorusPoint(1.375)) == arcs.classify(0.375)
        with pytest.raises(ValueError, match="finite"):
            arcs.classify(math.nan)

    def test_stable_under_lift(self):
        arcs = ArcSystem(5, 1e-3)
        for x in (0.07, 0.333, 0.71):
            a = arcs.classify(x)
            b = arcs.classify(x + 1.0)
            assert a.nearest == b.nearest and a.distance == pytest.approx(b.distance)


class TestDyadicShells:
    def test_level_zero(self):
        assert dyadic_shell(0) == [ReducedFraction(0, 1)]

    def test_level_one(self):
        assert dyadic_shell(1) == [ReducedFraction(1, 2)]

    def test_level_two(self):
        assert [str(fr) for fr in dyadic_shell(2)] == ["1/4", "1/3", "2/3", "3/4"]

    @pytest.mark.parametrize("level", [2.0, 1.5, "2", None])
    def test_non_integer_level_raises_value_error(self, level):
        with pytest.raises(ValueError, match=re.escape(f"shell level must be an integer in [0, 11], got {level!r}")):
            dyadic_shell(level)

    @pytest.mark.parametrize("level", [1.5, 2.0])
    def test_non_integer_scale_level_raises_value_error(self, level):
        with pytest.raises(ValueError, match=re.escape(f"got {level!r}")):
            DyadicScale(level, -2)

    def test_level_past_the_table_is_checked_first(self):
        # 2**20000 has more digits than int-to-str conversion allows
        with pytest.raises(ValueError, match=re.escape("shell level must be an integer in [0, 11], got 20000")):
            dyadic_shell(20000)

    def test_scale_past_the_table_or_the_float_range(self):
        with pytest.raises(ValueError, match=re.escape("shell level l must be an integer in [0, 11], got 2000")):
            DyadicScale(2000, -3)
        with pytest.raises(ValueError, match="halfwidth exponent m must be an integer <= 1023, got 2000"):
            DyadicScale(2, 2000)  # 2.0**2000 overflows

    def test_scale_level_is_stored_as_python_int(self):
        scale = DyadicScale(np.int64(3), -8)
        assert type(scale.l) is int and scale == DyadicScale(3, -8)

    @pytest.mark.parametrize("m", [2.5, -6.0, math.nan, "2"])
    def test_halfwidth_exponent_is_an_integer(self, m):
        # 2.5 was accepted and 2.0**2.5 used as the halfwidth
        with pytest.raises(ValueError, match=re.escape(f"halfwidth exponent m must be an integer <= 1023, got {m!r}")):
            DyadicScale(2, m)

    def test_halfwidth_exponent_is_stored_as_python_int(self):
        scale = DyadicScale(3, np.int64(-8))
        assert type(scale.m) is int and scale == DyadicScale(3, -8)

    def test_partition(self):
        for level in range(0, 11):
            union = []
            for j in range(level + 1):
                union.extend(dyadic_shell(j))
            assert len(union) == len(set(union))
            assert set(union) == set(canonical_fractions(2**level))

    def test_shell_count_bound(self):
        for level in range(0, 11):
            assert len(canonical_fractions(2.0**level)) <= 2 ** (2 * level)


class TestDyadicArcs:
    def test_single_arc_around_zero(self):
        bundle = dyadic_arcs(DyadicScale(0, -2))
        ivs = bundle.system.intervals
        assert ivs.measure == pytest.approx(0.5)
        assert bool(ivs.contains(0.2)) and bool(ivs.contains(0.8))
        assert not ivs.contains(0.5)

    def test_disjoint_at_safe_width(self):
        bundle = dyadic_arcs(DyadicScale(1, -4))
        assert bundle.system.is_disjoint

    def test_disjointness_rule(self):
        for l in range(0, 7):
            assert dyadic_arcs(DyadicScale(l, -2 * l - 2)).system.is_disjoint

    def test_monotone_by_sampling(self):
        xs = np.linspace(0, 1, 701, endpoint=False)
        inner = dyadic_arcs(DyadicScale(2, -8)).system.intervals.contains(xs)
        wider = dyadic_arcs(DyadicScale(2, -6)).system.intervals.contains(xs)
        deeper = dyadic_arcs(DyadicScale(3, -8)).system.intervals.contains(xs)
        assert not (inner & ~wider).any()
        assert not (inner & ~deeper).any()

    def test_shell_differences(self):
        bundle = dyadic_arcs(DyadicScale(2, -7))
        lower = dyadic_arcs(DyadicScale(1, -7)).system.intervals
        xs = np.linspace(0, 1, 997, endpoint=False)
        in_shell = bundle.shell.contains(xs)
        assert not (in_shell & lower.contains(xs)).any()
        full = bundle.system.intervals.contains(xs)
        assert (in_shell <= full).all()
        # refined shell excludes the half-width cores around level-2 centers
        refined = bundle.shell_refined.contains(xs)
        assert (refined <= in_shell).all()


class TestIntervalSet:
    def test_wraparound_merge(self):
        s = TorusIntervalSet([(0.9, 1.05), (0.2, 0.3)])
        assert s.measure == pytest.approx(0.25)
        assert bool(s.contains(0.02)) and bool(s.contains(0.95))
        assert not s.contains(0.5)

    @pytest.mark.parametrize("s", [
        TorusIntervalSet.from_arcs([0.975], 0.025),  # the closed arc [0.95, 1.0]: 0 was not in it
        TorusIntervalSet([(0.2, 0.3), (0.5, 1.0)]),
    ])
    def test_piece_ending_at_one_holds_zero(self, s):
        assert s.intervals[-1][1] == 1.0
        xs = [0.0, -0.0, 1.0, -1e-17, 5e-324, 1e-17, 0.05, 0.25, 0.75, 0.97, -0.05]
        want = [torus_member(s.intervals, x) for x in xs]
        assert want[:4] == [True] * 4 and want[4:7] == [False] * 3
        assert s.contains(xs).tolist() == want
        assert [bool(s.contains(x)) for x in xs] == want

    def test_complement(self):
        s = TorusIntervalSet.from_arcs([0.0, 0.5], 0.1)
        c = s.complement()
        assert c.measure == pytest.approx(0.6)
        assert bool(c.contains(0.3)) and not c.contains(0.05)

    def test_difference(self):
        s = TorusIntervalSet.from_arcs([0.0, 0.5], 0.1)
        d = s.difference(TorusIntervalSet.from_arcs([0.0], 0.1))
        assert d.measure == pytest.approx(0.2)
        assert bool(d.contains(0.45)) and not d.contains(0.05)

    def test_full_cover(self):
        s = TorusIntervalSet([(0.0, 2.0)])
        assert s.measure == 1.0
        assert s.complement().measure == 0.0

    def test_intersect(self):
        a = TorusIntervalSet([(0.9, 1.1)])
        b = TorusIntervalSet([(0.05, 0.2)])
        both = a.intersect(b)
        assert both.measure == pytest.approx(0.05)
        assert bool(both.contains(0.07))

    def test_zero_halfwidth_arcs_are_points(self):
        assert TorusIntervalSet.from_arcs([0.25, 0.5], 0.0).intervals == ((0.25, 0.25), (0.5, 0.5))

    @pytest.mark.parametrize("halfwidth", [math.nan, -0.1, math.inf])
    def test_arc_halfwidth_is_checked(self, halfwidth):
        # nan and -0.1 gave the empty set, and so a zero overlap
        with pytest.raises(ValueError, match=re.escape(f"arc halfwidth must be a real number in [0, inf), got {halfwidth!r}")):
            TorusIntervalSet.from_arcs([0.25, 0.5], halfwidth)


class TestIntervalAlgebraOracle:
    """Randomized cross-check of the interval algebra against pointwise
    membership on a grid that avoids interval endpoints."""

    @staticmethod
    def random_set(rng):
        k = int(rng.integers(1, 5))
        los = rng.uniform(-0.5, 1.5, k)
        widths = rng.uniform(0.01, 0.45, k)
        return TorusIntervalSet(list(zip(los, los + widths)))

    def test_complement_intersect_difference(self):
        from circle_lab._util import substream

        xs = np.linspace(0, 1, 769, endpoint=False) + 1.0 / 7919.0
        rng = substream(20)
        for _ in range(40):
            a = self.random_set(rng)
            b = self.random_set(rng)
            in_a, in_b = a.contains(xs), b.contains(xs)
            assert np.array_equal(a.complement().contains(xs), ~in_a)
            assert np.array_equal(a.intersect(b).contains(xs), in_a & in_b)
            assert np.array_equal(a.difference(b).contains(xs), in_a & ~in_b)
            assert a.measure + a.complement().measure == pytest.approx(1.0, abs=1e-12)

    def test_measure_matches_sampling(self):
        from circle_lab._util import substream

        rng = substream(21)
        xs = np.linspace(0, 1, 200_001, endpoint=False) + 1e-7
        for _ in range(10):
            a = self.random_set(rng)
            assert a.measure == pytest.approx(a.contains(xs).mean(), abs=2e-4)


class TestArcSystem:
    def test_exact_disjoint_flag(self):
        # Farey order 4 min gap is 1/12; arcs of halfwidth just under 1/24
        assert ArcSystem(4, 1 / 24 - 1e-9).is_disjoint
        assert not ArcSystem(4, 1 / 24 + 1e-9).is_disjoint

    def test_coverage(self):
        arcs = ArcSystem(2, 0.01)
        assert arcs.coverage == pytest.approx(0.04)

    @pytest.mark.parametrize("halfwidth", [math.nan, math.inf, -math.inf, -1e-3])
    def test_rejects_bad_halfwidth(self, halfwidth):
        with pytest.raises(ValueError, match="halfwidth"):
            ArcSystem(3, halfwidth)
        with pytest.raises(ValueError, match="halfwidth"):
            scan_arcs(64, 2, 0.125, 1.0, halfwidth)


class TestMinorSample:
    def test_deterministic(self):
        arcs = ArcSystem(4, 1e-3)
        a = minor_sample(arcs, 50, 1)
        b = minor_sample(arcs, 50, 1)
        assert [p.value for p in a] == [p.value for p in b]

    def test_all_minor(self):
        arcs = ArcSystem(4, 1e-3)
        pts = minor_sample(arcs, 100, 1)
        assert len(pts) == 100
        assert all(not arcs.classify(p).is_major for p in pts)

    def test_zero_count(self):
        assert minor_sample(ArcSystem(2, 0.01), 0, 5) == []

    def test_zero_width_excludes_centers_only(self):
        arcs = ArcSystem(3, 0.0)
        pts = minor_sample(arcs, 200, 2)
        assert all(arcs.classify(p).distance > 0 for p in pts)

    def test_coverage_abort(self):
        with pytest.raises(ValueError, match="coverage"):
            minor_sample(ArcSystem(8, 0.3), 10, 0)

    @pytest.mark.parametrize("count", [-1, 2.0])
    def test_rejects_bad_count(self, count):
        with pytest.raises(ValueError, match=re.escape(f"count must be a non-negative integer, got {count!r}")):
            minor_sample(ArcSystem(2, 0.01), count, 5)


class TestTorusPoint:
    def test_normalization(self):
        assert TorusPoint(1.25).value == 0.25
        assert TorusPoint(-0.25).value == 0.75

    @pytest.mark.parametrize("value", [-1e-20, -5e-324, -0.0, -3.0])
    def test_tiny_negative_value_is_zero(self, value):
        # -1e-20 % 1.0 rounds to 1.0, outside [0, 1)
        point = TorusPoint(value)
        assert point.value == 0.0 and math.copysign(1.0, point.value) == 1.0
        assert ArcSystem(4, 0.01).classify(value).nearest == ReducedFraction(0, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, value):
        with pytest.raises(ValueError, match="finite"):
            TorusPoint(value)

    def test_distance(self):
        assert np.abs(wrap_signed(np.asarray(0.9, dtype=float) - 0.1)) == pytest.approx(0.2)


class TestFareyTables:
    """The array-built tables against brute Fraction enumeration."""

    def test_canonical_fractions_match_enumeration(self):
        brute = [(f.numerator, f.denominator) for f in farey_fractions(200)]
        for n in range(1, 201):
            want = [(a, q) for a, q in brute if q <= n]
            got = [(fr.numerator, fr.denominator) for fr in canonical_fractions(n)]
            assert got == want

    def test_dyadic_shells_match_enumeration(self):
        brute = farey_fractions(256)
        for level in range(0, 9):
            want = [
                (f.numerator, f.denominator)
                for f in brute
                if 2**level / 2 < f.denominator <= 2**level
            ]
            assert [(fr.numerator, fr.denominator) for fr in dyadic_shell(level)] == want

    def test_neighbour_gap_matches_sorted_scan(self):
        brute = farey_fractions(64)
        for n in range(1, 65):
            want = farey_min_gap(f for f in brute if f.denominator <= n)
            arcs = ArcSystem(n, 0.0)
            assert arcs.min_center_gap == want
            assert type(arcs.min_center_gap) is Fraction
        assert ArcSystem(256, 0.0).min_center_gap == Fraction(1, 256 * 255)

    def test_values_bit_equal_to_quotients(self):
        brute = farey_fractions(200)
        table = canonical_fractions(200)
        assert [(a, q) for a, q in zip(table.numerators.tolist(), table.denominators.tolist())] == [
            (f.numerator, f.denominator) for f in brute
        ]
        want = [(f.numerator / f.denominator).hex() for f in brute]
        assert [v.hex() for v in table.values.tolist()] == want
        assert table.values.dtype == np.float64

    def test_elements_are_python_int_fractions(self):
        table = canonical_fractions(60)
        elements = [table[i] for i in range(len(table))]
        assert elements == list(table) == table
        for fr in elements:
            assert type(fr) is ReducedFraction
            assert type(fr.numerator) is int and type(fr.denominator) is int
            same = ReducedFraction(fr.numerator, fr.denominator)
            assert fr == same and hash(fr) == hash(same)

    def test_elements_hit_the_complete_sum_cache(self):
        poly = IntPolynomial((0, 0, 1))
        table = dyadic_shell(5)
        complete_sum.cache_clear()
        for fr in table:
            complete_sum(poly, fr)
        misses = complete_sum.cache_info().misses
        for fr in table:
            complete_sum(poly, ReducedFraction(fr.numerator, fr.denominator))
        info = complete_sum.cache_info()
        assert info.misses == misses == len(table) and info.hits == len(table)

    def test_indexing_and_slicing(self):
        table = canonical_fractions(5)
        want = [ReducedFraction(a, q) for a, q in
                [(0, 1), (1, 5), (1, 4), (1, 3), (2, 5), (1, 2), (3, 5), (2, 3), (3, 4), (4, 5)]]
        assert table == want and want == table and table == tuple(want)
        assert table != want[:-1] and table != want[::-1]
        assert table[-1] == want[-1] and table[-len(want)] == want[0]
        assert table[np.int64(3)] == want[3]
        for sl in (slice(2, 5), slice(None, None, -1), slice(-3, None), slice(1, 8, 3), slice(7, 2)):
            part = table[sl]
            assert isinstance(part, FareyTable) and part == want[sl]
            assert part.values.tolist() == [fr.value for fr in want[sl]]
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                table[i]
        with pytest.raises(TypeError):
            table[1.0]

    def test_arrays_are_read_only(self):
        for table in (canonical_fractions(30), dyadic_shell(4), ArcSystem(30, 0.0).centers,
                      canonical_fractions(30)[::2]):
            for arr in (table.numerators, table.denominators, table.values):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_reads_allocate_no_objects_for_the_whole_table(self):
        canonical_fractions(1024)  # warms the cached arrays
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            table = canonical_fractions(1024)
            picked = [len(table), table[0], table[-1]]
            picked += [table[i] for i in rng.integers(0, len(table), size=512)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert picked[0] == 318_964 and picked[2] == ReducedFraction(1023, 1024)
        assert peak < 2**20

    def test_center_values_match_fractions(self):
        arcs = ArcSystem(50, 0.0)
        assert arcs.centers.values.tolist() == [fr.value for fr in arcs.centers]
        assert not arcs.centers.values.flags.writeable


class TestNearestCenter:
    """Neighbour search in the sorted centers against the dense
    points x centers computation."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle(self, data):
        n1 = data.draw(st.integers(1, 40), label="n1")
        arcs = ArcSystem(n1, 1e-3)
        c = arcs.centers.values.tolist()
        mids = [(a + b) / 2 for a, b in zip(c, c[1:] + [1.0])]
        point = st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from(c + mids),  # on centers and on exact or near ties
            st.integers(0, 63).map(lambda k: k / 64),
            st.sampled_from([2.0**-60, 0.5 - 2.0**-54, 1.0 - 2.0**-53]),  # seam
        )
        xs = data.draw(st.lists(point, min_size=1, max_size=30), label="xs")
        assert np.array_equal(arcs.distances(xs), dense_distances(xs, c))
        for x in xs:
            best, nearest = dense_nearest(x, arcs.centers)
            res = arcs.classify(x)
            assert (res.distance, res.nearest) == (best, nearest)
            assert res.is_major == (best <= 1e-3)

    def test_ties_and_seam(self):
        arcs = ArcSystem(4, 0.0)
        # 1/8 is equidistant from 0/1 and 1/4, 7/8 from 3/4 and 1/1 = 0/1
        assert str(arcs.classify(0.125).nearest) == "0/1"
        assert str(arcs.classify(0.875).nearest) == "0/1"
        # 3/4 is equidistant from 1/2 and 1/1 = 0/1 across the seam
        assert str(ArcSystem(2, 0.0).classify(0.75).nearest) == "0/1"
        assert arcs.classify(1.0 - 2.0**-53).nearest == ReducedFraction(0, 1)
        assert arcs.distances([0.0, 0.25, 1.0 / 3.0]).tolist() == [0.0, 0.0, 0.0]

    def test_minor_sample_memory_is_linear_in_points(self):
        arcs = ArcSystem(256, 1e-9)  # 19,949 centers
        tracemalloc.start()
        try:
            pts = minor_sample(arcs, 2000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts) == 2000
        assert peak < 64 * 2**20


piece = st.tuples(
    st.one_of(
        st.floats(-1.5, 1.5),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, -0.25, -0.5, -1e-20, 1e-20]),
    ),
    st.one_of(st.floats(0.0, 0.6), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
).map(lambda t: (t[0], t[0] + t[1]))
piece_lists = st.lists(piece, max_size=6)


class TestIntervalSweep:
    """The sorted-array interval algebra against the pairwise loop, bit for
    bit: seam pieces with lo < 0, empty sets, the full circle, touching
    endpoints and zero-width pieces."""

    @given(piece_lists, piece_lists)
    @settings(max_examples=300, deadline=None)
    @example([], [])
    @example([], [(0.0, 1.0)])
    @example([(0.0, 1.0)], [(0.25, 0.5)])
    @example([(0.25, 0.5), (0.5, 0.75)], [(0.75, 1.25)])
    @example([(-0.25, 0.25), (0.5, 0.5)], [(0.5, 0.5), (0.25, 0.25)])
    @example([(0.9, 1.1), (0.3, 0.3)], [(-0.05, 0.0), (1.0, 1.02)])
    def test_matches_pairwise_oracle(self, p, q):
        a, b = TorusIntervalSet(p), TorusIntervalSet(q)
        assert bits(a.intervals) == bits(wrapped_intervals(p))
        assert bits(a.intersect(b).intervals) == bits(pairwise_intersect(a.intervals, b.intervals))
        assert bits(a.complement().intervals) == bits(gap_complement(a.intervals))
        assert bits(a.difference(b).intervals) == bits(
            pairwise_intersect(a.intervals, gap_complement(b.intervals))
        )

    @pytest.mark.parametrize("l", range(0, 6))
    def test_dyadic_arcs_match_pairwise_oracle(self, l):
        for m in (-2 * l - 4, -2 * l - 2, -l - 1):
            half = 2.0**m
            bundle = dyadic_arcs(DyadicScale(l, m))
            full = wrapped_intervals(
                [(fr.value - half, fr.value + half) for fr in canonical_fractions(2**l)]
            )
            assert bits(bundle.system.intervals.intervals) == bits(full)
            shell = full
            if l > 0:
                lower = wrapped_intervals(
                    [(fr.value - half, fr.value + half) for fr in canonical_fractions(2 ** (l - 1))]
                )
                shell = pairwise_intersect(full, gap_complement(lower))
            assert bits(bundle.shell.intervals) == bits(shell)
            narrower = wrapped_intervals(
                [(fr.value - half / 2, fr.value + half / 2) for fr in dyadic_shell(l)]
            )
            assert bits(bundle.shell_refined.intervals) == bits(
                pairwise_intersect(shell, gap_complement(narrower))
            )
