"""Canonical fractions, major/minor arc systems, and dyadic shells on the torus.

The torus is [0, 1) with wrap distance.  Fractions are exact integer pairs;
the fraction 1/1 is stored once as 0/1.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from ._util import integer, real, substream


def wrap_signed(x):
    """Reduce to the representative in (-1/2, 1/2]."""
    return x - np.ceil(x - 0.5)


@dataclass(frozen=True)
class TorusPoint:
    """A point of R/Z stored as its representative in [0, 1), as
    `minor_sample` returns them; TorusPoint(x).value reads any finite x,
    or a TorusPoint, as a torus point."""

    value: float

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value):
            raise ValueError(f"torus point must be finite, got {value}")
        # a tiny negative value % 1.0 rounds up to 1.0, the torus point 0.0
        object.__setattr__(self, "value", value % 1.0 % 1.0)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True, order=False)
class ReducedFraction:
    """Reduced fraction a/q on the torus: gcd(a, q) = 1 and 0 <= a < q.
    Both parts are stored as Python ints."""

    numerator: int
    denominator: int

    def __post_init__(self):
        q = integer(self.denominator, "denominator", 1)
        a = integer(self.numerator, "numerator", 0, q - 1)
        if math.gcd(a, q) != 1:
            raise ValueError(f"{a}/{q} is not reduced")
        object.__setattr__(self, "numerator", a)
        object.__setattr__(self, "denominator", q)

    @classmethod
    def reduce(cls, a: int, q: int) -> "ReducedFraction":
        """Canonical representative of a/q on the torus."""
        a, q = integer(a, "numerator"), integer(q, "denominator")
        if q == 0:
            raise ValueError("denominator must be nonzero")
        if q < 0:
            a, q = -a, -q
        a %= q
        g = math.gcd(a, q)  # q when a = 0, giving 0/1
        return cls(a // g, q // g)

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


FAREY_MAX_DENOMINATOR = 2048  # 1.3e6 fractions; the table grows as q_max^2
MAX_LEVEL = 11  # the deepest dyadic level: 2^11 = FAREY_MAX_DENOMINATOR


@lru_cache(maxsize=32)
def _farey(q_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted (num, den, num / den) of every reduced a/q in [0, 1) with q <= q_max, as
    int64, int64 and float64, sorted one slice [k/S, (k+1)/S) of about 2^14 candidates a/q
    at a time into outputs sized by sum phi(q).  Distinct ones differ by >= 1/q_max^2, so
    the float sort is exact.  Callers keep q_max within FAREY_MAX_DENOMINATOR."""
    phi = np.arange(q_max + 1)  # Euler's totient, by a sieve
    for p in range(2, q_max + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] -= phi[p::p] // p
    num, den = np.empty((2, int(phi[1:].sum())), np.int64)  # phi(1) = 1 counts 0/1
    qs, pos, slices = np.arange(1, q_max + 1, dtype=np.int64), 0, max(1, q_max * q_max >> 15)
    for k in range(slices):  # a/q is in slice k iff ceil(kq/S) <= a < ceil((k+1)q/S)
        lo, hi = -(-k * qs // slices), -(-(k + 1) * qs // slices)
        d = np.repeat(qs, hi - lo)
        n = np.arange(d.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
        keep = np.gcd(n, d) == 1  # drops a = 0 for every q > 1
        n, d = n[keep], d[keep]
        order = np.argsort(n / d)
        num[pos : pos + n.size], den[pos : pos + n.size] = n[order], d[order]
        pos += n.size
    return num, den, num / den


def _entry(a: int, q: int) -> ReducedFraction:
    """ReducedFraction(a, q) without the checks, for a table's Python ints."""
    fr = object.__new__(ReducedFraction)
    fr.__dict__.update(numerator=a, denominator=q)
    return fr


class FareyTable(Sequence):
    """Read-only sorted ReducedFractions over the arrays `numerators`,
    `denominators` and `values` (= numerators / denominators).  An element
    is made only when it is read, a slice is a table, and a table is equal
    to the list or tuple of its elements."""

    __hash__ = None  # equal to lists, which are unhashable

    def __init__(self, *arrays: np.ndarray):
        for a in arrays:
            a.flags.writeable = False
        self.numerators, self.denominators, self.values = arrays

    def __len__(self) -> int:
        return self.numerators.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FareyTable(self.numerators[i], self.denominators[i], self.values[i])
        i = range(len(self))[i]  # an int in range, or IndexError or TypeError
        return _entry(int(self.numerators[i]), int(self.denominators[i]))

    def __iter__(self):
        return map(_entry, self.numerators.tolist(), self.denominators.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (FareyTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"FareyTable({list(self)!r})"


def canonical_fractions(n1: float) -> FareyTable:
    """All reduced fractions a/q on [0, 1) with q <= floor(n1), sorted.

    Contains 0/1 (the torus representative of both 0 and 1).  floor(n1)
    may be at most FAREY_MAX_DENOMINATOR.
    """
    real(n1, "denominator bound n1", f"[1, {FAREY_MAX_DENOMINATOR + 1})")
    return FareyTable(*_farey(math.floor(n1)))


def dyadic_shell(level: int) -> FareyTable:
    """Fractions with denominator in (2^(level-1), 2^level]; level 0 is {0/1}."""
    level = integer(level, "shell level", 0, MAX_LEVEL)
    num, den, val = _farey(2**level)
    keep = den > 2**level // 2
    return FareyTable(num[keep], den[keep], val[keep])


# ---------------------------------------------------------------------------
# Interval unions on the torus
# ---------------------------------------------------------------------------


class TorusIntervalSet:
    """Disjoint union of closed intervals inside [0, 1), wrap-aware."""

    def __init__(self, intervals: Sequence[tuple[float, float]] = ()):
        lo, hi = np.asarray(intervals, dtype=float).reshape(-1, 2).T
        with np.errstate(invalid="ignore"):  # inf - inf
            width = hi - lo
        if np.any(width >= 1.0):
            lo, hi = np.array([0.0]), np.array([1.0])
        else:
            keep = width >= 0.0  # drops hi < lo and every non-finite end
            start = lo[keep] % 1.0
            end = start + width[keep]
            over = end > 1.0  # split at the seam
            lo = np.concatenate((start, np.zeros(int(over.sum()))))
            hi = np.concatenate((np.where(over, 1.0, end), end[over] - 1.0))
        self._lo, self._hi = self._normalize(lo, hi)

    @staticmethod
    def _normalize(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Merge sorted pieces that overlap or touch, then join the pieces at
        0 and 1 into one seam interval with lo < 0."""
        order = np.argsort(lo, kind="stable")
        lo, end = lo[order], np.maximum.accumulate(hi[order])
        first = np.ones(lo.size, dtype=bool)
        first[1:] = lo[1:] > end[:-1]
        lo, hi = lo[first], end[np.roll(first, -1)]
        if lo.size > 1 and lo[0] <= 0.0 and hi[-1] >= 1.0:
            lo[0] = lo[-1] - 1.0
            lo, hi = lo[:-1], hi[:-1]
        return lo, hi

    @cached_property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._lo.tolist(), self._hi.tolist()))

    @classmethod
    def from_arcs(cls, centers: Sequence[float], halfwidth: float) -> "TorusIntervalSet":
        # a halfwidth >= 1/2 covers the torus; the cap is 1, not 1/2, because
        # (c + 1/2) - (c - 1/2) can round below 1 and miss the full-torus case
        half = min(real(halfwidth, "arc halfwidth", "[0, inf)"), 1.0)
        c = np.asarray(centers, dtype=float)
        return cls(np.column_stack((c - half, c + half)))

    @property
    def measure(self) -> float:
        return min(1.0, sum((self._hi - self._lo).tolist()))

    def contains(self, x) -> np.ndarray:
        """Membership of torus points (vectorized, closed intervals)."""
        xs = np.asarray(x, dtype=float) % 1.0
        if not self._lo.size:
            return np.zeros(np.shape(xs), dtype=bool)
        i = np.maximum(np.searchsorted(self._lo, xs, side="right") - 1, 0)
        hit = (xs >= self._lo[i]) & (xs <= self._hi[i])
        if self._lo[0] < 0.0:  # seam interval also covers its wrapped image
            hit |= xs >= self._lo[0] + 1.0
        if self._hi[-1] >= 1.0:  # a closed piece ending at 1 holds its image 0
            hit |= xs == 0.0
        return hit

    def complement(self) -> "TorusIntervalSet":
        if not self._lo.size:
            return TorusIntervalSet([(0.0, 1.0)])
        lo, hi = self._lo, self._hi
        first_lo = lo[0] % 1.0
        gap_end = np.append(lo[1:], first_lo if first_lo > hi[-1] else first_lo + 1.0)
        keep = gap_end > hi
        return TorusIntervalSet(np.column_stack((hi[keep], gap_end[keep])))

    def intersect(self, other: "TorusIntervalSet") -> "TorusIntervalSet":
        # Pieces of `other` shifted by -1, 0 and +1 stay sorted and disjoint,
        # so each piece of self meets one contiguous run of them.
        lo2, hi2 = (np.concatenate((v - 1.0, v, v + 1.0)) for v in (other._lo, other._hi))
        start = np.searchsorted(hi2, self._lo, side="right")
        count = np.maximum(np.searchsorted(lo2, self._hi, side="left") - start, 0)
        i = np.repeat(np.arange(count.size), count)
        j = np.arange(i.size) + np.repeat(start - (np.cumsum(count) - count), count)
        pieces = np.column_stack((np.maximum(self._lo[i], lo2[j]), np.minimum(self._hi[i], hi2[j])))
        return TorusIntervalSet(pieces[pieces[:, 1] > pieces[:, 0]])

    def difference(self, other: "TorusIntervalSet") -> "TorusIntervalSet":
        return self.intersect(other.complement())

    def __repr__(self) -> str:
        return f"TorusIntervalSet({list(self.intervals)!r})"


# ---------------------------------------------------------------------------
# Arc systems
# ---------------------------------------------------------------------------


class ClassifyResult(NamedTuple):
    is_major: bool
    nearest: ReducedFraction
    distance: float


@dataclass(frozen=True)
class ArcSystem:
    """Intervals of a fixed halfwidth around every canonical fraction of
    denominator at most `denominator_bound`; `centers` is their FareyTable."""

    denominator_bound: float
    halfwidth: float

    def __post_init__(self):
        real(self.halfwidth, "arc halfwidth", "[0, inf)")
        object.__setattr__(self, "centers", canonical_fractions(self.denominator_bound))

    @cached_property
    def min_center_gap(self) -> Fraction:
        """Exact minimal torus distance between distinct centers (1 if only
        one center).  Farey neighbours a/b < c/d satisfy cb - ad = 1, so
        their gap is 1/(bd); the last center and 1/1 are neighbours too."""
        den = self.centers.denominators
        return Fraction(1, int((den * np.roll(den, -1)).max()))

    @cached_property
    def is_disjoint(self) -> bool:
        """True when the arcs are pairwise disjoint (exact comparison)."""
        return self.min_center_gap > 2 * Fraction(self.halfwidth)

    @cached_property
    def intervals(self) -> TorusIntervalSet:
        return TorusIntervalSet.from_arcs(self.centers.values, self.halfwidth)

    @property
    def coverage(self) -> float:
        return self.intervals.measure

    def _nearest(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance to, and index of, each point's nearest center: one of its
        two circular neighbours in the sorted centers.  Distinct neighbours
        never share a denominator, so a tie goes to the smaller one."""
        c = self.centers.values
        right = np.searchsorted(c, xs % 1.0, side="right") % c.size
        pair = np.stack((right - 1, right))  # index -1 is the last center
        d = np.abs(wrap_signed(xs - c[pair]))
        den = self.centers.denominators[pair]
        second = (d[1] < d[0]) | ((d[1] == d[0]) & (den[1] < den[0]))
        return np.where(second, d[1], d[0]), np.where(second, pair[1], pair[0])

    def distances(self, x) -> np.ndarray:
        """Torus distance from each point to its nearest center."""
        return self._nearest(np.atleast_1d(np.asarray(x, dtype=float)))[0]

    def classify(self, point: TorusPoint | float) -> ClassifyResult:
        """Membership test; nearest-center ties go to the smaller
        denominator, then the smaller numerator."""
        dist, index = self._nearest(np.array([TorusPoint(point).value]))
        best = float(dist[0])
        return ClassifyResult(best <= self.halfwidth, self.centers[index[0]], best)


@dataclass(frozen=True)
class DyadicScale:
    """Scale pair (l, m): denominators up to 2^l, arc halfwidth 2^m."""

    l: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "l", integer(self.l, "shell level l", 0, MAX_LEVEL))
        # 2.0**m overflows past m = 1023
        object.__setattr__(self, "m", integer(self.m, "halfwidth exponent m", high=1023))


class DyadicArcs(NamedTuple):
    system: ArcSystem
    shell: TorusIntervalSet        # arcs at level l only, halfwidth 2^m
    shell_refined: TorusIntervalSet  # level-l arcs minus their halfwidth-2^(m-1) core


def dyadic_arcs(scale: DyadicScale) -> DyadicArcs:
    """Arc system at denominators <= 2^l with halfwidth 2^m, plus the two
    set differences that peel off lower levels and narrower widths."""
    half = 2.0**scale.m
    system = ArcSystem(2.0**scale.l, half)
    full = system.intervals
    if scale.l == 0:
        shell = full
    else:
        shell = full.difference(ArcSystem(2.0 ** (scale.l - 1), half).intervals)
    narrower = TorusIntervalSet.from_arcs(dyadic_shell(scale.l).values, half / 2.0)
    shell_refined = shell.difference(narrower)
    return DyadicArcs(system, shell, shell_refined)


def minor_sample(
    arcs: ArcSystem, count: int, seed: "int | np.random.Generator"
) -> list[TorusPoint]:
    """Seeded uniform sample of torus points strictly outside every arc.

    Rejection sampling; aborts when the arcs cover 99% or more of the torus.
    `seed` may be an integer or an already-split Generator.
    """
    count = integer(count, "count", 0)
    coverage = arcs.coverage
    if coverage >= 0.99:
        raise ValueError(
            f"arc coverage {coverage:.4f} >= 0.99, minor arcs too thin to sample"
        )
    if count == 0:
        return []
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    out: list[float] = []
    while len(out) < count:
        batch = rng.uniform(0.0, 1.0, size=2 * count + 64)
        keep = batch[arcs.distances(batch) > arcs.halfwidth]
        out.extend(keep.tolist())
    return [TorusPoint(x) for x in out[:count]]
