"""Canonical fractions, major/minor arc systems, and dyadic shells on the torus.

The torus is [0, 1) with wrap distance.  Fractions are exact integer pairs;
the fraction 1/1 is stored once as 0/1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from ._util import substream


def wrap_signed(x):
    """Reduce to the representative in (-1/2, 1/2]."""
    return x - np.ceil(x - 0.5)


def torus_distance(x, y=0.0):
    """Distance on R/Z: min(|x-y|, 1-|x-y|)."""
    return np.abs(wrap_signed(np.asarray(x, dtype=float) - y))


@dataclass(frozen=True)
class TorusPoint:
    """A point of R/Z stored as its representative in [0, 1)."""

    value: float

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value):
            raise ValueError(f"torus point must be finite, got {value}")
        object.__setattr__(self, "value", value % 1.0)

    @classmethod
    def of(cls, x: "TorusPoint | float") -> "TorusPoint":
        return x if isinstance(x, TorusPoint) else cls(x)

    def distance(self, other: "TorusPoint | float") -> float:
        o = other.value if isinstance(other, TorusPoint) else float(other)
        return float(torus_distance(self.value, o))

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True, order=False)
class ReducedFraction:
    """Reduced fraction a/q on the torus: gcd(a, q) = 1 and 0 <= a < q."""

    numerator: int
    denominator: int

    def __post_init__(self):
        a, q = self.numerator, self.denominator
        if q < 1:
            raise ValueError("denominator must be positive")
        if not 0 <= a < q and not (a == 0 and q == 1):
            raise ValueError(f"numerator must satisfy 0 <= a < q, got {a}/{q}")
        if math.gcd(a, q) != 1 and not (a == 0 and q == 1):
            raise ValueError(f"{a}/{q} is not reduced")

    @classmethod
    def reduce(cls, a: int, q: int) -> "ReducedFraction":
        """Canonical representative of a/q on the torus."""
        if q == 0:
            raise ValueError("denominator must be nonzero")
        if q < 0:
            a, q = -a, -q
        a %= q
        g = math.gcd(a, q)
        a, q = a // g, q // g
        if a == 0:
            q = 1
        return cls(a, q)


    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@lru_cache(maxsize=2048)
def _fractions_for_q(q: int) -> tuple[tuple[float, ReducedFraction], ...]:
    if q == 1:
        return ((0.0, ReducedFraction(0, 1)),)
    return tuple(
        (a / q, ReducedFraction(a, q)) for a in range(1, q) if math.gcd(a, q) == 1
    )


@lru_cache(maxsize=256)
def _canonical_cached(q_max: int) -> tuple[ReducedFraction, ...]:
    pairs = []
    for q in range(1, q_max + 1):
        pairs.extend(_fractions_for_q(q))
    pairs.sort(key=lambda t: t[0])
    return tuple(fr for _, fr in pairs)


def canonical_fractions(n1: float) -> list[ReducedFraction]:
    """All reduced fractions a/q on [0, 1) with q <= floor(n1), sorted.

    Contains 0/1 (the torus representative of both 0 and 1).
    """
    if not 1 <= n1 < math.inf:  # also rejects NaN
        raise ValueError(f"denominator bound must be finite and >= 1, got {n1}")
    return list(_canonical_cached(math.floor(n1)))


def dyadic_shell(level: int) -> list[ReducedFraction]:
    """Fractions with denominator in (2^(level-1), 2^level]; level 0 is {0/1}."""
    if level < 0:
        raise ValueError("shell level must be >= 0")
    if level == 0:
        return [ReducedFraction(0, 1)]
    pairs = []
    for q in range(2 ** (level - 1) + 1, 2**level + 1):
        pairs.extend(_fractions_for_q(q))
    pairs.sort(key=lambda t: t[0])
    return [fr for _, fr in pairs]


# ---------------------------------------------------------------------------
# Interval unions on the torus
# ---------------------------------------------------------------------------


class TorusIntervalSet:
    """Disjoint union of closed intervals inside [0, 1), wrap-aware."""

    def __init__(self, intervals: Sequence[tuple[float, float]] = ()):
        pieces: list[tuple[float, float]] = []
        for lo, hi in intervals:
            if hi < lo:
                continue
            if hi - lo >= 1.0:
                pieces = [(0.0, 1.0)]
                break
            start = lo % 1.0
            end = start + (hi - lo)
            if end <= 1.0:
                pieces.append((start, end))
            else:
                pieces.append((start, 1.0))
                pieces.append((0.0, end - 1.0))
        self.intervals = self._normalize(pieces)

    @staticmethod
    def _normalize(pieces: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
        pieces = sorted((lo, hi) for lo, hi in pieces if hi >= lo)
        merged: list[list[float]] = []
        for lo, hi in pieces:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        # merge across the 0/1 seam
        if len(merged) > 1 and merged[0][0] <= 0.0 and merged[-1][1] >= 1.0:
            merged[0][0] = merged[-1][0] - 1.0
            merged.pop()
            merged.sort()
        return tuple((lo, hi) for lo, hi in merged)

    @classmethod
    def from_arcs(cls, centers: Sequence[float], halfwidth: float) -> "TorusIntervalSet":
        return cls([(c - halfwidth, c + halfwidth) for c in centers])

    @property
    def measure(self) -> float:
        return min(1.0, sum(hi - lo for lo, hi in self.intervals))

    def contains(self, x) -> np.ndarray:
        """Membership of torus points (vectorized, closed intervals)."""
        xs = np.asarray(x, dtype=float) % 1.0
        hit = np.zeros(xs.shape, dtype=bool)
        for lo, hi in self.intervals:
            hit |= (xs >= lo) & (xs <= hi)
            if lo < 0.0:  # seam interval also covers its wrapped image
                hit |= xs >= lo + 1.0
        return hit

    def complement(self) -> "TorusIntervalSet":
        if not self.intervals:
            return TorusIntervalSet([(0.0, 1.0)])
        ordered = list(self.intervals)
        gaps = [
            (hi1, lo2)
            for (lo1, hi1), (lo2, hi2) in zip(ordered, ordered[1:])
            if lo2 > hi1
        ]
        first_lo = ordered[0][0] % 1.0
        last_hi = ordered[-1][1]
        gap_end = first_lo if first_lo > last_hi else first_lo + 1.0
        if gap_end > last_hi:
            gaps.append((last_hi, gap_end))
        return TorusIntervalSet(gaps)

    def intersect(self, other: "TorusIntervalSet") -> "TorusIntervalSet":
        out = []
        for lo1, hi1 in self._unwrapped():
            for lo2, hi2 in other._unwrapped():
                for shift in (-1.0, 0.0, 1.0):
                    lo = max(lo1, lo2 + shift)
                    hi = min(hi1, hi2 + shift)
                    if hi > lo:
                        out.append((lo, hi))
        return TorusIntervalSet(out)

    def difference(self, other: "TorusIntervalSet") -> "TorusIntervalSet":
        return self.intersect(other.complement())

    def _unwrapped(self) -> list[tuple[float, float]]:
        return list(self.intervals)

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
    denominator at most `denominator_bound`."""

    denominator_bound: float
    halfwidth: float
    centers: tuple[ReducedFraction, ...] = field(default=())

    def __post_init__(self):
        if not 0 <= self.halfwidth < math.inf:
            raise ValueError(f"halfwidth must be finite and >= 0, got {self.halfwidth}")
        expected = tuple(canonical_fractions(self.denominator_bound))
        if self.centers and tuple(self.centers) != expected:
            raise ValueError("centers must equal canonical_fractions(denominator_bound)")
        object.__setattr__(self, "centers", expected)

    @cached_property
    def center_values(self) -> np.ndarray:
        vals = np.array([fr.value for fr in self.centers])
        vals.flags.writeable = False
        return vals

    @cached_property
    def min_center_gap(self) -> Fraction:
        """Exact minimal torus distance between distinct centers (1 if only
        one center)."""
        fracs = sorted(fr.as_fraction for fr in self.centers)
        if len(fracs) < 2:
            return Fraction(1)
        gaps = [b - a for a, b in zip(fracs, fracs[1:])]
        gaps.append(fracs[0] + 1 - fracs[-1])
        return min(gaps)

    @cached_property
    def is_disjoint(self) -> bool:
        """True when the arcs are pairwise disjoint (exact comparison)."""
        return self.min_center_gap > 2 * Fraction(self.halfwidth)

    @cached_property
    def intervals(self) -> TorusIntervalSet:
        return TorusIntervalSet.from_arcs(self.center_values, self.halfwidth)

    @property
    def coverage(self) -> float:
        return self.intervals.measure

    def distances(self, x) -> np.ndarray:
        """Torus distance from each point to its nearest center."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        d = np.abs(wrap_signed(xs[:, None] - self.center_values[None, :]))
        return d.min(axis=1)

    def classify(self, point: TorusPoint | float) -> ClassifyResult:
        """Membership test; nearest-center ties go to the smaller
        denominator, then the smaller numerator."""
        x = TorusPoint.of(point).value
        dists = np.abs(wrap_signed(x - self.center_values))
        best = float(dists.min())
        tied = [self.centers[i] for i in np.flatnonzero(dists == best)]
        nearest = min(tied, key=lambda fr: (fr.denominator, fr.numerator))
        return ClassifyResult(best <= self.halfwidth, nearest, best)


def classify(point: TorusPoint | float, arcs: ArcSystem) -> ClassifyResult:
    return arcs.classify(point)


@dataclass(frozen=True)
class DyadicScale:
    """Scale pair (l, m): denominators up to 2^l, arc halfwidth 2^m."""

    l: int
    m: int

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("l must be >= 0")


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
        lower = TorusIntervalSet.from_arcs(
            [fr.value for fr in canonical_fractions(2.0 ** (scale.l - 1))], half
        )
        shell = full.difference(lower)
    narrower = TorusIntervalSet.from_arcs(
        [fr.value for fr in dyadic_shell(scale.l)], half / 2.0
    )
    shell_refined = shell.difference(narrower)
    return DyadicArcs(system, shell, shell_refined)


def minor_sample(
    arcs: ArcSystem, count: int, seed: "int | np.random.Generator"
) -> list[TorusPoint]:
    """Seeded uniform sample of torus points strictly outside every arc.

    Rejection sampling; aborts when the arcs cover 99% or more of the torus.
    `seed` may be an integer or an already-split Generator.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
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
