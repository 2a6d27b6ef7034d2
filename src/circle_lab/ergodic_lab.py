"""Finite cyclic model systems and convergence diagnostics for polynomial
averages.

A system is Z/QZ with the shift x -> x - s; its averages along a polynomial
orbit reduce to the convolution operators of `polyavg` with the coefficient
scaling c -> s*c.  Diagnostics never assert limit theorems, they measure:
variation and oscillation along a scale set, tail Cauchy widths, and star
discrepancy of real orbits.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._util import MAX_SERIES, integer, pnorm, real, scales
from .expsums import _phases, _reduce
from .polyavg import IntPolynomial, Signal, _averages, riesz_split
from .seminorms import _block_oscillation, _Exponent, variation_values


@dataclass(frozen=True)
class FiniteSystem:
    """Z/QZ with the measure-preserving shift T(x) = x - s mod Q."""

    modulus: int
    shift: int

    def __post_init__(self):
        object.__setattr__(self, "modulus", integer(self.modulus, "modulus", 1))
        object.__setattr__(self, "shift", integer(self.shift, "shift"))

    @property
    def is_ergodic(self) -> bool:
        return math.gcd(self.shift % self.modulus, self.modulus) == 1


@dataclass(frozen=True)
class AverageSeries:
    """Averages A_N f for every N in an increasing index set: row k of the
    read-only complex array `values`, shape (number of N, Q), is A_N f at
    N = indices[k].  A writable `values` is copied; a read-only one is kept."""

    indices: tuple[int, ...]
    values: np.ndarray
    system: FiniteSystem
    poly: IntPolynomial

    def __post_init__(self):
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("index set must be strictly increasing")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (len(self.indices), self.system.modulus):
            raise ValueError("one row of Q values per index required")
        if not np.isfinite(vals).all():
            raise ValueError("average values must be finite")
        if vals.flags.writeable:
            vals = vals.copy()
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @cached_property
    def signals(self) -> tuple[Signal, ...]:
        """The rows as Signals that view `values` without a copy."""
        return tuple(map(Signal._view, self.values))

    def matrix(self) -> np.ndarray:
        """The values themselves, shape (number of N, Q); not a copy."""
        return self.values


def _check_series(count: int, modulus: int) -> None:
    """Refuse a series of count scales N on Z/(modulus)Z past MAX_SERIES values."""
    if count * modulus > MAX_SERIES:
        raise ValueError(f"{count} scales N times modulus {modulus} exceed {MAX_SERIES} values")


def average_series(
    sys: FiniteSystem,
    poly: IntPolynomial,
    f: Signal,
    n_values: Sequence[int],
    uniform_from: int = 0,
) -> AverageSeries:
    """A_N f for each distinct N of n_values, in increasing order, via the
    convolution operators on Z/QZ.

    uniform_from = M > 0 averages over n in (M, N] instead of [1, N]
    (reported as-is; nothing is asserted about that variant).
    """
    if f.modulus != sys.modulus:
        raise ValueError("signal modulus must match the system")
    ns = tuple(scales(n_values))
    m = integer(uniform_from, "uniform_from", 0, ns[0] - 1)  # uniform windows need N > M
    _check_series(len(ns), sys.modulus)  # before the (T, Q) array is allocated
    vals = np.empty((len(ns), sys.modulus), dtype=np.complex128)
    orbit = IntPolynomial(sys.shift * c for c in poly.coefficients)  # f(T^P(n) x) = f(x - s P(n))
    for row, avg in zip(vals, _averages(orbit, f, ns, start=m)):
        row[...] = avg
    vals.flags.writeable = False
    return AverageSeries(ns, vals, sys, poly)


def _diagnostic_tail(indices: Sequence[int], r: float, tail_start: int) -> tuple[int, int]:
    """convergence_diagnostic's checks of r and tail_start: tail_start as an int,
    and where in the increasing indices the tail (two of them at least) begins."""
    real(r, "diagnostic exponent r", "[1, inf)")
    tail_start = integer(tail_start, "tail_start")
    tail = bisect.bisect_left(indices, tail_start)  # indices increase: the tail is a suffix
    if len(indices) - tail < 2:
        raise ValueError("need at least two indices >= tail_start")
    return tail_start, tail


def convergence_diagnostic(
    series: AverageSeries,
    r: float,
    tail_start: int,
    p_values: Sequence[float] = (2.0,),
) -> dict:
    """Per-point variation, blockwise oscillation, and tail Cauchy width of
    N -> A_N f(x), aggregated over x.

    Oscillation anchors default to every other index of the series (the
    finest choice whose blocks are nonempty); whether the anchors double is
    reported, not required.  Aggregates use the uniform probability measure
    on Z/QZ.  Wide series split over worker threads as in `variation_values`.
    """
    ns = series.indices
    tail_start, tail = _diagnostic_tail(ns, r, tail_start)
    mat = series.values  # (T, Q)

    vr = variation_values(mat, r)

    anchors = list(range(0, len(ns), 2))  # at least two: the tail holds two indices
    if anchors[-1] != len(ns) - 1:
        anchors.append(len(ns) - 1)
    osc = _block_oscillation(mat, anchors, _Exponent(r, "diagnostic").in_units(mat))
    anchor_ns = [int(ns[i]) for i in anchors]
    doubling = all(b > 2 * a for a, b in zip(anchor_ns, anchor_ns[1:]))

    width = variation_values(mat[tail:], math.inf)

    def aggregate(stat: np.ndarray) -> dict:
        out = {"max": float(stat.max())}
        for p in p_values:
            out[f"l{p:g}"] = float(pnorm(stat, p, mean=True))
        return out

    return {
        "r": r,
        "tail_start": tail_start,
        "indices": [int(n) for n in ns],
        "variation": aggregate(vr),
        "oscillation": {**aggregate(osc), "anchors": anchor_ns, "doubling": doubling},
        "tail_width": aggregate(width),
    }


@dataclass(frozen=True)
class DiscrepancyReport:
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for _, d in self.entries:
            if not 0.0 <= d <= 1.0:
                raise ValueError("star discrepancy lies in [0, 1]")

    def to_dict(self) -> dict:
        return {"entries": [{"n": n, "d_star": d} for n, d in self.entries]}


def _orbit_fractions(poly: IntPolynomial, theta: float, n_max: int) -> np.ndarray:
    """Fractional parts of P(n) * theta for n = 1..n_max from the exact
    uint64 phases of `expsums._phases`: whenever the binary value of theta
    is num/den with den <= 2^64, each is the exact residue of num*P(n) mod
    den over den, rounded once."""
    hi, lo = _reduce(poly.coefficients, np.array([theta]))
    units = np.empty((1, n_max), dtype=np.uint64)
    rest = _phases(hi, lo, np.arange(1, n_max + 1, dtype=np.uint64), units)
    return (units[0] if rest is None else units[0] + rest[0]) * 2.0**-64


def star_discrepancy(points: np.ndarray) -> float:
    """D*_N of a point set in [0, 1) by the sorted-points formula."""
    xs = np.sort(np.asarray(points, dtype=float) % 1.0)
    n = xs.size
    idx = np.arange(1, n + 1)
    return float(np.maximum(idx / n - xs, xs - (idx - 1) / n).max())


def discrepancy(
    poly: IntPolynomial, theta: float, n_values: Sequence[int]
) -> DiscrepancyReport:
    """Star discrepancy of {P(n) * theta mod 1 : n <= N} for each distinct N."""
    ns = scales(n_values)
    real(theta, "theta", "(-inf, inf)")
    pts = _orbit_fractions(poly, theta, ns[-1])
    entries = tuple((n, star_discrepancy(pts[:n])) for n in ns)
    return DiscrepancyReport(entries)


def mean_ergodic_check(
    sys: FiniteSystem, f: Signal, n_values: Sequence[int]
) -> dict:
    """Root-mean-square distance of the linear averages A_N f from the
    shift-invariant part of f, per N.

    For an ergodic shift the invariant part is the constant mean and the
    deviation vanishes exactly at every multiple of Q.
    """
    if f.modulus != sys.modulus:
        raise ValueError("signal modulus must match the system")
    invariant = riesz_split(f, sys.shift).invariant
    series = average_series(sys, IntPolynomial((0, 1)), f, n_values)
    entries = [
        (n, float(pnorm(row - invariant.values, 2, mean=True)))
        for n, row in zip(series.indices, series.values)
    ]
    return {
        "ergodic": sys.is_ergodic,
        "entries": entries,
    }
