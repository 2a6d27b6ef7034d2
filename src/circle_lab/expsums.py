"""Exponential sums along polynomial orbits and their oscillatory-integral
counterpart.

m_N(xi)  = mean over n = 1..N of e(xi * P(n)),  e(t) = exp(2*pi*i*t)
G(a/q)   = m_q(a/q), the complete rational sum
mm_N(xi) = integral over t in [0,1] of e(xi * P(N*t)) dt

Rational points reduce a*P(n) mod q exactly in integers (`polyavg._residues`)
over n = 1..min(N, q).  Real points go through one phase kernel (`_reduce`,
`_phases`, `_expi`): every coefficient is reduced exactly against the binary
value of xi to units of 2^-64 turn, and Horner recursion runs in uint64,
whose wrap-around is exactly mod 1, so the phase is exact whenever xi's
binary denominator is at most 2^64, for P(n) and coefficients of any size.
mm_N is in closed form for binomials c0 + c n^d and a composite
Gauss-Legendre quadrature otherwise (`_mm_many`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from ._util import MAX_SCALE, integer, parallel_map, real, scales, substream
from .arcs import MAX_LEVEL, ArcSystem, ReducedFraction, TorusPoint, dyadic_shell, minor_sample, wrap_signed
from .polyavg import IntPolynomial, _residues, kernel, spectrum


# ---------------------------------------------------------------------------
# Real-point phases: one exact uint64 kernel
# ---------------------------------------------------------------------------

_TILE_CELLS = 1 << 15  # (point, n) cells per tile: the scratch stays in cache
_HALF_CELL = np.uint64(1 << 51)  # rounds the top 12 bits to the nearest table turn
_RAD = 2.0 * math.pi * 2.0**-76  # radians per unit of a phase shifted left 12 bits
_QUARTERS = (np.arange(4096) + 512) // 1024
# e(k/4096) as i^q e(k/4096 - q/4) with q the nearest quarter turn: the
# arguments stay within pi/4, and e(0), e(1/4), e(1/2), e(3/4) are exact
_TABLE = np.array([1, 1j, -1, -1j])[_QUARTERS % 4] * np.exp(
    0.5j * math.pi * (np.arange(4096) / 1024 - _QUARTERS)
)


def _reduce(coefficients: Sequence[int], xs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """frac(xi * c) in units of 2^-64 turn for every point xi in xs (rows) and
    integer c in `coefficients` (columns): with xi = num/den exactly,
    (num * c mod den) * 2^64 / den as uint64 units and a float rest in
    [0, 1).  The rests are None when all are 0, as whenever den <= 2^64 (for
    every |xi| >= 2^-11).  A non-finite xi raises ValueError."""
    units, rests = [], []
    for x in np.asarray(xs, dtype=float).tolist():
        if not math.isfinite(x):
            raise ValueError(f"xi must be finite, got {x}")
        num, den = x.as_integer_ratio()
        for c in coefficients:
            unit, rest = divmod((num * c % den) << 64, den)
            units.append(unit)
            rests.append(rest / den)
    shape = (-1, len(coefficients))
    lo = np.array(rests).reshape(shape) if any(rests) else None
    return np.array(units, dtype=np.uint64).reshape(shape), lo


def _phases(hi: np.ndarray, lo: np.ndarray | None, ns: np.ndarray, out: np.ndarray):
    """xi * P(n) in units of 2^-64 turn for the points `_reduce` gave (rows)
    and the uint64 n in ns (columns): the library's one real Horner loop,
    run in place in `out`, whose uint64 wrap-around is exactly mod 1 turn.
    Given rests, their float polynomial's whole units are added to `out` and
    its part below one unit is returned; otherwise None."""

    def horner(acc: np.ndarray, coefs: np.ndarray) -> np.ndarray:
        acc[...] = coefs[:, -1:]
        for k in range(coefs.shape[1] - 2, -1, -1):
            acc *= ns
            acc += coefs[:, k : k + 1]
        return acc

    horner(out, hi)
    if lo is None:
        return None
    rest = horner(np.empty(out.shape), lo)
    whole = np.floor(rest)
    out += np.fmod(whole, 2.0**64).astype(np.uint64)
    return rest - whole


def _expi(units: np.ndarray, rest: np.ndarray | None = None, scratch=None) -> np.ndarray:
    """e(t) at t = (units + rest) * 2^-64 turn: `_TABLE` at the nearest
    1/4096 turn times the Taylor series of e at the offset, an angle of at
    most pi/4096, so the dropped terms are below 2e-18.  Works in
    `scratch` (from `_scratch`, made here when not given) and returns its
    last buffer."""
    ints, theta, t2, part, w, out = _scratch(units.shape) if scratch is None else scratch
    np.left_shift(units, np.uint64(12), ints)  # the offset from the nearest table turn
    theta[...] = ints  # exact: 52 significant bits
    if rest is not None:
        theta += rest * 2.0**12
    theta *= _RAD
    np.multiply(theta, theta, t2)
    np.multiply(t2, 1.0 / 24.0, part)
    part -= 0.5
    part *= t2
    np.add(part, 1.0, w.real)  # cos
    np.multiply(t2, -1.0 / 6.0, part)
    part += 1.0
    np.multiply(part, theta, w.imag)  # sin
    np.add(units, _HALF_CELL, ints)
    ints >>= 52  # the rounded top 12 bits, signed: `take` wraps them mod 4096
    _TABLE.take(ints, out=out, mode="wrap")
    out *= w
    return out


def _scratch(shape: tuple[int, ...]) -> list[np.ndarray]:
    """The work buffers of `_expi`."""
    return [np.empty(shape, dtype) for dtype in (np.int64, float, float, float, complex, complex)]


# terms per chunk of a long dot (a rational m_N, a property report's gap): OpenBLAS
# splits a dot longer than 10^4 over its threads, so its rounding followed the CPU count
_RATIONAL_CHUNK = 1 << 13


def weyl_sum(
    poly: IntPolynomial,
    n_range: int,
    xi: "TorusPoint | ReducedFraction | Fraction | float",
) -> complex:
    """Normalized exponential sum m_N(xi); |m_N| <= 1 always.

    A ReducedFraction or Fraction argument takes the exact path: phases
    a*P(n) are reduced mod q in integers, and since n and n + q give the
    same phase only n = 1..min(N, q) are visited, each weighted by how
    often its residue class occurs in [1, N], in chunks of _RATIONAL_CHUNK,
    so N has no ceiling there but min(N, q) is at most MAX_SCALE.  A real
    xi must be finite, and N at most MAX_SCALE.
    """
    if isinstance(xi, (ReducedFraction, Fraction)):
        n = integer(n_range, "N", 1)
        a, q = xi.numerator % xi.denominator, xi.denominator
        m = min(n, q)
        if m > MAX_SCALE:
            raise ValueError(f"min(N, q) must be at most {MAX_SCALE}, got N = {n} and q = {q}")
        scaled = IntPolynomial(a * c for c in poly.coefficients)
        total = 0j
        for lo in range(0, m, _RATIONAL_CHUNK):
            hi = min(lo + _RATIONAL_CHUNK, m)
            phases = np.asarray(_residues(scaled, hi, q, lo) / q, dtype=float)
            weights = np.full(hi - lo, n // q)
            weights[: max(n % q - lo, 0)] += 1
            total += np.dot(weights, np.exp(2j * math.pi * phases))
        return complex(total / n)
    return complex(_weyl_many(poly, integer(n_range, "N", 1, MAX_SCALE), np.array([float(xi)]))[0])


@lru_cache(maxsize=4096)
def complete_sum(poly: IntPolynomial, theta: ReducedFraction) -> complex:
    """G(a/q) = m_q(a/q), computed with exact rational phases.  Cached,
    because lemma-1 sweeps draw the same few centers many times."""
    return weyl_sum(poly, theta.denominator, theta)


def minor_sup_grid(
    poly: IntPolynomial, n_range: int, arcs: ArcSystem, grid_q: int
) -> float:
    """Full-grid oracle: sup of |m_N| over grid frequencies outside the arcs."""
    vals = np.abs(spectrum(kernel(poly, n_range, grid_q)))
    xs = np.arange(grid_q) / grid_q
    minor = arcs.distances(xs) > arcs.halfwidth
    if not minor.any():
        raise ValueError("arcs cover every grid frequency")
    return float(vals[minor].max())


# ---------------------------------------------------------------------------
# Oscillatory integral mm_N
# ---------------------------------------------------------------------------

_GL_NODES = 16
_GL_BASE_PANELS = 4
_GL_NODES_PER_OSCILLATION = 8
_GL_TOLERANCE = 1e-9
_GL_PANEL_BUDGET = 1 << 18
_LAGUERRE_NODES = 32
_SERIES_TERMS = 40  # (2 pi)^40 / 40! < 2e-16: the tail is below rounding


@lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return (nodes + 1.0) / 2.0, weights / 2.0  # mapped to [0, 1]


@lru_cache(maxsize=1)
def _gauss_laguerre() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.laguerre.laggauss(_LAGUERRE_NODES)


@lru_cache(maxsize=16)
def _centered_series(degree: int) -> np.ndarray:
    """Coefficients m_k / k!, highest first for np.polyval, of
    e(-lam c) * integral of e(lam t^d) over [0, 1] as a power series in
    2 pi i lam, where c = 1/(d+1) is the mean of t^d and m_k the integral of
    (t^d - c)^k, exact in rationals.  Centering keeps the terms small, so
    the sum loses about 2e-16 instead of the 1e-15 of sum_k (2 pi i lam)^k /
    (k! (d k + 1)) near |lam| = 1."""
    c = Fraction(1, degree + 1)
    moments = [
        sum(math.comb(k, j) * (-c) ** (k - j) / (degree * j + 1) for j in range(k + 1))
        for k in range(_SERIES_TERMS)
    ]
    return np.array([float(m / math.factorial(k)) for k, m in enumerate(moments)][::-1])


def _times(x: float, c: int) -> float:
    """x * c from the exact product, rounded once; +-inf past the float range."""
    num, den = x.as_integer_ratio()
    try:
        return num * c / den
    except OverflowError:
        return math.inf if (num > 0) == (c > 0) else -math.inf


def _integrate_panels(scaled_coeffs: np.ndarray, panels: int) -> complex:
    nodes, weights = _gauss_legendre(_GL_NODES)
    edges = np.linspace(0.0, 1.0, panels + 1)
    widths = np.diff(edges)
    ts = edges[:-1, None] + widths[:, None] * nodes[None, :]
    phase = np.polyval(scaled_coeffs[::-1], ts)
    vals = np.exp(2j * math.pi * (phase % 1.0))
    return complex(np.sum(vals * (widths[:, None] * weights[None, :])))


def _mm_legendre(poly: IntPolynomial, n: int, x: float) -> complex:
    """Composite Gauss-Legendre for P with P(0) = 0, the panel count driven by
    the phase variation bound |xi| * sum_k |c_k| N^k, then doubled until two
    successive answers agree within the tolerance.  Raises if the panel
    budget runs out first."""
    variation = _times(abs(x), poly.abs_bound(n))
    need = variation * _GL_NODES_PER_OSCILLATION / _GL_NODES
    if need <= _GL_PANEL_BUDGET:
        scaled = np.array([_times(_times(x, c), n**k) for k, c in enumerate(poly.coefficients)])
        panels, prev = max(_GL_BASE_PANELS, math.ceil(need)), None
        while panels <= _GL_PANEL_BUDGET:
            curr = _integrate_panels(scaled, panels)
            if prev is not None and abs(curr - prev) <= _GL_TOLERANCE:
                return curr
            prev, panels = curr, 2 * panels
    raise RuntimeError(
        f"quadrature did not reach tolerance {_GL_TOLERANCE} within "
        f"{_GL_PANEL_BUDGET} panels (phase variation ~{variation:.3g})"
    )


def _mm_many(poly: IntPolynomial, n: int, xs: np.ndarray) -> np.ndarray:
    """mm_N at every offset in xs: the library's one mm_N evaluator.

    The constant term only turns the integral: mm_N(x) = e(x c0) times the
    integral for P - c0, with e(x c0) from the phase kernel (`_reduce`,
    `_expi`), so a constant P gives e(x c0).  A binomial P = c0 + c n^d (d >= 1) leaves
    I(lam) = integral of e(lam t^d) over [0, 1], lam = x c N^d from the
    exact product, in closed form and at a cost that does not grow with lam:

    - |lam| <= 1: the power series of I about the mean phase, see
      `_centered_series`.
    - |lam| > 1: steepest descent.  From t = 0 the path t^d = i p / (2 pi
      |lam|) gives Gamma(1/d) e^(i pi / 2d) / (d (2 pi |lam|)^(1/d)); from
      t = 1 the path h(p) = (1 + i p / (2 pi |lam|))^(1/d) gives e(|lam|)
      times the Gauss-Laguerre sum of h'(p).  Both end in the same valley,
      so I is their difference, with e(lam) reduced exactly like e(x c0);
      lam < 0 conjugates it.  Past the float range lam is +-inf and I is
      its limit 0.

    Every other P takes composite Gauss-Legendre on P - c0 (`_mm_legendre`).
    """
    xs = np.asarray(xs, dtype=float)
    c0, d = poly.coefficients[0], poly.degree
    lead = poly.coefficients[-1] * n**d
    turn, spin = _expi(*_reduce((c0, lead), xs)).T  # e(x c0), e(x lead)
    if d == 0:
        return turn
    if any(poly.coefficients[1:d]):
        rest = IntPolynomial((0,) + poly.coefficients[1:])
        return turn * np.array([_mm_legendre(rest, n, x) for x in xs.tolist()], complex)
    lam = np.array([_times(x, lead) for x in xs.tolist()])
    mu = np.abs(lam)
    out = np.empty(xs.shape, dtype=complex)
    small = mu <= 1.0
    if small.any():  # np.polyval costs ~40 numpy calls even on no points
        turns = 2j * math.pi * lam[small]
        out[small] = np.exp(turns / (d + 1)) * np.polyval(_centered_series(d), turns)
    big = ~small
    if big.any():
        nodes, weights = _gauss_laguerre()
        scale = 2.0 * math.pi * mu[big]
        start = math.gamma(1.0 / d) * np.exp(0.5j * math.pi / d) / (d * scale ** (1.0 / d))
        slope = (1.0 + 1j * nodes / scale[:, None]) ** (1.0 / d - 1.0) @ weights
        end = 1j * slope / (d * scale)
        neg = lam[big] < 0
        start[neg], end[neg] = start[neg].conj(), end[neg].conj()
        out[big] = start - spin[big] * end
    return turn * out


def continuous_multiplier(poly: IntPolynomial, n_range: int, xi: float) -> complex:
    """mm_N(xi) = integral of e(xi * P(N t)) over t in [0, 1]: the one-point
    case of `_mm_many`."""
    return complex(_mm_many(poly, integer(n_range, "N", 1), np.array([float(xi)]))[0])


# ---------------------------------------------------------------------------
# Decay scan over minor arcs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayScanReport:
    """Per-N minor-arc suprema with a log-log least squares exponent fit."""

    points: tuple[tuple[int, float], ...]
    exponent: float
    fit_residual: float
    params: dict

    def __post_init__(self):
        ns = [n for n, _ in self.points]
        if ns != sorted(set(ns)):
            raise ValueError("scan N values must be strictly increasing")
        for _, s in self.points:
            if not 0.0 <= s <= 1.0 + 1e-12:
                raise ValueError("sup |m_N| must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "points": [{"n": n, "sup_abs": s} for n, s in self.points],
            "c_fit": self.exponent,
            "residual": self.fit_residual,
            "params": self.params,
        }


def scan_arcs(
    n: int, degree: int, eps: float, big_c: float, halfwidth: float | None = None
) -> ArcSystem:
    """Arc system for scale N under the rule delta = N^(-eps): denominators
    up to delta^(-C), halfwidth N^(-d) * delta^(-C) unless overridden."""
    if n > sys.float_info.max:  # before float(n) overflows
        raise ValueError(f"N must be an integer in [1, {sys.float_info.max!r}], got a {n.bit_length()}-bit N")
    real(eps, "eps", "(-inf, inf)")
    real(big_c, "big_c", "(-inf, inf)")
    if eps * big_c * math.log2(n) >= math.log2(2**MAX_LEVEL + 1):  # before N^(eps*C) overflows
        raise ValueError(f"eps * big_c must keep delta^(-C) = N^(eps * big_c) within the Farey "
                         f"table bound {2**MAX_LEVEL}, got {eps * big_c!r} at N = {n}")
    delta_pow = float(n) ** (eps * big_c)
    n2 = halfwidth if halfwidth is not None else float(n) ** (-degree) * delta_pow
    return ArcSystem(max(1.0, delta_pow), n2)


def weyl_decay_scan(
    poly: IntPolynomial,
    n_values: Sequence[int],
    eps: float,
    big_c: float,
    samples: int,
    seed: int,
    halfwidth: float | None = None,
    threads: int | None = None,
) -> DecayScanReport:
    """Sampled sup of |m_N| over minor arcs for each N, plus the fitted decay
    exponent c (sup ~ N^(-c)).

    Each N gets its own seed substream, so the report is independent of the
    worker count.  `halfwidth` freezes the arc width instead of the
    N^(-d)*delta^(-C) rule (useful for the degree-one closed-form check).
    """
    samples = integer(samples, "samples", 1)
    ns = scales(n_values)
    degree = poly.degree

    # sample and evaluate per N; substream key is the position in the scan
    def evaluate(task: tuple[int, int]) -> float:
        idx, n = task
        arcs = scan_arcs(n, degree, eps, big_c, halfwidth)
        pts = minor_sample(arcs, samples, substream(seed, idx))
        xs = np.array([p.value for p in pts])
        return float(np.abs(_weyl_many(poly, n, xs)).max())

    sups = parallel_map(evaluate, list(enumerate(ns)), threads)
    if len(ns) >= 2:
        log_n = np.log(np.array(ns, dtype=float))
        log_s = np.log(np.maximum(np.array(sups), 1e-300))
        slope, intercept = np.polyfit(log_n, log_s, 1)
        resid = float(np.sqrt(np.mean((log_s - (slope * log_n + intercept)) ** 2)))
    else:
        slope, resid = 0.0, 0.0  # a single scale carries no fit
    return DecayScanReport(
        points=tuple(zip(ns, sups)),
        exponent=float(-slope),
        fit_residual=resid,
        params={
            "poly": str(poly),
            "eps": eps,
            "big_c": big_c,
            "samples": samples,
            "seed": seed,
            "halfwidth": halfwidth,
        },
    )


def _weyl_many(poly: IntPolynomial, n: int, xs: np.ndarray) -> np.ndarray:
    """m_N at an array of real points, in tiles of at most `_TILE_CELLS`
    (point, n) cells over points and, past the tile, along n; the buffers
    are allocated once per call."""
    hi, lo = _reduce(poly.coefficients, xs)
    cols = min(n, _TILE_CELLS)
    rows = max(1, min(len(hi), _TILE_CELLS // cols))
    buffers = [np.empty((rows, cols), dtype=np.uint64), *_scratch((rows, cols))]
    first = np.arange(1, cols + 1, dtype=np.uint64)
    sums = np.zeros(len(hi), dtype=complex)
    for r in range(0, len(hi), rows):
        for c in range(0, n, cols):
            tile = buffers
            if r + rows > len(hi) or c + cols > n:
                tile = [b[: len(hi) - r, : n - c] for b in buffers]
            ns = first[: n - c] + np.uint64(c) if c else first
            rest = _phases(hi[r : r + rows], None if lo is None else lo[r : r + rows], ns, tile[0])
            sums[r : r + rows] += np.add.reduce(_expi(tile[0], rest, tile[1:]), 1)
    return sums / n


# ---------------------------------------------------------------------------
# Rational-center approximation residual
# ---------------------------------------------------------------------------


class Lemma1Result(NamedTuple):
    residual: float
    bound: float
    ratio: float


def _lemma1_cell(
    poly: IntPolynomial,
    n: int,
    thetas: Sequence[ReducedFraction],
    xs: np.ndarray,
    big_m: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals |m_N(xi) - G(theta) mm_N(xi - theta)| and reference bounds
    2^l (M^-1 N^(d-1) + N^-1) for samples (theta, xi) on [0, 1): one
    `_weyl_many` pass for m_N and one `_mm_many` call for every sample."""
    offsets = wrap_signed(xs - np.array([t.value for t in thetas]))
    far = np.abs(offsets) > 1.0 / big_m + 1e-15
    if far.any():
        raise ValueError(
            f"|xi - theta| = {abs(offsets[far][0]):.3e} exceeds 1/M = {1.0 / big_m:.3e}"
        )
    gauss = np.array([complete_sum(poly, t) for t in thetas], dtype=complex)
    residual = np.abs(_weyl_many(poly, n, xs) - gauss * _mm_many(poly, n, offsets))
    levels = np.array([(t.denominator - 1).bit_length() for t in thetas])  # q <= 2^l
    bound = 2.0**levels * (float(n) ** (poly.degree - 1) / big_m + 1.0 / n)
    return residual, bound


def lemma1_residual(
    poly: IntPolynomial,
    n_range: int,
    theta: ReducedFraction,
    xi: TorusPoint | float,
    big_m: float,
) -> Lemma1Result:
    """Compare m_N(xi) with G(theta) * mm_N(xi - theta) for xi near theta.

    Returns the residual, the reference bound 2^l (M^-1 N^(d-1) + N^-1)
    where 2^(l-1) < q <= 2^l, and their ratio.  Requires the torus distance
    |xi - theta| <= 1/M.
    """
    real(big_m, "M", "(0, inf)")
    n = integer(n_range, "N", 1, MAX_SCALE)
    residual, bound = _lemma1_cell(poly, n, [theta], np.array([TorusPoint(xi).value]), big_m)
    return Lemma1Result(float(residual[0]), float(bound[0]), float(residual[0] / bound[0]))


def lemma1_grid_sweep(
    poly: IntPolynomial,
    n_values: Sequence[int],
    l_max: int,
    samples_per_cell: int,
    seed: int,
) -> dict:
    """Max residual/bound ratio over a (N, shell level) grid with
    M = N^d * 2^(-l) and seeded admissible (theta, xi) pairs per cell."""
    samples_per_cell = integer(samples_per_cell, "samples_per_cell", 1)
    levels = range(integer(l_max, "l_max", 0, MAX_LEVEL) + 1)
    degree = poly.degree
    cells = {}
    per_n: dict[int, float] = {}
    for i, n in enumerate(scales(n_values)):
        for level in levels:
            shell = dyadic_shell(level)
            big_m = float(n) ** degree * 2.0**-level
            rng = substream(seed, i, level)
            thetas, xs = [], []
            for _ in range(samples_per_cell):
                thetas.append(shell[rng.integers(len(shell))])
                xs.append((thetas[-1].value + rng.uniform(-1.0, 1.0) / big_m) % 1.0)
            residual, bound = _lemma1_cell(poly, n, thetas, np.array(xs), big_m)
            worst = cells[(n, level)] = float((residual / bound).max())
            per_n[n] = max(per_n.get(n, 0.0), worst)
    return {
        "degree": degree,
        "cells": cells,
        "max_ratio_per_n": per_n,
        "max_ratio": max(per_n.values()),
    }
