"""Smooth multi-frequency Fourier multipliers on Z/QZ.

The basic object is a symbol built by planting a bump (or any base symbol)
at every canonical fraction and evaluating the sum exactly at the grid
frequencies j/Q; centers never get rounded to the grid.  Projections onto
major-arc frequencies, the general coefficient-weighted operators, and the
major/minor pipeline split are all built on that one primitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._util import MAX_MODULUS, integer, pnorm, range_units, real, substream
from .arcs import (
    MAX_LEVEL,
    ArcSystem,
    DyadicScale,
    TorusIntervalSet,
    canonical_fractions,
    dyadic_shell,
    wrap_signed,
)
from .expsums import _RATIONAL_CHUNK, _mm_many, complete_sum
from .polyavg import (
    IntPolynomial,
    Signal,
    average_linear,
    signal_from_spectrum,
    spectrum,
)


def eta(x):
    """Even smooth cutoff: 1 on [-1/4, 1/4], 0 outside (-1/2, 1/2), glued
    with exp(-1/t) so the transition is smooth to all orders."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.zeros(ax.shape)
    out[ax <= 0.25] = 1.0
    band = (ax > 0.25) & (ax < 0.5)
    if band.any():
        t_out = 0.5 - ax[band]   # distance to the outer edge
        t_in = ax[band] - 0.25   # distance past the flat part
        with np.errstate(over="ignore"):
            out[band] = 1.0 / (1.0 + np.exp(1.0 / t_out - 1.0 / t_in))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def eta_at_scale(log2_scale: float) -> Callable[[np.ndarray], np.ndarray]:
    """The dilated cutoff x -> eta(2^(-log2_scale) * x)."""
    factor = 2.0 ** -real(log2_scale, "log2_scale", "(-1024, inf)")  # 2.0**1024 overflows
    return lambda x: eta(np.asarray(x, dtype=float) * factor)


# ---------------------------------------------------------------------------
# Projection operators
# ---------------------------------------------------------------------------


def projection_symbol(modulus: int, n1: float, n2: float) -> np.ndarray:
    """Symbol of the smooth major-arc projection at the grid frequencies:
    sum over canonical fractions theta of eta((j/Q - theta)/n2), offsets
    wrapped to (-1/2, 1/2]."""
    return projection_op(n1, n2).symbol_on_grid(modulus).real


def project(f: Signal, n1: float, n2: float) -> Signal:
    """Smoothly restrict the spectrum of f to halfwidth-n2/2 neighborhoods
    of the canonical fractions of denominator <= n1."""
    sym = projection_symbol(f.modulus, n1, n2)
    return signal_from_spectrum(f.modulus, sym * spectrum(f))


def project_dyadic(f: Signal, scale: DyadicScale, shell: bool = False) -> Signal:
    """Dyadic projection at denominators <= 2^l, halfwidth scale 2^m.

    With shell=True only the level-l fractions contribute (the difference
    of consecutive full projections)."""
    if not shell or scale.l == 0:
        return project(f, 2.0**scale.l, 2.0**scale.m)
    full = project(f, 2.0**scale.l, 2.0**scale.m)
    lower = project(f, 2.0 ** (scale.l - 1), 2.0**scale.m)
    return full - lower


def projection_property_report(q: int, l: int, m: int, seed: int) -> dict:
    """Deviations for the four structural projection properties at (l, m):
    self-adjointness, l2 contraction, spectral support containment, and
    reproduction of deeply supported signals."""
    q, rng, scale = integer(q, "modulus", 1, MAX_MODULUS), substream(seed), DyadicScale(l, m)
    f = Signal(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))
    g = Signal(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))
    pf, pg = project_dyadic(f, scale), project_dyadic(g, scale)
    chunks = [slice(i, i + _RATIONAL_CHUNK) for i in range(0, q, _RATIONAL_CHUNK)]  # one thread each
    gaps = (np.vdot(pf.values[c], g.values[c]) - np.vdot(f.values[c], pg.values[c]) for c in chunks)
    self_adjoint = abs(sum(gaps))
    contraction = pf.norm(2) / f.norm(2)

    dist = ArcSystem(2.0**l, 0.0).distances(np.arange(q) / q)
    outside = dist > 2.0**m
    support_leak = float(np.abs(spectrum(pf)[outside]).max()) if outside.any() else 0.0

    deep = dist <= 2.0 ** (m - 2)
    spec = np.zeros(q, dtype=np.complex128)
    spec[deep] = rng.standard_normal(int(deep.sum())) + 1j * rng.standard_normal(
        int(deep.sum())
    )
    h = signal_from_spectrum(q, spec)
    reproduction = (project_dyadic(h, scale) - h).norm(2)
    return {
        "q": q,
        "l": l,
        "m": m,
        "self_adjoint_gap": float(self_adjoint),
        "l2_contraction_ratio": float(contraction),
        "support_leak": support_leak,
        "reproduction_gap": float(reproduction),
        "deep_support_size": int(deep.sum()),
    }


def shell_vanishing_overlap(
    level: int, cut_log2: float, lower_level: int, lower_cut_log2: float
) -> float:
    """Overlap measure between the level-`level` shell arcs of halfwidth
    2^cut_log2 and the arcs around all denominators <= 2^lower_level of
    halfwidth 2^lower_cut_log2.

    Zero overlap certifies that a multiplier supported on the first family
    annihilates spectra living on the second.  Both cut exponents are free
    real parameters, so width rules like -d*u + eps*(level-1) plug in
    without fixing eps.
    """
    lower_level = integer(lower_level, "lower_level", 0, MAX_LEVEL)
    real(cut_log2, "cut_log2", "(-inf, 1024)")  # 2.0**1024 overflows
    real(lower_cut_log2, "lower_cut_log2", "(-inf, 1024)")
    shell_set = TorusIntervalSet.from_arcs(dyadic_shell(level).values, 2.0**cut_log2)
    lower_set = ArcSystem(2.0**lower_level, 2.0**lower_cut_log2).intervals
    return shell_set.intersect(lower_set).measure


# ---------------------------------------------------------------------------
# General multi-frequency multiplier operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierOp:
    """Operator with symbol sum_k weights[k] * base(xi - centers[k]).

    `centers` is a float array of points in [0, 1) and `weights` a complex
    array aligned with it, or a scalar for every center.  `base_symbol`
    must accept a float array of wrapped offsets and act elementwise;
    beyond `support_halfwidth` (if set) it counts as 0, and
    `symbol_on_grid` visits only the ~2*halfwidth*Q grid points around each
    center, so it costs O(total support) instead of O(#centers * Q).
    """

    centers: np.ndarray
    weights: np.ndarray | complex
    base_symbol: Callable[[np.ndarray], np.ndarray]
    support_halfwidth: float | None = None

    def __post_init__(self):
        if not np.size(self.centers) or not np.isfinite(self.centers).all():
            raise ValueError("multiplier needs at least one center, and finite ones")
        if self.support_halfwidth is not None:
            real(self.support_halfwidth, "support_halfwidth", "[0, inf)")

    def symbol_on_grid(self, modulus: int) -> np.ndarray:
        """Exact symbol at j/Q from one base_symbol call per batch of center
        windows, summed in center order (bit-identical to a full-grid sum)."""
        modulus = integer(modulus, "modulus", 1, MAX_MODULUS)  # before the symbol is allocated
        h, centers = self.support_halfwidth, self.centers
        weights = np.broadcast_to(np.asarray(self.weights, dtype=np.complex128), centers.shape)
        width, starts = modulus, np.zeros(centers.size, dtype=np.int64)
        if h is not None and h < 0.5:
            width = min(modulus, math.floor(2 * h * modulus) + 5)
            starts = np.floor((centers - h) * modulus).astype(np.int64) - 1
        sym = np.zeros(modulus, dtype=np.complex128)
        step = max(1, (1 << 18) // width)  # caps scratch memory for wide windows
        for lo in range(0, centers.size, step):
            idx = (starts[lo : lo + step, None] + np.arange(width)) % modulus
            offsets = wrap_signed(idx / modulus - centers[lo : lo + step, None])
            wts = np.broadcast_to(weights[lo : lo + step, None], idx.shape)
            if h is not None:
                live = np.abs(offsets) <= h
                idx, offsets, wts = idx[live], offsets[live], wts[live]
            if offsets.size:
                vals = np.asarray(self.base_symbol(offsets.ravel()), dtype=np.complex128)
                np.add.at(sym, idx.ravel(), wts.ravel() * vals)
        return sym


def projection_op(n1: float, n2: float) -> MultiplierOp:
    """The major-arc projection as a MultiplierOp (weights 1, bump base)."""
    real(n2, "projection halfwidth n2", "(0, inf)")
    return MultiplierOp(
        canonical_fractions(n1).values,
        1.0,
        lambda x, s=float(n2): eta(np.asarray(x, dtype=float) / s),
        support_halfwidth=float(n2) / 2.0,
    )


def multiplier_apply(f: Signal, op: MultiplierOp) -> Signal:
    return signal_from_spectrum(f.modulus, op.symbol_on_grid(f.modulus) * spectrum(f))


def l2_operator_norm(op: MultiplierOp, modulus: int) -> float:
    """On Z/QZ the l2 operator norm of a multiplier is the max of |symbol|
    over the grid frequencies."""
    return float(np.abs(op.symbol_on_grid(modulus)).max())


def kernel_l1_bound(op: MultiplierOp, modulus: int) -> float:
    """l1 norm of the convolution kernel: an upper bound for the operator
    norm on every l^p, 1 <= p <= inf."""
    kern = signal_from_spectrum(modulus, op.symbol_on_grid(modulus))
    return float(np.abs(kern.values).sum())


_ASCENT_STEPS = 12  # ascent iterations per random start


def lp_norm_probe(
    op: MultiplierOp,
    p: float,
    modulus: int,
    trials: int,
    seed: int,
) -> float:
    """Certified lower bound for the l^p -> l^p operator norm.

    Random complex starts refined by the power-type ascent for p-norms of
    linear maps (apply, take the dual-exponent signed power, apply the
    adjoint, repeat).  Every iterate's ratio ||Tf||_p / ||f||_p is achieved
    by an explicit vector, so the maximum over trials is a true lower bound.
    That ratio is scale free, so an iterate whose powers, or their image
    under the operator, would leave the float range is raised in
    `range_units`.
    """
    trials = integer(trials, "trials", 1)
    real(p, "probe exponent p", "(1, inf)")
    sym = op.symbol_on_grid(modulus)
    conj_sym = np.conj(sym)
    p_dual = p / (p - 1.0)
    top = float(np.abs(sym).max())
    gain = math.log2(top) if top > 1.0 else 0.0  # the most the operator scales by, in bits

    def apply(vec: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        return np.fft.fft(symbol * np.fft.ifft(vec))

    def signed_power(vec: np.ndarray, exponent: float) -> np.ndarray:
        mags = np.abs(vec)
        # below 1, the range for p = 1: it keeps the entries, so their phases, normal
        unit = range_units(mags.max(), max(exponent, 1.0), mags.size, gain / exponent)
        if unit is not None:
            vec = vec / unit
            mags = np.abs(vec)
        phases = np.where(mags > 0, vec / np.where(mags > 0, mags, 1.0), 0.0)
        return (mags**exponent) * phases

    best = 0.0
    for t in range(trials):
        rng = substream(seed, t)
        f = rng.standard_normal(modulus) + 1j * rng.standard_normal(modulus)
        for _ in range(_ASCENT_STEPS):
            nf = float(pnorm(f, p))
            tf = apply(f, sym)
            best = max(best, float(pnorm(tf, p)) / nf)
            g = signed_power(tf, p - 1.0)
            h = apply(g, conj_sym)
            if not np.any(h):
                break
            f = signed_power(h, p_dual - 1.0)
    return best


# ---------------------------------------------------------------------------
# Scale bookkeeping and the major/minor split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Scale parameters of the major/minor split.

    Dyadic logs throughout: at scale N the projection uses denominators up
    to 2^(low_scale) and halfwidth 2^(-degree * high_scale) with
    low_scale = floor(alpha * log2 N) and high_scale = floor(log2 N) -
    low_scale.
    """

    alpha: float
    c0: int
    p0: int
    degree: int

    def __post_init__(self):
        for name, low in (("c0", 1), ("p0", 2), ("degree", 1)):
            object.__setattr__(self, name, integer(getattr(self, name), name, low))
        if self.p0 % 2:
            raise ValueError("p0 must be an even integer >= 2")
        limit = 1.0 / (1_000_000 * self.degree * self.p0)
        real(self.alpha, f"alpha for degree {self.degree} and p0 {self.p0}", f"(0, {limit!r})")

    @classmethod
    def desk(cls, degree: int, p0: int = 4, c0: int = 64) -> "PipelineConfig":
        """Desk-scale defaults.

        alpha is half of 1e-7/(degree*p0).  The analysis that motivates the
        split wants c0 at least 2^(10^6 * degree * p0), which no computation
        can touch; c0 = 64 keeps the same pipeline shape at reachable sizes,
        and the split identity holds for every N >= c0 regardless.
        """
        degree, p0 = integer(degree, "degree", 1), integer(p0, "p0", 2)
        return cls(alpha=0.5e-7 / (degree * p0), c0=c0, p0=p0, degree=degree)

    def scale_at(self, n: int) -> DyadicScale:
        low = math.floor(self.alpha * math.log2(n))
        return DyadicScale(low, -self.degree * (math.floor(math.log2(n)) - low))


def arc_split(
    f: Signal,
    poly: IntPolynomial,
    n_range: int,
    cfg: PipelineConfig,
    p_values: Sequence[float] = (2.0,),
) -> tuple[Signal, Signal, dict]:
    """Split A_N f into the averaged major-arc projection plus the rest.

    major = A_N (Pi f), minor = A_N (f - Pi f); the two add back to A_N f
    by linearity.  The report carries the minor/input norm ratios.
    """
    n = integer(n_range, "N", cfg.c0)  # the pipeline floor
    if poly.degree != cfg.degree:
        raise ValueError(
            f"config degree {cfg.degree} does not match polynomial degree {poly.degree}"
        )
    scale = cfg.scale_at(n)
    projected = project_dyadic(f, scale)
    major = average_linear(poly, n, projected)
    minor = average_linear(poly, n, f - projected)
    ratios = {}
    for p in p_values:
        denom = f.norm(p)
        ratios[str(p)] = float(minor.norm(p) / denom) if denom > 0 else 0.0
    report = {
        "n": n,
        "low_scale": scale.l,
        "halfwidth_log2": scale.m,
        "minor_ratio": ratios,
        "l2_ratio": float(minor.norm(2) / f.norm(2)) if f.norm(2) > 0 else 0.0,
    }
    return major, minor, report


# ---------------------------------------------------------------------------
# Rational-approximation operators and their factorization
# ---------------------------------------------------------------------------


def approx_average_op(
    poly: IntPolynomial,
    n_range: int,
    level: int,
    high_scale: int,
    shell_only: bool = False,
) -> MultiplierOp:
    """The rational-center model of A_N on major arcs: weights are the
    complete sums, the base symbol is mm_N times the cutoff at scale
    2^(-degree * high_scale)."""
    level = integer(level, "level", 0, MAX_LEVEL)
    n = integer(n_range, "N", 1)
    degree = poly.degree
    # 2.0**(degree * high_scale) and 2.0**(-degree * high_scale - 1) stay finite
    d = max(degree, 1)
    high_scale = integer(high_scale, "high_scale", -(1024 // d), 1023 // d)
    cut = eta_at_scale(-degree * high_scale)
    table = dyadic_shell(level) if shell_only else canonical_fractions(2**level)

    def base(offsets: np.ndarray) -> np.ndarray:
        offs = np.atleast_1d(np.asarray(offsets, dtype=float))
        # centers that sit on a common grid share offsets: one mm_N per value
        uniq, inverse = np.unique(offs, return_inverse=True)
        return _mm_many(poly, n, uniq)[inverse.reshape(offs.shape)] * cut(offs)

    gauss = np.array([complete_sum(poly, fr) for fr in table], dtype=np.complex128)
    return MultiplierOp(table.values, gauss, base, support_halfwidth=2.0 ** (-degree * high_scale - 1))


def factorization_gap(
    f: Signal,
    poly: IntPolynomial,
    n_range: int,
    level: int,
    high_scale: int,
    narrow_scale: int,
) -> float:
    """Deviation between the one-step operator T[G; mm_N eta_high] and its
    two-step factorization T[1; mm_N eta_high] after T[G; eta_narrow], all
    over the level-`level` shell frequencies.

    The factorization is exact when the narrow cutoff still flattens the
    high one (narrow_scale >= high_scale + 1 up to the bump's flat part)
    and distinct shell centers stay out of each other's cutoffs; callers
    pick scales satisfying that support geometry.
    """
    # 2.0**narrow_scale and 2.0**(-narrow_scale - 1) stay finite
    narrow_scale = integer(narrow_scale, "narrow_scale", -1024, 1023)
    one_step = approx_average_op(poly, n_range, level, high_scale, shell_only=True)
    narrow = replace(
        one_step,
        base_symbol=eta_at_scale(-narrow_scale),
        support_halfwidth=2.0 ** (-narrow_scale - 1),
    )
    smooth = replace(one_step, weights=1.0)
    direct = multiplier_apply(f, one_step)
    factored = multiplier_apply(multiplier_apply(f, narrow), smooth)
    return float((direct - factored).norm(2))
