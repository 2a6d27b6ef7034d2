"""Variation, jump, and oscillation seminorms of finite sequences, with a
dyadic-martingale harness.

All three seminorms are computed exactly by dynamic programming (greedy
anchoring undercounts jumps: try (0.5, 0, 1) at threshold 1), and every
report carries a witness subsequence that reproduces the reported value.
Complex sequences are handled through the modulus of differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from ._util import parallel_map, substream
from .polyavg import Signal


@dataclass(frozen=True)
class RealSequence:
    """Finite sequence with strictly increasing integer labels."""

    values: np.ndarray
    labels: np.ndarray

    def __init__(self, values, labels=None):
        vals = np.asarray(values, dtype=np.complex128).copy()
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("sequence needs at least one value")
        if not np.isfinite(vals).all():
            raise ValueError("sequence values must be finite")
        if labels is None:
            labs = np.arange(vals.size)
        else:
            labs = np.asarray(labels, dtype=np.int64).copy()
        if labs.shape != vals.shape:
            raise ValueError("labels and values must have equal length")
        if vals.size > 1 and not np.all(np.diff(labs) > 0):
            raise ValueError("labels must be strictly increasing")
        vals.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labs)

    @classmethod
    def of(cls, seq) -> "RealSequence":
        return seq if isinstance(seq, RealSequence) else cls(seq)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SeminormReport:
    """Computed seminorm value with the witness that achieves it."""

    kind: str
    value: float
    witness: tuple[int, ...]
    parameters: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "witness": list(self.witness),
            "parameters": dict(self.parameters),
        }


def variation(seq, r: float) -> SeminormReport:
    """r-variation: sup over increasing subsequences t_0 < ... < t_J of
    (sum |a_(t_(j+1)) - a_(t_j)|^r)^(1/r); r = inf gives the largest
    single increment |a_t - a_s| over s < t."""
    s = RealSequence.of(seq)
    rule = _Exponent(r, "variation").in_units(s.values)
    val, top, witness = _chain(s, rule.weigh)
    return SeminormReport("variation", float(rule.root(val)[top]), witness, {"r": r})


def jump_count(seq, lam: float) -> SeminormReport:
    """Longest chain t_0 < ... < t_J with every consecutive difference of
    modulus >= lambda; the value is J."""
    if not lam > 0:
        raise ValueError("jump threshold must be positive")

    def weigh(mags: np.ndarray, prior: np.ndarray, scratch: np.ndarray) -> bool:
        # a jump extends the chain ending at j to prior + 1; -1 rules j out
        jumps = np.greater_equal(mags, lam, out=scratch)
        np.add(prior, 2.0, out=mags)
        mags *= jumps
        mags -= 1.0
        return True

    val, top, witness = _chain(seq, weigh)
    return SeminormReport("jump", float(val[top]), witness, {"lambda": lam})


def _chain(seq, weigh) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """Best chain t_0 < ... < t_J through seq.  weigh turns the increments
    |a_i - a_j|, j < i, in place into chain values from those at j, given a
    float scratch buffer of their size, and says whether it folded them in;
    value(i) is the first largest if > 0, else 0.  Returns the values, the
    best chain's end and its labels (the witness)."""
    s = RealSequence.of(seq)
    a = s.values
    n = a.size
    val, scratch = np.zeros(n), np.empty(n)
    back = np.full(n, -1, dtype=np.int64)
    folds = True
    for i in range(1, n):
        cand = np.abs(a[i] - a[:i])
        folds = weigh(cand, val[:i], scratch[:i])
        j = int(cand.argmax())
        if cand[j] > 0.0:
            val[i] = cand[j]
            back[i] = j
    top = int(np.argmax(val))
    path = [top]
    while back[path[0]] >= 0:
        path.insert(0, int(back[path[0]]))
        if not folds:  # an unfolded chain is worth its last increment alone
            break
    return val, top, tuple(int(s.labels[i]) for i in path)


def oscillation(seq, anchors: Sequence[int], r: float) -> SeminormReport:
    """Blockwise oscillation: anchors I_0 < ... < I_J cut the label range
    into blocks [I_j, I_(j+1)); each block contributes its sup deviation
    from a_(I_j), combined in the r-th power mean sum (the largest one at
    r = inf)."""
    s = RealSequence.of(seq)
    rule = _Exponent(r, "oscillation").in_units(s.values)
    anchor_list = [int(t) for t in anchors]
    if len(anchor_list) < 2:
        raise ValueError("need at least two anchors (J >= 1)")
    if anchor_list != sorted(set(anchor_list)):
        raise ValueError("anchors must be strictly increasing")
    label_pos = {int(t): i for i, t in enumerate(s.labels)}
    for t in anchor_list:
        if t not in label_pos:
            raise ValueError(f"anchor {t} is not a sequence label")
    value, peaks = _block_oscillation(
        s.values[:, None], [label_pos[t] for t in anchor_list], rule
    )
    doubling = all(t1 > 2 * t0 for t0, t1 in zip(anchor_list, anchor_list[1:]))
    return SeminormReport(
        "oscillation",
        float(value[0]),
        tuple(int(s.labels[k[0]]) for k in peaks),
        {"r": r, "anchors": anchor_list, "blocks": len(anchor_list) - 1, "doubling": doubling},
    )


class _Exponent:
    """The one place an exponent r >= 1 (r = inf allowed) acts: a chain of
    increments d_j is worth sum |d_j|^r, with r-th root the seminorm.  At
    r = inf callers' max over chain ends already gives the sup increment,
    so each increment stands alone and no chain value is folded in.

    After `in_units(a)`, increments are counted in units u = 2^k, one per
    trailing slice of the samples a, wherever their r-th powers could leave
    the normal float range; u = 1 elsewhere, so such slices keep their bits.
    Only 1 < r < inf needs units: at r = 1 and r = inf a sum or increment
    that overflows has a true value past the float range too."""

    def __init__(self, r: float, what: str):
        if not r >= 1:  # also rejects NaN
            raise ValueError(f"{what} exponent must satisfy r >= 1")
        self.r = r
        self.unit = None

    def in_units(self, a: np.ndarray) -> "_Exponent":
        """Set the units for samples a of shape (T, ...); returns self."""
        r, t = self.r, a.shape[0]
        if not 1 < r < math.inf or t < 2:
            return self
        # each increment of a slice lies in [0, sqrt(2) w] for its span w (the
        # larger of the real and imaginary spans) and the largest is >= w, so
        # for w in [lo, hi] the largest r-th power is >= 2^-969 (smaller ones
        # lost to underflow do not matter) and a chain of t - 1 stays finite
        span = a.real.max(axis=0) - a.real.min(axis=0)
        if a.dtype.kind == "c":
            span = np.maximum(span, a.imag.max(axis=0) - a.imag.min(axis=0))
        lo, hi = 2.0 ** (-969 / r), 2.0 ** ((1023 - math.log2(t - 1)) / r - 0.5)
        out = (span > hi) | (span < lo) & (span > 0)
        if out.any():
            k = np.minimum(np.frexp(span)[1], 1023)  # 2^(k-1) <= w < 2^k
            self.unit = np.where(out & np.isfinite(span), np.ldexp(1.0, k), 1.0)
        return self

    def weigh(self, mags: np.ndarray, prior, scratch: np.ndarray) -> bool:
        """In place, increments |d| become chain values |d|^r + prior, with
        scratch a float buffer shaped like mags.  Returns whether prior was
        folded in (False at r = inf)."""
        r = self.r
        if r == math.inf:
            return False
        if self.unit is not None:  # exact: u is a power of two
            mags /= self.unit.reshape(self.unit.shape + (1,) * (mags.ndim - self.unit.ndim))
        # integer exponents by multiplication; float powers are far slower
        if r == 2.0:
            np.multiply(mags, mags, out=mags)
        elif r == 3.0:
            np.multiply(mags, mags, out=scratch)
            np.multiply(scratch, mags, out=mags)
        elif r == 4.0:
            np.multiply(mags, mags, out=mags)
            np.multiply(mags, mags, out=mags)
        elif r != 1.0:
            np.power(mags, r, out=mags)
        mags += prior
        return True

    def root(self, total: np.ndarray) -> np.ndarray:
        """Seminorm from a chain value array: total^(1/r), or total at r = inf."""
        out = total if self.r == math.inf else total ** (1.0 / self.r)
        return out if self.unit is None else out * self.unit


def _block_oscillation(a: np.ndarray, cuts: Sequence[int], rule: _Exponent):
    """Blockwise oscillation of each trailing slice of a (T, ...): positions
    c_0 < ... < c_J cut [c_0, c_J) into blocks [c_j, c_(j+1)), and each
    block adds its sup deviation from a[c_j].  Returns the values and, per
    block, the positions where those sups are reached."""
    total, scratch = np.zeros(a.shape[1:]), np.empty(a.shape[1:])
    peaks = []
    for c0, c1 in zip(cuts, cuts[1:]):
        devs = np.abs(a[c0:c1] - a[c0])
        peaks.append(c0 + devs.argmax(axis=0))
        dev = devs.max(axis=0)
        rule.weigh(dev, total, scratch)
        total = np.maximum(total, dev)
    return rule.root(total), peaks


def _level_variation(levels: list[np.ndarray], rule: _Exponent) -> np.ndarray:
    """Pointwise r-variation along levels whose last axes refine (each length
    divides the next: a plain stack keeps it, dyadic martingale levels
    double it), shaped like the last level.  DP states stay at their own
    level's resolution; level i, viewed as level_j.shape + (-1,),
    broadcasts against level j and its state, updated in place."""
    heads, vals = [], []  # earlier levels and DP states, each with a unit last axis
    for a_i in levels:
        v_i = np.zeros(a_i.shape)
        diff, mag = np.empty_like(a_i), np.empty(a_i.shape)
        # the rule's scratch; a float diff is dead once mag holds |diff|
        spare = diff if diff.dtype == mag.dtype else np.empty(a_i.shape)
        lead = None
        for a_j, v_j in zip(heads, vals):
            if a_j.shape[:-1] != lead:  # a plain stack keeps one view per level
                lead = a_j.shape[:-1]
                a, d, m, w, v = (x.reshape(lead + (-1,)) for x in (a_i, diff, mag, spare, v_i))
            np.subtract(a, a_j, out=d)
            np.abs(d, out=m)
            rule.weigh(m, v_j, w)
            np.maximum(v, m, out=v)
        heads.append(a_i[..., None])
        vals.append(v_i[..., None])
    out = vals[-1][..., 0]
    for v_j in vals[:-1]:
        view = out.reshape(v_j.shape[:-1] + (-1,))
        np.maximum(view, v_j, out=view)
    return rule.root(out)


def variation_values(samples: np.ndarray, r: float) -> np.ndarray:
    """Batched r-variation without witnesses: samples has shape (T, ...) and
    each trailing slice is one sequence of length T.

    Pairwise in-place updates keep the working set at one trailing slice,
    which matters when the batch is large.
    """
    rule = _Exponent(r, "variation")
    a = np.asarray(samples)
    if a.ndim == 0 or a.shape[0] < 1:
        raise ValueError("variation needs at least one sample")
    return _level_variation(list(a), rule.in_units(a))


# ---------------------------------------------------------------------------
# Lacunary index sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LacunarySet:
    """Integer parts of tau^n, deduplicated and capped."""

    tau: float
    bound: int
    elements: tuple[int, ...]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def lacunary(tau: float, bound: int) -> LacunarySet:
    if not 1 < tau < math.inf:
        raise ValueError(f"lacunary ratio must satisfy 1 < tau < inf, got tau = {tau}")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out = set()
    n = 0
    while True:
        v = math.floor(tau**n)
        if v > bound:
            break
        out.add(v)
        n += 1
    return LacunarySet(tau, bound, tuple(sorted(out)))


# ---------------------------------------------------------------------------
# Dyadic martingales
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicMartingale:
    """Levels 0..K of block averages of a signal on Z/2^K; level n is
    constant on dyadic blocks of length 2^(K-n) and level K is the signal."""

    depth: int
    levels: tuple[Signal, ...]


def martingale(g: Signal) -> DyadicMartingale:
    """Dyadic filtration of g; each level is the pairwise block mean of the
    next, so the tower property holds exactly."""
    q = g.modulus
    depth = q.bit_length() - 1
    if 2**depth != q:
        raise ValueError(f"martingale needs a power-of-two modulus, got {q}")
    levels = tuple(
        Signal(q, np.repeat(vals[0], q // vals.shape[1]))
        for vals in _block_levels(g.values[None])
    )
    return DyadicMartingale(depth, levels)


def _block_levels(g_values: np.ndarray) -> list[np.ndarray]:
    """Martingale levels of a batch at their natural resolutions: input
    (B, Q), output list where entry n has shape (B, 2^n)."""
    levels = [g_values]
    while levels[-1].shape[1] > 1:
        prev = levels[-1]
        levels.append((prev[:, 0::2] + prev[:, 1::2]) / 2.0)
    levels.reverse()
    return levels


# Leaf cells per work item of lepingle_stat: level arrays of 2^17 float64
# cells stay near the size of one core's L2 cache.  A deeper trial is one
# work item on its own.
_TILE_CELLS = 1 << 17
# Largest trial count lepingle_stat accepts (the ratios alone are 8 MB).
_MAX_TRIALS = 10**6


def lepingle_stat(
    p: float, r: float, depth: int, trials: int, seed: int, threads: int | None = None
) -> dict:
    """Ratio statistics ||pointwise V^r of the levels||_p / sup_n ||level n||_p
    for seeded Gaussian generators on Z/2^depth.

    Norms use the uniform probability measure; the ratio is scale free.  For
    r <= 2 the same statistic is computed but flagged, since no uniform bound
    is claimed there.  r = inf gives the largest increment between levels.

    Trial t draws from ``substream(seed, t)``.  Work items (runs of
    consecutive trials with at most _TILE_CELLS leaf cells in all, or one
    deeper trial) go through ``parallel_map`` on `threads` workers
    (CIRCLE_LAB_THREADS wins); the result never depends on either.
    """
    rule = _Exponent(r, "variation")
    if not 0 < p < math.inf:  # also rejects NaN
        raise ValueError(f"norm exponent p must be finite and > 0, got {p}")
    if not isinstance(depth, Integral) or not 0 <= depth <= 20:
        raise ValueError(
            f"depth must be an integer in 0..20 to keep the run desk-sized, got {depth!r}"
        )
    if not isinstance(trials, Integral) or not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be an integer in 1..{_MAX_TRIALS}, got {trials!r}")
    q = 1 << depth
    step = max(1, _TILE_CELLS >> depth)  # trials per work item

    def chunk(start: int) -> np.ndarray:
        gs = np.empty((min(step, trials - start), q))
        for t, row in enumerate(gs, start):
            substream(seed, t).standard_normal(out=row)
        levels = _block_levels(gs)
        vr = _level_variation(levels, rule)  # (B, Q)
        num = (np.abs(vr) ** p).mean(axis=1) ** (1.0 / p)
        den = np.stack(
            [(np.abs(lev) ** p).mean(axis=1) ** (1.0 / p) for lev in levels]
        ).max(axis=0)
        return num / den

    ratios = np.concatenate(parallel_map(chunk, range(0, trials, step), threads))
    qs = np.quantile(ratios, [0.5, 0.9, 1.0])
    return {
        "p": p,
        "r": r,
        "depth": depth,
        "trials": trials,
        "seed": seed,
        "max": float(ratios.max()),
        "mean": float(ratios.mean()),
        "quantiles": {"0.5": float(qs[0]), "0.9": float(qs[1]), "1.0": float(qs[2])},
        "bound_asserted": bool(r > 2),
        "note": None if r > 2 else "no bound asserted for r <= 2",
    }
