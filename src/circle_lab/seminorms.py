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
from typing import Sequence

import numpy as np

from ._util import integer, parallel_map, pnorm, range_units, real, resolve_threads, substream


@dataclass(frozen=True)
class RealSequence:
    """Finite sequence with strictly increasing integer labels."""

    values: np.ndarray
    labels: np.ndarray

    def __init__(self, values, labels=None):
        vals = np.array(values, dtype=np.complex128)  # a copy
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("sequence needs at least one value")
        if not np.isfinite(vals).all():
            raise ValueError("sequence values must be finite")
        if labels is None:
            labs = np.arange(vals.size)
        else:
            labs = np.asarray(labels)
            if labs.shape != vals.shape:
                raise ValueError("labels and values must have equal length")
            if not np.can_cast(labs.dtype, np.int64):  # a float label would be truncated
                raise ValueError(f"labels must be integers within int64, got {labs.dtype} labels")
            labs = labs.astype(np.int64)  # a copy
            if vals.size > 1 and not np.all(np.diff(labs) > 0):
                raise ValueError("labels must be strictly increasing")
        vals.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labs)

    @classmethod
    def of(cls, seq) -> "RealSequence":
        return seq if isinstance(seq, RealSequence) else cls(seq)


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
    val, top, witness = _variation_dp(s.values, rule.step, rule.folds, s.labels)
    return SeminormReport("variation", float(rule.root(val)[top]), witness, {"r": r})


def jump_count(seq, lam: float) -> SeminormReport:
    """Longest chain t_0 < ... < t_J with every consecutive difference of
    modulus >= lambda; the value is J."""
    real(lam, "jump threshold lam", "(0, inf]")
    s = RealSequence.of(seq)
    # a jump adds 1 to the chain ending at j; -inf rules j out
    val, top, witness = _variation_dp(
        s.values, lambda m, _: np.copyto(m, np.where(m >= lam, 1.0, -np.inf)), True, s.labels
    )
    return SeminormReport("jump", float(val[top]), witness, {"lambda": lam})


def oscillation(seq, anchors: Sequence[int], r: float) -> SeminormReport:
    """Blockwise oscillation: anchors I_0 < ... < I_J cut the label range
    into blocks [I_j, I_(j+1)); each block contributes its sup deviation
    from a_(I_j), combined in the r-th power mean sum (the largest one at
    r = inf)."""
    s = RealSequence.of(seq)
    rule = _Exponent(r, "oscillation").in_units(s.values)
    anchor_list = [integer(t, "anchor") for t in anchors]
    if len(anchor_list) < 2:
        raise ValueError("need at least two anchors (J >= 1)")
    if anchor_list != sorted(set(anchor_list)):
        raise ValueError("anchors must be strictly increasing")
    label_pos = {int(t): i for i, t in enumerate(s.labels)}
    for t in anchor_list:
        if t not in label_pos:
            raise ValueError(f"anchor {t} is not a sequence label")
    peaks = []
    value = _block_oscillation(s.values[:, None], [label_pos[t] for t in anchor_list], rule, peaks)
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

    After `in_units(a)`, increments are counted in `range_units`, one per
    trailing slice of the samples a.  Only 1 < r < inf needs units: at
    r = 1 and r = inf a sum or increment that overflows has a true value
    past the float range too."""

    def __init__(self, r: float, what: str):
        self.r = real(r, f"{what} exponent r", "[1, inf]")
        self.folds = r != math.inf
        self.unit = None

    def in_units(self, a: np.ndarray) -> "_Exponent":
        """Set the units for samples a of shape (T, ...); returns self."""
        r, t = self.r, a.shape[0]
        if not 1 < r < math.inf or t < 2:
            return self
        if r > 969:  # units of the largest increment itself
            top, slack = _variation_dp(a, lambda *_: None, False), 0.0
        else:  # each increment of a slice lies in [0, sqrt(2) w] for its span w
            # (the larger of the real and imaginary spans), and the largest is >= w
            top, slack = np.maximum(np.ptp(a.real, axis=0), np.ptp(a.imag, axis=0)), 0.5
        self.unit = range_units(top, r, t - 1, slack)
        return self

    def step(self, mags: np.ndarray, spare: np.ndarray) -> None:
        """In place, float increments |d| become |d|^r (left alone at r = inf),
        with r = 3's square at the head of spare, a flat float buffer.  The
        variation DP gives mags a trailing axis the units do not have."""
        r = self.r
        if r == math.inf:
            return
        if self.unit is not None:
            mags /= self.unit if mags.ndim == self.unit.ndim else self.unit[..., None]
        # integer exponents by multiplication; float powers are far slower
        if r == 2.0:
            np.multiply(mags, mags, out=mags)
        elif r == 3.0:  # m * (m*m): one product of the same operands as (m*m) * m
            np.multiply(mags, np.multiply(mags, mags, out=spare[: mags.size].reshape(mags.shape)), out=mags)
        elif r == 4.0:
            np.multiply(mags, mags, out=mags)
            np.multiply(mags, mags, out=mags)
        elif r != 1.0:
            np.power(mags, r, out=mags)

    def root(self, total: np.ndarray) -> np.ndarray:
        """Seminorm from a chain value array: total^(1/r), or total at r = inf."""
        out = total if self.r == math.inf else total ** (1.0 / self.r)
        return out if self.unit is None else out * self.unit


def _block_oscillation(a: np.ndarray, cuts: Sequence[int], rule: _Exponent, peaks: list | None = None):
    """Blockwise oscillation of each trailing slice of a (T, ...): positions
    c_0 < ... < c_J cut [c_0, c_J) into blocks [c_j, c_(j+1)), and each
    block adds its sup deviation from a[c_j].  Returns the values; a list
    `peaks` gets, per block, the positions where those sups are reached."""
    total = np.zeros(a.shape[1:])
    for c0, c1 in zip(cuts, cuts[1:]):
        devs = np.abs(a[c0:c1] - a[c0])
        if peaks is not None:
            peaks.append(c0 + devs.argmax(axis=0))
        dev = devs.max(axis=0)
        rule.step(dev, np.empty(dev.size))
        total = total + dev if rule.folds else np.maximum(total, dev)
    return rule.root(total)


# Increments one block of the variation DP holds at most (pairs times
# cells): a chain of up to 2^15 levels takes all earlier ones in one block,
# a slice of 2^15 cells or more one pair per block.
_BLOCK_CELLS = 1 << 15


def _variation_dp(levels, step, folds: bool, labels=None):
    """The one variation DP: value(i) = max(0, max over j < i of step(|a_i - a_j|)
    + value(j)) per cell, value(j) added only when the rule folds; step(mags, spare)
    works in place, with a flat float buffer as long as mags.  The levels a_i are the
    rows of a (T, ...) stack, or a list of levels whose last axes refine (each
    length divides the next), level i viewed as level_j.shape + (-1,).

    Rows [i0, i1) of a stack meet all rows j < i1 in one block while those pairs
    fit _BLOCK_CELLS, else one row meets them in blocks of the budget; a refining
    level is its own block.  Steps are weighed per block, in buffers made once per
    call, then folded row by row; blocks merge by a strict >, so the first largest
    j wins.  Returns the largest value over the levels, shaped like the last, or
    with labels (one chain) the values, the best end and the witness."""
    stacks = [levels] if isinstance(levels, np.ndarray) else [lev[None] for lev in levels]
    # the largest block: a stack's pairs up to the budget (one pair at least), or the finest level
    n, cell = stacks[-1].shape[0], stacks[-1][0].size
    size = min(max(cell, _BLOCK_CELLS), max(n * (n - 1), 1) * cell) if len(stacks) == 1 else cell
    mags, spare = np.empty(size), np.empty(size)
    diff = None if stacks[0].dtype == float else np.empty(size, stacks[0].dtype)
    fold = None if labels is not None else spare[:cell].reshape(stacks[-1].shape[1:] + (1,))
    done = []  # stacks, DP states (both with a unit last axis), level_j.shape + (-1,)
    for a in stacks:
        n, cell = a.shape[0], max(a[0].size, 1)
        v = np.zeros(a.shape)
        done.append((a[..., None], v[..., None], a.shape[1:] + (-1,)))
        back = None if labels is None else [-1] * n
        i0 = 0
        while i0 < n:  # the most rows with rows * (i0 + rows) pairs in the budget
            i1 = min(n, i0 + max(1, (math.isqrt(i0 * i0 + 4 * (_BLOCK_CELLS // cell)) - i0) // 2))
            for h, w, lead in done:
                own = w is done[-1][1]
                stop = i1 - 1 if own else len(h)
                a_rows = a[i0:i1].reshape((i1 - i0, 1) + lead)
                cols = max(1, min(stop, _BLOCK_CELLS // ((i1 - i0) * cell)))
                for j0 in range(0, stop, cols):
                    j1 = min(stop, j0 + cols)
                    shape = (i1 - i0, j1 - j0) + a_rows.shape[2:]
                    m = mags[: math.prod(shape)].reshape(shape)
                    d = m if diff is None else diff[: m.size].reshape(shape)
                    np.abs(np.subtract(a_rows, h[j0:j1], out=d), out=m)
                    step(m, spare)
                    for i in range(i0, i1):
                        if (c := (min(j1, i) if own else j1) - j0) <= 0:
                            continue
                        cand = m[i - i0, :c]
                        if folds:
                            cand += w[j0 : j0 + c]
                        if back is not None:  # one chain: cand is (c, 1)
                            j = int(cand.argmax())
                            if cand.item(j) > v.item(i):
                                v[i], back[i] = cand.item(j), j0 + j
                        else:
                            v_i = w[i] if own else v[i].reshape(lead)  # c == 1 for a level: no fold
                            np.maximum(v_i, cand[0] if c == 1 else cand.max(0, out=fold), out=v_i)
            i0 = i1
    if back is not None:  # an unfolded chain is worth its last increment alone
        path = [int(np.argmax(v))]
        while back[path[-1]] >= 0 and (folds or len(path) == 1):
            path.append(back[path[-1]])
        return v, path[0], tuple(int(labels[i]) for i in reversed(path))
    out = None  # the largest value so far, coarse to fine: each level's cells once
    for _, w, _ in done:
        top = w[0, ..., 0] if len(w) == 1 else w[..., 0].max(axis=0)
        if out is not None:
            view = top.reshape(out.shape + (-1,))
            np.maximum(view, out[..., None], out=view)
        out = top
    return out


_SPLIT_CELLS, _SPLIT_PAIRS = 1 << 11, 1 << 22  # to split: cells per worker, increments per stack


def variation_values(samples: np.ndarray, r: float) -> np.ndarray:
    """Batched r-variation without witnesses: each trailing slice of samples (T, ...) is one
    sequence.  A wide stack splits by columns over the workers, and each runs its
    columns in pieces of at most _TILE_CELLS value cells; neither moves a bit."""
    rule, a = _Exponent(r, "variation"), np.asarray(samples)
    if a.ndim == 0 or a.shape[0] < 1:
        raise ValueError("variation needs at least one sample")
    t, cells = a.shape[0], a[0].size
    wide = a.ndim > 1 and t * (t - 1) // 2 * cells >= _SPLIT_PAIRS
    parts = min(resolve_threads(), cells // _SPLIT_CELLS, a.shape[1]) if wide else 1
    if parts <= 1:
        return _values(a, rule)
    split = np.array_split(a, parts, axis=1)
    return np.concatenate(parallel_map(lambda part: _values(part, _Exponent(r, "variation")), split, parts))


def _values(a: np.ndarray, rule: _Exponent) -> np.ndarray:
    """variation_values on this thread, in units of a's own slices, in column
    pieces of at most _TILE_CELLS value cells (one column at least)."""
    if a.ndim > 1 and (width := max(1, _TILE_CELLS // max(a[:, :1].size, 1))) < a.shape[1]:
        return np.concatenate([_values(a[:, c : c + width], rule) for c in range(0, a.shape[1], width)])
    return rule.in_units(a).root(_variation_dp(a, rule.step, rule.folds))


# ---------------------------------------------------------------------------
# Lacunary index sets
# ---------------------------------------------------------------------------


def lacunary(tau: float, bound: int) -> tuple[int, ...]:
    """The distinct integer parts of tau^n up to `bound`, sorted."""
    tau = real(tau, "lacunary ratio tau", "(1, inf)")  # powers in Python: numpy's wrap or reach inf
    tau = int(tau) if isinstance(tau, (int, np.integer)) else float(tau)
    bound = integer(bound, "bound", 1)
    out, n = set(), 0
    while True:
        try:
            v = math.floor(tau**n)
        except OverflowError:  # a float tau^n past 2^1024 is past any smaller bound
            if bound < 2**1024:
                break
            raise ValueError(f"bound must be below 2^1024 for a non-integer tau, "
                             f"got a {bound.bit_length()}-bit bound") from None
        if v > bound:
            break
        out.add(v)
        n += 1
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Dyadic martingales
# ---------------------------------------------------------------------------


def _block_levels(g_values: np.ndarray) -> list[np.ndarray]:
    """Martingale levels of a batch at their natural resolutions: input
    (B, Q), output list where entry n has shape (B, 2^n)."""
    levels = [g_values]
    while levels[-1].shape[1] > 1:
        prev = levels[-1]
        levels.append((prev[:, 0::2] + prev[:, 1::2]) / 2.0)
    levels.reverse()
    return levels


# Leaf cells per work item of lepingle_stat, and value cells per column piece
# of variation_values: level arrays of 2^17 float64 cells stay near the size
# of one core's L2 cache.  A deeper trial is one work item on its own.
_TILE_CELLS = 1 << 17
# Largest depth and trial count lepingle_stat accepts (the ratios alone are 8 MB).
_MAX_DEPTH, _MAX_TRIALS = 20, 10**6


def _pointwise_variation(levels: list[np.ndarray], rule: _Exponent) -> np.ndarray:
    """Pointwise r-variation, shape (B, Q), of the martingale levels of a
    batch.  A leaf's chain of levels spans at least |leaf - mean| and at
    most its trial's span; unless both are in range for the r-th powers,
    the levels go at full resolution through `_values`, on this thread and
    in units per leaf, in runs of leaves of about _TILE_CELLS cells."""
    leaves, depth = levels[-1], len(levels) - 1
    if 1 < rule.r < math.inf:
        near = leaves - levels[0]
        spans = np.concatenate((np.ptp(leaves, axis=1), np.abs(near, out=near).min(axis=1)))
        if range_units(spans, rule.r, max(depth, 1)) is not None or not spans.all():
            out, cols = np.empty(leaves.shape), np.arange(leaves.shape[1])
            step = max(1, _TILE_CELLS // leaves.shape[0] // (depth + 1))
            for c in range(0, cols.size, step):
                idx = cols[c : c + step]  # the cell of level i over leaf x is x >> (depth - i)
                full = np.stack([lev[:, idx >> (depth - i)] for i, lev in enumerate(levels)])
                out[:, c : c + step] = _values(full, _Exponent(rule.r, "variation"))
            return out
    return rule.root(_variation_dp(levels, rule.step, rule.folds))


def lepingle_stat(
    p: float, r: float, depth: int, trials: int, seed: int, threads: int | None = None
) -> dict:
    """Ratio statistics ||pointwise V^r of the levels||_p / sup_n ||level n||_p
    for seeded Gaussian generators on Z/2^depth.

    Norms use the uniform probability measure; the ratio is scale free.  For
    r <= 2 the same statistic is computed but flagged, since no uniform bound
    is claimed there.  r = inf gives the largest increment between levels.
    Where a leaf's r-th powers might leave the float range, its work item
    runs at full resolution through the batched variation DP, in units per leaf.

    Trial t draws from ``substream(seed, t)``.  Work items (runs of
    consecutive trials with at most _TILE_CELLS leaf cells in all, or one
    deeper trial) go through ``parallel_map`` on `threads` workers; the
    result never depends on either.
    """
    rule = _Exponent(r, "variation")
    real(p, "norm exponent p", "(0, inf)")
    depth = integer(depth, "depth", 0, _MAX_DEPTH)
    trials = integer(trials, "trials", 1, _MAX_TRIALS)
    q = 1 << depth
    step = max(1, _TILE_CELLS >> depth)  # trials per work item

    def chunk(start: int) -> np.ndarray:
        gs = np.empty((min(step, trials - start), q))
        for t, row in enumerate(gs, start):
            substream(seed, t).standard_normal(out=row)
        levels = _block_levels(gs)
        vr = _pointwise_variation(levels, rule)
        den = np.stack([pnorm(lev, p, axis=1, mean=True) for lev in levels]).max(axis=0)
        return pnorm(vr, p, axis=1, mean=True) / den

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
