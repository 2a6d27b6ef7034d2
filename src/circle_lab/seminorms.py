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

from ._util import substream
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
            "parameters": {
                k: (None if v is None else (v if not isinstance(v, float) or math.isfinite(v) else "inf"))
                for k, v in self.parameters.items()
            },
        }


def variation(seq, r: float) -> SeminormReport:
    """r-variation: sup over increasing subsequences t_0 < ... < t_J of
    (sum |a_(t_(j+1)) - a_(t_j)|^r)^(1/r); r = inf gives the largest
    single increment |a_t - a_s| over s < t."""
    s = RealSequence.of(seq)
    if r != math.inf and r < 1:
        raise ValueError("variation exponent must satisfy r >= 1")
    a = s.values
    n = a.size
    if n == 1:
        return SeminormReport("variation", 0.0, (int(s.labels[0]),), {"r": r})
    if r == math.inf:
        best, pair = 0.0, (0, 0)
        for i in range(n - 1):
            d = np.abs(a[i + 1 :] - a[i])
            j = int(np.argmax(d))
            if d[j] > best:
                best, pair = float(d[j]), (i, i + 1 + j)
        if best == 0.0:
            return SeminormReport("variation", 0.0, (int(s.labels[0]),), {"r": r})
        witness = (int(s.labels[pair[0]]), int(s.labels[pair[1]]))
        return SeminormReport("variation", best, witness, {"r": r})
    val = np.zeros(n)
    back = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        cand = val[:i] + np.abs(a[i] - a[:i]) ** r
        j = int(np.argmax(cand))
        if cand[j] > 0.0:
            val[i] = cand[j]
            back[i] = j
    top = int(np.argmax(val))
    path = [top]
    while back[path[0]] >= 0:
        path.insert(0, int(back[path[0]]))
    if val[top] == 0.0:
        path = [0]
    witness = tuple(int(s.labels[i]) for i in path)
    return SeminormReport("variation", float(val[top] ** (1.0 / r)), witness, {"r": r})


def jump_count(seq, lam: float) -> SeminormReport:
    """Longest chain t_0 < ... < t_J with every consecutive difference of
    modulus >= lambda; the value is J."""
    if lam <= 0:
        raise ValueError("jump threshold must be positive")
    s = RealSequence.of(seq)
    a = s.values
    n = a.size
    jumps = np.zeros(n, dtype=np.int64)
    back = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        ok = np.flatnonzero(np.abs(a[i] - a[:i]) >= lam)
        if ok.size:
            j = ok[int(np.argmax(jumps[ok]))]
            jumps[i] = jumps[j] + 1
            back[i] = j
    top = int(np.argmax(jumps))
    path = [top]
    while back[path[0]] >= 0:
        path.insert(0, int(back[path[0]]))
    if jumps[top] == 0:
        path = [0]
    witness = tuple(int(s.labels[i]) for i in path)
    return SeminormReport("jump", float(jumps[top]), witness, {"lambda": lam})


def oscillation(seq, anchors: Sequence[int], r: float) -> SeminormReport:
    """Blockwise oscillation: anchors I_0 < ... < I_J cut the label range
    into blocks [I_j, I_(j+1)); each block contributes its sup deviation
    from a_(I_j), combined in the r-th power mean sum."""
    s = RealSequence.of(seq)
    if r < 1:
        raise ValueError("oscillation exponent must satisfy r >= 1")
    anchor_list = [int(t) for t in anchors]
    if len(anchor_list) < 2:
        raise ValueError("need at least two anchors (J >= 1)")
    if anchor_list != sorted(set(anchor_list)):
        raise ValueError("anchors must be strictly increasing")
    label_pos = {int(t): i for i, t in enumerate(s.labels)}
    for t in anchor_list:
        if t not in label_pos:
            raise ValueError(f"anchor {t} is not a sequence label")
    a = s.values
    total = 0.0
    block_witnesses = []
    for t0, t1 in zip(anchor_list, anchor_list[1:]):
        p0, p1 = label_pos[t0], label_pos[t1]
        devs = np.abs(a[p0:p1] - a[p0])
        k = int(np.argmax(devs))
        total += float(devs[k]) ** r
        block_witnesses.append(int(s.labels[p0 + k]))
    doubling = all(t1 > 2 * t0 for t0, t1 in zip(anchor_list, anchor_list[1:]))
    return SeminormReport(
        "oscillation",
        float(total ** (1.0 / r)),
        tuple(block_witnesses),
        {"r": r, "anchors": anchor_list, "blocks": len(anchor_list) - 1, "doubling": doubling},
    )


def _abs_pow_inplace(mags: np.ndarray, r: float) -> None:
    # integer exponents by multiplication; float powers are far slower
    if r == 1.0:
        return
    if r == 2.0:
        np.multiply(mags, mags, out=mags)
    elif r == 3.0:
        sq = mags * mags
        np.multiply(sq, mags, out=mags)
    elif r == 4.0:
        np.multiply(mags, mags, out=mags)
        np.multiply(mags, mags, out=mags)
    else:
        np.power(mags, r, out=mags)


def variation_values(samples: np.ndarray, r: float) -> np.ndarray:
    """Batched r-variation without witnesses: samples has shape (T, ...) and
    each trailing slice is one sequence of length T.

    Pairwise in-place updates keep the working set at one trailing slice,
    which matters when the batch is large.
    """
    a = np.asarray(samples)
    t = a.shape[0]
    tail = a.shape[1:]
    if r == math.inf:
        best = np.zeros(tail)
        for i in range(t - 1):
            for j in range(i + 1, t):
                np.maximum(best, np.abs(a[j] - a[i]), out=best)
        return best
    if r < 1:
        raise ValueError("variation exponent must satisfy r >= 1")
    val = np.zeros((t,) + tail)
    diff = np.empty(tail, dtype=a.dtype)
    mag = np.empty(tail)
    for i in range(1, t):
        vi = val[i]
        for j in range(i):
            np.subtract(a[i], a[j], out=diff)
            np.abs(diff, out=mag)
            _abs_pow_inplace(mag, r)
            mag += val[j]
            np.maximum(vi, mag, out=vi)
    return val.max(axis=0) ** (1.0 / r)


# ---------------------------------------------------------------------------
# Lacunary index sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LacunarySet:
    """Integer parts of tau^n, deduplicated and capped."""

    tau: float
    bound: int
    elements: tuple[int, ...]

    @property
    def as_array(self) -> np.ndarray:
        return np.array(self.elements, dtype=np.int64)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def lacunary(tau: float, bound: int) -> LacunarySet:
    if tau <= 1:
        raise ValueError("lacunary ratio must satisfy tau > 1")
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
    blocks = [g.values.copy()]
    while blocks[-1].size > 1:
        prev = blocks[-1]
        blocks.append((prev[0::2] + prev[1::2]) / 2.0)
    blocks.reverse()  # blocks[n] now has 2^n entries
    levels = tuple(
        Signal(q, np.repeat(vals, q // vals.size)) for vals in blocks
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


def _martingale_variation(block_levels: list[np.ndarray], r: float) -> np.ndarray:
    """Pointwise V^r along martingale levels, run at block resolution.

    The DP value after level i only depends on the level-i block of x, so
    each DP state lives on 2^i blocks instead of the full 2^K points.
    Output has shape (B, 2^K).
    """
    depth = len(block_levels) - 1
    vals = [np.zeros_like(block_levels[0])]
    for i in range(1, depth + 1):
        a_i = block_levels[i]
        vi = np.zeros_like(a_i)
        for j in range(i):
            rep = 2 ** (i - j)
            mag = np.abs(a_i - np.repeat(block_levels[j], rep, axis=1))
            _abs_pow_inplace(mag, r)
            mag += np.repeat(vals[j], rep, axis=1)
            np.maximum(vi, mag, out=vi)
        vals.append(vi)
    out = vals[depth].copy()
    for j in range(depth):
        np.maximum(out, np.repeat(vals[j], 2 ** (depth - j), axis=1), out=out)
    return out ** (1.0 / r)


def lepingle_stat(
    p: float, r: float, depth: int, trials: int, seed: int, batch: int = 32
) -> dict:
    """Ratio statistics ||pointwise V^r of the levels||_p / sup_n ||level n||_p
    for seeded Gaussian generators on Z/2^depth.

    Norms use the uniform probability measure; the ratio is scale free.  For
    r <= 2 the same statistic is computed but flagged, since no uniform bound
    is claimed there.
    """
    if depth > 20:
        raise ValueError("depth capped at 20 to keep the run desk-sized")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    q = 2**depth
    # cache-sized slices: B * Q around 2^20 elements
    batch = max(1, min(batch, (1 << 20) // q))
    ratios = np.empty(trials)
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        gs = np.stack(
            [substream(seed, t).standard_normal(q) for t in range(done, done + b)]
        )
        levels = _block_levels(gs)
        vr = _martingale_variation(levels, r)  # (B, Q)
        num = (np.abs(vr) ** p).mean(axis=1) ** (1.0 / p)
        den = np.stack(
            [(np.abs(lev) ** p).mean(axis=1) ** (1.0 / p) for lev in levels]
        ).max(axis=0)
        ratios[done : done + b] = num / den
        done += b
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
