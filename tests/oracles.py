"""Independent test oracles: exhaustive enumerations and literal sums.

Everything here deliberately avoids the library's own algorithms.  The
subsequence tables turn the exponential enumeration into flat numpy reduces
so exhaustive checks for lengths up to 12 stay fast.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def trial_totient(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def brute_variation(values, r: float) -> float:
    """Exhaustive r-variation over all increasing subsequences."""
    vals = list(values)
    n = len(vals)
    best = 0.0
    if r == math.inf:
        for i, j in itertools.combinations(range(n), 2):
            best = max(best, abs(vals[j] - vals[i]))
        return best
    for size in range(2, n + 1):
        for idx in itertools.combinations(range(n), size):
            s = sum(abs(vals[b] - vals[a]) ** r for a, b in zip(idx, idx[1:]))
            best = max(best, s)
    return best ** (1.0 / r) if best > 0 else 0.0


def exact_root(total: Fraction, r: int) -> float:
    """total^(1/r) for a Fraction total >= 0 and an integer r, at any size:
    the root of x = total / 2^(r e), within a factor 2^r of 1, scaled back
    by 2^e."""
    if total == 0:
        return 0.0
    e = (total.numerator.bit_length() - total.denominator.bit_length()) // r
    x = total / Fraction(2) ** (r * e)  # 2^-1 <= x < 2^(r + 1)
    if r < 1000:
        return math.ldexp(float(x) ** (1.0 / r), e)
    # x may be past the float range: take its root through log x, read off
    # an integer of 64 more bits so that no cancellation loses digits
    log_x = math.log((x.numerator << 64) // x.denominator) - 64 * math.log(2)
    return math.ldexp(math.exp(log_x / r), e)


def exact_chain(values, r: int) -> float:
    """(sum |a_(j+1) - a_j|^r)^(1/r) over a real float chain, summed exactly."""
    vals = [Fraction(v) for v in values]
    return exact_root(sum((abs(b - a) ** r for a, b in zip(vals, vals[1:])), Fraction(0)), r)


def exact_variation(values, r: int) -> float:
    """r-variation of a real float sequence over all increasing
    subsequences, with the r-th powers summed exactly, so no float range
    bounds them: in integers, the values times their common power-of-two
    denominator."""
    vals = [Fraction(v) for v in values]
    den = max(v.denominator for v in vals)
    ints = [int(v * den) for v in vals]
    n = len(ints)
    power = {(i, j): abs(ints[j] - ints[i]) ** r for i, j in itertools.combinations(range(n), 2)}
    best = 0
    for size in range(2, n + 1):
        for idx in itertools.combinations(range(n), size):
            best = max(best, sum(power[a, b] for a, b in zip(idx, idx[1:])))
    return exact_root(Fraction(best, den**r), r)


def exact_pnorm(values, p: int, mean: bool = False) -> float:
    """(sum |x|^p)^(1/p), or the root of the mean with mean set, of the float
    moduli |x|, with the p-th powers summed exactly in Fractions."""
    mags = [Fraction(float(abs(v))) for v in values]
    total = sum((m**p for m in mags), Fraction(0))
    return exact_root(total / len(mags) if mean else total, p)


def exact_oscillation(values, anchors, r: int) -> float:
    """Blockwise oscillation of a real float sequence at anchor positions,
    with the r-th powers summed exactly in Fractions."""
    vals = [Fraction(v) for v in values]
    total = sum(
        max(abs(vals[t] - vals[a]) for t in range(a, b)) ** r for a, b in zip(anchors, anchors[1:])
    )
    return exact_root(total, r)


def brute_jump(values, lam: float) -> int:
    """Exhaustive lambda-jump count over all increasing subsequences."""
    vals = list(values)
    n = len(vals)
    best = 0
    for size in range(2, n + 1):
        for idx in itertools.combinations(range(n), size):
            if all(abs(vals[b] - vals[a]) >= lam for a, b in zip(idx, idx[1:])):
                best = max(best, size - 1)
    return best


def martingale_levels(g) -> list[np.ndarray]:
    """Dyadic martingale of g on Z/2^K at full resolution: level n at x is
    the literal mean of g over the length-2^(K-n) block holding x."""
    vals = [float(v) for v in g]
    q = len(vals)
    levels = []
    for n in range(q.bit_length()):
        width = q >> n
        levels.append(
            np.array([sum(vals[x - x % width : x - x % width + width]) / width for x in range(q)])
        )
    return levels


def martingale_variation(g, r: float) -> np.ndarray:
    """Pointwise r-variation of the dyadic martingale of g: each point's
    level sequence goes through brute_variation."""
    levels = martingale_levels(g)
    return np.array([brute_variation([lev[x] for lev in levels], r) for x in range(len(g))])


@lru_cache(maxsize=16)
def subsequence_tables(n: int):
    """Flattened consecutive-pair structure of every subsequence of
    {0..n-1} with at least two elements.

    Returns (pair_lo, pair_hi, seg_starts, seg_sizes): the pairs of segment
    k are pair_*[seg_starts[k] : seg_starts[k+1]] and the subsequence has
    seg_sizes[k] elements.
    """
    pair_lo, pair_hi, seg_starts, seg_sizes = [], [], [], []
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if len(idx) < 2:
            continue
        seg_starts.append(len(pair_lo))
        seg_sizes.append(len(idx))
        pair_lo.extend(idx[:-1])
        pair_hi.extend(idx[1:])
    return (
        np.array(pair_lo),
        np.array(pair_hi),
        np.array(seg_starts),
        np.array(seg_sizes),
    )


def fast_brute_variation(values: np.ndarray, r: float) -> float:
    vals = np.asarray(values)
    lo, hi, starts, _ = subsequence_tables(vals.size)
    diffs = np.abs(vals[hi] - vals[lo])
    if r == math.inf:
        return float(diffs.max())
    sums = np.add.reduceat(diffs**r, starts)
    top = float(sums.max())
    return top ** (1.0 / r) if top > 0 else 0.0


def fast_brute_jump(values: np.ndarray, lam: float) -> int:
    vals = np.asarray(values)
    lo, hi, starts, sizes = subsequence_tables(vals.size)
    mins = np.minimum.reduceat(np.abs(vals[hi] - vals[lo]), starts)
    good = mins >= lam
    return int((sizes[good] - 1).max()) if good.any() else 0


def naive_average(poly, n: int, f) -> np.ndarray:
    """Literal definitional sum of the polynomial average on Z/QZ."""
    q = f.modulus
    out = np.zeros(q, dtype=np.complex128)
    for x in range(q):
        acc = 0.0 + 0.0j
        for k in range(1, n + 1):
            acc += f.values[(x - poly(k)) % q]
        out[x] = acc / n
    return out


def grouped_average(poly, n: int, f) -> np.ndarray:
    """Grouped direct sum of the polynomial average on Z/QZ: each distinct
    shift P(k) mod Q, k = 1..N, rolls f once, weighted by its count."""
    q = f.modulus
    shifts, counts = np.unique([poly(k) % q for k in range(1, n + 1)], return_counts=True)
    out = np.zeros(q, dtype=np.complex128)
    for shift, count in zip(shifts, counts):
        out += count * np.roll(f.values, int(shift))
    return out / n


def naive_weyl(poly, n: int, xi: float) -> complex:
    return sum(
        complex(math.cos(2 * math.pi * xi * poly(k)), math.sin(2 * math.pi * xi * poly(k)))
        for k in range(1, n + 1)
    ) / n


def exact_weyl(poly, n: int, xi) -> complex:
    """m_N(xi) with every phase xi * P(k) reduced exactly in rationals to
    [-1/2, 1/2) before it is multiplied by 2 pi, and the cos and sin parts
    summed with math.fsum; a float xi is taken at its exact binary value."""
    x, half = Fraction(xi), Fraction(1, 2)
    angles = [2 * math.pi * float((x * poly(k) + half) % 1 - half) for k in range(1, n + 1)]
    return complex(math.fsum(map(math.cos, angles)) / n, math.fsum(map(math.sin, angles)) / n)


def _turn(phase: Fraction) -> complex:
    """e(phase) with the phase reduced mod 1 exactly first."""
    return complex(np.exp(2j * math.pi * float(phase % 1)))


def fine_mm(poly, n: int, xi: float) -> complex:
    """mm_N(xi) by a fixed composite 16-node Gauss-Legendre rule with 64
    nodes per oscillation of the phase, |xi| * sum_k |c_k| N^k of them; meant
    for phase variation up to a few times 1e5 (then ~1e7 nodes).  The
    constant term is reduced exactly and the rest of the phase is the float
    polynomial sum_k (xi c_k N^k) t^k."""
    x = Fraction(xi)
    coeffs = [float(x * c * n**k) for k, c in enumerate(poly.coefficients)]
    coeffs[0] = 0.0
    variation = sum(abs(c) for c in coeffs)
    panels = max(4, math.ceil(variation * 64 / 16))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    total = 0j
    for lo in range(0, panels, 1 << 16):
        left = np.arange(lo, min(panels, lo + (1 << 16)))[:, None] / panels
        ts = left + (nodes[None, :] + 1.0) / (2 * panels)
        phase = np.polynomial.polynomial.polyval(ts, coeffs)
        total += np.sum(np.exp(2j * math.pi * (phase % 1.0)) * weights) / (2 * panels)
    return _turn(x * poly.coefficients[0]) * total


def linear_mm(c0: int, c1: int, n: int, xi: float) -> complex:
    """mm_N(xi) for P = c0 + c1 n in closed form: with lam = xi c1 N,
    (e(lam) - 1) / (2 pi i lam) = e(lam / 2) sin(pi lam) / (pi lam), which
    has no cancellation at small lam."""
    x = Fraction(xi)
    lam = x * c1 * n
    if lam == 0:
        return _turn(x * c0)
    half_turns = lam % 2 - 2 if lam % 2 > 1 else lam % 2  # in (-1, 1]
    sinc = math.sin(math.pi * float(half_turns)) / (math.pi * float(lam))
    return _turn(x * c0 + lam / 2) * sinc


def fresnel_mm_square(n: int, xi: float) -> complex:
    """mm_N(xi) for P = n^2 with a = xi N^2 large, from the expansion
    e(1/8)/(2 sqrt(2a)) + e(a)/(2 i beta) + e(a)/(2 i beta)^2 with
    beta = 2 pi a; the omitted terms are below 3 / (8 beta^3)."""
    a_exact = Fraction(xi) * n * n
    a = float(a_exact)
    beta = 2.0 * math.pi * a
    e_a = _turn(a_exact)
    lead = complex(np.exp(2j * math.pi / 8.0)) / (2.0 * math.sqrt(2.0 * a))
    return lead + e_a / (2j * beta) + e_a / (2j * beta) ** 2


def planted_symbol(op, modulus: int) -> np.ndarray:
    """Full-grid planted sum of a multiplier symbol: for every center, in
    order, evaluate the base symbol at all Q wrapped offsets j/Q - theta
    (zeroed beyond the support halfwidth) and add it over the whole grid.
    Costs O(#centers * Q)."""
    xs = np.arange(modulus) / modulus
    sym = np.zeros(modulus, dtype=np.complex128)
    weights = np.broadcast_to(op.weights, np.shape(op.centers))
    for center, weight in zip(op.centers.tolist(), weights.tolist()):
        x = xs - center
        offsets = x - np.ceil(x - 0.5)
        if op.support_halfwidth is None:
            sym += weight * np.asarray(op.base_symbol(offsets), dtype=np.complex128)
            continue
        live = np.abs(offsets) <= op.support_halfwidth
        if live.any():
            vals = np.zeros(modulus, dtype=np.complex128)
            vals[live] = weight * np.asarray(op.base_symbol(offsets[live]), dtype=np.complex128)
            sym += vals
    return sym


def farey_fractions(n: int) -> list[Fraction]:
    """Every reduced a/q in [0, 1) with q <= n, by brute Fraction enumeration."""
    return sorted({Fraction(a, q) for q in range(1, n + 1) for a in range(q)})


def farey_min_gap(fracs) -> Fraction:
    """Smallest torus gap of a set of fractions, by sorting them and scanning
    consecutive pairs and the wrap pair (1 for a single fraction)."""
    fracs = sorted(Fraction(fr) for fr in fracs)
    if len(fracs) < 2:
        return Fraction(1)
    return min([b - a for a, b in zip(fracs, fracs[1:])] + [fracs[0] + 1 - fracs[-1]])


def dense_distances(xs, centers) -> np.ndarray:
    """Torus distance from each point to its nearest center through the
    full points x centers matrix."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    c = np.asarray(centers, dtype=float)
    d = xs[:, None] - c[None, :]
    return np.abs(d - np.ceil(d - 0.5)).min(axis=1)


def wrapped_intervals(pieces) -> tuple[tuple[float, float], ...]:
    """Torus interval-union normal form by the definitional loop: wrap each
    closed piece into [0, 1] (a piece of length >= 1 is the whole circle),
    sort, merge pieces that overlap or touch, then join the pieces at 0 and
    1 into one seam interval with lo < 0."""
    out: list[tuple[float, float]] = []
    for lo, hi in pieces:
        if hi < lo:
            continue
        if hi - lo >= 1.0:
            out = [(0.0, 1.0)]
            break
        start = lo % 1.0
        end = start + (hi - lo)
        if end <= 1.0:
            out.append((start, end))
        else:
            out.extend([(start, 1.0), (0.0, end - 1.0)])
    merged: list[list[float]] = []
    for lo, hi in sorted((lo, hi) for lo, hi in out if hi >= lo):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    if len(merged) > 1 and merged[0][0] <= 0.0 and merged[-1][1] >= 1.0:
        merged[0][0] = merged[-1][0] - 1.0
        merged.pop()
        merged.sort()
    return tuple((float(lo), float(hi)) for lo, hi in merged)


def torus_member(intervals, x: float) -> bool:
    """Whether the torus point x lies in a union of closed intervals, by the
    definition in exact rationals: x + k is in some [lo, hi] for an integer k."""
    fx = Fraction(x) % 1
    return any(Fraction(lo) <= fx + k <= Fraction(hi) for lo, hi in intervals for k in (-1, 0, 1))


def pairwise_intersect(a, b) -> tuple[tuple[float, float], ...]:
    """Intersection of two normal-form interval tuples: every pair of
    pieces, with b shifted by -1, 0 and +1, in O(len(a) * len(b))."""
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            for shift in (-1.0, 0.0, 1.0):
                lo = max(lo1, lo2 + shift)
                hi = min(hi1, hi2 + shift)
                if hi > lo:
                    out.append((lo, hi))
    return wrapped_intervals(out)


def gap_complement(a) -> tuple[tuple[float, float], ...]:
    """Complement of a normal-form interval tuple: the gaps between
    consecutive pieces and the gap across the seam."""
    if not a:
        return wrapped_intervals([(0.0, 1.0)])
    gaps = [(hi1, lo2) for (_, hi1), (lo2, _) in zip(a, a[1:]) if lo2 > hi1]
    first_lo = a[0][0] % 1.0
    last_hi = a[-1][1]
    gap_end = first_lo if first_lo > last_hi else first_lo + 1.0
    if gap_end > last_hi:
        gaps.append((last_hi, gap_end))
    return wrapped_intervals(gaps)


def dense_nearest(x: float, fractions) -> tuple[float, object]:
    """Nearest of `fractions` to the torus point x over the full distance
    row; ties go to the smaller denominator, then the smaller numerator."""
    values = np.array([fr.numerator / fr.denominator for fr in fractions])
    d = x - values
    d = np.abs(d - np.ceil(d - 0.5))
    best = d.min()
    tied = [fr for fr, di in zip(fractions, d) if di == best]
    return float(best), min(tied, key=lambda fr: (fr.denominator, fr.numerator))
