"""Independent reference computations for the benchmark's output checks.

Nothing here calls circle_lab: these are literal sums, exhaustive
enumerations, exact rational arithmetic, closed forms and the README's
stated bounds, written separately from the library's algorithms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

TWO_PI_I = 2j * math.pi


def totients(n: int) -> np.ndarray:
    """phi(0..n) by sieve."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] -= phi[p::p] // p
    return phi


def farey_count(n: int) -> int:
    """Reduced fractions in [0, 1) with denominator <= n: 1 + sum phi(2..n)."""
    return 1 + int(totients(n)[2:].sum())


def horner(coeffs, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def residues(coeffs, n_max: int, q: int) -> np.ndarray:
    """P(n) mod q for n = 1..n_max (coefficients and q small enough for int64)."""
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    acc = np.zeros(n_max, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * ns + c) % q
    return acc


def real_weyl_exact(coeffs, xi: float, n: int) -> complex:
    """m_N(xi) with every phase xi * P(k) reduced mod 1 in exact rationals."""
    fx = Fraction(xi)
    num, den = fx.numerator, fx.denominator
    fracs = np.array([(horner(coeffs, k) * num % den) / den for k in range(1, n + 1)])
    return complex(np.exp(TWO_PI_I * fracs).mean())


def rational_weyl(coeffs, a: int, q: int, n: int) -> complex:
    """m_N(a/q) summed term by term over k = 1..N with integer phases."""
    r = (residues(coeffs, n, q) * a) % q
    return complex(np.exp(TWO_PI_I * r / q).mean())


def simpson_mm(coeffs, n: int, xi: float, intervals: int = 1 << 17) -> complex:
    """Composite Simpson rule for the integral of e(xi * P(N t)) over [0, 1]."""
    t = np.linspace(0.0, 1.0, intervals + 1)
    phase = np.zeros_like(t)
    for k in range(len(coeffs) - 1, -1, -1):
        phase = phase * (n * t) + coeffs[k]
    vals = np.exp(TWO_PI_I * ((xi * phase) % 1.0))
    w = np.ones(intervals + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return complex((w * vals).sum() / (3.0 * intervals))


def fresnel_mm_square(n: int, xi: float) -> complex:
    """The integral of e(a t^2) over [0, 1], a = xi N^2, from its large-a
    expansion: e(1/8)/(2 sqrt(2a)) + e(a)/(2 i beta) + e(a)/(2 i beta)^2
    with beta = 2 pi a; the omitted terms are O(a^-3)."""
    a_exact = Fraction(xi) * n * n
    a = float(a_exact)
    beta = 2.0 * math.pi * a
    e_a = complex(np.exp(TWO_PI_I * float(a_exact % 1)))
    lead = complex(np.exp(TWO_PI_I / 8.0)) / (2.0 * math.sqrt(2.0 * a))
    return lead + e_a / (2j * beta) + e_a / (2j * beta) ** 2


def literal_average(coeffs, n: int, f: np.ndarray, xs, start: int = 0) -> np.ndarray:
    """mean over k in (start, n] of f(x - P(k) mod Q), at the points xs."""
    q = f.size
    r = residues(coeffs, n, q)[start:]
    idx = (np.asarray(xs)[:, None] - r[None, :]) % q
    return f[idx].mean(axis=1)


def literal_bilinear(coeffs, n: int, f1: np.ndarray, f2: np.ndarray, xs) -> np.ndarray:
    """mean over k = 1..N of f1(x - k) f2(x - P(k)), at the points xs."""
    q = f1.size
    ks = np.arange(1, n + 1)
    r = residues(coeffs, n, q)
    x = np.asarray(xs)[:, None]
    return (f1[(x - ks[None, :]) % q] * f2[(x - r[None, :]) % q]).mean(axis=1)


def eta(x: float) -> float:
    """The cutoff as the README defines it, one point at a time."""
    ax = abs(x)
    if ax <= 0.25:
        return 1.0
    if ax >= 0.5:
        return 0.0
    expo = 1.0 / (0.5 - ax) - 1.0 / (ax - 0.25)
    return 0.0 if expo > 700 else 1.0 / (1.0 + math.exp(expo))


def farey(n: int) -> list[tuple[int, int]]:
    """Reduced a/q in [0, 1) with q <= n, unsorted."""
    return [(0, 1)] + [(a, q) for q in range(2, n + 1) for a in range(1, q) if math.gcd(a, q) == 1]


def wrap(x: float) -> float:
    return x - math.ceil(x - 0.5)


def projection_symbol_at(q: int, n1: int, n2: float, js) -> np.ndarray:
    """sum over a/b with b <= n1 of eta(wrap(j/Q - a/b) / n2), term by term."""
    centers = farey(n1)
    return np.array([sum(eta(wrap(j / q - a / b) / n2) for a, b in centers) for j in js])


def torus_dist(xs: np.ndarray, centers: list[tuple[int, int]]) -> np.ndarray:
    c = np.array([a / b for a, b in centers])
    d = np.abs(xs[:, None] - c[None, :]) % 1.0
    return np.minimum(d, 1.0 - d).min(axis=1)


@lru_cache(maxsize=16)
def _subsequence_pairs(n: int):
    lo, hi, starts, sizes = [], [], [], []
    for size in range(2, n + 1):
        for idx in itertools.combinations(range(n), size):
            starts.append(len(lo))
            sizes.append(size)
            lo.extend(idx[:-1])
            hi.extend(idx[1:])
    return np.array(lo), np.array(hi), np.array(starts), np.array(sizes)


def brute_variation(vals: np.ndarray, r: float) -> float:
    """r-variation by enumerating every increasing subsequence."""
    lo, hi, starts, _ = _subsequence_pairs(vals.size)
    d = np.abs(vals[hi] - vals[lo])
    if r == math.inf:
        return float(d.max())
    top = float(np.add.reduceat(d**r, starts).max())
    return top ** (1.0 / r)


def brute_jumps(vals: np.ndarray, lam: float) -> int:
    """lambda-jump count by enumerating every increasing subsequence."""
    lo, hi, starts, sizes = _subsequence_pairs(vals.size)
    ok = np.minimum.reduceat(np.abs(vals[hi] - vals[lo]), starts) >= lam
    return int((sizes[ok] - 1).max()) if ok.any() else 0


def chain_variation(vals: np.ndarray, r: float) -> float:
    """r-variation by the textbook O(T^2) recursion over chain endpoints."""
    if r == math.inf:
        return float(np.abs(vals[None, :] - vals[:, None]).max())
    best = np.zeros(vals.size)
    for i in range(1, vals.size):
        best[i] = (best[:i] + np.abs(vals[i] - vals[:i]) ** r).max()
    return float(best.max() ** (1.0 / r))


def chain_jumps(vals: np.ndarray, lam: float) -> int:
    """lambda-jump count by the O(T^2) recursion over chain endpoints."""
    best = np.zeros(vals.size, dtype=int)
    for i in range(1, vals.size):
        ok = np.abs(vals[i] - vals[:i]) >= lam
        best[i] = best[:i][ok].max() + 1 if ok.any() else 0
    return int(best.max())


def witness_variation(labels, vals, witness, r: float) -> float:
    """The variation sum along a reported witness subsequence."""
    pos = {int(t): i for i, t in enumerate(labels)}
    pts = np.array([vals[pos[int(t)]] for t in witness])
    d = np.abs(np.diff(pts))
    if r == math.inf:
        return float(d.max()) if d.size else 0.0
    return float((d**r).sum() ** (1.0 / r))


def block_oscillation(labels, vals, anchors, r: float) -> float:
    pos = {int(t): i for i, t in enumerate(labels)}
    total = 0.0
    for t0, t1 in zip(anchors, anchors[1:]):
        p0, p1 = pos[t0], pos[t1]
        total += float(np.abs(vals[p0:p1] - vals[p0]).max()) ** r
    return total ** (1.0 / r)


def lacunary_labels(tau: float, bound: int) -> list[int]:
    out, k = set(), 0
    while math.floor(tau**k) <= bound:
        out.add(math.floor(tau**k))
        k += 1
    return sorted(out)


def star_discrepancy(points: np.ndarray) -> float:
    xs = np.sort(points)
    n = xs.size
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - xs, xs - (i - 1) / n).max())


def orbit_points(coeffs, theta: float, n: int) -> np.ndarray:
    """{P(k) theta} for k = 1..N, exact in the binary value of theta."""
    ft = Fraction(theta)
    num, den = ft.numerator, ft.denominator
    return np.array([(horner(coeffs, k) * num % den) / den for k in range(1, n + 1)])


def martingale_ratios(seed: int, depth: int, trials: int, p_exp: float, r: float) -> np.ndarray:
    """Lepingle ratios recomputed at full resolution; generators follow the
    README's documented stream rule SeedSequence(entropy=seed, spawn_key=(t,))."""
    out = np.empty(trials)
    for t in range(trials):
        g = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,))).standard_normal(2**depth)
        levels = [g]
        while levels[-1].size > 1:
            levels.append((levels[-1][0::2] + levels[-1][1::2]) / 2)
        full = [np.repeat(lv, g.size // lv.size) for lv in reversed(levels)]  # level 0 .. depth
        best = [np.zeros(g.size)]
        for i in range(1, depth + 1):
            best.append(np.max([best[j] + np.abs(full[i] - full[j]) ** r for j in range(i)], axis=0))
        vr = np.max(best, axis=0) ** (1 / r)
        num = (np.abs(vr) ** p_exp).mean() ** (1 / p_exp)
        den = max((np.abs(lv) ** p_exp).mean() ** (1 / p_exp) for lv in full)
        out[t] = num / den
    return out
