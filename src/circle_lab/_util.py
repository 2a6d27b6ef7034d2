"""The integer and real-number checks, seed splitting, worker-pool plumbing
and the scaled p-norm shared across the package."""

from __future__ import annotations

import math
import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

MAX_SCALE = 1 << 24  # the largest N of a path whose work or memory grows with N
MAX_MODULUS = 1 << 24  # the largest Q of a kernel, symbol, property report, delta or CLI signal
MAX_SERIES = 1 << 26  # the largest T * Q of an average series: T scales N on Z/QZ


def integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """`value` as a Python int: the library's one integer check.  It takes
    what `operator.index` takes (a Python or numpy integer, not a float or a
    string); anything else, or a value below `low` or above `high`, raises
    ValueError naming `name`."""
    try:
        out = operator.index(value)
    except TypeError:
        out = None
    if out is None or low is not None and out < low or high is not None and out > high:
        kind = {None: "an integer", 0: "a non-negative integer"}.get(low, f"an integer >= {low}")
        if high is not None:
            kind = f"an integer <= {high}" if low is None else f"an integer in [{low}, {high}]"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return out


@lru_cache(maxsize=64)
def _interval(text: str) -> tuple[float, float, bool, bool]:
    """The ends of an interval written like "(0, inf]", and whether each is in it."""
    lo, hi = map(float, text[1:-1].split(","))
    return lo, hi, text[0] == "[", text[-1] == "]"


def real(value, name: str, interval: str):
    """`value`, unchanged: the library's one check of a real parameter.  It
    takes a Python or numpy real number (not a string, a complex or None)
    in `interval`, written like "(0, inf)" or "[1, inf]", whose ends decide
    whether +-inf passes; NaN never does.  Anything else raises ValueError
    naming `name`."""
    lo, hi, lo_in, hi_in = _interval(interval)
    if not isinstance(value, numbers.Real) or not (
        lo < value < hi or value == lo and lo_in or value == hi and hi_in
    ):
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")
    return value


def scales(values) -> list[int]:
    """The distinct scales N of `values`, each an integer in [1, MAX_SCALE],
    sorted; at least one."""
    out = sorted({integer(n, "N", 1, MAX_SCALE) for n in values})
    if not out:
        raise ValueError("need at least one N")
    return out


def substream(seed: int, *key: int) -> np.random.Generator:
    """Child generator for task `key` under the global `seed`.

    Splitting rule: ``SeedSequence(entropy=seed, spawn_key=key)``.  The
    stream depends only on (seed, key), never on scheduling order, so
    parallel scans reproduce serial runs bit for bit.  A seed that is not
    a non-negative integer raises ValueError.
    """
    ss = np.random.SeedSequence(entropy=integer(seed, "seed", 0), spawn_key=tuple(key))
    return np.random.default_rng(ss)


def resolve_threads(requested: int | None = None) -> int:
    """Worker count: `requested`, else the CPUs this process may run on
    (its affinity set, where the platform reports one).  A requested count
    that is not an integer >= 1 raises ValueError naming `threads`."""
    if requested is not None:
        return integer(requested, "threads", 1)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], items: Iterable[T], threads: int | None = None) -> list[R]:
    """Map preserving input order; results are merged by position, not by
    completion, so thread count cannot change any output."""
    work: Sequence[T] = list(items)
    n = resolve_threads(threads)
    if n <= 1 or len(work) <= 1:
        return [fn(x) for x in work]
    with ThreadPoolExecutor(max_workers=min(n, len(work))) as pool:
        return list(pool.map(fn, work))


def range_units(top, p: float, count: int, slack: float = 0.0):
    """Units u, one per entry of top, in which count p-th powers of values
    up to 2^slack top sum to a finite float and the largest, of at least
    top, is >= 2^-969 (smaller ones lost to underflow do not matter): u = 1
    where top is in that range, so ordinary inputs keep their bits, else
    2^k with 2^(k-1) <= top < 2^k, or past p = 969, where no power of two
    keeps the largest power normal, top itself.  None if all u are 1."""
    top = np.asarray(top, dtype=float)  # a float32 top cannot hold hi
    lo, hi = 2.0 ** (-969 / p), 2.0 ** min((1023 - math.log2(count)) / p - slack, 1023)
    out = (top > hi) | (top < lo) & (top > 0)
    if not out.any():
        return None
    unit = top if p > 969 else np.ldexp(1.0, np.minimum(np.frexp(top)[1], 1023))
    return np.where(out & np.isfinite(top), unit, 1.0)


def pnorm(x, p: float, axis: int | None = None, mean: bool = False):
    """(sum |x|^p)^(1/p) along axis, with the mean in place of the sum when
    mean is set, counted in `range_units` of max |x|; p = inf gives max |x|."""
    real(p, "norm exponent p", "(0, inf]")
    mags = np.abs(x)
    if p == math.inf:
        return mags.max(axis=axis)
    top = mags.max(axis=axis, keepdims=True)
    unit = range_units(top, p, mags.size // top.size)
    powers = (mags if unit is None else mags / unit) ** p
    total = (powers.mean(axis=axis) if mean else powers.sum(axis=axis)) ** (1.0 / p)
    return total if unit is None else total * np.squeeze(unit, axis)
