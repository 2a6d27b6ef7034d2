"""Seed splitting and worker-pool plumbing shared across the package."""

from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Child generator for task `key` under the global `seed`.

    Splitting rule: ``SeedSequence(entropy=seed, spawn_key=key)``.  The
    stream depends only on (seed, key), never on scheduling order, so
    parallel scans reproduce serial runs bit for bit.  A seed that is not
    a non-negative integer raises ValueError.
    """
    try:
        valid = operator.index(seed) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


def resolve_threads(requested: int | None = None) -> int:
    """Worker count: CIRCLE_LAB_THREADS env var wins, then `requested`,
    then the CPUs this process may run on (its affinity set, where the
    platform reports one).  A count that is not an integer >= 1 raises
    ValueError naming where it came from."""
    env = os.environ.get("CIRCLE_LAB_THREADS")
    if not env and requested is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    name, value = ("CIRCLE_LAB_THREADS", env) if env else ("threads", requested)
    try:
        count = int(value) if env else operator.index(value)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return count


def parallel_map(fn: Callable[[T], R], items: Iterable[T], threads: int | None = None) -> list[R]:
    """Map preserving input order; results are merged by position, not by
    completion, so thread count cannot change any output."""
    work: Sequence[T] = list(items)
    n = resolve_threads(threads)
    if n <= 1 or len(work) <= 1:
        return [fn(x) for x in work]
    with ThreadPoolExecutor(max_workers=min(n, len(work))) as pool:
        return list(pool.map(fn, work))
