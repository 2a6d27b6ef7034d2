"""Operation bookkeeping for one benchmark pass.

A pass is a list of named operations.  Each operation makes one or more
calls into circle_lab through `Pass.call`, then checks what came back.  An
operation fails when a call raises or a check does not hold; the failure is
recorded and the pass moves on to the next operation.

With tracing on, every call gets a span (name, layer, start, end, parent,
run id) kept in memory; `Pass.spans` is written out by the caller when the
pass ends.  The layer of a call is the circle_lab module that owns the
called function or class, so layers follow the package's own modules.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class CheckFailed(Exception):
    """An output disagreed with its oracle or a documented bound."""


def layer_of(obj) -> str:
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith("circle_lab"):
        raise ValueError(f"{obj!r} is not part of circle_lab")
    return module.rsplit(".", 1)[-1]


def perturb(value):
    """A deliberately wrong copy of a library result (quick-mode self check)."""
    from circle_lab import SeminormReport

    if isinstance(value, SeminormReport):
        return dataclasses.replace(value, value=value.value + 0.5)
    if isinstance(value, (np.ndarray, float, complex)):
        return value + 0.5
    raise TypeError(f"no perturbation for {type(value).__name__}")


class Pass:
    """State of one workload pass: seed streams, outcomes, spans, counts."""

    def __init__(self, seed: int, trace: bool, threads: int, corrupt: str | None = None):
        self.seed = seed
        self.trace = trace
        self.threads = threads
        self.corrupt = corrupt
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.outcomes: list[tuple[str, str | None]] = []
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.stat_s: defaultdict = defaultdict(float)
        self._op: str | None = None
        self._corrupted = False
        self._pass_span = 0

    def rng(self, *key: int) -> np.random.Generator:
        """Input stream for `key`, derived only from the workload seed."""
        return np.random.default_rng([self.seed, *key])

    def lib_seed(self, *key: int) -> int:
        """A seed handed to a circle_lab routine, derived from the workload seed."""
        return int(self.rng(9, *key).integers(1 << 31))

    @contextmanager
    def op(self, name: str):
        self._op = name
        try:
            yield
        except CheckFailed as exc:
            self.outcomes.append((name, f"check: {exc}"))
        except Exception as exc:  # a failed op is counted, never fatal
            tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.outcomes.append((name, f"raised: {tb}"))
        else:
            self.outcomes.append((name, None))
        finally:
            self._op = None

    def call(self, stat: str | None, fn, *args, owner=None, **kwargs):
        """Call `fn` (a circle_lab function, class or bound method) and,
        unless `stat` is None, also attribute the time to `<layer>.<stat>_s`.
        `owner` names the class when `fn` is a lambda around a property."""
        layer = layer_of(owner if owner is not None else fn)
        if not self.trace:
            out = fn(*args, **kwargs)
        else:
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.spans.append(
                    {
                        "name": f"{layer}.{stat}",
                        "layer": layer,
                        "op": self._op,
                        "start": start,
                        "end": end,
                        "parent": self._pass_span,
                        "run": self.run_id,
                    }
                )
                if stat is not None:
                    self.stat_s[f"{layer}.{stat}_s"] += end - start
        if self.corrupt is not None and self._op == self.corrupt and not self._corrupted:
            self._corrupted = True
            out = perturb(out)
        return out

    def count(self, key: str, amount: float) -> None:
        """A work count at a call boundary (only kept when tracing)."""
        if self.trace:
            self.counts[key] += amount

    @staticmethod
    def check(ok, message: str) -> None:
        if not ok:
            raise CheckFailed(message)

    @staticmethod
    def close(got, want, tol: float, what: str) -> None:
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        if not err <= tol:
            raise CheckFailed(f"{what}: error {err:.3e} > {tol:.1e}")

    def layer_totals(self) -> dict[str, float]:
        """Per-layer call counts and busy time from the recorded spans."""
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[f"{sp['layer']}.calls"] += 1
            out[f"{sp['layer']}.busy_s"] += sp["end"] - sp["start"]
        return dict(out)
