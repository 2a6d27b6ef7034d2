"""Integer polynomials and polynomial averaging operators on Z/QZ.

Averages of the form  A_N f(x) = mean over n = 1..N of f(x - P(n) mod Q)
are cyclic convolutions with an integer-orbit kernel.  Residues are exact
integer arithmetic, linear averages are FFT convolutions whose invariant
part is added back exactly, and every operator is a pure function of its
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._util import MAX_MODULUS, MAX_SCALE, integer, pnorm


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, constant term first."""

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]):
        coeffs = [integer(c, "coefficient") for c in coefficients]
        if not coeffs:
            coeffs = [0]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        """Parse a comma-separated coefficient list, constant term first
        ("0,0,1" is n^2)."""
        return cls(int(part) for part in text.split(","))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, n: int) -> int:
        """Exact evaluation by nested multiplication; Python integers never
        overflow."""
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc

    def abs_bound(self, n_max: int) -> int:
        """Sum of |c_k| * n_max^k, an upper bound for |P(n)| on [1, n_max]."""
        return sum(abs(c) * n_max**k for k, c in enumerate(self.coefficients))

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0 and self.coefficients != (0,):
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*n" if c != 1 else "n")
            else:
                terms.append(f"{c}*n^{k}" if c != 1 else f"n^{k}")
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class Signal:
    """Complex-valued function on Z/QZ, indexed by residues 0..Q-1."""

    modulus: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modulus", integer(self.modulus, "modulus", 1))
        vals = np.asarray(self.values, dtype=np.complex128).copy()
        if vals.shape != (self.modulus,):
            raise ValueError(
                f"signal needs exactly {self.modulus} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
            raise ValueError("signal entries must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _view(cls, values: np.ndarray) -> "Signal":
        """Signal over a read-only row already checked, without the checks
        or the copy."""
        sig = object.__new__(cls)
        sig.__dict__.update(modulus=values.size, values=values)
        return sig

    @classmethod
    def delta(cls, modulus: int, at: int = 0, weight: complex = 1.0) -> "Signal":
        q = integer(modulus, "modulus", 1, MAX_MODULUS)  # before the values are allocated
        vals = np.zeros(q, dtype=np.complex128)
        vals[integer(at, "at") % q] = weight
        return cls(q, vals)

    def __add__(self, other: "Signal") -> "Signal":
        self._check_modulus(other)
        return Signal(self.modulus, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        self._check_modulus(other)
        return Signal(self.modulus, self.values - other.values)

    def _check_modulus(self, other: "Signal") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def norm(self, p: float = 2) -> float:
        """Counting-measure norm on Z/QZ; p may be math.inf."""
        return float(pnorm(self.values, p))

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Signal":
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        return cls(data["modulus"], re + 1j * im)

    @classmethod
    def from_csv(cls, src: IO[str]) -> "Signal":
        """Read `index,re,im` rows; the indices must read 0, 1, ..., Q-1 in
        row order."""
        rows = []
        for line in src:
            line = line.strip()
            if not line or line.startswith("index"):
                continue
            idx, re, im = line.split(",")
            if int(idx) != len(rows):
                raise ValueError(f"CSV row {len(rows)} has index {idx}; expected {len(rows)}")
            rows.append(complex(float(re), float(im)))
        return cls(len(rows), np.asarray(rows))


# ---------------------------------------------------------------------------
# Fourier helpers.  Spectrum convention: hat f(j) = sum_x f(x) e(+ j x / Q),
# so grid index j carries the torus frequency j / Q and a convolution kernel
# K acts as multiplication by hat K(j).
# ---------------------------------------------------------------------------


def spectrum(f: Signal) -> np.ndarray:
    return f.modulus * np.fft.ifft(f.values)


def signal_from_spectrum(modulus: int, coeffs: np.ndarray) -> Signal:
    return Signal(modulus, np.fft.fft(np.asarray(coeffs, dtype=np.complex128)) / modulus)


# ---------------------------------------------------------------------------
# Kernels and averages
# ---------------------------------------------------------------------------


def _residues(poly: IntPolynomial, n_max: int, modulus: int, start: int = 0) -> np.ndarray:
    """P(n) mod Q for n = start+1..n_max: the library's one integer Horner
    loop.

    With n reduced mod Q first, every intermediate stays below
    Q*(min(n_max, Q-1)+1); the loop runs in int64 while that is below 2^62
    and in exact Python integers otherwise.  Returns int64 when Q <= 2^63.
    """
    ns = np.arange(start + 1, n_max + 1, dtype=np.int64)
    if modulus * (min(n_max, modulus - 1) + 1) >= 2**62:
        ns = ns.astype(object)
    ns %= modulus
    acc = np.full(ns.size, poly.coefficients[-1] % modulus, dtype=ns.dtype)
    for c in reversed(poly.coefficients[:-1]):
        acc = (acc * ns + c % modulus) % modulus
    return acc.astype(np.int64, copy=False) if modulus <= 2**63 else acc


def kernel(poly: IntPolynomial, n_range: int, modulus: int) -> Signal:
    """Averaging kernel on Z/QZ: K(x) = #{n in [N] : P(n) = x mod Q} / N."""
    n, q = integer(n_range, "N", 1, MAX_SCALE), integer(modulus, "modulus", 1, MAX_MODULUS)
    counts = np.bincount(_residues(poly, n, q), minlength=q)
    return Signal(q, counts.astype(np.complex128) / n)


def _averages(
    poly: IntPolynomial, f: Signal, ns: Iterable[int], start: int = 0
) -> Iterator[np.ndarray]:
    """Values of the mean of f(x - P(n)) over n in (start, N] for each N in
    ns: the one averaging path, with one residue table and one FFT
    convolution per N.

    Every shift of a window is a multiple of d = gcd(Q, shifts), so the
    average fixes the period-d signals.  The anchor tile(f[:d]) is added
    back exactly and only f minus it goes through the FFT, so a signal that
    every shift fixes comes back bit for bit.
    """
    q = f.modulus
    ns = [integer(n, "N", 1, MAX_SCALE) for n in ns]
    residues = _residues(poly, max(ns, default=start), q)
    anchor_d = 0
    for n in ns:
        window = residues[start:n]
        d = int(np.gcd.reduce(window, initial=q))
        if d != anchor_d:  # reuse the spectrum of f - anchor while d holds
            anchor = np.tile(f.values[:d], q // d)
            rest = np.fft.ifft(f.values - anchor)
            anchor_d = d
        kern = np.fft.ifft(np.bincount(window, minlength=q) / (n - start))
        yield np.fft.fft(kern * rest) * q + anchor


def average_linear(
    poly: IntPolynomial,
    n_range: int,
    f: Signal,
) -> Signal:
    """A_N f(x) = mean of f(x - P(n)) over n = 1..N, a cyclic convolution."""
    return Signal(f.modulus, next(_averages(poly, f, [n_range])))


def average_bilinear(
    poly: IntPolynomial,
    n_range: int,
    f1: Signal,
    f2: Signal,
) -> Signal:
    """Mean over n = 1..N of f1(x - n) * f2(x - P(n)) on a shared Z/QZ."""
    f1._check_modulus(f2)
    n = integer(n_range, "N", 1, MAX_SCALE)
    q = f1.modulus
    residues = _residues(poly, n, q)
    out = np.zeros(q, dtype=np.complex128)
    for i in range(n):
        out += np.roll(f1.values, (i + 1) % q) * np.roll(f2.values, int(residues[i]))
    return Signal(q, out / n)


def maximal_function(
    poly: IntPolynomial,
    f: Signal,
    n_ranges: Sequence[int],
) -> Signal:
    """Pointwise sup of |A_N f| over the given N values."""
    if not n_ranges:
        raise ValueError("maximal function needs at least one N")
    best = np.zeros(f.modulus)
    for avg in _averages(poly, f, n_ranges):
        best = np.maximum(best, np.abs(avg))
    return Signal(f.modulus, best.astype(np.complex128))


class RieszSplit(NamedTuple):
    invariant: Signal
    complement: Signal


def riesz_split(f: Signal, shift: int) -> RieszSplit:
    """Split f into its part invariant under x -> x - shift plus the rest.

    The invariant part averages f over each orbit of the shift, so the two
    parts are orthogonal and sum back to f.
    """
    q = f.modulus
    g = math.gcd(integer(shift, "shift") % q, q)
    # orbit of x under repeated shifts is the congruence class x mod g
    table = f.values.reshape(q // g, g).mean(axis=0)
    invariant = Signal(q, np.tile(table, q // g))
    return RieszSplit(invariant, f - invariant)
