"""Command-line front end.

Every subcommand resolves its parameters into a RunConfig, runs one library
call, and emits a JSON report (or, with --format csv, the table it built).
Reports embed the resolved config and a schema tag; reruns with the same
arguments are byte-identical, whatever CPU affinity set (the worker count of
weyl-scan, lepingle and ergodic) they run on.

Each subcommand is declared once, by the `command` decorator on its
handler: name, help line and flags.  The parser is built from that registry
on first use and reused for the life of the process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import (
    ArcSystem,
    DyadicScale,
    FiniteSystem,
    IntPolynomial,
    PipelineConfig,
    RealSequence,
    ReducedFraction,
    Signal,
    arc_split,
    average_series,
    canonical_fractions,
    complete_sum,
    continuous_multiplier,
    convergence_diagnostic,
    discrepancy,
    dyadic_arcs,
    jump_count,
    kernel_l1_bound,
    lacunary,
    lemma1_grid_sweep,
    lemma1_residual,
    lepingle_stat,
    lp_norm_probe,
    oscillation,
    project,
    projection_op,
    projection_property_report,
    projection_symbol,
    variation,
    weyl_decay_scan,
)
from ._util import MAX_MODULUS, integer, substream
from .arcs import FAREY_MAX_DENOMINATOR
from .ergodic_lab import _check_series, _diagnostic_tail

SCHEMA = "circle-lab/1"


@dataclass
class RunConfig:
    """Resolved invocation: subcommand, validated parameters, and the
    output settings that no report echoes (format and path)."""

    subcommand: str
    params: dict
    out_format: str = "json"
    out_path: str = "-"


def _write(text, path: str) -> None:
    """Write text, a str or an iterable of str pieces, to path; on stdout (path -) a str
    gets a final newline if it lacks one."""
    with open(path, "w") if path != "-" else contextlib.nullcontext(sys.stdout) as out:
        out.writelines([text] if isinstance(text, str) else text)
        if path == "-" and isinstance(text, str) and not text.endswith("\n"):
            out.write("\n")


def _strict(obj):
    """obj with every infinite float replaced by "inf" or "-inf", so that
    reports are strict JSON."""
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _emit(config: RunConfig, result: dict | None, csv_text=None) -> None:
    if config.out_format == "csv":
        if csv_text is None:
            raise ValueError(f"--format csv: this {config.subcommand} run builds no table")
        _write(csv_text, config.out_path)
        return
    envelope = {
        "schema": SCHEMA,
        "command": config.subcommand,
        "config": config.params,
        "result": result,
    }
    # a NaN left in a report is a quiet wrong answer: refuse it (exit 2)
    text = json.dumps(_strict(envelope), indent=2, sort_keys=True, allow_nan=False)
    _write(text, config.out_path)


def _fraction(text: str) -> ReducedFraction:
    a, q = text.split("/")
    return ReducedFraction.reduce(int(a), int(q))


def _theta(text: str) -> float:
    named = {"sqrt2": math.sqrt(2.0), "golden": (1.0 + math.sqrt(5.0)) / 2.0}
    return named[text] if text in named else float(text)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _read_signal(path: str | None, modulus: int, seed: int | None) -> Signal:
    if path:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
        if text.lstrip().startswith("{"):
            return Signal.from_dict(json.loads(text))
        return Signal.from_csv(io.StringIO(text))
    q = integer(modulus, "modulus", 1, MAX_MODULUS)  # before the signal is allocated
    if seed is None:
        return Signal.delta(q)
    rng = substream(seed)
    return Signal(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))


def _read_sequence(path: str) -> tuple[np.ndarray, np.ndarray]:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    labels, vals = [], []
    for row, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("label"):
            continue
        parts = line.split(",")
        try:
            labels.append(int(parts[0]))
            vals.append(complex(float(parts[1]), float(parts[2]) if len(parts) > 2 else 0.0))
        except (IndexError, ValueError):
            raise ValueError(f"sequence row {row} ({line!r}) needs label,re[,im] numbers") from None
    return np.array(labels), np.array(vals)


def _scale_pair(cfg: RunConfig) -> tuple[bool, DyadicScale | tuple]:
    """(True, DyadicScale(l, m)) from --dyadic l,m, checked before any power
    is taken, else (False, (n1, n2)) from --n1 and --n2."""
    p = cfg.params
    if p.get("dyadic"):
        if len(p["dyadic"]) != 2:
            raise ValueError(f"--dyadic l,m needs exactly two integers, got {p['dyadic']}")
        return True, DyadicScale(*p["dyadic"])
    if p.get("n1") is None or p.get("n2") is None:
        raise ValueError(f"{cfg.subcommand} needs either --n1 and --n2 or --dyadic l,m")
    return False, (p["n1"], p["n2"])


def _powers_of_two(p: dict) -> list[int]:
    """The N = 2^k with --nmin <= N <= --nmax."""
    lo, hi = p["nmin"], p["nmax"]
    ks = range((lo - 1).bit_length(), hi.bit_length())
    if not (1 <= lo <= hi and ks):
        raise ValueError(f"need 1 <= --nmin <= --nmax around a power of two, got --nmin {lo} --nmax {hi}")
    return [2**k for k in ks]


# ---------------------------------------------------------------------------
# Command registry: each subcommand's name, help line, flags and handler
# ---------------------------------------------------------------------------

# name -> (help line, flags, handler), in the parser's order
_COMMANDS: dict[str, tuple] = {}


def _arg(*names: str, **kw) -> tuple:
    return names, kw


# every subcommand takes this, after its own flags
_OUT = _arg("--out", default="-", help="output path, - for stdout")
# only the subcommands that build a table take this
_FORMAT = _arg("--format", choices=("json", "csv"), default="json")
# resolved by _scale_pair
_SCALES = (
    _arg("--n1", type=float),
    _arg("--n2", type=float),
    _arg("--dyadic", type=_int_list, help="l,m"),
)


def _command(name: str, help: str, *flags: tuple):
    """Register the decorated handler as subcommand `name`, whose own flags
    are `flags` (each an `_arg(...)`)."""

    def register(handler):
        _COMMANDS[name] = (help, flags, handler)
        return handler

    return register


@_command("fractions", "canonical fractions up to a denominator bound",
          _arg("--n1", type=float, required=True),
          _FORMAT)
def _cmd_fractions(cfg: RunConfig) -> None:
    fracs = canonical_fractions(cfg.params["n1"])
    arrays = (fracs.numerators, fracs.denominators, fracs.values)
    if cfg.out_format == "csv":  # in pieces of 2^16 rows, each made as it is written
        rows = (zip(*(c[i : i + 65536].tolist() for c in arrays)) for i in range(0, len(fracs), 65536))
        _emit(cfg, None, ("num,den,value\n" * (k == 0) + "".join(f"{a},{q},{v!r}\n" for a, q, v in piece)
                          for k, piece in enumerate(rows)))
        return
    rows = [{"num": a, "den": q, "value": v} for a, q, v in zip(*(a.tolist() for a in arrays))]
    _emit(cfg, {"count": len(rows), "fractions": rows})


@_command("arcs", "arc system geometry", *_SCALES)
def _cmd_arcs(cfg: RunConfig) -> None:
    dyadic, scale = _scale_pair(cfg)
    if dyadic:
        bundle = dyadic_arcs(scale)
        system = bundle.system
        extra = {
            "shell_intervals": [list(iv) for iv in bundle.shell.intervals],
            "shell_refined_intervals": [list(iv) for iv in bundle.shell_refined.intervals],
        }
    else:
        system = ArcSystem(*scale)
        extra = {}
    c = system.centers
    result = {
        "centers": list(map("{}/{}".format, c.numerators.tolist(), c.denominators.tolist())),
        "halfwidth": system.halfwidth,
        "disjoint": system.is_disjoint,
        "coverage": system.coverage,
        **extra,
    }
    _emit(cfg, result)


@_command("weyl-scan", "minor-arc decay scan of |m_N|",
          _arg("--poly", required=True),
          _arg("--nmin", type=int, default=64),
          _arg("--nmax", type=int, default=4096),
          _arg("--ns", type=_int_list, help="explicit N list"),
          _arg("--eps", type=float, default=0.125),
          _arg("--bigc", type=float, default=1.0),
          _arg("--samples", type=int, default=2000),
          _arg("--seed", type=int, default=7),
          _arg("--fixed-halfwidth", type=float),
          _FORMAT)
def _cmd_weyl_scan(cfg: RunConfig) -> None:
    p = cfg.params
    poly = IntPolynomial.parse(p["poly"])
    ns = p.get("ns") or _powers_of_two(p)
    report = weyl_decay_scan(
        poly,
        ns,
        p["eps"],
        p["bigc"],
        p["samples"],
        p["seed"],
        halfwidth=p.get("fixed_halfwidth"),
    )
    csv_text = "n,sup_abs\n" + "".join(f"{n},{s!r}\n" for n, s in report.points)
    _emit(cfg, report.to_dict(), csv_text)


@_command("gauss", "complete rational sums",
          _arg("--poly", required=True),
          _arg("--den", type=int, required=True),
          _arg("--num", type=int))
def _cmd_gauss(cfg: RunConfig) -> None:
    p = cfg.params
    poly = IntPolynomial.parse(p["poly"])
    one = p.get("num") is not None
    # each G(a/q) costs O(q), so a table of every numerator stops at the Farey bound
    q = integer(p["den"], "--den", 1, MAX_MODULUS if one else FAREY_MAX_DENOMINATOR)
    nums = [p["num"]] if one else [a for a in range(q) if math.gcd(a, q) == 1]
    rows = []
    for a in nums:
        g = complete_sum(poly, ReducedFraction(a, q))
        rows.append({"num": a, "den": q, "re": g.real, "im": g.imag, "abs": abs(g)})
    _emit(cfg, {"values": rows})


@_command("mfrak", "oscillatory integral multiplier",
          _arg("--poly", required=True),
          _arg("--n", type=int, required=True),
          _arg("--xi", type=float, required=True))
def _cmd_mfrak(cfg: RunConfig) -> None:
    p = cfg.params
    val = continuous_multiplier(IntPolynomial.parse(p["poly"]), p["n"], p["xi"])
    _emit(cfg, {"re": val.real, "im": val.imag, "abs": abs(val)})


@_command("lemma1", "rational approximation residual",
          _arg("--poly", required=True),
          _arg("--n", type=int),
          _arg("--frac"),
          _arg("--xi", type=float),
          _arg("--bigm", type=float),
          _arg("--sweep", action="store_true"),
          _arg("--nmin", type=int, default=64),
          _arg("--nmax", type=int, default=1024),
          _arg("--lmax", type=int, default=4),
          _arg("--samples", type=int, default=100),
          _arg("--seed", type=int, default=3))
def _cmd_lemma1(cfg: RunConfig) -> None:
    p = cfg.params
    poly = IntPolynomial.parse(p["poly"])
    if p.get("sweep"):
        sweep = lemma1_grid_sweep(poly, _powers_of_two(p), p["lmax"], p["samples"], p["seed"])
        result = {
            "degree": sweep["degree"],
            "max_ratio": sweep["max_ratio"],
            "max_ratio_per_n": {str(k): v for k, v in sweep["max_ratio_per_n"].items()},
            "cells": {f"{n},{l}": v for (n, l), v in sweep["cells"].items()},
        }
    else:
        missing = [k for k in ("n", "frac", "xi", "bigm") if p.get(k) is None]
        if missing:
            raise ValueError(
                "lemma1 needs --" + ", --".join(missing) + " (or --sweep)"
            )
        res = lemma1_residual(poly, p["n"], _fraction(p["frac"]), p["xi"], p["bigm"])
        result = {"residual": res.residual, "bound": res.bound, "ratio": res.ratio}
    _emit(cfg, result)


@_command("project", "major-arc spectral projection",
          _arg("--q", type=int, required=True),
          *_SCALES,
          _arg("--in", dest="infile"),
          _arg("--seed", type=int),
          _arg("--symbol-only", action="store_true"),
          _FORMAT)
def _cmd_project(cfg: RunConfig) -> None:
    p = cfg.params
    q = p["q"]
    dyadic, scale = _scale_pair(cfg)
    n1, n2 = (2.0**scale.l, 2.0**scale.m) if dyadic else scale
    if p.get("symbol_only"):
        sym = projection_symbol(q, n1, n2)
        csv_text = "frequency,symbol\n" + "".join(
            f"{j/q!r},{float(sym[j])!r}\n" for j in range(q)
        )
        _emit(cfg, {"symbol_max": float(sym.max()), "symbol_min": float(sym.min())}, csv_text)
        return
    f = _read_signal(p.get("infile"), q, p.get("seed"))
    out = project(f, n1, n2)
    _emit(cfg, {"signal": out.to_dict(), "l2_in": f.norm(2), "l2_out": out.norm(2)})


@_command("remark2", "projection property suite",
          _arg("--q", type=int, default=512),
          _arg("--l", type=int, required=True),
          _arg("--m", type=int, required=True),
          _arg("--seed", type=int, default=0))
def _cmd_remark2(cfg: RunConfig) -> None:
    p = cfg.params
    _emit(cfg, projection_property_report(p["q"], p["l"], p["m"], p["seed"]))


@_command("split", "major/minor pipeline split",
          _arg("--q", type=int, required=True),
          _arg("--poly", required=True),
          _arg("--n", type=int, required=True),
          _arg("--alpha", type=float),
          _arg("--c0", type=int, default=64),
          _arg("--p0", type=int, default=4),
          _arg("--p-values", type=_int_list, default=(2,)),  # immutable: the parser is shared
          _arg("--in", dest="infile"),
          _arg("--seed", type=int),
          _arg("--save-prefix"))
def _cmd_split(cfg: RunConfig) -> None:
    p = cfg.params
    poly = IntPolynomial.parse(p["poly"])
    if p.get("alpha") is None:
        pipeline = PipelineConfig.desk(poly.degree, p["p0"], p["c0"])
    else:
        pipeline = PipelineConfig(alpha=p["alpha"], c0=p["c0"], p0=p["p0"], degree=poly.degree)
    f = _read_signal(p.get("infile"), p["q"], p.get("seed"))
    major, minor, report = arc_split(f, poly, p["n"], pipeline, p_values=p["p_values"])
    if p.get("save_prefix"):
        Path(p["save_prefix"] + ".major.json").write_text(json.dumps(major.to_dict()))
        Path(p["save_prefix"] + ".minor.json").write_text(json.dumps(minor.to_dict()))
    _emit(cfg, report)


@_command("probe-lp", "lower bound for projection p-norms",
          _arg("--q", type=int, default=512),
          _arg("--l", type=int, required=True),
          _arg("--m", type=int, required=True),
          _arg("--p", type=float, required=True),
          _arg("--trials", type=int, default=8),
          _arg("--seed", type=int, default=0))
def _cmd_probe_lp(cfg: RunConfig) -> None:
    p = cfg.params
    scale = DyadicScale(p["l"], p["m"])  # checks l and m before any power is taken
    op = projection_op(2.0**scale.l, 2.0**scale.m)
    lower = lp_norm_probe(op, p["p"], p["q"], p["trials"], p["seed"])
    upper = kernel_l1_bound(op, p["q"])
    _emit(
        cfg,
        {
            "p": p["p"],
            "lower_bound": lower,
            "kernel_l1_upper_bound": upper,
            "is_lower_bound_only": True,
        },
    )


def _seminorm(name: str, fn, flags: dict) -> None:
    """Register `name`: fn(sequence, **params) on a CSV sequence, where each
    flag --k in `flags` (flag -> type) supplies the keyword k."""

    @_command(name, f"{name} seminorm of a CSV sequence",
              *(_arg(flag, type=typ, required=True) for flag, typ in flags.items()),
              _arg("--in", dest="infile", default="-"))
    def handler(cfg: RunConfig) -> None:
        labels, vals = _read_sequence(cfg.params["infile"])
        kw = {flag[2:]: cfg.params[flag[2:]] for flag in flags}
        _emit(cfg, fn(RealSequence(vals, labels), **kw).to_dict())


_seminorm("variation", variation, {"--r": float})
_seminorm("jumps", jump_count, {"--lam": float})
_seminorm("oscillation", oscillation, {"--r": float, "--anchors": _int_list})


@_command("lepingle", "martingale variation ratio statistics",
          _arg("--p", type=float, default=2.0),
          _arg("--r", type=float, default=3.0),
          _arg("--depth", type=int, default=10),
          _arg("--trials", type=int, default=500),
          _arg("--seed", type=int, default=11))
def _cmd_lepingle(cfg: RunConfig) -> None:
    p = cfg.params
    _emit(cfg, lepingle_stat(p["p"], p["r"], p["depth"], p["trials"], p["seed"]))


@_command("ergodic", "average series diagnostics on a cyclic shift",
          _arg("--mod", type=int, required=True),
          _arg("--shift", type=int, required=True),
          _arg("--poly", required=True),
          _arg("--tau", type=float, default=2.0),
          _arg("--nmax", type=int, required=True),
          _arg("--r", type=float, default=2.0),
          _arg("--tail-start", type=int),
          _arg("--uniform-from", type=int, default=0),
          _arg("--point", type=int, help="emit the label,re,im series at this x"),
          _arg("--in", dest="infile"),
          _arg("--seed", type=int),
          _FORMAT)
def _cmd_ergodic(cfg: RunConfig) -> None:
    p = cfg.params
    sys_ = FiniteSystem(p["mod"], p["shift"])
    poly = IntPolynomial.parse(p["poly"])
    m = p.get("uniform_from", 0)
    ns = [n for n in lacunary(p["tau"], p["nmax"]) if n > m]  # windows (M, N] need N > M
    if m > 0 and len(ns) < 2:
        raise ValueError(
            f"--uniform-from {m} leaves fewer than two lacunary indices N in "
            f"({m}, {p['nmax']}]: {ns}"
        )
    _check_series(len(ns), sys_.modulus)  # before the signal is drawn
    f = _read_signal(p.get("infile"), p["mod"], p.get("seed"))
    series = average_series(sys_, poly, f, ns, uniform_from=m)
    tail_start = p.get("tail_start") or max(1, p["nmax"] // 4)
    if cfg.out_format == "json":
        diag = convergence_diagnostic(series, p["r"], tail_start)
        _emit(cfg, {"ergodic": sys_.is_ergodic, "diagnostic": diag})
        return
    _diagnostic_tail(series.indices, p["r"], tail_start)  # no diagnostic in a table, but its flags are checked
    if p.get("point") is not None:
        # one sequence N -> A_N f(x), pipeable into variation/jumps/oscillation
        x = p["point"] % p["mod"]
        csv_text = "label,re,im\n" + "".join(
            f"{n},{float(v.real)!r},{float(v.imag)!r}\n"
            for n, v in zip(series.indices, series.values[:, x])
        )
    else:
        csv_text = "n,max_abs,mean_re,mean_im\n" + "".join(
            f"{n},{float(np.abs(row).max())!r},"
            f"{float(row.mean().real)!r},{float(row.mean().imag)!r}\n"
            for n, row in zip(series.indices, series.values)
        )
    _emit(cfg, None, csv_text)


@_command("discrepancy", "star discrepancy of polynomial orbits",
          _arg("--poly", required=True),
          _arg("--theta", type=_theta, required=True),
          _arg("--ns", type=_int_list, required=True),
          _FORMAT)
def _cmd_discrepancy(cfg: RunConfig) -> None:
    p = cfg.params
    rep = discrepancy(IntPolynomial.parse(p["poly"]), p["theta"], p["ns"])
    csv_text = "n,d_star\n" + "".join(f"{n},{d!r}\n" for n, d in rep.entries)
    _emit(cfg, rep.to_dict(), csv_text)


def run(config: RunConfig) -> int:
    """Dispatch a resolved config; nonzero exit on violated preconditions."""
    if config.subcommand not in _COMMANDS:
        print(f"error: unknown subcommand {config.subcommand!r}", file=sys.stderr)
        return 2
    try:
        _COMMANDS[config.subcommand][2](config)
    except (ValueError, RuntimeError, OSError) as exc:  # OSError: unreadable --in, unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every registered subcommand, built once per process;
    every caller shares it."""
    parser = argparse.ArgumentParser(
        prog="circle-lab",
        description="exponential sums, arc systems, Fourier multipliers, and "
        "variational seminorms on finite models",
    )
    sp = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags, _) in _COMMANDS.items():
        sub = sp.add_parser(name, help=help_line)
        for names, kw in flags + (_OUT,):
            sub.add_argument(*names, **kw)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    config = RunConfig(
        subcommand=args.pop("command"),
        out_format=args.pop("format", "json"),
        out_path=args.pop("out"),
        params={k: v for k, v in args.items() if v is not None},
    )
    return run(config)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
