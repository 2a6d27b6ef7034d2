"""Command-line front end.

Every subcommand resolves its parameters into a RunConfig, runs one library
call, and emits a JSON report (or CSV where that is the natural shape).
Reports embed the resolved config and a schema tag; reruns with the same
arguments are byte-identical unless --timestamp is requested.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import (
    ArcSystem,
    DyadicScale,
    FiniteSystem,
    IntPolynomial,
    PipelineConfig,
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
    minor_sup_grid,
    oscillation,
    project,
    projection_op,
    projection_property_report,
    projection_symbol,
    variation,
    weyl_decay_scan,
    weyl_sum,
)
from ._util import substream

SCHEMA = "circle-lab/1"


@dataclass
class RunConfig:
    """Resolved invocation: subcommand, validated parameters, output shape."""

    subcommand: str
    params: dict
    out_format: str = "json"
    out_path: str = "-"
    timestamp: bool = False


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


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


def _emit(config: RunConfig, result: dict, csv_text: str | None = None) -> None:
    if config.out_format == "csv" and csv_text is not None:
        _write(csv_text, config.out_path)
        return
    envelope = {
        "schema": SCHEMA,
        "command": config.subcommand,
        "config": config.params,
        "result": result,
    }
    if config.timestamp:
        envelope["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    # a NaN left in a report is a quiet wrong answer: refuse it (exit 2)
    text = json.dumps(_strict(envelope), indent=2, sort_keys=True, allow_nan=False)
    _write(text, config.out_path)


def _poly(text: str) -> IntPolynomial:
    return IntPolynomial.parse(text)


def _fraction(text: str) -> ReducedFraction:
    a, q = text.split("/")
    return ReducedFraction.reduce(int(a), int(q))


def _theta(text: str) -> float:
    named = {"sqrt2": math.sqrt(2.0), "golden": (1.0 + math.sqrt(5.0)) / 2.0}
    return named.get(text, None) if text in named else float(text)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _read_signal(path: str | None, modulus: int | None, seed: int | None) -> Signal:
    if path:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
        if text.lstrip().startswith("{"):
            return Signal.from_json(text)
        return Signal.from_csv(io.StringIO(text))
    if modulus is None:
        raise ValueError("need either --in or --q to build a signal")
    if seed is None:
        return Signal.delta(modulus)
    rng = substream(seed)
    return Signal(modulus, rng.standard_normal(modulus) + 1j * rng.standard_normal(modulus))


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


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_fractions(cfg: RunConfig) -> None:
    fracs = canonical_fractions(cfg.params["n1"])
    rows = [
        {"num": fr.numerator, "den": fr.denominator, "value": fr.value} for fr in fracs
    ]
    csv_text = "num,den,value\n" + "".join(
        f"{r['num']},{r['den']},{r['value']!r}\n" for r in rows
    )
    _emit(cfg, {"count": len(rows), "fractions": rows}, csv_text)


def _cmd_arcs(cfg: RunConfig) -> None:
    p = cfg.params
    if p.get("dyadic"):
        l, m = p["dyadic"]
        bundle = dyadic_arcs(DyadicScale(l, m))
        system = bundle.system
        extra = {
            "shell_intervals": [list(iv) for iv in bundle.shell.intervals],
            "shell_refined_intervals": [list(iv) for iv in bundle.shell_refined.intervals],
        }
    else:
        if p.get("n1") is None or p.get("n2") is None:
            raise ValueError("arcs needs either --n1 and --n2 or --dyadic l,m")
        system = ArcSystem(p["n1"], p["n2"])
        extra = {}
    result = {
        "centers": [str(fr) for fr in system.centers],
        "halfwidth": system.halfwidth,
        "disjoint": system.is_disjoint,
        "coverage": system.coverage,
        **extra,
    }
    _emit(cfg, result)


def _cmd_weyl_scan(cfg: RunConfig) -> None:
    p = cfg.params
    ns = p.get("ns") or [
        2**k for k in range(int(math.log2(p["nmin"])), int(math.log2(p["nmax"])) + 1)
    ]
    report = weyl_decay_scan(
        _poly(p["poly"]),
        ns,
        p["eps"],
        p["bigc"],
        p["samples"],
        p["seed"],
        halfwidth=p.get("fixed_halfwidth"),
        threads=p.get("threads"),
    )
    result = report.to_dict()
    if p.get("grid_oracle"):
        from .expsums import scan_arcs

        poly = _poly(p["poly"])
        n0 = ns[0]
        arcs = scan_arcs(n0, poly.degree, p["eps"], p["bigc"], p.get("fixed_halfwidth"))
        result["grid_oracle"] = {
            "n": n0,
            "resolution": p["grid_oracle"],
            "sup_abs": minor_sup_grid(poly, n0, arcs, p["grid_oracle"]),
        }
    csv_text = "n,sup_abs\n" + "".join(f"{n},{s!r}\n" for n, s in report.points)
    _emit(cfg, result, csv_text)
    if p.get("csv"):
        _write(csv_text, p["csv"])


def _cmd_gauss(cfg: RunConfig) -> None:
    p = cfg.params
    poly = _poly(p["poly"])
    q = p["den"]
    nums = [p["num"]] if p.get("num") is not None else [
        a for a in range(q) if math.gcd(a, q) == 1 or (a == 0 and q == 1)
    ]
    rows = []
    for a in nums:
        g = complete_sum(poly, ReducedFraction(a, q))
        rows.append({"num": a, "den": q, "re": g.real, "im": g.imag, "abs": abs(g)})
    _emit(cfg, {"values": rows})


def _cmd_mfrak(cfg: RunConfig) -> None:
    p = cfg.params
    val = continuous_multiplier(_poly(p["poly"]), p["n"], p["xi"])
    _emit(cfg, {"re": val.real, "im": val.imag, "abs": abs(val)})


def _cmd_lemma1(cfg: RunConfig) -> None:
    p = cfg.params
    poly = _poly(p["poly"])
    if p.get("sweep"):
        ns = [2**k for k in range(int(math.log2(p["nmin"])), int(math.log2(p["nmax"])) + 1)]
        sweep = lemma1_grid_sweep(poly, ns, p["lmax"], p["samples"], p["seed"])
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


def _cmd_project(cfg: RunConfig) -> None:
    p = cfg.params
    q = p["q"]
    if p.get("dyadic"):
        l, m = p["dyadic"]
        n1, n2 = 2.0**l, 2.0**m
    elif p.get("n1") is None or p.get("n2") is None:
        raise ValueError("project needs either --n1 and --n2 or --dyadic l,m")
    else:
        n1, n2 = p["n1"], p["n2"]
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


def _cmd_remark2(cfg: RunConfig) -> None:
    p = cfg.params
    _emit(cfg, projection_property_report(p["q"], p["l"], p["m"], p["seed"]))


def _cmd_split(cfg: RunConfig) -> None:
    p = cfg.params
    poly = _poly(p["poly"])
    pipeline = PipelineConfig(
        alpha=p["alpha"] if p.get("alpha") is not None else PipelineConfig.desk(poly.degree).alpha,
        c0=p["c0"],
        p0=p["p0"],
        degree=poly.degree,
        tau=p["tau"],
    )
    f = _read_signal(p.get("infile"), p["q"], p.get("seed"))
    major, minor, report = arc_split(f, poly, p["n"], pipeline, p_values=p["p_values"])
    if p.get("save_prefix"):
        Path(p["save_prefix"] + ".major.json").write_text(major.to_json())
        Path(p["save_prefix"] + ".minor.json").write_text(minor.to_json())
    _emit(cfg, report)


def _cmd_probe_lp(cfg: RunConfig) -> None:
    p = cfg.params
    op = projection_op(2.0 ** p["l"], 2.0 ** p["m"])
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


def _cmd_variation(cfg: RunConfig) -> None:
    p = cfg.params
    labels, vals = _read_sequence(p["infile"])
    from .seminorms import RealSequence

    rep = variation(RealSequence(vals, labels), p["r"])
    _emit(cfg, rep.to_dict())


def _cmd_jumps(cfg: RunConfig) -> None:
    p = cfg.params
    labels, vals = _read_sequence(p["infile"])
    from .seminorms import RealSequence

    rep = jump_count(RealSequence(vals, labels), p["lam"])
    _emit(cfg, rep.to_dict())


def _cmd_oscillation(cfg: RunConfig) -> None:
    p = cfg.params
    labels, vals = _read_sequence(p["infile"])
    from .seminorms import RealSequence

    rep = oscillation(RealSequence(vals, labels), p["anchors"], p["r"])
    _emit(cfg, rep.to_dict())


def _cmd_lepingle(cfg: RunConfig) -> None:
    p = cfg.params
    stat = lepingle_stat(
        p["p"], p["r"], p["depth"], p["trials"], p["seed"], threads=p.get("threads")
    )
    _emit(cfg, stat)


def _cmd_ergodic(cfg: RunConfig) -> None:
    p = cfg.params
    sys_ = FiniteSystem(p["mod"], p["shift"])
    poly = _poly(p["poly"])
    f = _read_signal(p.get("infile"), p["mod"], p.get("seed"))
    m = p.get("uniform_from", 0)
    ns = [n for n in lacunary(p["tau"], p["nmax"]) if n > m]  # windows (M, N] need N > M
    if m > 0 and len(ns) < 2:
        raise ValueError(
            f"--uniform-from {m} leaves fewer than two lacunary indices N in "
            f"({m}, {p['nmax']}]: {ns}"
        )
    series = average_series(sys_, poly, f, ns, uniform_from=m)
    diag = convergence_diagnostic(
        series, p["r"], p["tail_start"] if p.get("tail_start") else max(1, p["nmax"] // 4)
    )
    if p.get("point") is not None:
        # one sequence N -> A_N f(x), pipeable into variation/jumps/oscillation
        x = p["point"] % p["mod"]
        csv_text = "label,re,im\n" + "".join(
            f"{n},{float(sig.values[x].real)!r},{float(sig.values[x].imag)!r}\n"
            for n, sig in zip(series.indices, series.signals)
        )
    else:
        csv_text = "n,max_abs,mean_re,mean_im\n" + "".join(
            f"{n},{float(np.abs(sig.values).max())!r},"
            f"{float(sig.values.mean().real)!r},{float(sig.values.mean().imag)!r}\n"
            for n, sig in zip(series.indices, series.signals)
        )
    _emit(cfg, {"ergodic": sys_.is_ergodic, "diagnostic": diag}, csv_text)
    if p.get("csv"):
        _write(csv_text, p["csv"])


def _cmd_discrepancy(cfg: RunConfig) -> None:
    p = cfg.params
    rep = discrepancy(_poly(p["poly"]), p["theta"], p["ns"])
    csv_text = "n,d_star\n" + "".join(f"{n},{d!r}\n" for n, d in rep.entries)
    _emit(cfg, rep.to_dict(), csv_text)


def _cmd_selftest(cfg: RunConfig) -> None:
    failures = []

    def check(name: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    import itertools

    # Farey counts vs independent totient sums
    phi = lambda q: sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)
    ok = all(
        len(canonical_fractions(n)) == 1 + sum(phi(q) for q in range(2, n + 1))
        for n in range(1, 31)
    )
    check("farey-totient-identity", ok)

    # Gauss magnitudes
    sq = IntPolynomial((0, 0, 1))
    ok = all(
        abs(abs(complete_sum(sq, ReducedFraction(a, p_))) - p_**-0.5) < 1e-9
        for p_ in (3, 5, 7, 11, 13)
        for a in range(1, p_)
    )
    check("gauss-magnitude", ok)

    # FFT convolution vs the literal sum of f(x - k^2) over k = 1..37
    from .polyavg import average_linear

    rng = substream(0)
    ok = True
    for q in (64, 257):
        f = Signal(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))
        idx = (np.arange(q)[:, None] - np.arange(1, 38) ** 2) % q
        literal = f.values[idx].mean(axis=1)
        ok &= np.linalg.norm(average_linear(sq, 37, f).values - literal) <= 1e-9 * f.norm(2)
    check("convolution-oracle", ok)

    # seminorm DP vs brute force on short sequences
    from .seminorms import RealSequence

    def brute_var(vals, r):
        best = 0.0
        n = len(vals)
        for size in range(2, n + 1):
            for idx in itertools.combinations(range(n), size):
                s = sum(
                    abs(vals[b] - vals[a]) ** r for a, b in zip(idx, idx[1:])
                )
                best = max(best, s)
        return best ** (1.0 / r)

    ok = True
    for t in range(10):
        vals = substream(1, t).standard_normal(7)
        for r in (1.0, 2.0, 3.0):
            ok &= abs(variation(vals, r).value - brute_var(vals, r)) < 1e-12
    check("variation-brute-force", ok)

    # cutoff bracket
    from .multipliers import eta

    ok = eta(0.2) == 1.0 and eta(0.6) == 0.0 and 0.0 < eta(0.35) < 1.0
    check("cutoff-bracket", ok)

    # projection structure
    r2 = projection_property_report(256, 2, -6, 5)
    ok = (
        r2["self_adjoint_gap"] < 1e-9
        and r2["l2_contraction_ratio"] <= 1.0 + 1e-12
        and r2["support_leak"] < 1e-10
        and r2["reproduction_gap"] < 1e-10
    )
    check("projection-structure", ok)

    # weyl values
    ok = (
        abs(weyl_sum(sq, 17, 0.0) - 1.0) < 1e-15
        and abs(weyl_sum(sq, 2, ReducedFraction(1, 2))) < 1e-15
    )
    check("weyl-values", ok)

    _emit(cfg, {"failures": failures, "passed": not failures})
    if failures:
        raise SystemExit(1)


_HANDLERS = {
    "fractions": _cmd_fractions,
    "arcs": _cmd_arcs,
    "weyl-scan": _cmd_weyl_scan,
    "gauss": _cmd_gauss,
    "mfrak": _cmd_mfrak,
    "lemma1": _cmd_lemma1,
    "project": _cmd_project,
    "remark2": _cmd_remark2,
    "split": _cmd_split,
    "probe-lp": _cmd_probe_lp,
    "variation": _cmd_variation,
    "jumps": _cmd_jumps,
    "oscillation": _cmd_oscillation,
    "lepingle": _cmd_lepingle,
    "ergodic": _cmd_ergodic,
    "discrepancy": _cmd_discrepancy,
    "selftest": _cmd_selftest,
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved config; nonzero exit on violated preconditions."""
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        print(f"error: unknown subcommand {config.subcommand!r}", file=sys.stderr)
        return 2
    try:
        handler(config)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default="-", help="output path, - for stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--timestamp", action="store_true", help="embed a wall-clock stamp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circle-lab",
        description="exponential sums, arc systems, Fourier multipliers, and "
        "variational seminorms on finite models",
    )
    sp = parser.add_subparsers(dest="command", required=True)

    s = sp.add_parser("fractions", help="canonical fractions up to a denominator bound")
    s.add_argument("--n1", type=float, required=True)
    _add_common(s)

    s = sp.add_parser("arcs", help="arc system geometry")
    s.add_argument("--n1", type=float)
    s.add_argument("--n2", type=float)
    s.add_argument("--dyadic", type=_int_list, help="l,m")
    _add_common(s)

    s = sp.add_parser("weyl-scan", help="minor-arc decay scan of |m_N|")
    s.add_argument("--poly", required=True)
    s.add_argument("--nmin", type=int, default=64)
    s.add_argument("--nmax", type=int, default=4096)
    s.add_argument("--ns", type=_int_list, help="explicit N list")
    s.add_argument("--eps", type=float, default=0.125)
    s.add_argument("--bigc", type=float, default=1.0)
    s.add_argument("--samples", type=int, default=2000)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--fixed-halfwidth", type=float, dest="fixed_halfwidth")
    s.add_argument("--grid-oracle", type=int, dest="grid_oracle")
    s.add_argument("--csv", help="also write the (N, sup_abs) table here")
    s.add_argument("--threads", type=int)
    _add_common(s)

    s = sp.add_parser("gauss", help="complete rational sums")
    s.add_argument("--poly", required=True)
    s.add_argument("--den", type=int, required=True)
    s.add_argument("--num", type=int)
    _add_common(s)

    s = sp.add_parser("mfrak", help="oscillatory integral multiplier")
    s.add_argument("--poly", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--xi", type=float, required=True)
    _add_common(s)

    s = sp.add_parser("lemma1", help="rational approximation residual")
    s.add_argument("--poly", required=True)
    s.add_argument("--n", type=int)
    s.add_argument("--frac")
    s.add_argument("--xi", type=float)
    s.add_argument("--bigm", type=float)
    s.add_argument("--sweep", action="store_true")
    s.add_argument("--nmin", type=int, default=64)
    s.add_argument("--nmax", type=int, default=1024)
    s.add_argument("--lmax", type=int, default=4)
    s.add_argument("--samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=3)
    _add_common(s)

    s = sp.add_parser("project", help="major-arc spectral projection")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n1", type=float)
    s.add_argument("--n2", type=float)
    s.add_argument("--dyadic", type=_int_list, help="l,m")
    s.add_argument("--in", dest="infile")
    s.add_argument("--seed", type=int)
    s.add_argument("--symbol-only", action="store_true", dest="symbol_only")
    _add_common(s)

    s = sp.add_parser("remark2", help="projection property suite")
    s.add_argument("--q", type=int, default=512)
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    _add_common(s)

    s = sp.add_parser("split", help="major/minor pipeline split")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--poly", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--alpha", type=float)
    s.add_argument("--c0", type=int, default=64)
    s.add_argument("--p0", type=int, default=4)
    s.add_argument("--tau", type=float, default=2.0)
    s.add_argument("--p-values", type=_int_list, default=[2], dest="p_values")
    s.add_argument("--in", dest="infile")
    s.add_argument("--seed", type=int)
    s.add_argument("--save-prefix", dest="save_prefix")
    _add_common(s)

    s = sp.add_parser("probe-lp", help="lower bound for projection p-norms")
    s.add_argument("--q", type=int, default=512)
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--trials", type=int, default=8)
    s.add_argument("--seed", type=int, default=0)
    _add_common(s)

    for name, extra in (
        ("variation", [("--r", float, True)]),
        ("jumps", [("--lam", float, True)]),
        ("oscillation", [("--r", float, True), ("--anchors", _int_list, True)]),
    ):
        s = sp.add_parser(name, help=f"{name} seminorm of a CSV sequence")
        for flag, typ, req in extra:
            s.add_argument(flag, type=typ, required=req)
        s.add_argument("--in", dest="infile", default="-")
        _add_common(s)

    s = sp.add_parser("lepingle", help="martingale variation ratio statistics")
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--r", type=float, default=3.0)
    s.add_argument("--depth", type=int, default=10)
    s.add_argument("--trials", type=int, default=500)
    s.add_argument("--seed", type=int, default=11)
    s.add_argument("--threads", type=int)
    _add_common(s)

    s = sp.add_parser("ergodic", help="average series diagnostics on a cyclic shift")
    s.add_argument("--mod", type=int, required=True)
    s.add_argument("--shift", type=int, required=True)
    s.add_argument("--poly", required=True)
    s.add_argument("--tau", type=float, default=2.0)
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--r", type=float, default=2.0)
    s.add_argument("--tail-start", type=int, dest="tail_start")
    s.add_argument("--uniform-from", type=int, default=0, dest="uniform_from")
    s.add_argument("--point", type=int, help="emit the label,re,im series at this x")
    s.add_argument("--in", dest="infile")
    s.add_argument("--seed", type=int)
    s.add_argument("--csv")
    _add_common(s)

    s = sp.add_parser("discrepancy", help="star discrepancy of polynomial orbits")
    s.add_argument("--poly", required=True)
    s.add_argument("--theta", type=_theta, required=True)
    s.add_argument("--ns", type=_int_list, required=True)
    _add_common(s)

    s = sp.add_parser("selftest", help="quick verification battery")
    _add_common(s)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "out", "format", "timestamp") and v is not None
    }
    config = RunConfig(
        subcommand=args.command,
        params=params,
        out_format=args.format,
        out_path=args.out,
        timestamp=args.timestamp,
    )
    return run(config)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
