"""The four benchmark workloads.

Each workload is a function of one `Pass`; it issues its operations in a
fixed order (a closed loop: one client, each call starts when the previous
one returned) and checks every output against `oracles`.  Inputs (signals,
sequences, sample points, library seeds) come from the workload seed.
`quick=True` shrinks every size so the whole set runs in seconds; the op
names and the metrics they feed stay the same.

Only names exported by `circle_lab`, plus `circle_lab.cli.main`, are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import circle_lab as cl
from circle_lab import cli

import oracles as orc
from harness import Pass

SQUARE = (0, 0, 1)
CUBE = (0, 0, 0, 1)

# sha256 of seed-independent CLI reports: pins the byte layout of the default
# output (the values are exact), so a serialization change shows as a failure.
PINNED_DIGESTS = {
    "fractions": "071356491ae8f36d41483fa74f77a59c158e71e49addaa64efe080fcfa629107",
}


def _signal(p: Pass, q: int, *key: int) -> np.ndarray:
    rng = p.rng(*key)
    return rng.standard_normal(q) + 1j * rng.standard_normal(q)


def _spectrum(values: np.ndarray) -> np.ndarray:
    return values.size * np.fft.ifft(values)


def _support_leak(values: np.ndarray, centers, halfwidth: float) -> float:
    """Largest spectral magnitude farther than `halfwidth` from every center."""
    q = values.size
    dist = orc.torus_dist(np.arange(q) / q, centers)
    outside = dist > halfwidth * (1 + 1e-9)
    return float(np.abs(_spectrum(values)[outside]).max()) if outside.any() else 0.0


def _sample_points(p: Pass, q: int, count: int, *key: int) -> np.ndarray:
    return p.rng(*key).integers(0, q, size=count)


# ---------------------------------------------------------------------------
# arith: Farey tables, arcs, exponential sums, discrepancy
# ---------------------------------------------------------------------------


def arith(p: Pass, quick: bool, tmp: Path) -> None:
    q_max = 64 if quick else 1024
    with p.op("canonical_fractions"):
        fracs = p.call("canonical_fractions", cl.canonical_fractions, q_max)
        p.count("arcs.fractions_count", len(fracs))
        p.check(len(fracs) == orc.farey_count(q_max), f"count {len(fracs)} != 1 + sum phi")
        p.check((fracs[0].numerator, fracs[0].denominator) == (0, 1), "first is not 0/1")
        last = fracs[-1]
        p.check((last.numerator, last.denominator) == (q_max - 1, q_max), "last is not (n-1)/n")
        for i in p.rng(1).integers(0, len(fracs) - 1, size=256):
            a, b = fracs[i].numerator, fracs[i].denominator
            c, d = fracs[i + 1].numerator, fracs[i + 1].denominator
            p.check(c * b - a * d == 1 and max(b, d) <= q_max, f"{a}/{b}, {c}/{d} not Farey neighbours")

    n_arc, log_h = (32, -12) if quick else (256, -18)
    with p.op("arc_system"):
        system = p.call("arc_system", cl.ArcSystem, n_arc, 2.0**log_h)
        disjoint = p.call("arc_system", lambda: system.is_disjoint, owner=cl.ArcSystem)
        coverage = p.call("arc_system", lambda: system.coverage, owner=cl.ArcSystem)
        # neighbours in the Farey sequence of order n are at least 1/(n(n-1)) apart
        p.check(disjoint == (1.0 / (n_arc * (n_arc - 1)) > 2.0 ** (log_h + 1)), "disjointness")
        p.close(coverage, orc.farey_count(n_arc) * 2.0 ** (log_h + 1), 1e-12, "coverage")

    lvl, m = (3, -10) if quick else (6, -14)
    with p.op("dyadic_arcs"):
        bundle = p.call("dyadic_arcs", cl.dyadic_arcs, cl.DyadicScale(lvl, m))
        shell_count = orc.farey_count(2**lvl) - orc.farey_count(2 ** (lvl - 1))
        p.check(bundle.system.is_disjoint, "dyadic system not disjoint")
        measure = sum(hi - lo for lo, hi in bundle.shell.intervals)
        refined = sum(hi - lo for lo, hi in bundle.shell_refined.intervals)
        p.close(measure, shell_count * 2.0 ** (m + 1), 1e-9, "shell measure")
        p.close(refined, shell_count * 2.0**m, 1e-9, "refined shell measure")

    eps, big_c = 0.125, 1.0
    scan_ns = [2**k for k in range(6, 9 if quick else 13)]
    samples = 200 if quick else 2000
    for k, n in enumerate(scan_ns):
        with p.op(f"minor_sample[{n}]"):
            bound = n ** (eps * big_c)
            half = float(n) ** -2 * bound
            arcs = p.call("arc_system", cl.ArcSystem, max(1.0, bound), half)
            pts = p.call("minor_sample", cl.minor_sample, arcs, samples, p.lib_seed(1, k))
            xs = np.array([pt.value for pt in pts])
            p.check(xs.size == samples, "sample size")
            p.check(bool(np.all((xs >= 0) & (xs < 1))), "points outside [0, 1)")
            dist = orc.torus_dist(xs, orc.farey(math.floor(max(1.0, bound))))
            p.check(bool(np.all(dist > half)), "a sample lies on a major arc")

    scan = None
    with p.op("decay_scan"):
        scan = p.call(
            "decay_scan", cl.weyl_decay_scan, cl.IntPolynomial(SQUARE), scan_ns, eps, big_c,
            samples, p.lib_seed(2), threads=p.threads,
        )
        p.count("expsums.phase_evals", samples * sum(scan_ns))
        sups = dict(scan.points)
        p.check(sorted(sups) == scan_ns, "scan N values")
        p.check(all(0 < s <= 1 + 1e-12 for s in sups.values()), "sup outside (0, 1]")
        if not quick:  # README criterion 6
            p.check(scan.exponent > 0.03, f"fitted exponent {scan.exponent}")
            p.check(sups[4096] <= 0.6 * sups[64], "s(4096) > 0.6 s(64)")

    with p.op("grid_oracle"):
        n0 = scan_ns[0]
        arcs = cl.ArcSystem(max(1.0, n0 ** (eps * big_c)), float(n0) ** -2 * n0 ** (eps * big_c))
        grid = 2**12 if quick else 2**16
        grid_sup = p.call("grid_oracle", cl.minor_sup_grid, cl.IntPolynomial(SQUARE), n0, arcs, grid)
        p.check(0 < grid_sup <= 1 + 1e-12, "grid sup outside (0, 1]")
        if scan is not None and not quick:  # sampling adequacy, criterion 6
            # samples are off-grid, so the sampled sup may exceed the grid max;
            # only the lower adequacy bound is a claim
            s64 = dict(scan.points)[n0]
            p.check(s64 >= 0.3 * grid_sup, "sampled sup far below the full-grid sup")

    lemma_ns = [2**k for k in range(6, 8 if quick else 11)]
    for coeffs, tag in ((SQUARE, "n^2"), (CUBE, "n^3")):
        with p.op(f"lemma1_sweep[{tag}]"):
            sweep = p.call(
                "lemma1_sweep", cl.lemma1_grid_sweep, cl.IntPolynomial(coeffs), lemma_ns,
                2 if quick else 4, 5 if quick else 100, p.lib_seed(3, len(coeffs)),
            )
            per_n = [sweep["max_ratio_per_n"][n] for n in lemma_ns]
            p.check(all(math.isfinite(v) and v > 0 for v in per_n), "ratio not finite")
            if not quick:  # README criterion 7
                p.check(all(0.5 <= b / a <= 2.0 for a, b in zip(per_n, per_n[1:])), "ratio moved > 2x")

    sq = cl.IntPolynomial(SQUARE)
    primes = [q for q in range(3, 14 if quick else 98) if all(q % d for d in range(2, q))]
    for q in primes:
        with p.op(f"complete_sum[{q}]"):
            vals = [p.call("complete_sum", cl.complete_sum, sq, cl.ReducedFraction(a, q)) for a in range(1, q)]
            p.close(np.abs(vals), q**-0.5, 1e-9, "|G| vs p^-1/2")
            a = int(p.rng(4, q).integers(1, q))
            p.close(vals[a - 1], orc.rational_weyl(SQUARE, a, q, q), 1e-12, "G vs term-by-term sum")

    for tag, n, q in (("N<<q", 10, 10**4 if quick else 10**6), ("N>>q", 1 << 17, 1009)):
        with p.op(f"rational_weyl[{tag}]"):
            a = int(p.rng(5, q).integers(1, q))
            while math.gcd(a, q) != 1:
                a += 1
            got = p.call("rational_weyl", cl.weyl_sum, sq, n, cl.ReducedFraction(a, q))
            p.close(got, orc.rational_weyl(SQUARE, a, q, n), 1e-12, "m_N(a/q)")

    big = (0, 10**20 + 7)
    with p.op("real_weyl[(10^20+7)n]"):
        got = p.call("real_weyl", cl.weyl_sum, cl.IntPolynomial(big), 200, 0.1234567)
        p.close(got, orc.real_weyl_exact(big, 0.1234567, 200), 1e-9, "m_N vs exact phases")
    with p.op("real_weyl[n^2]"):
        xi = float(p.rng(6).uniform())
        got = p.call("real_weyl", cl.weyl_sum, sq, 4096, xi)
        p.close(got, orc.real_weyl_exact(SQUARE, xi, 4096), 1e-9, "m_N vs exact phases")

    with p.op("mm[256,0.001]"):
        got = p.call("mm", cl.continuous_multiplier, sq, 256, 0.001)
        p.close(got, orc.simpson_mm(SQUARE, 256, 0.001), 1e-9, "mm_N vs Simpson")
    with p.op("mm[4096,0.4]"):
        got = p.call("mm", cl.continuous_multiplier, sq, 4096, 0.4)
        p.close(got, orc.fresnel_mm_square(4096, 0.4), 1e-9, "mm_N vs Fresnel expansion")

    disc_ns = [100, 1000] if quick else [100, 10**4, 10**5]
    for coeffs, tag in (((0, 1), "n"), (SQUARE, "n^2")):
        with p.op(f"discrepancy[{tag}]"):
            rep = p.call("discrepancy", cl.discrepancy, cl.IntPolynomial(coeffs), math.sqrt(2), disc_ns)
            d = dict(rep.entries)
            p.check(sorted(d) == disc_ns, "discrepancy N values")
            ref_n = disc_ns[1]
            ref = orc.star_discrepancy(orc.orbit_points(coeffs, math.sqrt(2), ref_n))
            p.close(d[ref_n], ref, 1e-12, "D* vs sorted-points formula")
            if tag == "n" and not quick:  # README criterion 11
                p.check(d[10**4] <= 0.01 and d[10**4] <= d[100] / 5, "discrepancy bound")


# ---------------------------------------------------------------------------
# fourier: multipliers and averaging on Z/QZ
# ---------------------------------------------------------------------------


def fourier(p: Pass, quick: bool, tmp: Path) -> None:
    n1, log_n2 = (8, -8) if quick else (64, -14)
    for q in ([2**10] if quick else [2**14, 2**16]):
        with p.op(f"projection_symbol[{q}]"):
            sym = p.call("projection_symbol", cl.projection_symbol, q, n1, 2.0**log_n2)
            p.count("multipliers.symbol_points", orc.farey_count(n1) * q)
            p.check(sym.shape == (q,) and sym.min() >= -1e-15 and sym.max() <= 1 + 1e-12, "range")
            # half the probes sit on grid centers (value 1), half anywhere
            on_grid = [(a * q) // b for a, b in orc.farey(n1) if q % b == 0]
            js = list(p.rng(10, q).choice(on_grid, 8)) + list(_sample_points(p, q, 8, 11, q))
            p.close(sym[js], orc.projection_symbol_at(q, n1, 2.0**log_n2, js), 1e-12, "symbol")

    q = 2**10 if quick else 2**14
    f, g = _signal(p, q, 12), _signal(p, q, 13)
    pn1, pm = 16, (-7 if quick else -10)
    with p.op("project"):
        pf = p.call(None, cl.project, cl.Signal(q, f), pn1, 2.0**pm)
        pg = p.call(None, cl.project, cl.Signal(q, g), pn1, 2.0**pm)
        scale = np.linalg.norm(f) * np.linalg.norm(g)
        gap = abs(np.vdot(pf.values, g) - np.vdot(f, pg.values))
        p.check(gap <= 1e-10 * scale, f"self-adjointness gap {gap:.3e}")
        p.check(pf.norm(2) <= np.linalg.norm(f) * (1 + 1e-10), "not an l2 contraction")
        leak = _support_leak(pf.values, orc.farey(pn1), 2.0**pm / 2)
        p.check(leak <= 1e-9 * np.abs(_spectrum(f)).max(), f"spectral leak {leak:.3e}")
    with p.op("project_dyadic[shell]"):
        shell = p.call(None, cl.project_dyadic, cl.Signal(q, f), cl.DyadicScale(4, pm), shell=True)
        level4 = [(a, b) for a, b in orc.farey(16) if b > 8]
        leak = _support_leak(shell.values, level4, 2.0**pm / 2)
        p.check(leak <= 1e-9 * np.abs(_spectrum(f)).max(), f"shell leak {leak:.3e}")

    big_q, small_q = (2**10, 2**8) if quick else (2**16, 2**14)
    op = cl.projection_op(n1, 2.0**log_n2)
    with p.op("l2_operator_norm"):
        norm = p.call("operator_norms", cl.l2_operator_norm, op, big_q)
        p.close(norm, 1.0, 1e-12, "l2 norm of a disjoint bump sum")
    with p.op("kernel_l1_bound"):
        kl1 = p.call("operator_norms", cl.kernel_l1_bound, op, big_q)
        p.check(kl1 >= 1.0 - 1e-12, "kernel l1 below the l2 norm")
    with p.op("lp_norm_probe"):
        probe_op = cl.projection_op(2.0**4, 2.0 ** (-6 if quick else -10))
        lower = p.call("operator_norms", cl.lp_norm_probe, probe_op, 4.0, small_q, 8, p.lib_seed(14))
        upper = p.call("operator_norms", cl.kernel_l1_bound, probe_op, small_q)
        p.check(0 < lower <= upper + 1e-9, f"lower {lower} vs kernel bound {upper}")

    for lv in range(2 if quick else 5):
        for m in (-2 * lv - 2, -2 * lv - 4):
            with p.op(f"property_report[{lv},{m}]"):  # README criterion 5
                rep = p.call("property_report", cl.projection_property_report, 512, lv, m, p.lib_seed(15, lv, -m))
                p.check(rep["self_adjoint_gap"] <= 1e-10 * 512, "self-adjoint gap")
                p.check(rep["l2_contraction_ratio"] <= 1 + 1e-10, "contraction")
                p.check(rep["support_leak"] <= 1e-10, "support leak")
                p.check(rep["deep_support_size"] >= 1 and rep["reproduction_gap"] <= 1e-10, "reproduction")

    sq = cl.IntPolynomial(SQUARE)
    cfg = cl.PipelineConfig.desk(degree=2)
    split_ns = [2**k for k in range(6, 8 if quick else 13)]
    ratios = {}
    xs = _sample_points(p, q, 16, 16)
    for n in split_ns:
        with p.op(f"arc_split[{n}]"):
            major, minor, rep = p.call("arc_split", cl.arc_split, cl.Signal(q, f), sq, n, cfg)
            lit = orc.literal_average(SQUARE, n, f, xs)
            p.close((major.values + minor.values)[xs], lit, 1e-9 * np.abs(f).max(), "major + minor vs A_N f")
            ratios[n] = rep["l2_ratio"]
            p.check(0 <= ratios[n] <= 1 + 1e-9, "minor ratio outside [0, 1]")
            if n == 4096 and 64 in ratios:  # README criterion 8
                p.check(ratios[4096] <= 0.6 * ratios[64], "minor ratio did not decay")

    avg_qs = [2**8, 2**10] if quick else [2**10, 2**12, 2**14, 2**16]
    for qq in avg_qs:
        fq = _signal(p, qq, 17, qq)
        pts = _sample_points(p, qq, 16, 18, qq)
        for n in split_ns:
            with p.op(f"average_linear[{qq},{n}]"):
                out = p.call("average_linear", cl.average_linear, sq, n, cl.Signal(qq, fq))
                p.count("polyavg.conv_points", n * qq)
                p.close(out.values[pts], orc.literal_average(SQUARE, n, fq, pts), 1e-9 * np.abs(fq).max(), "A_N f")

    rng = p.rng(19)
    for case in range(6 if quick else 50):  # README criterion 2 cases
        cq = (64, 257, 1024)[case % 3]
        degree = int(rng.integers(1, 4))
        coeffs = [int(c) for c in rng.integers(-9, 10, size=degree + 1)]
        coeffs[-1] = coeffs[-1] or 1
        n = int(rng.integers(1, 300))
        fc = rng.standard_normal(cq) + 1j * rng.standard_normal(cq)
        with p.op(f"average_linear[case {case}]"):
            out = p.call("average_linear", cl.average_linear, cl.IntPolynomial(coeffs), n, cl.Signal(cq, fc))
            p.count("polyavg.conv_points", n * cq)
            want = orc.literal_average(coeffs, n, fc, np.arange(cq))
            p.close(out.values, want, 1e-9 * max(np.linalg.norm(want), 1e-30), "A_N f, every point")

    mq = 2**8 if quick else 2**12
    fm, fm2 = _signal(p, mq, 20), _signal(p, mq, 21)
    pts = _sample_points(p, mq, 16, 22)
    max_ns = [2**k for k in range(3, 7 if quick else 10)]
    with p.op("maximal_function"):
        mx = p.call("maximal", cl.maximal_function, sq, cl.Signal(mq, fm), max_ns)
        want = np.max([np.abs(orc.literal_average(SQUARE, n, fm, pts)) for n in max_ns], axis=0)
        p.close(mx.values[pts], want, 1e-9 * np.abs(fm).max(), "sup_N |A_N f|")
    with p.op("average_bilinear"):
        bn = max_ns[-1]
        out = p.call("bilinear", cl.average_bilinear, sq, bn, cl.Signal(mq, fm), cl.Signal(mq, fm2))
        p.count("polyavg.conv_points", bn * mq)
        want = orc.literal_bilinear(SQUARE, bn, fm, fm2, pts)
        p.close(out.values[pts], want, 1e-9 * np.abs(fm * fm2).max(), "bilinear average")

    aq, an, level, high = (2**10, 2**6, 1, 2) if quick else (2**12, 2**8, 2, 2)
    fa = _signal(p, aq, 23)
    with p.op("approx_average_op"):
        op = p.call("approx_apply", cl.approx_average_op, sq, an, level, high)
        out = p.call("approx_apply", cl.multiplier_apply, cl.Signal(aq, fa), op)
        centers = orc.farey(2**level)
        half = 2.0 ** (-2 * high - 1)
        grid = np.arange(aq) / aq
        live = sum(int((np.minimum((grid - a / b) % 1, (a / b - grid) % 1) <= half).sum()) for a, b in centers)
        p.count("multipliers.mm_offsets", live)
        norm_f = np.linalg.norm(fa)
        p.check(out.norm(2) <= norm_f * (1 + 1e-9), "approximation operator is not a contraction")
        leak = _support_leak(out.values, centers, half)
        p.check(leak <= 1e-9 * np.abs(_spectrum(fa)).max(), f"spectral leak {leak:.3e}")
        p.check(live > 0, "no live offsets")
        # README rational-approximation bound against A_N of the projection
        proj = p.call("approx_apply", cl.project_dyadic, cl.Signal(aq, fa), cl.DyadicScale(level, -2 * high))
        ref = p.call("average_linear", cl.average_linear, sq, an, proj)
        budget = 2.0**level * (an / 2.0 ** (2 * high) + 1.0 / an)
        p.check((out - ref).norm(2) <= budget * norm_f, "rational-approximation bound")
    with p.op("factorization_gap"):
        fq, fn, flevel, fhigh, fnarrow = (2**10, 2**6, 0, 5, 8) if quick else (2**12, 2**7, 2, 5, 9)
        ff = _signal(p, fq, 24)
        gap = p.call("factorization", cl.factorization_gap, cl.Signal(fq, ff), sq, fn, flevel, fhigh, fnarrow)
        p.check(gap <= 1e-9 * np.linalg.norm(ff), f"factorization gap {gap:.3e}")


# ---------------------------------------------------------------------------
# variational: martingale DP, batched variation DP, ergodic averaging
# ---------------------------------------------------------------------------


def variational(p: Pass, quick: bool, tmp: Path) -> None:
    for depth, trials in (((6, 20), (8, 20)) if quick else ((10, 500), (14, 500))):
        with p.op(f"lepingle[{depth}]"):
            seed = p.lib_seed(30, depth)
            stat = p.call("lepingle", cl.lepingle_stat, 2, 3, depth, trials, seed)
            p.count("seminorms.martingale_cells", trials * sum(i * 2**i for i in range(1, depth + 1)))
            qs = stat["quantiles"]
            p.check(all(math.isfinite(v) for v in (stat["max"], stat["mean"], *qs.values())), "not finite")
            p.check(0 < stat["mean"] <= stat["max"] and qs["0.5"] <= qs["0.9"] <= qs["1.0"] == stat["max"], "order")
            p.check(stat["bound_asserted"], "r = 3 must assert the bound")
            if depth == 10:  # README criterion 9, plus a full-resolution recomputation
                p.check(stat["max"] <= 10.0, "ratio above 10 at depth 10")
                ref = orc.martingale_ratios(seed, depth, trials, 2.0, 3.0)
                p.close([stat["max"], stat["mean"]], [ref.max(), ref.mean()], 1e-9, "ratio max/mean")

    q = 2**8 if quick else 2**12
    system = cl.FiniteSystem(q, 3)
    f = _signal(p, q, 31)
    ns = cl.lacunary(1.3 if quick else 1.05, q)
    sq = cl.IntPolynomial(SQUARE)
    scaled = tuple(3 * c for c in SQUARE)  # f(T^P(n) x) = f(x - 3 P(n))
    pts = _sample_points(p, q, 8, 32)
    series = None
    for uniform_from in (0, 4 if quick else 100):
        tag = "plain" if uniform_from == 0 else "uniform"
        with p.op(f"average_series[{tag}]"):
            n_vals = [n for n in ns if n > uniform_from]
            out = p.call("average_series", cl.average_series, system, sq, cl.Signal(q, f), n_vals, uniform_from=uniform_from)
            p.count("polyavg.conv_points", q * sum(n_vals) * (2 if uniform_from else 1))
            p.check(list(out.indices) == n_vals, "series indices")
            for k in p.rng(33, uniform_from).integers(0, len(n_vals), size=4):
                want = orc.literal_average(scaled, n_vals[k], f, pts, start=uniform_from)
                p.close(out.signals[k].values[pts], want, 1e-9 * np.abs(f).max(), f"A_{n_vals[k]} f")
            if uniform_from == 0:
                series = out

    mat = series.matrix() if series is not None else None
    diag = None
    with p.op("convergence_diagnostic"):
        diag = p.call("diagnostic", cl.convergence_diagnostic, series, 2.0, q // 4)
        var_max = diag["variation"]["max"]
        p.check(diag["oscillation"]["max"] <= var_max + 1e-12, "oscillation exceeds variation")
        p.check(diag["tail_width"]["max"] <= var_max + 1e-12, "tail width exceeds variation")

    cols = _sample_points(p, q, 6, 34)
    values = {}
    for r in (2.0, 3.0, math.inf):
        with p.op(f"variation_values[{r:g}]"):
            v = p.call("variation_values", cl.variation_values, mat, r)
            values[r] = v
            p.close(v[cols], [orc.chain_variation(mat[:, c], r) for c in cols], 1e-9, f"V^{r:g} columns")
            if r == 2.0 and diag is not None:
                p.close(v.max(), diag["variation"]["max"], 1e-12, "diagnostic variation max")
            if r == math.inf:  # monotone in the exponent (README criterion 12)
                p.check(bool(np.all(values[math.inf] <= values[3.0] + 1e-12)), "V^inf > V^3")
                p.check(bool(np.all(values[3.0] <= values[2.0] + 1e-12)), "V^3 > V^2")

    with p.op("mean_ergodic_check"):
        rep = p.call("exactness", cl.mean_ergodic_check, system, cl.Signal(q, f), [q, 2 * q, 3 * q])
        p.check(rep["ergodic"] is True, "gcd(3, 2^k) = 1 must be ergodic")
        p.check(all(dev <= 1e-10 for _, dev in rep["entries"]), "deviation at a multiple of Q")


# ---------------------------------------------------------------------------
# small-calls: CLI commands, the README pipe, per-sequence DPs, tiny orbits
# ---------------------------------------------------------------------------


def _cli(p: Pass, argv: list[str], stat: str | None = None) -> tuple[int, str]:
    """Run `circle-lab argv` in process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        code = p.call(stat, cli.main, argv)
    p.count("cli.out_bytes", len(out.getvalue().encode()))
    return code, err.getvalue()


def _cli_file(p: Pass, tmp: Path, name: str, argv: list[str], stat: str | None = None) -> str:
    path = tmp / name
    code, err = _cli(p, argv + ["--out", str(path)], stat)
    p.check(code == 0, f"exit {code}: {err.strip()}")
    text = path.read_text()
    p.count("cli.out_bytes", len(text.encode()))
    return text


def _read_series(text: str) -> tuple[list[int], np.ndarray]:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return [int(r[0]) for r in rows], np.array([complex(float(r[1]), float(r[2])) for r in rows])


def small_calls(p: Pass, quick: bool, tmp: Path) -> None:
    s = [str(p.lib_seed(40, k)) for k in range(6)]
    readme = [
        ("fractions", ["fractions", "--n1", "4"]),
        ("arcs", ["arcs", "--dyadic", "2,-6"]),
        ("gauss", ["gauss", "--poly", "0,0,1", "--den", "97"]),
        ("mfrak", ["mfrak", "--poly", "0,0,1", "--n", "256", "--xi", "0.001"]),
        ("project-symbol", ["project", "--q", "512", "--n1", "4", "--n2", "0.001", "--symbol-only", "--format", "csv"]),
        ("remark2", ["remark2", "--q", "512", "--l", "3", "--m", "-8", "--seed", s[0]]),
        ("split", ["split", "--q", "1024" if quick else "16384", "--poly", "0,0,1", "--n", "4096", "--seed", s[1]]),
        ("probe-lp", ["probe-lp", "--q", "512", "--l", "2", "--m", "-6", "--p", "4", "--trials", "8", "--seed", s[2]]),
        ("ergodic", ["ergodic", "--mod", "64", "--shift", "3", "--poly", "0,1", "--tau", "1.5", "--nmax", "2048", "--seed", s[3]]),
        ("discrepancy", ["discrepancy", "--poly", "0,1", "--theta", "sqrt2", "--ns", "100,10000"]),
    ]
    for name, argv in readme:
        with p.op(f"cli {name}"):
            text = _cli_file(p, tmp, name, argv)
            _check_readme_output(p, name, text)

    labels = orc.lacunary_labels(1.5, 2048)
    anchors = ",".join(str(t) for t in labels[::2] + ([labels[-1]] if len(labels) % 2 == 0 else []))
    for x in range(4 if quick else 64):
        with p.op(f"pipe[x={x}]"):
            text = _cli_file(p, tmp, "series.csv", [
                "ergodic", "--mod", "64", "--shift", "3", "--poly", "0,0,1", "--tau", "1.5", "--nmax", "2048",
                "--seed", s[4], "--point", str(x), "--format", "csv",
            ], "pipe")
            labs, vals = _read_series(text)
            p.check(labs == labels, "series labels")
            series_in = str(tmp / "series.csv")
            var = json.loads(_cli_file(p, tmp, "var.json", ["variation", "--r", "3", "--in", series_in], "pipe"))
            p.close(var["result"]["value"], orc.chain_variation(vals, 3.0), 1e-12, "variation")
            p.close(orc.witness_variation(labs, vals, var["result"]["witness"], 3.0), var["result"]["value"], 1e-12, "witness")
            jumps = json.loads(_cli_file(p, tmp, "jumps.json", ["jumps", "--lam", "0.5", "--in", series_in], "pipe"))
            p.check(jumps["result"]["value"] == orc.chain_jumps(vals, 0.5), "jump count")
            osc = json.loads(_cli_file(p, tmp, "osc.json", ["oscillation", "--r", "2", "--anchors", anchors, "--in", series_in], "pipe"))
            want = orc.block_oscillation(labs, vals, [int(a) for a in anchors.split(",")], 2.0)
            p.close(osc["result"]["value"], want, 1e-12, "oscillation")

    rng = p.rng(41)
    with p.op("cli project --in shuffled rows"):
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        order = rng.permutation(64)
        path = tmp / "shuffled.csv"
        path.write_text("index,re,im\n" + "".join(f"{i},{float(vals[i].real)!r},{float(vals[i].imag)!r}\n" for i in order))
        code, _ = _cli(p, ["project", "--q", "64", "--n1", "4", "--n2", "0.01", "--in", str(path), "--out", str(tmp / "p.json")])
        p.check(code == 2, f"shuffled index column accepted (exit {code}), expected exit 2")
    with p.op("cli variation NaN"):
        path = tmp / "nan.csv"
        path.write_text("label,re,im\n0,0.0,0.0\n1,nan,0.0\n2,1.0,0.0\n")
        code, _ = _cli(p, ["variation", "--r", "2", "--in", str(path), "--out", str(tmp / "v.json")])
        p.check(code == 2, f"NaN series accepted (exit {code}), expected exit 2")

    rs = (1.0, 1.5, 2.0, 3.0, math.inf)
    lams = (0.1, 0.5, 1.0)
    for case in range(50 if quick else 1000):  # README criteria 1 and 12
        vals = rng.standard_normal(int(rng.integers(2, 17)))
        with p.op(f"sequence[{case}]"):
            p.count("seminorms.sequences", 1)
            got = {r: p.call("sequence_dp", cl.variation, vals, r) for r in rs}
            jumps = {lam: p.call("sequence_dp", cl.jump_count, vals, lam).value for lam in lams}
            anchors_i = list(range(0, vals.size, 2)) + ([vals.size - 1] if vals.size % 2 == 0 else [])
            osc = p.call("sequence_dp", cl.oscillation, vals, anchors_i, 2.0).value
            labs = list(range(vals.size))
            for r in rs:
                want = orc.brute_variation(vals, r) if vals.size <= 10 else orc.chain_variation(vals, r)
                p.close(got[r].value, want, 1e-12, f"V^{r:g}")
                p.close(orc.witness_variation(labs, vals, got[r].witness, r), got[r].value, 1e-12, "witness")
            for lam in lams:
                want = orc.brute_jumps(vals, lam) if vals.size <= 10 else orc.chain_jumps(vals, lam)
                p.check(jumps[lam] == want, f"jumps at {lam}")
                for r in (1.0, 2.0, 3.0):
                    p.check(lam * jumps[lam] ** (1 / r) <= got[r].value + 1e-9, "jump duality")
            p.check(all(got[a].value >= got[b].value - 1e-12 for a, b in zip(rs, rs[1:])), "monotone in r")
            p.close(osc, orc.block_oscillation(labs, vals, anchors_i, 2.0), 1e-12, "oscillation")
            p.check(osc <= got[2.0].value + 1e-12, "oscillation exceeds V^2")

    linear = cl.IntPolynomial((0, 1))
    for case in range(5 if quick else 50):  # README criterion 10
        q = int(rng.integers(4, 64))
        shifts = [t for t in range(1, q) if math.gcd(t, q) == 1]
        system = cl.FiniteSystem(q, int(shifts[rng.integers(len(shifts))]))
        f = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        k = int(rng.integers(1, 4))
        with p.op(f"orbit_cover[{case}]"):
            avg = p.call("exactness", cl.average_series, system, linear, cl.Signal(q, f), [k * q]).signals[0]
            p.close(avg.values, f.mean(), 1e-12, "full-orbit average vs mean")
    for case in range(5 if quick else 50):
        q = int(rng.integers(4, 64))
        shift = int(rng.integers(1, q))
        g = rng.standard_normal(q)
        cob = g - np.roll(g, shift)  # g - g o T with T x = x - shift
        n = int(rng.integers(1, 200))
        with p.op(f"coboundary[{case}]"):
            system = cl.FiniteSystem(q, shift)
            avg = p.call("exactness", cl.average_series, system, linear, cl.Signal(q, cob), [n]).signals[0]
            p.check(np.abs(avg.values).max() <= 2 * np.abs(g).max() / n + 1e-12, "telescoping bound")


def _check_readme_output(p: Pass, name: str, text: str) -> None:
    if name in PINNED_DIGESTS:
        digest = hashlib.sha256(text.encode()).hexdigest()
        p.check(digest == PINNED_DIGESTS[name], f"{name} report bytes changed ({digest[:12]})")
    if name == "project-symbol":
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        sym = np.array([float(r[1]) for r in rows])
        p.check(len(rows) == 512 and sym.min() >= 0 and sym.max() <= 1 + 1e-12, "symbol rows")
        js = list(p.rng(42).integers(0, 512, size=8)) + [0, 128, 256]
        p.close(sym[js], orc.projection_symbol_at(512, 4, 0.001, js), 1e-12, "symbol values")
        return
    res = json.loads(text)["result"]
    if name == "fractions":
        p.check(res["count"] == orc.farey_count(4), "fraction count")
    elif name == "arcs":
        want = sorted(orc.farey(4), key=lambda t: t[0] / t[1])
        p.check(res["centers"] == [f"{a}/{b}" for a, b in want], "centers")
        p.check(res["disjoint"] is True, "disjointness")
        p.close(res["coverage"], len(want) * 2 * 2.0**-6, 1e-12, "coverage")
    elif name == "gauss":
        p.check(len(res["values"]) == 96, "numerator count")
        p.close([v["abs"] for v in res["values"]], 97**-0.5, 1e-9, "|G| vs p^-1/2")
    elif name == "mfrak":
        p.close(complex(res["re"], res["im"]), orc.simpson_mm(SQUARE, 256, 0.001), 1e-9, "mm_N")
    elif name == "remark2":
        p.check(res["self_adjoint_gap"] <= 1e-10 * 512 and res["l2_contraction_ratio"] <= 1 + 1e-10, "structure")
        p.check(res["support_leak"] <= 1e-10 and res["reproduction_gap"] <= 1e-10, "support")
    elif name == "split":
        p.check(0 <= res["l2_ratio"] <= 1 + 1e-9, "minor ratio outside [0, 1]")
        p.check(res["low_scale"] == 0 and res["halfwidth_log2"] == -24, "scales at N = 4096")
    elif name == "probe-lp":
        p.check(0 < res["lower_bound"] <= res["kernel_l1_upper_bound"] + 1e-9, "probe above kernel bound")
        p.check(res["is_lower_bound_only"] is True, "probe flag")
    elif name == "ergodic":
        p.check(res["ergodic"] is True, "gcd(3, 64) = 1 must be ergodic")
        diag = res["diagnostic"]
        p.check(diag["indices"] == orc.lacunary_labels(1.5, 2048), "scales")
        p.check(diag["tail_width"]["max"] <= diag["variation"]["max"] + 1e-12, "tail width exceeds variation")
    elif name == "discrepancy":
        d = {e["n"]: e["d_star"] for e in res["entries"]}
        p.check(d[10000] <= 0.01 and d[10000] <= d[100] / 5, "README discrepancy bound")
        p.close(d[100], orc.star_discrepancy(orc.orbit_points((0, 1), math.sqrt(2), 100)), 1e-12, "D*(100)")


WORKLOADS = {
    "arith": arith,
    "fourier": fourier,
    "variational": variational,
    "small-calls": small_calls,
}
