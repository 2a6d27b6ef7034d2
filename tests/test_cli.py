import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circle_lab import PipelineConfig, _util, arc_split, cli, project
from circle_lab._util import resolve_threads, substream
from circle_lab.cli import RunConfig, _emit, build_parser, main, run
from circle_lab.polyavg import IntPolynomial, Signal

from oracles import fine_mm, fresnel_mm_square


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestEnvelope:
    def test_schema_and_config_embedded(self, capsys):
        doc = run_json(capsys, "fractions", "--n1", "3")
        assert doc["schema"] == "circle-lab/1"
        assert doc["command"] == "fractions"
        assert doc["config"]["n1"] == 3.0

    def test_reruns_byte_identical(self, capsys):
        _, a, _ = run_cli(capsys, "weyl-scan", "--poly", "0,0,1", "--ns", "64,128",
                          "--samples", "25", "--seed", "5")
        _, b, _ = run_cli(capsys, "weyl-scan", "--poly", "0,0,1", "--ns", "64,128",
                          "--samples", "25", "--seed", "5")
        assert a == b

    def test_timestamp_is_a_usage_error(self, capsys):
        # a report never depends on the clock
        with pytest.raises(SystemExit) as exc:
            main(["fractions", "--n1", "2", "--timestamp"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --timestamp" in capsys.readouterr().err


class TestSubcommands:
    def test_fractions_count(self, capsys):
        doc = run_json(capsys, "fractions", "--n1", "4")
        assert doc["result"]["count"] == 6

    def test_fractions_csv(self, capsys):
        code, out, _ = run_cli(capsys, "fractions", "--n1", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "num,den,value" and len(lines) == 5

    @pytest.mark.parametrize("argv, digest", [
        (("fractions", "--n1", "200"),
         "1ba0116ccc6878f9969dd3235dcc4497c05bb810c32b7a2f9774b6b4186c3634"),
        (("fractions", "--n1", "200", "--format", "csv"),
         "03b83a3f2fe4462c068cc4d50a5d15e669922cb87ee7c3ad1d0ecd68b72753ea"),
        (("arcs", "--n1", "16", "--n2", "0.001"),
         "260b27b35ae84fd8a8acead9ee626422360dda7a6b7bc46f60cf5ce06d67860e"),
        # 79,852 rows: two pieces of the chunked CSV writer
        (("fractions", "--n1", "512", "--format", "csv"),
         "5a2405d3d2474f886756fb60a307a607f9f2e06ace37419212f6adde5c6492e7"),
    ])
    def test_farey_report_bytes_pinned(self, capsys, argv, digest):
        # digests of the reports made when every table entry was an object
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_chunked_csv_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "fractions.csv"
        _, want, _ = run_cli(capsys, "fractions", "--n1", "512", "--format", "csv")
        code, out, err = run_cli(capsys, "fractions", "--n1", "512", "--format", "csv", "--out", str(path))
        assert code == 0 and out == "", err
        assert path.read_text() == want

    def test_arcs(self, capsys):
        doc = run_json(capsys, "arcs", "--n1", "4", "--n2", "0.001")
        res = doc["result"]
        assert res["disjoint"] is True
        assert res["coverage"] == pytest.approx(0.012)

    def test_arcs_dyadic(self, capsys):
        doc = run_json(capsys, "arcs", "--dyadic", "1,-4")
        assert doc["result"]["centers"] == ["0/1", "1/2"]
        assert "shell_intervals" in doc["result"]

    def test_weyl_scan_csv_columns(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code, out, err = run_cli(
            capsys, "weyl-scan", "--poly", "0,0,1", "--ns", "64,128",
            "--samples", "20", "--seed", "3", "--format", "csv", "--out", str(csv_path),
        )
        assert code == 0 and out == "", err
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,sup_abs" and len(lines) == 3

    def test_grid_oracle_flag_is_a_usage_error(self, capsys):
        # the full-grid cross-check is minor_sup_grid, called from the tests
        with pytest.raises(SystemExit) as exc:
            main(["weyl-scan", "--poly", "0,0,1", "--ns", "64", "--samples", "50",
                  "--grid-oracle", "4096"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid-oracle 4096" in capsys.readouterr().err

    def test_gauss(self, capsys):
        doc = run_json(capsys, "gauss", "--poly", "0,0,1", "--den", "5")
        mags = [v["abs"] for v in doc["result"]["values"]]
        assert len(mags) == 4
        assert all(abs(m - 5**-0.5) < 1e-12 for m in mags)

    def test_gauss_table_stops_at_the_farey_bound(self, capsys):
        # a table costs O(q) per numerator: --den 100000 had not finished after 10 s
        assert len(run_json(capsys, "gauss", "--poly", "0,0,1", "--den", "2048")["result"]["values"]) == 1024
        code, out, err = run_cli(capsys, "gauss", "--poly", "0,0,1", "--den", "2049")
        assert code == 2 and out == ""
        assert err == "error: --den must be an integer in [1, 2048], got 2049\n"
        # one numerator is bounded by _util.MAX_MODULUS instead
        doc = run_json(capsys, "gauss", "--poly", "0,0,1", "--den", "2049", "--num", "1")
        assert [(v["num"], v["den"]) for v in doc["result"]["values"]] == [(1, 2049)]

    def test_mfrak(self, capsys):
        doc = run_json(capsys, "mfrak", "--poly", "0,1", "--n", "50", "--xi", "0.0")
        assert doc["result"]["re"] == pytest.approx(1.0)

    @pytest.mark.parametrize("poly, n, xi", [
        ("0,0,1", 4096, 0.4), ("0,0,1", 1024, 0.4), ("0,0,0,1", 256, 0.01),
    ])
    def test_mfrak_large_phase(self, capsys, poly, n, xi):
        # phase variation 6.7e6, 4.2e5 and 1.7e5, past any panel budget
        doc = run_json(capsys, "mfrak", "--poly", poly, "--n", str(n), "--xi", str(xi))
        got = complex(doc["result"]["re"], doc["result"]["im"])
        if poly == "0,0,1":
            assert abs(got - fresnel_mm_square(n, xi)) < 1e-14
        else:
            assert abs(got - fine_mm(IntPolynomial.parse(poly), n, xi)) < 1e-12

    def test_mfrak_constant_outside_variation(self, capsys):
        # e(0.4 * 10^6): c0 is a pure turn and never counts toward the panel budget
        doc = run_json(capsys, "mfrak", "--poly", "1000000", "--n", "4", "--xi", "0.4")
        got = complex(doc["result"]["re"], doc["result"]["im"])
        assert abs(got - fine_mm(IntPolynomial((10**6,)), 4, 0.4)) < 1e-14

    def test_mfrak_lead_past_float_range(self, capsys):
        # lam = 0.1 * 10^400 * 4 and |mm_N| <= 1 / (pi lam): the limit 0
        doc = run_json(capsys, "mfrak", "--poly", f"0,{10**400}", "--n", "4", "--xi", "0.1")
        assert doc["result"]["abs"] == 0.0

    def test_mfrak_huge_non_binomial_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "mfrak", "--poly", f"0,1,{10**400}", "--n", "4", "--xi", "0.1")
        assert code == 2 and out == "" and "panel" in err

    def test_lemma1_single(self, capsys):
        doc = run_json(
            capsys, "lemma1", "--poly", "0,0,1", "--n", "64", "--frac", "0/1",
            "--xi", "0.0", "--bigm", "4096",
        )
        assert doc["result"]["residual"] == 0.0

    def test_lemma1_sweep(self, capsys):
        doc = run_json(
            capsys, "lemma1", "--poly", "0,0,1", "--sweep", "--nmin", "64",
            "--nmax", "128", "--lmax", "1", "--samples", "5", "--seed", "3",
        )
        assert math.isfinite(doc["result"]["max_ratio"])

    def test_scan_sizes_lie_between_nmin_and_nmax(self, capsys):
        # --nmin 100 used to round down and scan N = 64
        scan = run_json(
            capsys, "weyl-scan", "--poly", "0,0,1", "--nmin", "100", "--nmax", "256",
            "--samples", "5", "--seed", "1",
        )
        assert [pt["n"] for pt in scan["result"]["points"]] == [128, 256]
        sweep = run_json(
            capsys, "lemma1", "--poly", "0,0,1", "--sweep", "--nmin", "100", "--nmax", "256",
            "--lmax", "0", "--samples", "3", "--seed", "3",
        )
        assert sorted(sweep["result"]["max_ratio_per_n"]) == ["128", "256"]

    def test_project_roundtrip(self, capsys, tmp_path):
        sig = Signal.delta(64)
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(sig.to_dict()))
        doc = run_json(
            capsys, "project", "--q", "64", "--n1", "2", "--n2", "0.01",
            "--in", str(path),
        )
        out = Signal.from_dict(doc["result"]["signal"])
        assert out.modulus == 64
        assert doc["result"]["l2_out"] <= doc["result"]["l2_in"] + 1e-12

    def test_project_rejects_shuffled_csv(self, capsys, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("index,re,im\n1,1.0,0.0\n0,0.0,0.0\n2,0.0,0.0\n3,0.0,0.0\n")
        code, out, err = run_cli(
            capsys, "project", "--q", "4", "--n1", "1", "--n2", "0.5", "--in", str(path)
        )
        assert code == 2 and out == "" and "index" in err

    def test_project_symbol_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "project", "--q", "32", "--n1", "2", "--n2", "0.01",
            "--symbol-only", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "frequency,symbol"

    def test_remark2(self, capsys):
        doc = run_json(capsys, "remark2", "--q", "256", "--l", "2", "--m", "-6", "--seed", "1")
        res = doc["result"]
        assert res["self_adjoint_gap"] < 1e-9
        assert res["l2_contraction_ratio"] <= 1.0 + 1e-12
        assert res["support_leak"] < 1e-10 and res["reproduction_gap"] < 1e-10

    def test_split(self, capsys):
        doc = run_json(
            capsys, "split", "--q", "2048", "--poly", "0,0,1", "--n", "128", "--seed", "2",
        )
        assert 0.0 < doc["result"]["l2_ratio"] < 1.0
        assert "tau" not in doc["config"]

    def test_probe_lp(self, capsys):
        doc = run_json(
            capsys, "probe-lp", "--q", "128", "--l", "2", "--m", "-6", "--p", "4",
            "--trials", "2", "--seed", "0",
        )
        res = doc["result"]
        assert res["is_lower_bound_only"]
        assert res["lower_bound"] <= res["kernel_l1_upper_bound"] + 1e-9

    def test_lepingle(self, capsys):
        doc = run_json(capsys, "lepingle", "--depth", "5", "--trials", "10", "--seed", "1")
        assert doc["result"]["max"] < 10

    def test_ergodic(self, capsys):
        doc = run_json(
            capsys, "ergodic", "--mod", "32", "--shift", "3", "--poly", "0,1",
            "--tau", "2", "--nmax", "256", "--seed", "4",
        )
        assert doc["result"]["ergodic"] is True
        assert doc["result"]["diagnostic"]["tail_width"]["max"] >= 0

    def test_ergodic_uniform_from_keeps_indices_above_m(self, capsys):
        code, out, err = run_cli(
            capsys, "ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1",
            "--tau", "2", "--nmax", "64", "--seed", "1", "--uniform-from", "4",
            "--point", "0", "--format", "csv",
        )
        assert code == 0, err
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["8", "16", "32", "64"]
        doc = run_json(
            capsys, "ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1",
            "--tau", "2", "--nmax", "64", "--seed", "1", "--uniform-from", "4",
        )
        assert doc["result"]["diagnostic"]["indices"] == [8, 16, 32, 64]
        assert doc["config"]["uniform_from"] == 4

    def test_ergodic_negative_uniform_from_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1",
            "--tau", "2", "--nmax", "64", "--seed", "1", "--uniform-from", "-3",
        )
        assert code == 2 and out == "" and "uniform_from" in err

    def test_ergodic_point_series_pipes_into_variation(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "ergodic", "--mod", "32", "--shift", "3", "--poly", "0,0,1",
            "--tau", "1.5", "--nmax", "256", "--seed", "4", "--point", "0",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "label,re,im"
        path = tmp_path / "series.csv"
        path.write_text(out)
        doc = run_json(capsys, "variation", "--r", "3", "--in", str(path))
        assert doc["result"]["value"] >= 0

    def test_discrepancy(self, capsys):
        doc = run_json(
            capsys, "discrepancy", "--poly", "0,1", "--theta", "sqrt2", "--ns", "100,1000",
        )
        entries = doc["result"]["entries"]
        assert entries[0]["n"] == 100 and entries[1]["d_star"] < entries[0]["d_star"]

    def test_split_save_prefix_feeds_project(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        doc = run_json(
            capsys, "split", "--q", "256", "--poly", "0,0,1", "--n", "64", "--seed", "3",
            "--save-prefix", prefix,
        )
        major = Signal.from_dict(json.loads(Path(prefix + ".major.json").read_text()))
        minor = Signal.from_dict(json.loads(Path(prefix + ".minor.json").read_text()))
        rng = substream(3)
        f = Signal(256, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        want = arc_split(f, IntPolynomial((0, 0, 1)), 64, PipelineConfig.desk(2))
        assert np.array_equal(major.values, want[0].values)
        assert np.array_equal(minor.values, want[1].values)
        assert doc["result"]["l2_ratio"] == want[2]["l2_ratio"]
        back = run_json(capsys, "project", "--q", "256", "--n1", "2", "--n2", "0.01",
                        "--in", prefix + ".major.json")
        assert back["result"]["l2_in"] == major.norm(2)
        assert Signal.from_dict(back["result"]["signal"]).modulus == 256

    def test_split_alpha_follows_p0(self, capsys):
        # the default alpha is PipelineConfig.desk(degree, p0, c0).alpha, not p0 = 4's
        doc = run_json(capsys, "split", "--q", "1024", "--poly", "0,0,1", "--n", "64",
                       "--seed", "1", "--p0", "100")
        assert doc["config"]["p0"] == 100 and "alpha" not in doc["config"]
        assert doc["result"]["low_scale"] == 0

    def test_ergodic_csv_side_file(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        argv = ("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--tau", "2",
                "--nmax", "64", "--seed", "1")
        code, table, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        code, out, err = run_cli(capsys, *argv, "--format", "csv", "--out", str(path))
        assert code == 0 and out == "", err
        doc = run_json(capsys, *argv)
        assert path.read_text() == table
        assert table.splitlines()[0] == "n,max_abs,mean_re,mean_im"
        assert doc["result"]["ergodic"] is True

    @pytest.mark.parametrize("point", [(), ("--point", "5")])
    def test_ergodic_csv_runs_no_diagnostic(self, capsys, monkeypatch, point):
        argv = ("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--tau", "2",
                "--nmax", "64", "--seed", "1", *point, "--format", "csv")
        _, want, _ = run_cli(capsys, *argv)

        def refuse(*args, **kw):
            raise AssertionError("a table ran the diagnostic")

        monkeypatch.setattr(cli, "convergence_diagnostic", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out == want, err

    def test_ergodic_series_size_is_checked_before_the_signal(self):
        # two 2^24-point arrays (about 580 MB) were drawn before the series size was checked
        argv = ["ergodic", "--mod", "16777216", "--shift", "3", "--poly", "0,1", "--tau", "1.05",
                "--nmax", "4096", "--seed", "1"]
        code = ("import resource, subprocess, sys\n"
                f"run = subprocess.run([sys.executable, '-m', 'circle_lab.cli', *{argv!r}], capture_output=True, text=True)\n"
                "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
                "print(run.stderr, end='')\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        status, err = out.stdout.split("\n", 1)
        returncode, peak_kib = map(int, status.split())
        assert returncode == 2 and err == "error: 128 scales N times modulus 16777216 exceed 67108864 values\n"
        assert peak_kib / 1024 < 100  # KiB on Linux

    def test_project_without_input_is_the_delta(self, capsys):
        doc = run_json(capsys, "project", "--q", "64", "--n1", "2", "--n2", "0.01")
        want = project(Signal.delta(64), 2, 0.01)
        assert np.array_equal(Signal.from_dict(doc["result"]["signal"]).values, want.values)
        assert doc["result"]["l2_in"] == 1.0


class TestSequenceCommands:
    def test_variation_from_file(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("label,re,im\n0,0,0\n1,0.5,0\n2,1,0\n")
        doc = run_json(capsys, "variation", "--r", "2", "--in", str(path))
        assert doc["result"]["value"] == pytest.approx(1.0)
        assert doc["result"]["witness"] == [0, 2]

    def test_jumps(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("label,re,im\n0,0.5,0\n1,0,0\n2,1,0\n")
        doc = run_json(capsys, "jumps", "--lam", "1", "--in", str(path))
        assert doc["result"]["value"] == 1.0

    def test_variation_past_the_float_range_of_squares(self, capsys, tmp_path):
        # the squared increments (2e300)^2 overflow float64; the value does not
        path = tmp_path / "seq.csv"
        path.write_text("label,re,im\n0,1e300,0\n1,-1e300,0\n2,1e300,0\n")
        doc = run_json(capsys, "variation", "--r", "2", "--in", str(path))
        assert doc["result"]["value"] == pytest.approx(2.0 * math.sqrt(2.0) * 1e300, rel=1e-13, abs=0)
        assert doc["result"]["witness"] == [0, 1, 2]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_series_exits_2(self, capsys, tmp_path, value):
        path = tmp_path / "seq.csv"
        path.write_text(f"label,re,im\n0,0,0\n1,{value},0\n2,1,0\n")
        code, out, err = run_cli(capsys, "variation", "--r", "2", "--in", str(path))
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("row", ["1", "1,abc", "x,0.5", ","])
    def test_malformed_row_exits_2(self, capsys, tmp_path, row):
        path = tmp_path / "seq.csv"
        path.write_text(f"label,re,im\n0,0,0\n{row}\n")
        code, out, err = run_cli(capsys, "variation", "--r", "2", "--in", str(path))
        assert code == 2 and out == "" and "row 3" in err

    def test_oscillation(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("label,re,im\n0,0,0\n1,5,0\n2,1,0\n")
        doc = run_json(capsys, "oscillation", "--r", "1", "--anchors", "0,2", "--in", str(path))
        assert doc["result"]["value"] == pytest.approx(5.0)


def _no_constants(name):
    raise AssertionError(f"non-standard JSON constant {name}")


class TestStrictJson:
    @pytest.mark.parametrize("argv", [
        ("variation", "--r", "inf"),
        ("oscillation", "--r", "inf", "--anchors", "0,2"),
    ])
    def test_infinite_exponent_is_a_string(self, capsys, tmp_path, argv):
        path = tmp_path / "seq.csv"
        path.write_text("label,re,im\n0,0,0\n1,5,0\n2,1,0\n")
        code, out, err = run_cli(capsys, *argv, "--in", str(path))
        assert code == 0, err
        doc = json.loads(out, parse_constant=_no_constants)
        assert doc["config"]["r"] == "inf"
        assert doc["result"]["value"] == 5.0

    def test_lepingle_infinity(self, capsys):
        code, out, err = run_cli(capsys, "lepingle", "--r", "inf", "--depth", "5", "--trials", "10", "--seed", "1")
        assert code == 0, err
        doc = json.loads(out, parse_constant=_no_constants)
        assert doc["config"]["r"] == "inf" and doc["result"]["r"] == "inf"
        # V^inf <= 2 sup_n |level n|, and Doob bounds that sup by 2 sup_n ||level n||_2
        assert 0 < doc["result"]["max"] <= 4.0

    def test_finite_reports_keep_their_format(self, capsys):
        code, out, _ = run_cli(capsys, "lepingle", "--depth", "5", "--trials", "10", "--seed", "1")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestErrors:
    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fractions", "--bogus", "1"])
        assert exc.value.code != 0

    def test_split_has_no_tau(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--q", "2048", "--poly", "0,0,1", "--n", "128", "--tau", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tau 2" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code != 0

    def test_selftest_is_gone(self, capsys):
        # its checks are the acceptance criteria and unit tests
        with pytest.raises(SystemExit) as exc:
            main(["selftest"])
        assert exc.value.code == 2
        assert "invalid choice: 'selftest'" in capsys.readouterr().err

    def test_unknown_subcommand_config_exits_2(self, capsys):
        assert run(RunConfig("nope", {})) == 2
        assert capsys.readouterr().err == "error: unknown subcommand 'nope'\n"

    @pytest.mark.parametrize("argv, message", [
        (("lemma1", "--poly", "0,0,1", "--n", "64"), "lemma1 needs --frac, --xi, --bigm (or --sweep)"),
        (("lemma1", "--poly", "0,0,1"), "lemma1 needs --n, --frac, --xi, --bigm (or --sweep)"),
        (("arcs",), "arcs needs either --n1 and --n2 or --dyadic l,m"),
        (("arcs", "--n1", "4"), "arcs needs either --n1 and --n2 or --dyadic l,m"),
    ])
    def test_missing_flags_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, name", [
        # exit 0 with an all-zero symbol
        (("project", "--q", "64", "--n1", "4", "--n2", "-0.01", "--symbol-only"), "n2"),
        (("project", "--q", "64", "--n1", "4", "--n2", "nan", "--symbol-only"), "n2"),
        # "invalid value encountered in divide"
        (("project", "--q", "64", "--n1", "4", "--n2", "0", "--symbol-only"), "n2"),
        (("project", "--q", "64", "--n1", "4", "--n2", "inf", "--seed", "1"), "n2"),
        # 2^-2000 is 0.0
        (("project", "--q", "64", "--dyadic", "2,-2000", "--symbol-only"), "n2"),
        # exit 2 only because the echoed p is NaN
        (("probe-lp", "--q", "64", "--l", "2", "--m", "-6", "--p", "nan"), "probe exponent p"),
        (("probe-lp", "--q", "64", "--l", "2", "--m", "-6", "--p", "inf"), "probe exponent p"),
        (("split", "--q", "64", "--poly", "0,0,1", "--n", "64", "--p-values", "0"),
         "norm exponent p"),
        # the error named "halfwidth"
        (("weyl-scan", "--poly", "0,0,1", "--ns", "64", "--samples", "10", "--eps", "nan"), "eps"),
        # exit 0 on a one-fraction, zero-width arc system
        (("weyl-scan", "--poly", "0,0,1", "--ns", "64", "--samples", "10", "--bigc=-inf"), "big_c"),
        (("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--nmax", "64", "--r", "inf"),
         "diagnostic exponent r"),
        (("discrepancy", "--poly", "0,1", "--theta", "nan", "--ns", "10"), "theta"),
        (("split", "--q", "64", "--poly", "0,0,1", "--n", "64", "--alpha", "nan"), "alpha"),
        # ran every level up to 11 before the error
        (("lemma1", "--poly", "0,0,1", "--sweep", "--lmax", "12"), "l_max"),
        # 64^(10^6) raised OverflowError (exit 1)
        (("weyl-scan", "--poly", "0,0,1", "--ns", "64", "--samples", "10", "--eps", "1000", "--bigc", "1000"),
         "eps * big_c"),
        # tau^n raised OverflowError (exit 1) long before it passed the bound
        (("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--tau", "1.5", "--nmax", "1" + "0" * 400),
         "bound must be below 2^1024"),
        # a table prints no diagnostic, but its flags are checked all the same
        (("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--nmax", "64", "--r", "inf", "--format", "csv"),
         "diagnostic exponent r"),
    ])
    def test_real_out_of_range_exits_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and name in err


    def test_violated_precondition_names_parameter(self, capsys):
        code, _, err = run_cli(capsys, "fractions", "--n1", "0.5")
        assert code == 2
        assert "denominator bound" in err

    def test_coverage_abort_is_reported(self, capsys):
        code, _, err = run_cli(
            capsys, "weyl-scan", "--poly", "0,0,1", "--ns", "64", "--samples", "5",
            "--seed", "0", "--fixed-halfwidth", "0.5",
        )
        assert code == 2 and "coverage" in err

    @pytest.mark.parametrize("argv, word", [
        (("mfrak", "--poly", "0,0,1", "--n", "64", "--xi", "inf"), "finite"),
        (("mfrak", "--poly", "0,0,1", "--n", "64", "--xi", "nan"), "finite"),
        (("discrepancy", "--poly", "0,1", "--theta", "inf", "--ns", "10"),
         "theta must be a real number in (-inf, inf), got inf"),
    ], ids=["argv0", "argv1", "argv2"])
    def test_nonfinite_input_exits_2(self, capsys, argv, word):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and word in err

    # an explicit id names the case; the word is what its message must hold
    @pytest.mark.parametrize("argv, word", [
        (("lemma1", "--poly", "0,0,1", "--n", "64", "--frac", "1/3", "--xi", "0.3333", "--bigm", "nan"), "M must"),
        (("lemma1", "--poly", "0,0,1", "--n", "64", "--frac", "1/3", "--xi", "0.3333", "--bigm", "0"), "M must"),
        (("lemma1", "--poly", "0,0,1", "--n", "64", "--frac", "1/3", "--xi", "0.3333", "--bigm", "inf"), "M must"),
        (("fractions", "--n1", "inf"), "denominator bound"),
        (("fractions", "--n1", "nan"), "denominator bound"),
        (("arcs", "--n1", "inf", "--n2", "0.001"), "denominator bound"),
        pytest.param(("weyl-scan", "--poly", "0,0,1", "--ns", "0,64", "--samples", "5", "--seed", "0"),
                     "N must be an integer in [1, 16777216], got 0", id="argv6->= 1"),
        pytest.param(("lepingle", "--r", "0.5", "--depth", "4", "--trials", "2"), "variation exponent r must be a real number in [1, inf], got 0.5",
                     id="argv7-r >= 1"),
        pytest.param(("lepingle", "--r", "nan", "--depth", "4", "--trials", "2"), "variation exponent r must be a real number in [1, inf], got nan",
                     id="argv8-r >= 1"),
        (("lepingle", "--p", "0", "--depth", "4", "--trials", "2"), "norm exponent p"),
        (("lepingle", "--p", "inf", "--depth", "4", "--trials", "2"), "norm exponent p"),
        pytest.param(("lepingle", "--depth", "-1", "--trials", "2"), "depth must be an integer in [0, 20], got -1",
                     id="argv11-desk"),
        (("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--tau", "inf", "--nmax", "64", "--seed", "1"), "tau"),
        (("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--tau", "nan", "--nmax", "64", "--seed", "1"), "tau"),
        pytest.param(("fractions", "--n1", "100000"), "denominator bound n1 must be a real number in [1, 2049), got 100000.0",
                     id="argv14-Farey table limit"),
        pytest.param(("arcs", "--n1", "100000", "--n2", "0.001"), "denominator bound n1 must be a real number in [1, 2049), got 100000.0",
                     id="argv15-Farey table limit"),
        (("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--tau", "2", "--nmax", "64", "--seed", "1", "--uniform-from", "32"), "--uniform-from 32"),
        pytest.param(("lepingle", "--depth", "2", "--trials", "10000000000000"), "trials must be an integer in [1, 1000000], got 10000000000000",
                     id="argv17-trials must be an integer in 1..1000000"),
        (("lepingle", "--depth", "2", "--trials", "0"), "trials must be an integer"),
        pytest.param(("lepingle", "--depth", "21", "--trials", "2"), "depth must be an integer in [0, 20], got 21",
                     id="argv19-desk"),
        (("lepingle", "--depth", "4", "--trials", "2", "--seed", "-1"), "seed must be a non-negative integer"),
        (("weyl-scan", "--poly", "0,0,1", "--ns", "64", "--samples", "5", "--seed", "-1"), "seed must be a non-negative integer"),
        (("project", "--q", "16", "--n1", "2", "--n2", "0.01", "--seed", "-1"), "seed must be a non-negative integer"),
        (("lemma1", "--poly", "0,0,1", "--sweep", "--nmin", "0"), "need 1 <= --nmin <= --nmax"),
        (("weyl-scan", "--poly", "0,0,1", "--nmin", "0"), "need 1 <= --nmin <= --nmax"),
        (("weyl-scan", "--poly", "0,0,1", "--nmax", "0"), "need 1 <= --nmin <= --nmax"),
        (("lemma1", "--poly", "0,0,1", "--sweep", "--nmin", "2048", "--nmax", "1024"), "need 1 <= --nmin <= --nmax"),
        (("arcs", "--dyadic", "1,2,3"), "--dyadic l,m needs exactly two integers"),
        (("arcs", "--dyadic", "1"), "--dyadic l,m needs exactly two integers"),
        (("project", "--q", "16", "--dyadic", "1"), "--dyadic l,m needs exactly two integers"),
        (("weyl-scan", "--poly", "0,0,1", "--nmin", "100", "--nmax", "100", "--samples", "5"), "got --nmin 100 --nmax 100"),
        (("lemma1", "--poly", "0,0,1", "--sweep", "--nmin", "65", "--nmax", "127"), "got --nmin 65 --nmax 127"),
        pytest.param(("arcs", "--dyadic", "2000,-3"), "shell level l must be an integer in [0, 11], got 2000",
                     id="argv32-Farey table limit"),
        (("arcs", "--dyadic", "1,2000"), "halfwidth exponent m"),
        pytest.param(("project", "--q", "64", "--dyadic", "2000,-3", "--symbol-only"), "shell level l must be an integer in [0, 11], got 2000",
                     id="argv34-Farey table limit"),
        pytest.param(("remark2", "--l", "2000", "--m", "-3"), "shell level l must be an integer in [0, 11], got 2000",
                     id="argv35-Farey table limit"),
        (("remark2", "--l", "2", "--m", "2000"), "halfwidth exponent m"),
        pytest.param(("probe-lp", "--l", "2000", "--m", "-3", "--p", "4"), "shell level l must be an integer in [0, 11], got 2000",
                     id="argv37-Farey table limit"),
        # a table prints no diagnostic, but its flags are checked all the same
        (("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--tau", "2", "--nmax", "64", "--seed", "1", "--tail-start", "64", "--format", "csv"),
         "need at least two indices >= tail_start"),
    ])
    def test_bad_parameter_exits_2(self, capsys, argv, word):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and word in err

    @pytest.mark.parametrize("argv, name", [
        # a traceback and exit 1 (ZeroDivisionError)
        (("project", "--q", "0", "--n1", "4", "--n2", "0.01"), "modulus"),
        (("probe-lp", "--q", "0", "--l", "2", "--m", "-6", "--p", "4"), "modulus"),
        # exit 0 with "values": []
        (("gauss", "--poly", "0,0,1", "--den", "0"), "--den"),
        (("gauss", "--poly", "0,0,1", "--den", "-5"), "--den"),
        # numpy's "negative dimensions are not allowed"
        (("project", "--q", "-4", "--n1", "4", "--n2", "0.01", "--symbol-only"), "modulus"),
        (("project", "--q", "-4", "--n1", "4", "--n2", "0.01", "--seed", "1"), "modulus"),
        (("remark2", "--q", "-4", "--l", "2", "--m", "-6"), "modulus"),
        # a constant polynomial: a traceback and exit 1 (ZeroDivisionError)
        (("split", "--q", "64", "--poly", "5", "--n", "64"), "degree"),
        # numpy's _ArrayMemoryError for 16.0 TiB (exit 1)
        (("project", "--q", str(2**40), "--n1", "4", "--n2", "0.01"), "modulus"),
        (("project", "--q", str(2**40), "--n1", "4", "--n2", "0.01", "--symbol-only"), "modulus"),
        (("remark2", "--q", str(2**40), "--l", "2", "--m", "-6"), "modulus"),
        # "invalid value encountered in cast", then numpy's "Maximum allowed dimension exceeded"
        (("project", "--q", "1" + "0" * 30, "--n1", "4", "--n2", "0.01", "--symbol-only"), "modulus"),
        # float(N) raised OverflowError (exit 1)
        (("weyl-scan", "--poly", "0,0,1", "--ns", "1" + "0" * 400, "--samples", "10", "--eps", "0"), "N"),
        # O(N) work with no end in sight
        (("lemma1", "--poly", "0,0,1", "--n", "1" + "0" * 400, "--frac", "1/3", "--xi", "0.3333", "--bigm", "2"), "N"),
        (("weyl-scan", "--poly", "0,0,1", "--ns", "1" + "0" * 300, "--samples", "10", "--eps", "0"), "N"),
        # numpy's "Maximum allowed size exceeded"
        (("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--nmax", "1" + "0" * 30), "N"),
        (("split", "--q", "64", "--poly", "0,0,1", "--n", "1" + "0" * 30, "--seed", "1"), "N"),
        (("discrepancy", "--poly", "0,0,1", "--theta", "sqrt2", "--ns", "1" + "0" * 30), "N"),
        # O(q^2) work for the table, numpy's "Maximum allowed dimension exceeded" for one numerator
        (("gauss", "--poly", "0,0,1", "--den", "100000"), "--den"),
        (("gauss", "--poly", "0,0,1", "--den", "1" + "0" * 30, "--num", "1"), "--den"),
    ])
    def test_integer_out_of_range_exits_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {name} must be ")

    @pytest.mark.parametrize("argv", [
        ("variation", "--r", "2"),
        ("jumps", "--lam", "1"),
        ("oscillation", "--r", "2", "--anchors", "0,2"),
        ("project", "--q", "16", "--n1", "2", "--n2", "0.01"),
        ("split", "--q", "2048", "--poly", "0,0,1", "--n", "128"),
        ("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--nmax", "64"),
    ])
    def test_missing_input_file_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing.csv"
        code, out, err = run_cli(capsys, *argv, "--in", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and str(path) in err

    def test_nan_jump_threshold_exits_2(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("label,re,im\n0,0.5,0\n1,0,0\n2,1,0\n")
        code, out, err = run_cli(capsys, "jumps", "--lam", "nan", "--in", str(path))
        assert code == 2 and out == "" and "jump threshold" in err

    def test_nan_report_is_refused(self, capsys):
        with pytest.raises(ValueError):
            _emit(RunConfig("mfrak", {}), {"re": math.nan})
        assert capsys.readouterr().out == ""

    def test_parser_built_once(self, capsys):
        main(["fractions", "--n1", "2"])
        main(["gauss", "--poly", "0,0,1", "--den", "3"])
        assert build_parser.cache_info().misses == 1
        assert build_parser() is build_parser()

    def test_run_config_direct(self, capsys):
        code = run(RunConfig("fractions", {"n1": 2.0}))
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"]["count"] == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "fractions", "--n1", "3", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["result"]["count"] == 4


TABLE_COMMANDS = ("fractions", "weyl-scan", "project", "ergodic", "discrepancy")


class TestFormat:
    def test_format_only_where_a_table_exists(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        takes = [name for name, p in sub.choices.items()
                 if any("--format" in a.option_strings for a in p._actions)]
        assert tuple(takes) == TABLE_COMMANDS

    @pytest.mark.parametrize("argv", [
        ("mfrak", "--poly", "0,0,1", "--n", "64", "--xi", "0.1"),
        ("lepingle", "--depth", "2", "--trials", "2"),
        ("gauss", "--poly", "0,0,1", "--den", "5"),
    ])
    def test_format_elsewhere_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_project_csv_needs_symbol_only(self, capsys):
        code, out, err = run_cli(capsys, "project", "--q", "64", "--n1", "4", "--n2", "0.01",
                                 "--seed", "1", "--format", "csv")
        assert code == 2 and out == ""
        assert err == "error: --format csv: this project run builds no table\n"

    def test_csv_without_a_table_is_refused(self, capsys):
        code = run(RunConfig("mfrak", {"poly": "0,0,1", "n": 64, "xi": 0.1}, out_format="csv"))
        assert code == 2 and capsys.readouterr().out == ""


WEYL_SCAN = ("weyl-scan", "--poly", "0,0,1", "--ns", "64,128", "--samples", "5", "--seed", "0")
LEPINGLE = ("lepingle", "--p", "2", "--r", "3", "--depth", "10", "--trials", "500", "--seed", "11")
ERGODIC = ("ergodic", "--mod", "16", "--shift", "3", "--poly", "0,1", "--tau", "2", "--nmax", "64")


def bad_threads_err(capsys, argv, value):
    # --threads is retired: the worker count is the affinity set (taskset pins it)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: --threads {value}" in err
    return err


def runs_at_affinity(capsys, monkeypatch, argv):
    """stdout at the affinity sets {0} and {0, 1}, and the worker count each run resolved."""
    counts, resolve = [], _util.resolve_threads

    def spy(requested=None):
        counts.append(resolve(requested))
        return counts[-1]

    monkeypatch.setattr(_util, "resolve_threads", spy)
    outs, seen = [], []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        outs.append(out)
        seen.append(counts[-1])
    return outs, seen


class TestThreads:
    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    @pytest.mark.parametrize("argv", [WEYL_SCAN, LEPINGLE])
    def test_bad_thread_variable_exits_2(self, capsys, monkeypatch, argv, value):
        """The retired CIRCLE_LAB_THREADS is not read, even when it is bad:
        the retired --threads alone decides the exit, and no message names
        the variable."""
        monkeypatch.setenv("CIRCLE_LAB_THREADS", value)
        assert "CIRCLE_LAB_THREADS" not in bad_threads_err(capsys, argv, value)

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    @pytest.mark.parametrize("argv", [WEYL_SCAN, LEPINGLE])
    def test_bad_thread_option_exits_2(self, capsys, argv, value):
        bad_threads_err(capsys, argv, value)

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    @pytest.mark.parametrize("argv", [WEYL_SCAN, LEPINGLE])
    def test_bad_thread_variable_is_not_read(self, capsys, monkeypatch, argv, value):
        """A bad CIRCLE_LAB_THREADS leaves the run and its bytes as they are
        without the variable, and no message names it."""
        code, want, err = run_cli(capsys, *argv)
        assert code == 0, err
        monkeypatch.setenv("CIRCLE_LAB_THREADS", value)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out == want and "CIRCLE_LAB_THREADS" not in err

    @pytest.mark.parametrize("flag", [("--threads", "1"), ("--csv", "out.csv")])
    @pytest.mark.parametrize("argv", [WEYL_SCAN, LEPINGLE, ERGODIC])
    def test_retired_execution_flags_exit_2(self, capsys, argv, flag):
        # --format csv --out PATH writes the table --csv wrote
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_lepingle_bytes_do_not_depend_on_threads(self, capsys, monkeypatch):
        outs, seen = runs_at_affinity(capsys, monkeypatch, LEPINGLE)
        assert seen == [1, 2] and outs[0] == outs[1]

    def test_weyl_scan_bytes_do_not_depend_on_threads(self, capsys, monkeypatch):
        outs, seen = runs_at_affinity(capsys, monkeypatch, WEYL_SCAN)
        assert seen == [1, 2] and outs[0] == outs[1]

    def test_lepingle_thread_option(self, capsys, monkeypatch):
        # the affinity set's size reaches the library but, like --out, is not echoed
        outs, seen = runs_at_affinity(capsys, monkeypatch, LEPINGLE)
        assert seen == [1, 2]
        one, two = (json.loads(out) for out in outs)
        assert "threads" not in one["config"] and one == two

    @pytest.mark.parametrize("value", [2.5, "2", 0])
    def test_thread_argument_is_an_integer(self, value):
        with pytest.raises(ValueError, match=f"threads must be an integer >= 1, got {value!r}"):
            resolve_threads(value)

    def test_default_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert resolve_threads() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_threads() == 64
