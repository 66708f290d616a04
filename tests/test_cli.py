"""End-to-end checks of the command line front end.

Almost everything runs in-process through cli.execute so exit codes and
emitted files can be asserted without shelling out; the console entry
point and the import-order guard for --jobs run in a subprocess.
"""

import importlib
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fracspec.cli import (
    OPTIONS,
    SUBCOMMANDS,
    _bool,
    _build_parser,
    _floats,
    _get,
    _index_range,
    _Int,
    _merge_flags,
    _pair,
    _shift,
    execute,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run(args, out):
    return execute(list(args) + ["--out", str(out)])


def report_lines(out, task):
    text = (out / f"{task}-report.txt").read_text()
    rows = {}
    for line in text.splitlines():
        key, _, val = line.partition(" = ")
        rows[key] = val
    return rows


class TestWorkedExamples:
    def test_toy_zaremba_console(self, tmp_path, capsys):
        assert run(["zaremba", "--toy"], tmp_path) == 0
        got = capsys.readouterr().out
        assert "M eigenvalue = 1.25" in got
        assert "identity mismatch = 0" in got

    def test_weyl_const_square_headline(self, tmp_path, capsys):
        rc = run(
            ["weyl-const", "--op", "frac-laplacian", "--a", "0.5",
             "--domain", "square", "--n", "2"],
            tmp_path,
        )
        assert rc == 0
        assert "C' = 0.0795775" in capsys.readouterr().out
        rows = report_lines(tmp_path, "weyl-const")
        assert float(rows["constant"]) == pytest.approx(1 / (4 * np.pi), rel=1e-12)

    def test_interface_constants_box_face(self, tmp_path):
        assert run(
            ["weyl-const", "--which", "interface-m", "--coeffs", "identity",
             "--domain", "box", "--n", "3"],
            tmp_path,
        ) == 0
        rows = report_lines(tmp_path, "weyl-const")
        assert float(rows["constant"]) == pytest.approx(1 / (8 * np.pi), rel=1e-10)

    def test_interface_constant_reads_the_disk_arc(self, tmp_path):
        # the free arc that a Dirichlet problem refuses is the interface constants' input: c_L = |arc| / pi
        assert run(["weyl-const", "--which", "interface-l", "--domain", "disk", "--arc", "0.5,1.0"], tmp_path) == 0
        rows = report_lines(tmp_path, "weyl-const")
        assert float(rows["constant"]) == pytest.approx(0.5 / np.pi, rel=1e-12)

    def test_symbol_check_console_floor(self, tmp_path, capsys):
        rc = run(
            ["symbol-check", "--coeffs", "identity", "--n", "3",
             "--samples", "32", "--seed", "7"],
            tmp_path,
        )
        assert rc == 0
        out = capsys.readouterr().out
        # roundoff-level residuals print as 0; the report keeps the raw value
        assert "factorization residual = 0" in out
        assert "transmission residual = 0" in out
        rows = report_lines(tmp_path, "symbol-check")
        assert 0.0 <= float(rows["factorization_residual"]) < 1e-13

    def test_singular_probe_pinned_deltas(self, tmp_path):
        rc = run(
            ["singular-probe", "--decay", "harmonic",
             "--deltas", "1e-2,1e-3,1e-4,1e-5,1e-6",
             "--assert", "--tol", "0.05"],
            tmp_path,
        )
        assert rc == 0
        rows = report_lines(tmp_path, "singular-probe")
        assert abs(float(rows["normalized_slope"]) - 1.0) <= 0.05
        assert rows["divergent"] == "True"


class TestPipelines:
    def test_spectrum_export(self, tmp_path):
        assert run(
            ["spectrum", "--coeffs", "identity", "--domain", "square",
             "--n", "2", "--nodes", "24", "--count", "40"],
            tmp_path,
        ) == 0
        lines = (tmp_path / "spectrum-values.csv").read_text().splitlines()
        assert lines[0] == "j,value"
        assert len(lines) == 41
        j, val = lines[1].split(",")
        assert int(j) == 1
        assert float(val) == pytest.approx(2 * np.pi**2, rel=0.05)

    def test_plot_script_compiles(self, tmp_path):
        run(
            ["spectrum", "--coeffs", "identity", "--domain", "square",
             "--n", "2", "--nodes", "16", "--count", "10"],
            tmp_path,
        )
        src = (tmp_path / "spectrum-values-plot.py").read_text()
        compile(src, "spectrum-values-plot.py", "exec")

    def test_weyl_fit_from_csv(self, tmp_path):
        seq = tmp_path / "seq.csv"
        j = np.arange(1, 101)
        seq.write_text("j,value\n" + "\n".join(f"{i},{0.25 * i**-2.0}" for i in j))
        rc = run(
            ["weyl-fit", "--input", str(seq), "--window", "10,60",
             "--expect-exponent", "-2", "--tol-exponent", "0.01",
             "--expect-constant", "0.25", "--tol-constant", "0.01", "--assert"],
            tmp_path,
        )
        assert rc == 0
        rows = report_lines(tmp_path, "weyl-fit")
        assert float(rows["exponent"]) == pytest.approx(-2.0, abs=1e-8)
        assert float(rows["constant"]) == pytest.approx(0.25, rel=1e-8)

    def test_boundary_exp_interval(self, tmp_path):
        assert run(
            ["boundary-exp", "--coeffs", "identity", "--domain", "interval",
             "--n", "1", "--nodes", "512"],
            tmp_path,
        ) == 0
        rows = report_lines(tmp_path, "boundary-exp")
        assert float(rows["exponent"]) == pytest.approx(1.0, abs=0.05)
        assert rows["ratio_nonvanishing"] == "True"

    def test_spectrum_count_beyond_dense_cap(self, tmp_path):
        # m = 127^2 = 16129 > DENSE_CAP: a few pairs of the matrix-free operator
        assert run(
            ["spectrum", "--coeffs", "identity", "--a", "0.5", "--domain", "square",
             "--nodes", "128", "--count", "6"],
            tmp_path,
        ) == 0
        rows = report_lines(tmp_path, "spectrum")
        assert rows["eig_path"] == "lobpcg"  # a tensor block, a = 1/2 and k = 6: preconditioned LOBPCG
        assert float(rows["max_residual"]) <= 1e-8
        assert int(rows["count"]) == 6

    def test_spectrum_count_by_parity_matches_ground_energy(self, tmp_path):
        # 40 values only from the exact parity blocks; the lowest is boundary-exp's ground energy (a pair from LOBPCG)
        argv = ["--coeffs", "identity", "--a", "0.5", "--domain", "square", "--nodes", "64"]
        assert run(["spectrum", *argv, "--count", "40"], tmp_path) == 0
        rows = report_lines(tmp_path, "spectrum")
        assert rows["eig_path"] == "parity" and int(rows["count"]) == 40
        assert run(["boundary-exp", *argv], tmp_path) == 0
        ground = float(report_lines(tmp_path, "boundary-exp")["ground_energy"])
        assert float(rows["lambda_min"]) == pytest.approx(ground, rel=1e-10, abs=0.0)

    def test_full_spectrum_beyond_dense_cap_by_parity(self, tmp_path):
        # m = 23^3 = 12167 > DENSE_CAP, in 8 reflection-parity blocks of at most 12^3 = 1728
        assert run(["spectrum", "--a", "0.5", "--domain", "box", "--nodes", "24"], tmp_path) == 0
        rows = report_lines(tmp_path, "spectrum")
        assert (rows["eig_path"], rows["blocks"], rows["max_block"]) == ("parity", "8", "1728")
        assert int(rows["count"]) == 23**3 and float(rows["parity_defect"]) <= 1e-12

    @pytest.mark.parametrize("argv", [
        ["--coeffs", "matrix:2,0.3;0.3,1", "--domain", "square", "--nodes", "128"],  # no split: m = 16129
        ["--domain", "disk", "--nodes", "200"],  # no tensor interior: m about 31000
    ])
    def test_full_spectrum_past_cap_exits_before_gathering(self, tmp_path, monkeypatch, capsys, argv):
        from fracspec import _kernels

        gathers = []
        monkeypatch.setattr(_kernels, "toeplitz_gather", lambda *a, **k: gathers.append(a))
        assert run(["spectrum", "--a", "0.5", *argv], tmp_path) == 3
        assert "capped at 8192" in capsys.readouterr().err and not gathers

    def test_parity_block_past_cap_exits_before_gathering(self, tmp_path, monkeypatch, capsys):
        from fracspec import _kernels, eig

        gathers = []
        monkeypatch.setattr(_kernels, "toeplitz_gather", lambda *a, **k: gathers.append(a))
        # square 32: blocks of 16^2 = 256 and less; the largest matrix solved is block 01, of 16 x 15 = 240
        monkeypatch.setattr(eig, "DENSE_CAP", 200)
        assert run(["spectrum", "--a", "0.5", "--domain", "square", "--nodes", "32"], tmp_path) == 3
        assert "capped at 200, got 240" in capsys.readouterr().err and not gathers

    @pytest.mark.parametrize("a", ["1", "0.5"])  # sparse Lanczos, matrix-free preconditioned LOBPCG
    def test_boundary_exp_repro_in_process(self, tmp_path, a):
        args = ["boundary-exp", "--coeffs", "identity", "--domain", "square",
                "--nodes", "24", "--a", a, "--repro"]
        assert run(args, tmp_path) == 0
        first = (tmp_path / "boundary-exp-report.txt").read_bytes()
        assert run(args, tmp_path) == 0
        assert (tmp_path / "boundary-exp-report.txt").read_bytes() == first
        assert report_lines(tmp_path, "boundary-exp")["eig_path"] == {"1": "lanczos", "0.5": "lobpcg"}[a]

    def test_zaremba_square_grid(self, tmp_path):
        assert run(
            ["zaremba", "--coeffs", "identity", "--domain", "square",
             "--n", "2", "--nodes", "12", "--sigma", "0.0"],
            tmp_path,
        ) == 0
        rows = report_lines(tmp_path, "zaremba")
        assert float(rows["identity_mismatch"]) <= 1e-10
        assert rows["rank_bound_ok"] == "True"
        mu = (tmp_path / "zaremba-mu.csv").read_text().splitlines()
        assert mu[0] == "j,value"
        vals = np.array([float(r.split(",")[1]) for r in mu[1:]])
        assert np.all(np.diff(vals) <= 1e-15)

    def test_zaremba_box_certified(self, tmp_path):
        assert run(["zaremba", "--coeffs", "identity", "--domain", "box", "--nodes", "16"], tmp_path) == 0
        rows = report_lines(tmp_path, "zaremba")
        assert float(rows["identity_mismatch"]) <= 1e-10
        assert float(rows["identity_residual"]) <= 1e-12
        assert rows["rank_bound_ok"] == "True"
        assert (rows["krein_path"], rows["identity_check"]) == ("assembled", "run")

    def test_zaremba_box_past_cap_takes_face_modes(self, tmp_path):
        # N = 23^3 + 23^2 = 12696 > 8192: M cannot be materialized, the face modes answer
        from fracspec.quadrature import DomainSpec
        from fracspec.symbols import SecondOrderCoeffs
        from fracspec.zaremba import face_mode_spectra

        assert run(["zaremba", "--coeffs", "identity", "--domain", "box", "--nodes", "24",
                    "--sigma", "0.5"], tmp_path) == 0
        rows = report_lines(tmp_path, "zaremba")
        assert (rows["krein_path"], rows["identity_check"]) == ("modes", "not_run")
        assert "identity_mismatch" not in rows and "rank_bound_ok" not in rows
        assert (rows["interior_nodes"], rows["boundary_nodes"], rows["shift"]) == ("12167", "529", "1.0")
        want = face_mode_spectra(SecondOrderCoeffs.laplacian(3), 0.5, DomainSpec.unit_box(), 24)
        got = np.loadtxt(tmp_path / "zaremba-mu.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.array_equal(got, want.mu)

    def test_zaremba_past_cap_fails_before_the_work(self, tmp_path, monkeypatch, capsys):
        # cross coefficients do not separate: exit 3 before any assembly or Schur split
        from fracspec import zaremba

        calls = []
        monkeypatch.setattr(zaremba, "schur_split", lambda *a: calls.append("schur_split"))
        monkeypatch.setattr(zaremba, "assemble_second_order", lambda *a, **k: calls.append("assemble"))
        assert run(["zaremba", "--coeffs", "matrix:2,0.5,0;0.5,2,0;0,0,1", "--domain", "box",
                    "--nodes", "24"], tmp_path) == 3
        assert capsys.readouterr().err == "numeric failure: M would be 12696x12696, above the 8192 cap\n"
        assert calls == []

    def test_zaremba_disk_flagged(self, tmp_path):
        assert run(
            ["zaremba", "--coeffs", "identity", "--domain", "disk",
             "--n", "2", "--n-r", "24", "--n-theta", "48", "--arc", "0,3.141592653589793"],
            tmp_path,
        ) == 0
        rows = report_lines(tmp_path, "zaremba")
        assert rows["n2_flagged"] == "True"
        assert (rows["krein_path"], rows["identity_check"]) == ("modes", "not_run")

    def test_zaremba_disk_mildly_negative_sigma_answers_at_shift_one(self, tmp_path):
        assert run(["zaremba", "--domain", "disk", "--n-r", "16", "--n-theta", "32", "--sigma", "-0.5"], tmp_path) == 0
        assert report_lines(tmp_path, "zaremba")["shift"] == "1.0"

    def test_zaremba_disk_negative_sigma_doubles_the_auto_shift(self, tmp_path):
        assert run(["zaremba", "--domain", "disk", "--n-r", "16", "--n-theta", "32", "--sigma", "-5"], tmp_path) == 0
        shift = float(report_lines(tmp_path, "zaremba")["shift"])
        assert shift > 1.0 and np.log2(shift) == np.round(np.log2(shift))
        assert shift == 32.0  # below the operator's scale (2.7e4 here), so not refused

    def test_zaremba_disk_overflowing_shift_is_a_numeric_failure(self, tmp_path, capsys):
        # no shift makes S positive for so negative a Robin weight: the doubling stops at the
        # operator's scale (2.7e4 here), long before any pivot could square past the float range
        assert run(["zaremba", "--domain", "disk", "--n-r", "16", "--n-theta", "32", "--sigma=-1e300"], tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: the auto shift doubled to 32768, past the disk operator's scale")

    def test_zaremba_disk_auto_shift_past_the_operator_scale_is_refused(self, tmp_path, capsys):
        # sigma = -1e6 needs the shift 2^25, past the largest stiffness-to-mass ratio (2.7e4 here),
        # where mu would measure the shift alone: the first doubled shift past it, 2^15, is refused unsolved
        assert run(["zaremba", "--domain", "disk", "--n-r", "16", "--n-theta", "32", "--sigma=-1e6"], tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: the auto shift doubled to 32768, past the disk operator's scale")
        assert not (tmp_path / "zaremba-report.txt").exists()

    def test_zaremba_disk_default_answers_as_the_fixed_shift_one(self, tmp_path):
        # the scale check leaves the default run alone: its files are those of --shift 1, byte for byte
        base = ["zaremba", "--domain", "disk", "--repro"]
        assert run(base, tmp_path / "auto") == 0
        assert run(base + ["--shift", "1"], tmp_path / "one") == 0
        for name in ("zaremba-report.txt", "zaremba-mu.csv", "zaremba-interface.csv"):
            assert (tmp_path / "auto" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_zaremba_disk_default_is_the_laplacian(self, tmp_path):
        base = ["zaremba", "--domain", "disk", "--n-r", "16", "--n-theta", "32", "--repro"]
        assert run(base, tmp_path / "default") == 0
        assert run(base + ["--coeffs", "diag:1,1"], tmp_path / "form") == 0
        for name in ("zaremba-report.txt", "zaremba-mu.csv", "zaremba-interface.csv"):
            assert (tmp_path / "default" / name).read_text() == (tmp_path / "form" / name).read_text()

    def test_dtn_probe_assert_modes(self, tmp_path):
        args = ["dtn-probe", "--coeffs", "matrix:2,1;1,2", "--xi", "1,2",
                "--h", "0.015625"]
        assert run(args, tmp_path) == 0
        rows = report_lines(tmp_path, "dtn-probe")
        assert float(rows["max_rel_error"]) <= 1e-3
        strict = tmp_path / "strict"
        assert run(args + ["--assert", "--tol", "1e-6"], strict) == 4

    @pytest.mark.parametrize("argv", [
        ["symbol-check", "--a", "0.5", "--mu", "0.3"],
        ["weyl-fit", "--expect-exponent", "3"],
        ["weyl-fit", "--expect-constant", "1"],
        ["boundary-exp", "--domain", "interval", "--nodes", "64", "--a", "0.5", "--tol", "1e-6"],
        ["zaremba", "--domain", "square", "--nodes", "8", "--tol", "1e-17"],
        ["singular-probe", "--decay", "harmonic"],
    ], ids=" ".join)
    def test_assert_exits_4_on_a_tolerance_the_run_misses(self, tmp_path, argv, capsys):
        if argv[0] == "weyl-fit":  # it fits 0.25 j^2: exponent 2, constant 0.25
            j = np.arange(1, 41)
            np.savetxt(tmp_path / "values.csv", np.c_[j, 0.25 * j**2], delimiter=",", header="j,value", comments="")
            argv = argv + ["--input", str(tmp_path / "values.csv")]
        assert run(argv + ["--assert"], tmp_path / "out") == 4
        assert capsys.readouterr().err.startswith("tolerance failure: ")

    def test_boundary_exp_disk_takes_the_distance_profile(self, tmp_path):
        # the disk has no face planes: the fit reads the in-band profile against nearest-boundary distance
        assert run(["boundary-exp", "--domain", "disk", "--nodes", "32", "--a", "0.5"], tmp_path) == 0
        rows = report_lines(tmp_path, "boundary-exp")
        assert rows["eig_path"] == "lanczos"
        assert np.isfinite(float(rows["exponent"]))


# option values the table's constraints reject, with a phrase of the message
_CONSTRAINT_CASES = [
    (["weyl-fit", "--window", "5"], "task.window"),
    (["zaremba", "--domain", "disk", "--arc", "1", "--n-r", "8", "--n-theta", "16"], "domain.arc"),
    (["boundary-exp", "--band", "0.1"], "task.band"),
    (["symbol-check", "--n", "3", "--coeffs", "diag:1,2"], "2-dimensional, but domain.n = 3"),
    (["spectrum", "--count", "0", "--nodes", "8"], "task.count"),
    (["spectrum", "--count", "-3", "--nodes", "8"], "task.count"),
    (["spectrum", "--count", "100", "--nodes", "8"], "task.count 100 exceeds the operator dimension 49"),
    (["weyl-fit", "--window", "2.7,30.9"], "task.window"),
    (["weyl-fit", "--window", "30,2"], "needs lo < hi"),
    (["weyl-fit", "--window", "2,30"], "set --input (spectrum writes spectrum-values.csv)"),
    (["zaremba", "--shift", "abc"], "operator.shift: cannot read 'abc' (needs a finite number or 'auto'"),
    (["zaremba", "--shift", "inf"], "operator.shift: cannot read 'inf' (needs a finite number or 'auto'"),
    # float, _floats and _pair values that are not finite
    (["weyl-fit", "--expect-exponent", "1", "--tol-exponent", "nan", "--assert"],
     "task.tol_exponent: cannot read 'nan' (needs finite numbers)"),
    (["weyl-fit", "--fixed-exponent", "nan"], "task.fixed_exponent: cannot read 'nan' (needs finite numbers)"),
    (["weyl-const", "--a", "nan"], "operator.a: cannot read 'nan' (needs finite numbers)"),
    (["boundary-exp", "--domain", "interval", "--nodes", "64", "--threshold", "nan"],
     "task.threshold: cannot read 'nan' (needs finite numbers)"),
    (["zaremba", "--domain", "square", "--nodes", "12", "--sigma", "nan"],
     "operator.sigma: cannot read 'nan' (needs finite numbers)"),
    (["spectrum", "--a", "inf", "--domain", "square", "--nodes", "16"],
     "operator.a: cannot read 'inf' (needs finite numbers)"),
    (["boundary-exp", "--a", "inf", "--domain", "interval", "--nodes", "64"],
     "operator.a: cannot read 'inf' (needs finite numbers)"),
    (["boundary-exp", "--band", "0.01,inf"], "task.band: cannot read '0.01,inf' (needs finite numbers)"),
    (["dtn-probe", "--xi", "1,nan,3"], "task.xi: cannot read '1,nan,3' (needs finite numbers)"),
    # the fractional Laplacian's constant reads no coefficients
    (["weyl-const", "--op", "frac-laplacian", "--coeffs", "diag:1,4", "--a", "0.5"],
     "--op frac-laplacian is the power of the Laplacian, not of coefficients diag(1,4): use --op coeffs"),
    # c(L) and c(M) read neither a power nor an operator kind
    (["weyl-const", "--which", "interface-l", "--a", "0.7"],
     "operator.a applies to --which dirichlet only, not interface-l"),
    (["weyl-const", "--which", "interface-l", "--op", "frac-laplacian", "--domain", "box"],
     "operator.kind applies to --which dirichlet only, not interface-l"),
    (["weyl-const", "--which", "interface-m", "--op", "coeffs", "--coeffs", "diag:1,2,3", "--domain", "box"],
     "operator.kind applies to --which dirichlet only, not interface-m"),
    (["weyl-const", "--which", "interface-m", "--a", "0.5", "--domain", "ball"],
     "operator.a applies to --which dirichlet only, not interface-m"),
    # a Dirichlet problem has no free boundary for domain.arc or domain.cap to place
    (["spectrum", "--domain", "disk", "--nodes", "16", "--a", "0.5", "--count", "3", "--arc", "0.5,1.0"],
     "domain.arc places the free boundary, which the Dirichlet problem does not have"),
    (["boundary-exp", "--domain", "ball", "--nodes", "12", "--cap", "0.2"],
     "domain.cap places the free boundary, which the Dirichlet problem does not have"),
    (["weyl-const", "--domain", "disk", "--arc", "0.5,1.0"],
     "domain.arc places the free boundary, which the Dirichlet problem does not have"),
    # coefficient and --n dimensions against the domain's
    (["zaremba", "--domain", "box", "--coeffs", "diag:1,2", "--nodes", "64"],
     "coefficients 'diag:1,2' are 2-dimensional, but the box domain is 3-dimensional"),
    (["zaremba", "--domain", "square", "--coeffs", "diag:1,2,3", "--nodes", "128"],
     "coefficients 'diag:1,2,3' are 3-dimensional, but the square domain is 2-dimensional"),
    (["zaremba", "--domain", "box", "--coeffs", "diag:1,2,3,4", "--nodes", "64"],
     "coefficients 'diag:1,2,3,4' are 4-dimensional, but the box domain is 3-dimensional"),
    (["weyl-const", "--op", "coeffs", "--coeffs", "diag:1,2", "--domain", "box"],
     "coefficients 'diag:1,2' are 2-dimensional, but the box domain is 3-dimensional"),
    (["weyl-const", "--domain", "disk", "--n", "3"], "domain.n = 3, but the disk domain is 2-dimensional"),
    (["weyl-const", "--domain", "square", "--n", "1"], "domain.n = 1, but the square domain is 2-dimensional"),
    (["zaremba", "--domain", "disk", "--n", "3"], "domain.n = 3, but the disk domain is 2-dimensional"),
    (["zaremba", "--domain", "disk", "--coeffs", "diag:1,4", "--n-r", "16", "--n-theta", "32"],
     "the disk mode route solves the Laplacian only, not coefficients diag(1,4)"),
    (["spectrum", "--domain", "cube"], "unknown domain kind 'cube'"),
    # forms that are not strongly elliptic
    (["spectrum", "--domain", "square", "--coeffs", "matrix:1,2;2,1", "--nodes", "16", "--count", "3"],
     "coefficients 'matrix:1,2;2,1' are not strongly elliptic (smallest eigenvalue -1)"),
    (["zaremba", "--domain", "square", "--coeffs", "matrix:1,2;2,1"], "not strongly elliptic"),
    (["zaremba", "--domain", "box", "--coeffs", "diag:1,-1,1"], "not strongly elliptic"),
    (["boundary-exp", "--domain", "square", "--coeffs", "diag:1,-1"], "not strongly elliptic"),
    (["weyl-const", "--op", "coeffs", "--coeffs", "diag:1,-1"], "not strongly elliptic"),
    (["symbol-check", "--coeffs", "matrix:1,2;2,1"], "not strongly elliptic"),
    (["dtn-probe", "--coeffs", "diag:1,0"], "not strongly elliptic (smallest eigenvalue 0)"),
    # impossible geometry and strip spacing
    (["weyl-const", "--which", "interface-l", "--domain", "disk", "--arc", "2,1"],
     "disk arc must satisfy 0 <= t0 < t1 <= 2 pi, got (2.0, 1.0)"),
    (["weyl-const", "--which", "interface-m", "--domain", "ball", "--cap", "4"], "ball cap must lie in (0, pi], got 4.0"),
    (["weyl-const", "--domain", "disk", "--radius", "-1"], "disk radius must be finite and positive, got -1.0"),
    (["weyl-const", "--domain", "disk", "--radius", "0"], "disk radius must be finite and positive, got 0.0"),
    (["zaremba", "--domain", "disk", "--radius", "-1", "--n-r", "8", "--n-theta", "16"],
     "disk radius must be finite and positive, got -1.0"),
    (["dtn-probe", "--h", "0"], "strip spacing h must be finite and positive, got 0.0"),
    (["dtn-probe", "--h", "-0.01"], "strip spacing h must be finite and positive, got -0.01"),
    # geometry keys on a domain kind that does not read them
    (["weyl-const", "--domain", "square", "--arc", "1,2", "--cap", "3", "--radius", "5"],
     "domain.radius applies to the disk and ball only, not the square domain"),
    (["weyl-const", "--domain", "interval", "--radius", "2"],
     "domain.radius applies to the disk and ball only, not the interval domain"),
    (["zaremba", "--domain", "box", "--radius", "2", "--nodes", "8"],
     "domain.radius applies to the disk and ball only, not the box domain"),
    (["weyl-const", "--domain", "ball", "--arc", "1,2"], "domain.arc applies to the disk only, not the ball domain"),
    (["spectrum", "--domain", "square", "--arc", "1,2", "--nodes", "8"],
     "domain.arc applies to the disk only, not the square domain"),
    (["weyl-const", "--domain", "disk", "--cap", "1"], "domain.cap applies to the ball only, not the disk domain"),
    (["zaremba", "--domain", "box", "--cap", "1", "--nodes", "8"],
     "domain.cap applies to the ball only, not the box domain"),
    # zaremba's resolution keys on a domain whose route does not read them
    (["zaremba", "--domain", "disk", "--nodes", "64", "--n-r", "16", "--n-theta", "32"],
     "grid.nodes does not apply to the disk domain"),
    (["zaremba", "--domain", "interval", "--n-r", "16"], "grid.n_r does not apply to the interval domain"),
    (["zaremba", "--domain", "square", "--n-theta", "32"], "grid.n_theta does not apply to the square domain"),
    (["zaremba", "--domain", "box", "--n-r", "16", "--n-theta", "32"], "grid.n_r does not apply to the box domain"),
    # the 2-node toy reads [output] keys only
    (["zaremba", "--toy", "--domain", "disk"], "domain.kind does not apply to --toy"),
    (["zaremba", "--toy", "--nodes", "64"], "grid.nodes does not apply to --toy"),
    (["zaremba", "--toy", "--sigma", "5"], "operator.sigma does not apply to --toy"),
    (["zaremba", "--toy", "--coeffs", "diag:1,4"], "operator.coeffs does not apply to --toy"),
    (["zaremba", "--toy", "--tol", "1e-3"], "task.tol does not apply to --toy"),
    # a 1-dimensional boundary has no tangential covector
    (["symbol-check", "--n", "1"], "boundary symbols need n >= 2: a 1-dimensional domain has no tangential covector"),
    (["symbol-check", "--coeffs", "diag:2"],
     "boundary symbols need n >= 2: a 1-dimensional domain has no tangential covector"),
]

# numeric failures, exit 3, each message naming its remedy
_NUMERIC_CASES = [
    # a numeric shift is never raised, whatever sigma
    (["zaremba", "--domain", "disk", "--n-r", "16", "--n-theta", "32", "--sigma", "-5", "--shift", "4"],
     "interface Schur complement is not positive definite; apply a larger positivity shift"),
]


class TestConfigHandling:
    def test_config_file_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[operator]\nkind = frac-laplacian\na = 0.25\n"
            "[domain]\nkind = square\nn = 2\n"
        )
        out1 = tmp_path / "a"
        assert execute(["weyl-const", "--config", str(cfgfile), "--out", str(out1)]) == 0
        assert report_lines(out1, "weyl-const")["power"] == "0.25"
        out2 = tmp_path / "b"
        assert execute(
            ["weyl-const", "--config", str(cfgfile), "--a", "0.5", "--out", str(out2)]
        ) == 0
        assert report_lines(out2, "weyl-const")["power"] == "0.5"

    def test_unknown_config_key_rejected(self, tmp_path):
        # an invented key, and keys no pipeline reads
        for text in ("[task]\nfrobnicate = 1\n", "[output]\nformats = csv\n",
                     "[domain]\nlengths = 1,1\n", "[domain]\nsigma_plus = top\n",
                     "[domain]\ntorus_pad = 2\n"):
            cfgfile = tmp_path / "bad.ini"
            cfgfile.write_text(text)
            assert execute(["singular-probe", "--config", str(cfgfile),
                            "--out", str(tmp_path / "o")]) == 2, text

    def test_unknown_config_section_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text("[mystery]\nx = 1\n")
        assert execute(["singular-probe", "--config", str(cfgfile),
                        "--out", str(tmp_path / "o")]) == 2

    def test_bad_values_exit_2(self, tmp_path):
        assert run(["symbol-check", "--coeffs", "matrix:1,2"], tmp_path) == 2
        assert run(["weyl-const", "--which", "bogus", "--coeffs", "identity",
                    "--domain", "square", "--n", "2"], tmp_path) == 2
        assert run(["dtn-probe", "--coeffs", "identity", "--xi", "1.5",
                    "--h", "0.015625"], tmp_path) == 2
        # a config value is checked on load, though singular-probe never reads it
        cfgfile = tmp_path / "b.ini"
        cfgfile.write_text("[grid]\nnodes = abc\n")
        assert run(["singular-probe", "--config", str(cfgfile)], tmp_path) == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--shift", "5"],
        ["spectrum", "--op", "bogus"],
        ["spectrum", "--n-r", "4"],
        ["spectrum", "--h", "0.1"],
        ["spectrum", "--assert"],
        ["zaremba", "--a", "0.5"],
        ["zaremba", "--bc", "periodic"],
        ["dtn-probe", "--nodes", "8"],
        ["weyl-fit", "--tol", "0.1"],
        ["weyl-fit", "--nodes", "8"],
        ["boundary-exp", "--bc", "mixed"],
        ["spectrum", "--bc", "periodic"],
        ["weyl-const", "--op", "bogus"],
    ], ids=" ".join)
    def test_flag_the_subcommand_ignores_exit_2(self, tmp_path, argv, capsys):
        assert run(argv, tmp_path) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", _CONSTRAINT_CASES, ids=[" ".join(argv) for argv, _ in _CONSTRAINT_CASES])
    def test_option_constraint_exit_2(self, tmp_path, argv, message, capsys):
        assert run(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert "Traceback" not in err and not (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize("argv, message", _NUMERIC_CASES, ids=[" ".join(argv) for argv, _ in _NUMERIC_CASES])
    def test_numeric_failure_names_remedy_exit_3(self, tmp_path, argv, message, capsys):
        assert run(argv, tmp_path) == 3
        assert capsys.readouterr().err == f"numeric failure: {message}\n"
        assert not (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["zaremba", "--domain", "ball", "--nodes", "8"],
    ], ids=" ".join)
    def test_mixed_without_free_nodes_exit_2(self, tmp_path, argv, capsys):
        # build_grid puts free nodes on box-like faces only: a disk or ball mixed problem would be Dirichlet
        assert run(argv, tmp_path) == 2
        assert "mixed assembly needs free boundary nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, text, message", [
        ("weyl-const", "[domain]\nkind = square\nradius = 5\n",
         "domain.radius applies to the disk and ball only, not the square domain"),
        ("weyl-const", "[domain]\nkind = box\narc = 1,2\n", "domain.arc applies to the disk only, not the box domain"),
        ("weyl-const", "[domain]\nkind = disk\ncap = 1\n", "domain.cap applies to the ball only, not the disk domain"),
        ("zaremba", "[domain]\nkind = disk\n[grid]\nnodes = 64\n", "grid.nodes does not apply to the disk domain"),
        ("zaremba", "[domain]\nkind = box\n[grid]\nn_r = 16\n", "grid.n_r does not apply to the box domain"),
        ("zaremba", "[grid]\nn_theta = 32\n", "grid.n_theta does not apply to the square domain"),
    ], ids=["radius", "arc", "cap", "nodes", "n_r", "n_theta"])
    def test_geometry_key_in_config_exit_2(self, tmp_path, subcommand, text, message, capsys):
        cfgfile = tmp_path / "g.ini"
        cfgfile.write_text(text)
        assert run([subcommand, "--config", str(cfgfile)], tmp_path / "o") == 2
        assert message in capsys.readouterr().err

    def test_ball_reads_radius(self, tmp_path):
        # C' = vol / (2 pi)^n times the cosphere integral: radius 2 is 8 times radius 1 in 3D
        base = ["weyl-const", "--domain", "ball", "--n", "3", "--level", "-1"]
        assert run(base, tmp_path / "r1") == 0
        assert run(base + ["--radius", "2"], tmp_path / "r2") == 0
        c1, c2 = (float(report_lines(tmp_path / r, "weyl-const")["constant"]) for r in ("r1", "r2"))
        assert c2 == pytest.approx(8.0 * c1, rel=1e-12)

    def test_constraint_in_config_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[task]\nwindow = 5\n")
        assert run(["singular-probe", "--config", str(cfgfile)], tmp_path) == 2
        assert "task.window" in capsys.readouterr().err

    def test_unknown_subcommand_exit_2(self, capsys):
        assert execute(["frobnicate"]) == 2
        capsys.readouterr()

    def test_residual_gate_exit_3(self, tmp_path, monkeypatch):
        # a matrix-free product that is not symmetric gives Ritz pairs that
        # miss the residual check; past the dense cap that is exit 3 (a cross
        # form: identity coefficients split into parity blocks, which the product never reaches)
        from fracspec import _kernels, eig

        apply = _kernels.restricted_power_apply
        monkeypatch.setattr(_kernels, "restricted_power_apply",
                            lambda symbol, interior, shape, X: apply(symbol, interior, shape, X)
                            + 0.5 * np.roll(X, 1, axis=0))
        monkeypatch.setattr(eig, "DENSE_CAP", 64)
        assert run(["spectrum", "--coeffs", "matrix:2,0.3;0.3,1", "--a", "0.5", "--domain", "square",
                    "--nodes", "16", "--count", "3"], tmp_path) == 3

    def test_invariant_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        # an assembly that comes out unsymmetric is a numeric failure, not a configuration error
        from fracspec import discretize

        monkeypatch.setattr(discretize, "assemble_second_order",
                            lambda *a, **k: discretize.OperatorMatrix(np.array([[1.0, 2.0], [0.0, 1.0]])))
        assert run(["spectrum", "--coeffs", "identity", "--nodes", "8"], tmp_path) == 3
        assert capsys.readouterr().err.startswith("numeric failure: operator matrix is not symmetric")

    def test_numeric_failure_exit_3(self, tmp_path):
        seq = tmp_path / "seq.csv"
        seq.write_text("j,value\n" + "\n".join(f"{i},0.0" for i in range(1, 40)))
        assert run(["weyl-fit", "--input", str(seq), "--window", "2,30"], tmp_path) == 3

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        envdir = tmp_path / "fromenv"
        monkeypatch.setenv("FRACSPEC_OUT", str(envdir))
        assert execute(["zaremba", "--toy"]) == 0
        assert (envdir / "zaremba-report.txt").exists()

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACSPEC_OUT", str(tmp_path / "ignored"))
        target = tmp_path / "explicit"
        assert execute(["zaremba", "--toy", "--out", str(target)]) == 0
        assert (target / "zaremba-report.txt").exists()
        assert not (tmp_path / "ignored").exists()


class TestManifest:
    def test_manifest_fields(self, tmp_path):
        run(["zaremba", "--toy", "--seed", "11"], tmp_path)
        text = (tmp_path / "manifest.txt").read_text()
        for key in ("task = zaremba", "config_hash = ", "package_version = ",
                    "numpy_version = ", "kernel_backend = ", "seed = 11",
                    "timestamp = "):
            assert key in text

    @pytest.mark.parametrize("argv, cap", [
        (["singular-probe", "--decay", "harmonic", "--deltas", "1e-2,1e-3,1e-4"], None),
        (["zaremba", "--domain", "square", "--nodes", "12"], None),  # assembled
        (["zaremba", "--domain", "box", "--nodes", "12"], None),  # assembled, N = 1452: threaded GEMMs
        (["zaremba", "--domain", "box", "--nodes", "12"], 1000),  # face modes: 1452 nodes past the cap
        (["zaremba", "--domain", "disk", "--n-r", "16", "--n-theta", "32"], None),
        (["zaremba", "--toy"], None),
        # parity blocks folded by the axis swap: a repeated parity's values are copies
        (["spectrum", "--a", "0.5", "--domain", "square", "--nodes", "24"], None),
        (["spectrum", "--a", "0.5", "--domain", "box", "--nodes", "10"], None),
        (["spectrum", "--a", "0.5", "--domain", "square", "--nodes", "64", "--count", "40"], None),  # parity route
    ], ids=["singular-probe", "zaremba-assembled", "zaremba-assembled-box", "zaremba-face-modes", "zaremba-disk", "zaremba-toy",
            "spectrum-square", "spectrum-box", "spectrum-count"])
    def test_repro_reruns_bit_identical(self, tmp_path, monkeypatch, argv, cap):
        from fracspec import eig

        if cap is not None:
            monkeypatch.setattr(eig, "DENSE_CAP", cap)
        args = argv + ["--repro", "--out", str(tmp_path)]
        assert execute(args) == 0
        first = {
            p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
        }
        assert "timestamp = " not in first["manifest.txt"].decode()
        assert execute(args) == 0
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_config_hash_tracks_inputs(self, tmp_path):
        run(["zaremba", "--toy", "--repro"], tmp_path / "a")
        run(["zaremba", "--toy", "--repro", "--seed", "5"], tmp_path / "b")
        ha = report_hash = None
        for line in (tmp_path / "a" / "manifest.txt").read_text().splitlines():
            if line.startswith("config_hash"):
                ha = line
        for line in (tmp_path / "b" / "manifest.txt").read_text().splitlines():
            if line.startswith("config_hash"):
                report_hash = line
        assert ha is not None and report_hash is not None and ha != report_hash


def test_console_script_help():
    # pyproject's entry point names a callable, and --help runs: through the installed script when it is on
    # PATH, else through the module from the source tree
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        module, attr = re.search(r'^fracspec = "([\w.]+):(\w+)"$', fh.read(), re.M).groups()
    assert callable(getattr(importlib.import_module(module), attr))
    argv = ["fracspec"] if shutil.which("fracspec") else [sys.executable, "-m", "fracspec.cli"]
    proc = subprocess.run([*argv, "--help"], env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "symbol-check" in proc.stdout


def test_readme_examples_run(tmp_path, capsys):
    # every command of the README's CLI "Examples:" block runs as written, its output redirected
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = re.search(r"^Examples:\n\n```\n(.*?)^```", fh.read(), re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert commands and all(argv[0] == "fracspec" for argv in commands)
    for k, argv in enumerate(commands):
        assert execute(argv[1:] + ["--out", str(tmp_path / str(k)), "--repro"]) == 0, argv
    capsys.readouterr()


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # one process: a refused flag, then two valid runs; each answers as a fresh process does
    assert _build_parser() is _build_parser()
    seq = tmp_path / "seq.csv"
    seq.write_text("j,value\n" + "\n".join(f"{i},{0.25 * i**0.5}" for i in range(1, 101)))
    runs = [
        ["weyl-const", "--op", "frac-laplacian", "--a", "0.5", "--domain", "square", "--level", "-1"],
        ["weyl-fit", "--input", str(seq), "--window", "10,60"],
    ]
    assert execute(["weyl-const", "--no-such-flag"]) == 2
    for k, argv in enumerate(runs):
        assert execute(argv + ["--out", str(tmp_path / str(k)), "--repro"]) == 0
        (tmp_path / str(k)).rename(tmp_path / f"in-process-{k}")  # the fresh run writes the same --out
    env = {**os.environ, "PYTHONPATH": SRC}
    fresh = [sys.executable, "-m", "fracspec.cli"]
    proc = subprocess.run([*fresh, "weyl-const", "--no-such-flag"], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    for k, argv in enumerate(runs):
        out, kept = tmp_path / str(k), tmp_path / f"in-process-{k}"
        proc = subprocess.run([*fresh, *argv, "--out", str(out), "--repro"], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert sorted(os.listdir(out)) == sorted(os.listdir(kept))
        for name in os.listdir(out):
            assert (out / name).read_bytes() == (kept / name).read_bytes(), name
    capsys.readouterr()


def test_jobs_flag_caps_thread_env(tmp_path, monkeypatch):
    cfgfile = tmp_path / "j.ini"
    cfgfile.write_text("[output]\njobs = 2\n")
    for extra in (["--jobs", "2"], ["--config", str(cfgfile)]):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert execute(["zaremba", "--toy", *extra, "--out", str(tmp_path / "o")]) == 0
        assert os.environ.get("OMP_NUM_THREADS") == "2", extra


# flag text -> config text (scalars as str(type(value))) -> converted value
_SAMPLES = {
    float: ("0.250", "0.25", 0.25),
    int: ("07", "7", 7),
    str: ("some-text", "some-text", "some-text"),
    _floats: ("1;2.5", "1;2.5", [1.0, 2.5]),
    _pair: ("1;2.5", "1;2.5", [1.0, 2.5]),
    _index_range: ("2;30", "2;30", [2, 30]),
    _Int(1): ("07", "7", 7),
    _shift: ("2.50", "2.50", 2.5),
}


@pytest.mark.parametrize("row", OPTIONS, ids=lambda row: row[2])
def test_option_table_round_trip(row, capsys):
    section, key, flag, typ, subcommands, _ = row
    if typ is _bool:
        argv, text, value = [flag], "true", True
    elif isinstance(typ, tuple):
        argv, text, value = [flag, typ[-1]], typ[-1], typ[-1]
    else:
        raw, text, value = _SAMPLES[typ]
        argv = [flag, raw]
    parser = _build_parser()
    for sub in SUBCOMMANDS:
        if sub not in subcommands:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([sub, *argv])
            assert exc.value.code == 2, sub
            continue
        cfg = _merge_flags({}, parser.parse_args([sub, *argv]))
        assert cfg == {(section, key): text}, sub
        assert _get(cfg, section, key) == value, sub
    capsys.readouterr()


def test_cli_import_leaves_numeric_stack_unloaded():
    # --jobs sets the thread caps in execute(); they only bind if numpy loads after that
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", "import fracspec.cli, sys; assert 'numpy' not in sys.modules"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_pipeline_imports_leave_scipy_special_and_fft_unloaded():
    # scipy.special (tens of ms to import) serves only singular-probe, and the sine transform of the LOBPCG
    # preconditioner is numpy's: importing the modules a pipeline run needs loads neither
    env = {**os.environ, "PYTHONPATH": SRC}
    code = ("import sys, fracspec.asymptotics, fracspec.cli, fracspec.discretize, fracspec.eig, fracspec.zaremba; "
            "loaded = [m for m in ('scipy.special', 'scipy.fft') if m in sys.modules]; assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
