import argparse
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from almost_mathieu import alpha, cli, greens, interpolation, products
from almost_mathieu.cli import build_parser, main
from oracles import mat2_step_monodromy


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, as RFC 8259 does."""

    def reject(constant):
        raise ValueError(f"non-finite number {constant} in a JSON report")

    return json.loads(text, parse_constant=reject)


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def child_env(env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return env


def run_proc(*argv, env_extra=None):
    proc = subprocess.run(
        [sys.executable, "-m", "almost_mathieu.cli", *argv],
        capture_output=True,
        env=child_env(env_extra),
    )
    return proc.returncode, proc.stdout


def totient(q):
    return sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)


class TestBandsCommand:
    def test_touching_bands_json(self, capsys):
        code, out = run_main(
            capsys,
            "bands", "--p", "1", "--q", "2", "--lambda", "2",
            "--theta", "1.5707963", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc.keys()) == ["command", "config", "results", "failures", "version"]
        bands = doc["results"]["bands"]
        assert len(bands) == 2
        assert bands[0]["lo"] == pytest.approx(-2.0, abs=1e-9)
        assert bands[0]["hi"] == pytest.approx(0.0, abs=1e-6)
        assert bands[1]["hi"] == pytest.approx(2.0, abs=1e-9)

    def test_csv_format(self, capsys):
        code, out = run_main(
            capsys, "bands", "--p", "1", "--q", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "band,lo,hi,monotonicity"
        assert len(lines) == 4


class TestButterflyCommand:
    def test_csv_row_count(self, capsys):
        qmax = 12
        code, out = run_main(
            capsys, "butterfly", "--qmax", str(qmax), "--lambda", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,q,band,lo,hi"
        want = 1 + sum(q * totient(q) for q in range(2, qmax + 1))
        assert len(lines) == want + 1

    def test_seventeen_digit_floats(self, capsys):
        _, out = run_main(
            capsys, "butterfly", "--qmax", "2", "--lambda", "2", "--format", "csv"
        )
        row = out.strip().split("\n")[2].split(",")
        assert row[3] == "-2.8284271247461903"

    def test_svg_valid_and_complete(self, capsys):
        code, out = run_main(
            capsys, "butterfly", "--qmax", "6", "--format", "svg"
        )
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        want = 1 + sum(q * totient(q) for q in range(2, 7))
        assert len(rects) == want + 1  # one background + one per band row

    @pytest.mark.parametrize("lam", ["-2", "-3"])
    def test_svg_negative_coupling(self, capsys, lam):
        # the drawing spans [-2 - |lam|, 2 + |lam|]; 2 + lam is 0 at lam = -2
        code, out = run_main(
            capsys, "butterfly", "--qmax", "5", "--lambda", lam,
            "--theta-mode", "fixed-theta", "--theta", "0", "--format", "svg",
        )
        assert code == 0
        root = ET.fromstring(out)
        width = float(root.get("width"))
        rects = [el for el in root.iter() if el.tag.endswith("rect")][1:]
        assert len(rects) == 1 + sum(q * totient(q) for q in range(2, 6))
        for r in rects:
            x, w = float(r.get("x")), float(r.get("width"))
            assert 0.0 <= x and x + w <= width + 0.1

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_failed_cell_named_on_stderr(self, capsys, monkeypatch, fmt):
        import almost_mathieu.experiments as experiments
        from almost_mathieu.bands import RootFindingError

        union = experiments.spectral_union_S

        def failing_at_two_fifths(alpha, lam):
            if (alpha.p, alpha.q) == (2, 5):
                raise RootFindingError("injected edge failure")
            return union(alpha, lam)

        monkeypatch.setattr(experiments, "spectral_union_S", failing_at_two_fifths)
        code = main(["butterfly", "--qmax", "5", "--lambda", "2", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "2/5: injected edge failure\n"
        cells = [(0, 1)] + [
            (p, q) for q in range(2, 6) for p in range(1, q) if math.gcd(p, q) == 1
        ]
        want = [(p, q, b) for p, q in cells if (p, q) != (2, 5) for b in range(1, q + 1)]
        if fmt == "csv":
            rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
            assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == want
        elif fmt == "json":
            doc = json.loads(captured.out)
            assert doc["failures"] == ["2/5: injected edge failure"]
            assert [(r["p"], r["q"], r["band"]) for r in doc["results"]["rows"]] == want
        else:
            rects = [el for el in ET.fromstring(captured.out).iter() if el.tag.endswith("rect")]
            assert len(rects) == len(want) + 1  # one background, one per band row

    def test_zero_coupling_fails_once(self, capsys):
        code = main(["butterfly", "--qmax", "5", "--lambda", "0", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["failures"] == ["ValueError: coupling must be positive"]
        assert doc["results"] == {}

    def test_qmax50_row_count(self, capsys):
        code, out = run_main(
            capsys, "butterfly", "--qmax", "50", "--lambda", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        want = 1 + sum(q * totient(q) for q in range(2, 51))
        assert len(lines) == want + 1

    def test_threads_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["butterfly", "--qmax", "5", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestOtherCommands:
    def test_sminus(self, capsys):
        code, out = run_main(capsys, "sminus", "--p", "1", "--q", "2", "--format", "json")
        assert code == 0
        pts = json.loads(out)["results"]["points"]
        assert pts == pytest.approx([-2.0, 2.0], abs=1e-9)

    def test_sminus_csv_empty_above_critical(self, capsys):
        # S- is empty for lam > 2: the CSV is its header alone
        code, out = run_main(
            capsys, "sminus", "--p", "1", "--q", "3", "--lambda", "2.5", "--format", "csv"
        )
        assert code == 0
        assert out == "band,lo,hi\n"

    def test_sminus_csv_points_at_critical(self, capsys):
        code, out = run_main(
            capsys, "sminus", "--p", "1", "--q", "3", "--lambda", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,energy"
        assert len(lines) == 4

    def test_lyapunov_single(self, capsys):
        code, out = run_main(
            capsys,
            "lyapunov", "--p", "0", "--q", "1", "--lambda", "2",
            "--theta", "1.5707963267948966", "--e-re", "3.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["gamma"] == pytest.approx(math.acosh(1.5), rel=1e-9)

    @pytest.mark.parametrize("e_im", ["0", "0.25"])
    def test_lyapunov_grid_json_carries_the_csv_fields(self, capsys, e_im):
        argv = ("lyapunov", "--p", "1", "--q", "2", "--grid", "41", "--e-im", e_im)
        code, out = run_main(capsys, *argv, "--format", "json")
        assert code == 0
        values = strict_json(out)["results"]["values"]
        code, out = run_main(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "e_re,e_im,gamma,bloch_k"
        assert len(values) == len(lines) - 1 == 41
        for row, line in zip(values, lines[1:]):
            assert list(row) == ["e_re", "e_im", "gamma", "bloch_k"]
            e_re, e_im_cell, gamma, bloch_k = line.split(",")
            assert (row["e_re"], row["e_im"], row["gamma"]) == (
                float(e_re), float(e_im_cell), float(gamma)
            )
            assert row["bloch_k"] == (None if bloch_k == "" else float(bloch_k))
        # a phase on the bands at a real energy, null off them and at any complex one
        on_bands = [row["bloch_k"] is not None for row in values]
        assert any(on_bands) == (e_im == "0")
        assert not all(on_bands)

    def test_lyapunov_grid_negative_lambda(self, capsys):
        # -lam cos(x + theta) = lam cos(x + theta + pi): the grid at lambda -2
        # spans the same hull [-4, 4] as at lambda 2, with the same exponents
        # at theta + pi
        def grid(lam, theta):
            code, out = run_main(
                capsys, "lyapunov", "--p", "2", "--q", "5", "--lambda", lam,
                "--theta", theta, "--grid", "41", "--format", "csv",
            )
            assert code == 0
            return [line.split(",") for line in out.strip().split("\n")[1:]]

        neg, pos = grid("-2", "0.3"), grid("2", repr(0.3 + math.pi))
        e_re = [float(row[0]) for row in neg]
        assert e_re[0] == -4.0 and e_re[-1] == 4.0
        assert e_re == sorted(e_re) and len(set(e_re)) == 41
        assert e_re == [float(row[0]) for row in pos]
        for a, b in zip(neg, pos):
            assert float(a[2]) == pytest.approx(float(b[2]), rel=0, abs=1e-12)

    def test_lyapunov_grid_bytes_equal_the_mat2_step_loop(self, capsys, monkeypatch):
        # the whole CLI path, not only the loop, gives the step-matrix bytes,
        # on the benchmark's command; the second oracle runs every real
        # energy in complex arithmetic, so the CSV bytes must not depend on
        # which arithmetic the loop runs a real energy in
        argv = (
            "lyapunov", "--p", "144", "--q", "233", "--theta", "0.7",
            "--grid", "3000", "--format", "csv",
        )
        code, got = run_main(capsys, *argv)
        outputs = []
        for oracle in (
            mat2_step_monodromy,
            lambda spec, z: mat2_step_monodromy(spec, complex(z)),
        ):
            monkeypatch.setattr(greens, "monodromy_scaled", oracle)
            outputs.append(run_main(capsys, *argv))
        assert [c for c, _ in outputs] == [0, 0] and code == 0
        assert got == outputs[0][1] == outputs[1][1]
        assert len(got.split("\n")) == 3002

    def test_green_check(self, capsys):
        code, out = run_main(
            capsys,
            "green-check", "--p", "1", "--q", "2", "--z-re", "0.1",
            "--z-im", "0.2", "--m", "3",
        )
        assert code == 0
        assert json.loads(out)["results"]["ok"]

    def test_surace(self, capsys):
        code, out = run_main(
            capsys,
            "surace", "--p", "1", "--q", "2", "--epsilon", "0.01",
            "--eta", "0.05", "--grid-points", "4001",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["bound"] == pytest.approx(math.pi * 0.2)

    def test_surace_one_grid_point_fails_cleanly(self, capsys):
        code, out = run_main(
            capsys,
            "surace", "--p", "1", "--q", "2", "--epsilon", "0.01",
            "--eta", "0.05", "--grid-points", "1",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["results"] == {}
        assert doc["failures"][0].startswith("ValueError: ")
        assert "at least 2 grid points" in doc["failures"][0]

    def test_product_check(self, capsys):
        code, out = run_main(
            capsys, "product-check", "--count", "20", "--n-max", "50", "--seed", "3"
        )
        assert code == 0
        assert json.loads(out)["results"]["passed"] == 20

    def test_product_check_weakest_margin(self, capsys):
        code, out = run_main(
            capsys, "product-check", "--count", "30", "--n-max", "40", "--seed", "5"
        )
        assert code == 0
        results = json.loads(out)["results"]
        rng = np.random.default_rng(5)
        margins = []
        for i in range(30):
            n = int(rng.integers(1, 41))
            chain = products.random_drift_chain(rng, n, 0.5)
            margins += [(m, [i, k + 1]) for k, m in enumerate(products.hypothesis_margins(chain, 0.5))]
        want = min(margins, key=lambda item: item[0])
        assert results["min_hypothesis_margin"] == want[0] > 0.0
        assert results["min_hypothesis_margin_at"] == want[1]

    def test_interp_check(self, capsys):
        code, out = run_main(
            capsys,
            "interp-check", "--p", "1", "--q", "2", "--pt", "13", "--qt", "27",
            "--delta", "0.25", "--epsilon", "0.1",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["step_i_ok"]
        assert list(results) == [
            "l0", "gate_ok", "ln_lhs_i", "ln_rhs_i", "fitted_cprime",
            "window_ok", "trace_ok", "step_i_ok",
        ]
        assert results["ln_lhs_i"] <= results["ln_rhs_i"]

    def test_measure_decay(self, capsys):
        code, out = run_main(
            capsys,
            "measure-decay", "--p", "1", "--q", "2", "--delta", "0.5",
            "--kmin", "3", "--kmax", "8", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,q,measure,gate_ok,collapsed_bands"
        assert len(lines) == 7

    def test_measure_decay_explicit_approximants(self, capsys):
        code, out = run_main(
            capsys,
            "measure-decay", "--p", "1", "--q", "2", "--delta", "0.5",
            "--approximants", "13/27, 21/43",
        )
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert [(r["p"], r["q"]) for r in rows] == [(13, 27), (21, 43)]

    @pytest.mark.parametrize(
        "argv, got",
        [
            (["--delta", "10"], 0),  # every measure is 0
            (["--delta", "0.1", "--kmin", "3", "--kmax", "3"], 1),  # one row
            (["--delta", "0.1", "--approximants", "1/2,1/2"], 1),  # one q~ twice
        ],
        ids=["all-zero", "one-row", "one-q-twice"],
    )
    def test_measure_decay_without_fit_fails(self, capsys, argv, got):
        code, out = run_main(capsys, "measure-decay", "--p", "1", "--q", "2", *argv)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        assert code == 1
        assert doc["failures"] == [
            f"decay fit needs 2 distinct q~ with positive measure, got {got}"
        ]
        results = doc["results"]
        assert results["fitted_rate"] is None
        assert results["fitted_prefactor"] is None
        assert results["r_squared"] is None
        assert results["rows"]

    def test_measure_decay_csv_without_fit_fails(self, capfd):
        code = main(["measure-decay", "--p", "1", "--q", "2", "--delta", "10", "--format", "csv"])
        out, err = capfd.readouterr()
        assert code == 1
        assert out.startswith("p,q,measure,gate_ok,collapsed_bands\n")
        assert err == "decay fit needs 2 distinct q~ with positive measure, got 0\n"

    def test_mpmath_imported_only_where_used(self):
        script = (
            "import os, sys\n"
            "from almost_mathieu.cli import main\n"
            "code = main(['butterfly', '--qmax', '5', '--format', 'csv', '--output', os.devnull])\n"
            "print(code, 'mpmath' in sys.modules)\n"
            "code = main(['verify', '--suite', 'core', '--output', os.devnull])\n"
            "print(code, 'mpmath' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
        )
        assert proc.stdout == "0 False\n0 True\n", proc.stderr

    def test_console_script_installed(self):
        # The `amo` script that pip writes from [project.scripts] imports the
        # entry point, sets argv[0] to the script name and calls it with no
        # arguments.  Run that same wrapper, so the entry point is checked
        # from the source tree too; the real script is run wherever it is on
        # PATH.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert scripts.get("amo") == "almost_mathieu.cli:main"
        module, attr = scripts["amo"].split(":")
        wrapper = (
            f"import sys\nfrom {module} import {attr}\n"
            f"sys.argv[0] = 'amo'\nsys.exit({attr}())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert b"almost Mathieu" in proc.stdout
        assert b"usage: amo" in proc.stdout

        installed = shutil.which("amo")
        if installed:
            proc = subprocess.run([installed, "--help"], capture_output=True)
            assert proc.returncode == 0
            assert b"almost Mathieu" in proc.stdout

    def test_dimension(self, capsys):
        code, out = run_main(
            capsys,
            "dimension", "--p", "2", "--q", "5", "--scale-min", "1e-4",
            "--scale-max", "1e-1", "--nscales", "8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["n_bands"] == 5

    def test_dimension_bytes_independent_of_blas_threads(self):
        argv = ("dimension", "--p", "377", "--q", "610")
        code_1, out_1 = run_proc(*argv, env_extra={"OPENBLAS_NUM_THREADS": "1"})
        code_2, out_2 = run_proc(*argv, env_extra={"OPENBLAS_NUM_THREADS": "2"})
        assert code_1 == code_2 == 0
        assert json.loads(out_1)["results"]["n_bands"] == 610
        assert out_1 == out_2

    def test_alpha_construct(self, capsys):
        code, out = run_main(capsys, "alpha-construct", "--c", "10", "--jmax", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["all_ok"]

    def test_alpha_margins_as_sign_and_log10(self, capsys):
        # at j = 3 the margins are about 1e-804, 1e-2811, 1e+402 and 1e+391,
        # which floats saturate; the report gives sign and log10 instead
        code, out = run_main(capsys, "alpha-construct", "--c", "10", "--jmax", "3")
        assert code == 0
        doc = strict_json(out)["results"]
        q = [1] + [int(x) for x in doc["denominators"]]  # q[k] = q_k
        for lev in doc["levels"]:
            j = lev["j"]
            q_j, q_j1, q_j2 = q[j], q[j + 1], q[j + 2]
            delta = Fraction(1, q_j**j)
            eta = Fraction(10) ** (-q_j) * delta**2
            exact = {
                "cond1_margin": min(eta, delta) - Fraction(1, q_j * q_j1),
                "cond2_margin": Fraction(1, q_j1 ** (j + 1)) - Fraction(1, q_j1 * q_j2),
                "cond3a_margin": Fraction(q_j1 - q_j**j),
            }
            for key, x in exact.items():
                assert lev[key]["sign"] == 1 and x > 0
                want = math.log10(x.numerator) - math.log10(x.denominator)
                assert lev[key]["log10_abs"] == pytest.approx(want, rel=1e-13, abs=1e-13)
            with mpmath.workdps(60):
                cq = 10 * mpmath.mpf(q_j) ** (j + 1)
                g = q_j1 / cq - mpmath.log(cq) - j * mpmath.log(q_j1)
                want = float(mpmath.log10(g))
            assert lev["cond3b_margin"]["sign"] == 1 and g > 0
            assert lev["cond3b_margin"]["log10_abs"] == pytest.approx(want, rel=1e-13)
        assert [lev["j"] for lev in doc["levels"]] == [1, 3]
        assert doc["levels"][1]["cond1_margin"]["log10_abs"] < -800

    def test_measure_decay_collapsed_bands(self, capsys):
        code, out = run_main(
            capsys, "measure-decay", "--p", "1", "--q", "2", "--delta", "0.5",
            "--kmin", "100", "--kmax", "101",
        )
        assert code == 0
        rows = strict_json(out)["results"]["rows"]
        assert [(r["q"], r["collapsed_bands"]) for r in rows] == [(201, 151), (203, 153)]


class TestErrorPaths:
    def test_usage_error_exit_2(self):
        code, _ = run_proc("bands", "--p", "1")
        assert code == 2

    def test_computational_failure_json_exit_1(self, capsys):
        code, out = run_main(
            capsys,
            "interp-check", "--p", "1", "--q", "2", "--pt", "13", "--qt", "27",
            "--delta", "1e-6", "--epsilon", "0.1",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["failures"]
        assert "too coarse" in doc["failures"][0]

    def test_unknown_suite(self, capsys):
        code, out = run_main(capsys, "verify", "--suite", "nonsense")
        assert code == 1
        assert "unknown suites" in json.loads(out)["failures"][0]

    @pytest.mark.parametrize(
        "q, lam",
        # a band union where lam = 1 gives S-, three bands where S- is
        # empty, and a TypeError from a complex root of the threshold
        [("3", "-1"), ("3", "-3"), ("2", "-3")],
    )
    def test_sminus_rejects_nonpositive_coupling(self, q, lam):
        proc = subprocess.run(
            [sys.executable, "-m", "almost_mathieu.cli", "sminus", "--p", "1", "--q", q,
             "--lambda", lam],
            capture_output=True,
            env=child_env(),
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["failures"] == ["ValueError: coupling must be positive"]
        assert proc.stderr == b""  # no traceback


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out = run_main(capsys, "verify", "--suite", "alpha", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["suites"][0]["name"] == "alpha"
        assert doc["results"]["suites"][0]["ok"]

    def test_repeat_runs_byte_identical(self):
        code_a, out_a = run_proc("verify", "--suite", "products,alpha", "--seed", "7")
        code_b, out_b = run_proc("verify", "--suite", "products,alpha", "--seed", "7")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_precision_and_weakest_margin_byte_identical(self):
        outs = []
        for argv in (
            ("verify", "--suite", "core", "--seed", "7"),
            ("product-check", "--count", "10", "--n-max", "30", "--seed", "2"),
        ):
            (code_a, out_a), (code_b, out_b) = run_proc(*argv), run_proc(*argv)
            assert code_a == code_b == 0
            assert out_a == out_b
            outs.append(json.loads(out_a)["results"])
        detail = outs[0]["suites"][0]["checks"][0]["detail"]
        assert re.fullmatch(r"worst ratio \S+, working precision up to \d+ bits", detail)
        assert outs[1]["min_hypothesis_margin"] > 0.0
        assert len(outs[1]["min_hypothesis_margin_at"]) == 2


# one cheap JSON run per subcommand
RECORD_ARGV = {
    "butterfly": ["--qmax", "3", "--format", "json"],
    "bands": ["--p", "1", "--q", "3"],
    "sminus": ["--p", "1", "--q", "3"],
    "lyapunov": ["--p", "1", "--q", "2", "--e-re", "3.0"],
    "green-check": ["--p", "1", "--q", "2", "--z-re", "0.1", "--z-im", "0.2"],
    "surace": ["--p", "1", "--q", "2", "--epsilon", "0.01", "--eta", "0.05",
               "--grid-points", "201"],
    "product-check": ["--count", "3", "--n-max", "5"],
    "interp-check": ["--p", "1", "--q", "2", "--pt", "13", "--qt", "27",
                     "--delta", "0.25", "--epsilon", "0.1"],
    "measure-decay": ["--p", "1", "--q", "2", "--delta", "0.5", "--kmin", "3",
                      "--kmax", "4"],
    "dimension": ["--p", "1", "--q", "3", "--nscales", "4"],
    "alpha-construct": ["--jmax", "1"],
    "verify": ["--suite", "alpha"],
}


def subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestRunRecord:
    def test_every_command_has_a_case(self):
        assert sorted(RECORD_ARGV) == sorted(subparsers())

    @pytest.mark.parametrize("command", sorted(RECORD_ARGV))
    def test_config_keys_are_option_names_in_parser_order(self, capsys, command):
        options = [
            a.option_strings[-1] for a in subparsers()[command]._actions
            if a.option_strings[-1] not in ("--help", "--output")
        ]
        code, out = run_main(capsys, command, *RECORD_ARGV[command])
        doc = json.loads(out)
        assert doc["command"] == command
        assert doc["failures"] == []
        assert code == 0
        assert list(doc["config"]) == [o[2:].replace("-", "_") for o in options]

    @pytest.mark.parametrize("command", sorted(RECORD_ARGV))
    def test_report_is_strict_json(self, capsys, command):
        _, out = run_main(capsys, command, *RECORD_ARGV[command])
        strict_json(out)

    def test_error_report_has_success_config_keys(self, capsys):
        argv = ["surace", "--p", "1", "--q", "2", "--epsilon", "0.01", "--eta", "0.05"]
        code_1, out_1 = run_main(capsys, *argv, "--grid-points", "1")
        _, out_2 = run_main(capsys, *argv, "--grid-points", "2")
        doc_1, doc_2 = json.loads(out_1), json.loads(out_2)
        assert code_1 == 1 and doc_1["failures"] and doc_1["results"] == {}
        assert doc_2["results"] != {}
        assert list(doc_1["config"]) == list(doc_2["config"])

    def test_measure_decay_config_records_approximants(self, capsys):
        argv = ["measure-decay", "--p", "1", "--q", "2", "--delta", "0.5"]
        _, out_a = run_main(capsys, *argv, "--approximants", "3/7,4/9")
        _, out_b = run_main(capsys, *argv, "--approximants", "5/11")
        doc_a, doc_b = json.loads(out_a), json.loads(out_b)
        assert doc_a["results"] != doc_b["results"]
        assert doc_a["config"] != doc_b["config"]
        assert doc_a["config"]["approximants"] == "3/7,4/9"


def failing_green_check(*args):
    return dataclasses.replace(greens.green_identities_check(*args), power_residual=1e-3)


def failing_surace(*args):
    rep = greens.surace_deviation(*args)
    return dataclasses.replace(rep, measured_measure=rep.bound + rep.slack + 1.0)


def failing_product_growth(chain, beta):
    return dataclasses.replace(
        products.product_growth(chain, beta), verdict="fail", fail_location=1
    )


def failing_green_comparison(*args):
    rep = interpolation.green_comparison(*args)
    return dataclasses.replace(rep, ln_lhs_i=rep.ln_rhs_i + 1.0)


def failing_construct_alpha(c, j_max):
    cf, cert = alpha.construct_alpha(c, j_max)
    level = dataclasses.replace(cert.levels[0], cond2_margin=-1.0)
    return cf, dataclasses.replace(cert, levels=(level,) + cert.levels[1:])


@pytest.mark.parametrize(
    "command, target, fake, named",
    [
        ("green-check", "green_identities_check", failing_green_check, "power_residual 0.001"),
        ("surace", "surace_deviation", failing_surace, "measured_measure"),
        ("product-check", "product_growth", failing_product_growth, "chain 0 ("),
        ("interp-check", "green_comparison", failing_green_comparison, "step (i): lhs_i"),
        ("alpha-construct", "construct_alpha", failing_construct_alpha,
         "level 1: cond2_margin -1 is not positive"),
    ],
)
def test_failed_condition_is_named_and_exits_1(capsys, monkeypatch, command, target, fake, named):
    monkeypatch.setattr(cli, target, fake)
    code, out = run_main(capsys, command, *RECORD_ARGV[command])
    doc = json.loads(out)
    assert code == 1
    assert doc["failures"]
    assert named in doc["failures"][0]
