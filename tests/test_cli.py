import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fgig
from fgig import NaturalParams, solve_support
from fgig.cli import _dumps, run


def fresh_env(**overrides):
    """Environment for a fresh interpreter that imports this package;
    ``FGIG_LOG`` is unset unless given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(fgig.__file__)),
        env.get("PYTHONPATH")]))
    env.pop("FGIG_LOG", None)
    env.update(overrides)
    return env


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestSerialization:
    REPORT = {"x": 1.0 / 3.0, "y": [1.5, 2], "z": "s",
              "edges": [-math.inf, math.inf, math.nan]}

    def test_deterministic_floats(self):
        text = _dumps(self.REPORT)
        assert _dumps(dict(self.REPORT)) == text
        assert json.loads(text) == {"x": 1.0 / 3.0, "y": [1.5, 2], "z": "s",
                                    "edges": ["-inf", "inf", "nan"]}

    def test_key_order_is_insertion_order(self):
        text = _dumps({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')

    def test_integral_float_reads_back_as_float(self):
        value = json.loads(_dumps({"alpha": 2.0}))["alpha"]
        assert type(value) is float and value == 2.0

    def test_quote_is_escaped(self):
        assert json.loads(_dumps({"label": 'a"b'})) == {"label": 'a"b'}


class TestParamsCommand:
    def test_support_to_natural_fixture(self, capsys):
        code, out = run_capture(capsys, ["params", "--a", "1", "--b", "4",
                                         "--lambda", "0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "fgig-report/1"
        assert doc["alpha"] == pytest.approx(2.0)
        assert doc["beta"] == pytest.approx(8.0)

    def test_natural_to_support(self, capsys):
        code, out = run_capture(capsys, ["params", "--alpha", "2", "--beta",
                                         "8", "--lambda", "0"])
        assert code == 0
        assert '"alpha": 2.0,' in out
        doc = json.loads(out)
        assert doc["support"]["a"] == pytest.approx(1.0)
        assert doc["support"]["b"] == pytest.approx(4.0)

    def test_validation_exit_code(self, capsys):
        code = run(["params", "--a", "4", "--b", "1", "--lambda", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("fgig: validation error: invalid support "
                                "parameters: a < b violated\n")

    def test_edge_of_box_exit_code(self, capsys):
        # a valid support within rounding of |lam|*(A/B) = 1 is a numeric
        # failure, not a validation error
        code = run(["params", "--a", "1.907708314082801e-08",
                    "--b", "3.599517040787345e-08",
                    "--lambda", "-40.36129524304455"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("fgig: numeric failure: ")

    def test_idempotent_output(self, capsys):
        _, first = run_capture(capsys, ["params", "--alpha", "1.7", "--beta",
                                        "0.9", "--lambda", "2.3"])
        _, second = run_capture(capsys, ["params", "--alpha", "1.7", "--beta",
                                         "0.9", "--lambda", "2.3"])
        assert first == second


class TestDensityCommand:
    def test_csv_rows_and_worked_value(self, capsys):
        code, out = run_capture(capsys, [
            "density", "--alpha", "2", "--beta", "8", "--lambda", "0",
            "--grid", "1:4:401", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "density"]
        assert len(rows) == 402  # header + 401 points
        xs = [float(r[0]) for r in rows[1:]]
        ys = [float(r[1]) for r in rows[1:]]
        i = min(range(len(xs)), key=lambda k: abs(xs[k] - 2.0))
        assert abs(xs[i] - 2.0) < 5e-3
        assert ys[i] == pytest.approx(math.sqrt(2.0) / math.pi, abs=2e-3)

    def test_default_json_rows(self, capsys):
        argv = ["density", "--alpha", "2", "--beta", "8", "--lambda", "0"]
        code, out = run_capture(capsys, argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 401  # the support, endpoints included
        assert rows[0]["x"] == pytest.approx(1.0, rel=1e-12)
        assert rows[-1]["x"] == pytest.approx(4.0, rel=1e-12)
        assert run_capture(capsys, argv) == (0, out)

    def test_malformed_grid_is_a_validation_error(self, capsys):
        code = run(["density", "--alpha", "2", "--beta", "8", "--lambda", "0",
                    "--grid", "1:4:x"])
        assert code == 2
        assert capsys.readouterr().err.startswith("fgig: validation error: ")

    def test_nonfinite_grid_names_the_grid(self, capsys):
        # -inf passed hi > lo, and the rows read "x": "nan" with exit 0
        code = run(["density", "--alpha", "2", "--beta", "8", "--lambda", "0",
                    "--grid=-inf:1:3"])
        assert code == 2
        assert "grid spec '-inf:1:3'" in capsys.readouterr().err


class TestFsdCommand:
    def test_verdict_consistency(self, capsys):
        code, out = run_capture(capsys, ["fsd", "--alpha", "2", "--beta", "8",
                                         "--lambda", "-1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["is_fsd"] == (doc["discriminant"] <= 0)
        assert doc["k_monotone"] == (doc["max_log_k_slope"] <= 0)
        assert doc["routes_agree"] is True

    def test_fsd_positive_case(self, capsys):
        # B = 4A/3 at the critical shape is FSD
        from fgig.params import SpreadForm, from_support, reparameterize
        p = from_support(reparameterize(
            SpreadForm(3.0, 4.0, -4.0 * math.sqrt(3) / 9)))
        code, out = run_capture(capsys, [
            "fsd", "--alpha", str(p.alpha), "--beta", str(p.beta),
            "--lambda", str(p.lam)])
        doc = json.loads(out)
        assert code == 0
        assert doc["is_fsd"] is True


class TestTransformCommand:
    def test_r_on_grid(self, capsys):
        # a grid with a negative lo goes after "=": after a space it would
        # read as an option
        argv = ["transform", "--alpha", "2", "--beta", "8", "--lambda", "0",
                "--grid=-2:3:11"]
        code, out = run_capture(capsys, argv)
        assert code == 0
        grid = json.loads(out)["r_on_grid"]
        assert grid["imag_offset"] == -0.5
        assert [row["x"] for row in grid["rows"]] == [
            -2.0 + 0.5 * k for k in range(11)]
        assert run_capture(capsys, argv) == (0, out)

    def test_certificate_and_cumulants(self, capsys):
        code, out = run_capture(capsys, [
            "transform", "--alpha", "2", "--beta", "8", "--lambda", "0",
            "--order", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["free_cumulants"][0] == pytest.approx(2.125)
        cert = doc["fid_certificate"]
        assert cert["passed"] is True
        assert cert["sign_pattern"] is True
        assert cert["cut_residual"] <= 2e-9
        assert cert["points"] == 800


    def test_nonfinite_imag_names_imag(self, capsys):
        # exited 3, a numeric failure, for an input that is not a number
        code = run(["transform", "--alpha", "2", "--beta", "8", "--lambda",
                    "0", "--grid", "1:4:3", "--imag", "nan"])
        assert code == 2
        assert "--imag nan" in capsys.readouterr().err

    def test_out_of_range_cumulant_exit_code(self, capsys):
        # kappa_52 overflows: a traceback and exit 1 at order 64, as the
        # series raised OverflowError
        code = run(["transform", "--alpha", "1e-6", "--beta", "1",
                    "--lambda", "0", "--order", "64"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("fgig: numeric failure: ")
        assert captured.err.count("\n") == 1

    def test_subnormal_alpha_exit_code(self, capsys):
        # A = 2/alpha overflows: exit 2 and "max(1,|lam|)*A < B violated"
        # blamed the valid triple
        code = run(["transform", "--alpha", "1e-310", "--beta", "1e10",
                    "--lambda", "0"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("fgig: numeric failure: spread coordinates "
                                "A, B overflow\n")


class TestLevyCommand:
    def test_report_passes(self, capsys):
        code, out = run_capture(capsys, [
            "levy", "--alpha", "2", "--beta", "8", "--lambda", "0",
            "--samples", "10"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert 0.0 <= doc["drift_bound"] <= 1e-12
        assert 0.0 <= doc["semicircular_bound"] <= 1e-12

    def test_no_samples_exit_code(self, capsys):
        code, _ = run_capture(capsys, [
            "levy", "--alpha", "2", "--beta", "8", "--lambda", "0",
            "--samples", "0"])
        assert code == 2


class TestLimitsCommand:
    def test_csv_columns(self, capsys):
        code, out = run_capture(capsys, [
            "limits", "--alpha", "1", "--lambda", "2",
            "--betas", "0.1,0.01,0.001", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["beta", "a", "b", "delta", "eta", "distance"]
        assert len(rows) == 4

    def test_rows_take_the_support_solve(self, capsys):
        # a support read back from spread coordinates cancels at small beta
        betas = [1e-2, 1e-6, 1e-8, 1e-10]
        code, out = run_capture(capsys, [
            "limits", "--alpha", "1", "--lambda", "0.3",
            "--betas", ",".join(format(b, "g") for b in betas)])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["beta"] for row in rows] == betas
        for row, beta in zip(rows, betas):
            s = solve_support(NaturalParams(1.0, beta, 0.3))
            assert row["a"] == pytest.approx(s.a, rel=1e-15, abs=0.0)
            assert row["b_end"] == pytest.approx(s.b, rel=1e-15, abs=0.0)

    def test_json_regime(self, capsys):
        code, out = run_capture(capsys, [
            "limits", "--alpha", "1", "--lambda", "-2",
            "--betas", "0.1,0.01"])
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "lambda_le_minus_1"
        assert doc["root_limits"]["eta"] == "inf"
        # a = beta/(sqrt 2 + 1)**2 and b = beta/(sqrt 2 - 1)**2 at rate beta
        block, root2 = doc["endpoint_asymptotics"], math.sqrt(2.0)
        assert block["a"]["constant"] == pytest.approx(3.0 - 2.0 * root2)
        assert block["b"]["constant"] == pytest.approx(3.0 + 2.0 * root2)
        assert (block["a"]["power"], block["b"]["power"], block["q"]) == (
            1.0, 1.0, 1.0)

    def test_overflowing_support_is_a_numeric_failure(self, capsys):
        # mu(1e-300, 0.1, 0.5) has a support ~3e300 wide, too wide for its
        # quadrature weights
        assert run(["limits", "--alpha", "1e-300", "--lambda", "0.5"]) == 3
        assert capsys.readouterr().err.startswith("fgig: numeric failure: ")

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_nonfinite_lambda_names_lam(self, capsys, lam):
        assert run(["limits", "--alpha", "1", "--lambda", lam]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fgig: validation error: ") and "lam" in err

    def test_malformed_betas_is_a_validation_error(self, capsys):
        code = run(["limits", "--alpha", "1", "--lambda", "2",
                    "--betas", "0.1,abc"])
        assert code == 2
        assert capsys.readouterr().err.startswith("fgig: validation error: ")


class TestEntropyCommand:
    def test_report(self, capsys):
        code, out = run_capture(capsys, [
            "entropy", "--alpha", "2", "--beta", "8", "--lambda", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["gibbs_gap"] <= 1e-6
        assert all(entry["margin"] > 0 for entry in doc["margins"])

    def test_large_bessel_argument(self):
        # 2 sqrt(alpha beta) = 2000: K underflows, its logarithm does not
        done = subprocess.run(
            [sys.executable, "-m", "fgig.cli", "entropy", "--alpha", "1000",
             "--beta", "1000", "--lambda", "0.3"],
            env=fresh_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["gibbs_gap"] <= 1e-6


class TestHeavyCommands:
    def test_convolve_report(self, capsys):
        code, out = run_capture(capsys, [
            "convolve", "--alpha", "2", "--beta", "8", "--lambda", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["kolmogorov_distance"] <= 1e-4
        assert doc["mass"] == pytest.approx(1.0, abs=1e-6)

    def test_convolve_csv_rows(self, capsys):
        argv = ["convolve", "--alpha", "2", "--beta", "8", "--lambda", "1",
                "--format", "csv"]
        code, out = run_capture(capsys, argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "density"]
        # the output's cdf knots, at the angles k pi/1025 of its 1024 nodes
        assert len(rows) == 1 + 1026
        assert all(float(d) >= 0.0 for _, d in rows[1:])
        assert run_capture(capsys, argv) == (0, out)

    def test_convolve_near_axis_passes(self, capsys):
        code, out = run_capture(capsys, [
            "convolve", "--alpha", "0.5", "--beta", "0.5", "--lambda", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["kolmogorov_distance"] <= 1e-4

    def test_fixpoint_report(self, capsys):
        code, out = run_capture(capsys, [
            "fixpoint", "--alpha", "2", "--lambda", "1", "--order", "6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert -1.0 < doc["c"] < 0.0
        assert doc["max_rel_dev"] <= 1e-6
        assert doc["fixed_point_distance"] <= 1e-3

    @pytest.mark.parametrize("alpha, lam, name", [("inf", "1", "alpha = inf"),
                                                  ("1", "inf", "lam = inf")])
    def test_fixpoint_nonfinite_input_is_named(self, capsys, alpha, lam,
                                               name):
        # exited 3 with "quartic does not change sign on (-1, 0)"
        assert run(["fixpoint", "--alpha", alpha, "--lambda", lam]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fgig: validation error: ") and name in err

    def test_fixpoint_order_holds_or_fails(self, capsys):
        # order 16 at (8, 0.1) was 1.6e-6 off; order 32 at (0.5, 3) holds
        code, _ = run_capture(capsys, [
            "fixpoint", "--alpha", "8", "--lambda", "0.1", "--order", "16"])
        assert code == 3
        code, out = run_capture(capsys, [
            "fixpoint", "--alpha", "0.5", "--lambda", "3", "--order", "32"])
        assert code == 0
        assert json.loads(out)["max_rel_dev"] <= 1e-10


class TestExtremeRates:
    """Valid triples at rates far outside the validity box: a report of
    finite numbers, or exit 3; each raised a traceback (exit 1) or, for
    ``density``, wrote infinite rows."""

    @pytest.mark.parametrize("sub, alpha, beta, lam, code", [
        ("entropy", "1", "1e-300", "-50", 3),  # lo*hi underflowed to 0
        ("convolve", "1e300", "1e-300", "0.5", 3),
        ("density", "1", "1e-300", "-50", 3),  # x**2 underflows
        ("fsd", "1e-300", "1", "0", 0),  # B**1.5 overflowed
        ("fsd", "1", "1e-300", "-50", 0),  # A sqrt(9B - 8A) underflowed
        ("fsd", "1e300", "1", "0", 3),  # (delta - 3 alpha)**2 overflows
        ("levy", "1e-300", "1", "0.5", 0),  # (gap/alpha)**2 overflowed
        ("levy", "1e-300", "1e6", "-50", 0),  # log(0) of a vanishing rho**2
    ])
    def test_exits_cleanly(self, capsys, sub, alpha, beta, lam, code):
        assert run([sub, "--alpha", alpha, "--beta", beta, "--lambda",
                    lam]) == code
        out = capsys.readouterr().out
        if code == 0:
            assert not any(s in out for s in ('"nan"', '"inf"', '"-inf"'))


class TestLogging:
    """``FGIG_LOG`` in-process: the CLI prints its one diagnostic itself,
    and ``logging.basicConfig``, a no-op under pytest's log handlers, was
    the only reason these tests ran a fresh interpreter."""

    @staticmethod
    def run_with(monkeypatch, capsys, argv, level):
        """Exit code and captured output of ``fgig ARGV`` with
        ``FGIG_LOG=level`` (unset for None)."""
        if level is None:
            monkeypatch.delenv("FGIG_LOG", raising=False)
        else:
            monkeypatch.setenv("FGIG_LOG", level)
        code = run(argv)
        return code, capsys.readouterr()

    def stderr_of_params(self, monkeypatch, capsys, tmp_path, level):
        """stderr of ``fgig params ... --output``."""
        target = tmp_path / "report.json"
        code, captured = self.run_with(
            monkeypatch, capsys, ["params", "--alpha", "2", "--beta", "8",
                                  "--lambda", "0", "--output", str(target)],
            level)
        assert code == 0
        assert captured.out == "" and target.exists()
        return captured.err, target

    def test_info_reports_the_written_file(self, monkeypatch, capsys,
                                           tmp_path):
        stderr, target = self.stderr_of_params(monkeypatch, capsys, tmp_path,
                                               "info")
        assert stderr == f"fgig: wrote {target}\n"

    def test_default_is_quiet(self, monkeypatch, capsys, tmp_path):
        stderr, _ = self.stderr_of_params(monkeypatch, capsys, tmp_path, None)
        assert stderr == ""

    @pytest.mark.parametrize("level", ["quiet", "debug"])
    def test_other_values_are_quiet(self, monkeypatch, capsys, tmp_path,
                                    level):
        stderr, _ = self.stderr_of_params(monkeypatch, capsys, tmp_path,
                                          level)
        assert stderr == ""

    @pytest.mark.parametrize("level", [None, "info"])
    def test_error_is_reported_once(self, monkeypatch, capsys, level):
        code, captured = self.run_with(
            monkeypatch, capsys, ["params", "--alpha", "1", "--beta", "-1",
                                  "--lambda", "0"], level)
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "fgig: validation error: invalid natural parameters: "
            "beta > 0 violated"]


class TestImports:
    README = [
        "params --a 1 --b 4 --lambda 0",
        "density --alpha 2 --beta 8 --lambda 0 --grid 1:4:401 --format csv",
        "transform --alpha 2 --beta 8 --lambda 0 --order 8",
        "levy --alpha 2 --beta 8 --lambda 0",
        "fsd --alpha 2 --beta 8 --lambda -1",
        "convolve --alpha 2 --beta 8 --lambda 1",
        "fixpoint --alpha 2 --lambda 1",
        "limits --alpha 1 --lambda 2 --betas 0.1,0.01,0.001 --format csv",
        "entropy --alpha 2 --beta 8 --lambda 1",
    ]

    @staticmethod
    def stdout_of(code):
        """stdout of ``python -c code`` in a fresh interpreter."""
        done = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                              capture_output=True, text=True, check=True,
                              timeout=120)
        return done.stdout

    def test_all_names_resolve_once(self):
        # a stale entry would make ``from fgig import *`` raise
        assert len(set(fgig.__all__)) == len(fgig.__all__)
        for name in fgig.__all__:
            getattr(fgig, name)

    def test_names_and_modules_load_on_first_use(self):
        # in this process every module is loaded already; a fresh one
        # reaches a submodule and a name only through ``fgig.__getattr__``
        code = ("import fgig\n"
                "print(fgig.measures.__name__, fgig.cauchy.__module__,\n"
                "      'measures' in dir(fgig))\n")
        assert self.stdout_of(code) == "fgig.measures fgig.transforms True\n"

    # public definitions that nothing in the package calls, and why each
    # stays; a test oracle belongs in tests/conftest.py instead
    UNCALLED = (
        ("subordination_at", "the benchmark harness calls it"),
        ("build_semicircle", "the semicircle law, a closed-form input"),
        ("classical_gig_density", "the classical GIG density of C10"),
        ("fsd_discriminant", "the discriminant fsd_report forms, alone"),
        ("invert_params", "the law of 1/X: mu(beta, alpha, -lam)"),
        ("mode", "the mode that C06 reads"),
        ("r_free_poisson", "the Marchenko--Pastur R-transform C07 reads"),
        ("verify_iterated", "all four stages of C08's reciprocal chain"),
    )

    @staticmethod
    def package_trees():
        """The parsed modules of the package, ``__init__`` aside."""
        return [ast.parse(path.read_text())
                for path in Path(fgig.__file__).parent.glob("*.py")
                if path.name != "__init__.py"]

    def test_every_definition_has_a_caller(self):
        trees = self.package_trees()
        used = set()
        for node in (node for tree in trees for node in ast.walk(tree)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        uncalled = {node.name for tree in trees for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in used}
        assert uncalled == {name for name, _ in self.UNCALLED}

    # records with fields that nothing in the package reads, and why each
    # keeps them
    UNREAD = (
        ("SubordinationPair", "the benchmark harness reads its iterations"),
    )

    def test_every_record_field_has_a_reader(self):
        # a field is read where an attribute of its name is loaded; a record
        # that only wraps values gives way to the values themselves
        nodes = [node for tree in self.package_trees()
                 for node in ast.walk(tree)]
        read = {node.attr for node in nodes
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)}
        unread = {f"{node.name}.{field.target.id}" for node in nodes
                  if isinstance(node, ast.ClassDef)
                  and node.name not in dict(self.UNREAD)
                  for field in node.body if isinstance(field, ast.AnnAssign)
                  and field.target.id not in read}
        assert unread == set()

    # field names that two or more records share, each owner with a read of
    # its own field: the guard above matches by name, so a shared name can
    # hide an unread field, and a new owner must name its read here
    SHARED = {
        "alpha": {"NaturalParams": "params.invert_params: p.alpha",
                  "Potential": "Potential.__call__: self.alpha"},
        "beta": {"NaturalParams": "params.invert_params: p.beta",
                 "Potential": "Potential.__call__: self.beta"},
        "lam": {"NaturalParams": "params.invert_params: p.lam",
                "Potential": "Potential.__call__: self.lam",
                "SupportForm": "params.from_support: s.lam",
                "SpreadForm": "params.reparameterize: x.lam"},
        "support": {"SpectralMeasure": "measures._completed_graph: m.support",
                    "LevyTriplet": "cli._run_levy: t.support"},
    }

    def test_shared_field_names_are_listed(self):
        owners = {}
        for node in (node for tree in self.package_trees()
                     for node in ast.walk(tree)):
            if isinstance(node, ast.ClassDef):
                for field in node.body:
                    if isinstance(field, ast.AnnAssign):
                        owners.setdefault(field.target.id, set()).add(
                            node.name)
        shared = {name: names for name, names in owners.items()
                  if len(names) > 1}
        assert shared == {name: set(reads)
                          for name, reads in self.SHARED.items()}

    # the package modules each README line loads, fgig and fgig.cli aside
    LOADS = {
        "params": {"errors", "params"},
        "density": {"errors", "params", "measures"},
        "transform": {"errors", "params", "measures", "levy", "transforms"},
        "levy": {"errors", "params", "measures", "levy", "transforms"},
        "fsd": {"errors", "params", "measures", "levy", "transforms"},
        "convolve": {"errors", "params", "measures", "transforms",
                     "convolution", "characterization"},
        "fixpoint": {"errors", "params", "measures", "transforms",
                     "convolution", "characterization"},
        "limits": {"errors", "params", "measures", "asymptotics"},
        "entropy": {"errors", "params", "measures", "entropy"},
    }
    # the same subcommand at a second triple, run after its README line
    ALSO = {sub: f"{sub} --alpha 1.3 --beta 2.1 --lambda 0.7"
            for sub in ("params", "density", "transform", "levy", "fsd")}
    ALSO.update(limits="limits --alpha 2 --betas 8 --lambda 0",
                entropy="entropy --alpha 2 --beta 8 --lambda 0")

    @pytest.mark.parametrize("line", [""] + README,
                             ids=lambda line: line.split(" ")[0] or "import")
    def test_loads_only_what_it_runs(self, line):
        # a fresh interpreter runs ``import fgig`` alone or one README line;
        # no line loads scipy, and only params runs without numpy
        sub = line.split(" ")[0]
        lines = [line] + ([self.ALSO[sub]] if sub in self.ALSO else [])
        code = "import contextlib, io, sys\nimport fgig\n"
        if line:
            code += (
                "import fgig.cli\n"
                f"for line in {lines!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert fgig.cli.run(line.split()) == 0, line\n")
        if sub == "entropy":
            code += (
                "from fgig import entropy as E\n"
                "E.gig_entropy(1.3, 2.1, 0.7)\n"
                "E.gibbs_bound(1.3, 2.1, 0.7)\n"
                "E.classical_entropy(lambda x: E.classical_gig_density(\n"
                "    2.0, 8.0, 1.0, x), E.Potential(2.0, 8.0, 1.0), split=2.0)\n")
        code += (
            "print(sorted(m[5:] for m in sys.modules\n"
            "             if m.startswith('fgig.') and m != 'fgig.cli'))\n"
            "print('numpy' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        loaded, numpy, scipy = self.stdout_of(code).splitlines()
        assert loaded == repr(sorted(self.LOADS.get(sub, ())))
        assert numpy == repr(sub not in ("", "params"))
        assert scipy == "[]"

    def test_runs_without_scipy(self):
        # every README subcommand and the classical entropy, in a fresh
        # interpreter where importing scipy fails
        code = (
            "import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "import fgig.cli\n"
            "from fgig import entropy as E\n"
            f"for line in {self.README!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert fgig.cli.run(line.split()) == 0, line\n"
            "E.gig_entropy(1.3, 2.1, 0.7)\n"
            "E.gibbs_bound(1.3, 2.1, 0.7)\n"
            "E.classical_entropy(lambda x: E.classical_gig_density(\n"
            "    2.0, 8.0, 1.0, x), E.Potential(2.0, 8.0, 1.0), split=2.0)\n"
            "print('ok')\n")
        done = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"


class TestOutputFile:
    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_capture(capsys, [
            "params", "--alpha", "2", "--beta", "8", "--lambda", "0",
            "--output", str(target)])
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["support"]["a"] == pytest.approx(1.0)
