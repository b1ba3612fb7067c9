import csv
import io
import json
import math

import pytest

from fgig.cli import dumps_stable, run


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestSerialization:
    def test_deterministic_floats(self):
        text = dumps_stable({"x": 1.0 / 3.0, "y": [1.5, 2], "z": "s"})
        assert "0.33333333333333331" in text
        assert json.loads(text) == {"x": 1.0 / 3.0, "y": [1.5, 2], "z": "s"}

    def test_key_order_is_insertion_order(self):
        text = dumps_stable({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')


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
        doc = json.loads(out)
        assert doc["support"]["a"] == pytest.approx(1.0)
        assert doc["support"]["b"] == pytest.approx(4.0)

    def test_validation_exit_code(self, capsys):
        code, _ = run_capture(capsys, ["params", "--a", "4", "--b", "1",
                                       "--lambda", "0"])
        assert code == 2

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


class TestMeasurePayload:
    def test_density_measure_object(self, capsys):
        code, out = run_capture(capsys, [
            "density", "--alpha", "2", "--beta", "8", "--lambda", "0",
            "--measure", "--nodes", "64"])
        assert code == 0
        doc = json.loads(out)
        measure = doc["measure"]
        assert set(measure) == {"atoms", "support", "nodes", "density_values"}
        assert measure["atoms"] == []
        assert measure["support"]["lo"] == pytest.approx(1.0, rel=1e-10)
        assert len(measure["nodes"]) == 64
        assert len(measure["density_values"]) == 64
        assert all(v >= 0 for v in measure["density_values"])


class TestFsdCommand:
    def test_verdict_consistency(self, capsys):
        code, out = run_capture(capsys, ["fsd", "--alpha", "2", "--beta", "8",
                                         "--lambda", "-1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["is_fsd"] == (doc["discriminant"] <= 0)
        assert doc["routes_agree"] is True

    def test_fsd_positive_case(self, capsys):
        # B = 4A/3 at the critical shape is FSD
        from fgig.params import SpreadForm, spread_to_natural
        p = spread_to_natural(SpreadForm(3.0, 4.0, -4.0 * math.sqrt(3) / 9))
        code, out = run_capture(capsys, [
            "fsd", "--alpha", str(p.alpha), "--beta", str(p.beta),
            "--lambda", str(p.lam)])
        doc = json.loads(out)
        assert code == 0
        assert doc["is_fsd"] is True


class TestTransformCommand:
    def test_certificate_and_cumulants(self, capsys):
        code, out = run_capture(capsys, [
            "transform", "--alpha", "2", "--beta", "8", "--lambda", "0",
            "--order", "4", "--certificate-grid", "60"])
        assert code == 0
        doc = json.loads(out)
        assert doc["free_cumulants"][0] == pytest.approx(2.125)
        assert doc["fid_certificate"]["passed"] is True


class TestLevyCommand:
    def test_report_passes(self, capsys):
        code, out = run_capture(capsys, [
            "levy", "--alpha", "2", "--beta", "8", "--lambda", "0",
            "--samples", "10"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert abs(doc["drift"]) <= 1e-6


class TestLimitsCommand:
    def test_csv_columns(self, capsys):
        code, out = run_capture(capsys, [
            "limits", "--alpha", "1", "--lambda", "2",
            "--betas", "0.1,0.01,0.001", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["beta", "a", "b", "delta", "eta", "distance"]
        assert len(rows) == 4

    def test_json_regime(self, capsys):
        code, out = run_capture(capsys, [
            "limits", "--alpha", "1", "--lambda", "-2",
            "--betas", "0.1,0.01"])
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "lambda_le_minus_1"
        assert doc["root_limits"]["eta"] == "inf"


class TestEntropyCommand:
    def test_report(self, capsys):
        code, out = run_capture(capsys, [
            "entropy", "--alpha", "2", "--beta", "8", "--lambda", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["gibbs_gap"] <= 1e-6
        assert all(entry["margin"] > 0 for entry in doc["margins"])


@pytest.mark.slow
class TestHeavyCommands:
    def test_convolve_report(self, capsys):
        code, out = run_capture(capsys, [
            "convolve", "--alpha", "2", "--beta", "8", "--lambda", "1",
            "--nodes", "512"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["kolmogorov_distance"] <= 1e-4
        assert doc["mass"] == pytest.approx(1.0, abs=1e-6)

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
