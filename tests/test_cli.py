import csv
import io
import json

import pytest

from oubv.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestSimulatePaths:
    def test_three_replicates(self, capsys):
        code, out, _ = run_cli(["simulate", "--target", "paths",
                                "--replicates", "3", "--horizon", "1"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["replicate", "epoch", "regime", "x"]
        assert {r[0] for r in rows} == {"0", "1", "2"}
        for row in rows:
            float(row[1]); int(row[2]); float(row[3])

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(["--out", str(p), "simulate", "--target", "paths",
                         "--replicates", "5", "--seed", "9"])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSimulateFallingTime:
    def test_samples(self, capsys):
        code, out, _ = run_cli(["simulate", "--target", "falling-time",
                                "--replicates", "50", "--x", "1.5"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["replicate", "T"]
        assert len(rows) == 50
        assert all(float(r[1]) > 0 for r in rows)

    def test_inside_band_is_config_error(self, capsys):
        code, _, err = run_cli(["simulate", "--target", "falling-time",
                                "--x", "0.5"], capsys)
        assert code == 2
        assert "x must exceed a0/gamma0" in err

    def test_runtime_error_exit_code(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("max_switches exceeded")

        monkeypatch.setattr("oubv.simulate.falling_times", explode)
        code, _, err = run_cli(["simulate", "--target", "falling-time",
                                "--x", "1.5", "--replicates", "10"], capsys)
        assert code == 3
        assert "max_switches" in err


class TestSimulateHistogram:
    def test_masses_normalize(self, capsys):
        code, out, _ = run_cli(["simulate", "--target", "histogram",
                                "--replicates", "2000", "--x0", "0",
                                "--horizon", "1", "--bins", "10"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kind", "lo", "hi", "mass", "stderr"]
        total = sum(float(r[3]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)
        kinds = {r[0] for r in rows}
        assert kinds == {"atom", "bin"}


class TestAnalytic:
    def test_boundary_laplace(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity", "laplace-falling",
                                "--q", "1", "--x", "1.0001", "--start", "1"],
                               capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["quantity", "start", "t", "s", "x", "q", "z", "n",
                          "value", "method", "terms", "error"]
        assert abs(float(rows[0][8]) - 1.0) < 1e-3

    def test_long_run_variance(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity", "var-x-symmetric",
                                "--t", "40"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][8]) == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_fallback_method_flagged(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity", "mean-falling",
                                "--x", "10", "--start", "1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][9] == "fallback"

    def test_series_method_flagged_with_terms(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity", "mean-falling",
                                "--x", "1.5", "--start", "1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][9] == "series"
        assert int(rows[0][10]) > 0

    def test_grid(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity", "mean-falling",
                                "--grid", "1.2,1.5,2.0", "--start", "1"],
                               capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[4]) for r in rows] == [1.2, 1.5, 2.0]
        values = [float(r[8]) for r in rows]
        assert values == sorted(values)

    def test_unknown_quantity(self, capsys):
        code, _, err = run_cli(["analytic", "--quantity", "nope"], capsys)
        assert code == 2
        assert "unknown quantity" in err

    def test_special_case_requires_zero_rate(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity",
                                "laplace-falling-special", "--x", "1.5"],
                               capsys)
        assert code == 2
        _, rows = parse_csv(out)
        assert rows[0][11] != ""

    def test_series_overflow_exit_code(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity", "occupation-pi00",
                                "--s", "10000"], capsys)
        assert code == 4
        _, rows = parse_csv(out)
        assert "overflow" in rows[0][11]

    def test_numbers_round_trip(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity", "mgf-gamma",
                                "--t", "1.0"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        value = float(rows[0][8])
        assert "%.17g" % value == rows[0][8]


class TestConfigHandling:
    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": {"lambda0": 2.0}}))
        code, out, _ = run_cli(["--config", str(cfg), "analytic",
                                "--quantity", "hyper-quad-beta0",
                                "--q", "0", "--lambda0", "3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][8]) == 3.0  # flag wins over file

    def test_config_file_applies(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": {"lambda0": 2.0}}))
        code, out, _ = run_cli(["--config", str(cfg), "analytic",
                                "--quantity", "hyper-quad-beta0", "--q", "0"],
                               capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][8]) == 2.0

    def test_dotted_override(self, capsys):
        code, out, _ = run_cli(["--model.lambda0", "4", "analytic",
                                "--quantity", "hyper-quad-beta0", "--q", "0"],
                               capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][8]) == 4.0

    def test_unknown_dotted_key(self, capsys):
        code, _, err = run_cli(["--model.nope", "4", "analytic",
                                "--quantity", "mgf-gamma"], capsys)
        assert code == 2
        assert "unknown configuration key" in err

    @staticmethod
    def _csv_bytes(tmp_path, forms, base):
        outs = []
        for k, form in enumerate(forms):
            target = tmp_path / f"{k}.csv"
            assert main(["--out", str(target), "analytic", *base, *form]) == 0
            outs.append(target.read_bytes())
        return outs

    def test_flag_equals_value_with_dot(self, tmp_path):
        # "." in the value of --flag=value does not make it a dotted key
        forms = (["--x=1.5"], ["--x", "1.5"], ["--eval.x", "1.5"],
                 ["--eval.x=1.5"])
        outs = self._csv_bytes(tmp_path, forms,
                               ["--quantity", "mean-falling", "--start", "1"])
        assert outs[0].count(b"\n") == 2
        assert all(out == outs[0] for out in outs)

    def test_grid_with_negative_first_point(self, tmp_path):
        forms = (["--grid=-0.4,0.3"], ["--eval.grid", "-0.4,0.3"],
                 ["--eval.grid=-0.4,0.3"], ["--z=-0.4"], ["--z", "0.3"])
        outs = self._csv_bytes(tmp_path, forms,
                               ["--quantity", "joint-density", "--t", "1",
                                "--n", "1", "--x", "0"])
        assert all(out == outs[0] for out in outs[:3])
        _, rows = parse_csv(outs[0].decode())
        single = [parse_csv(out.decode())[1][0] for out in outs[3:]]
        assert rows == single
        assert [float(r[6]) for r in rows] == [-0.4, 0.3]
        assert float(rows[0][8]) > 0.0

    def test_invalid_model_named_inequality(self, capsys):
        code, _, err = run_cli(["analytic", "--quantity", "mgf-gamma",
                                "--a1", "5", "--gamma1", "1"], capsys)
        assert code == 2
        assert "a1/gamma1 < a0/gamma0" in err


class TestValidate:
    def test_filtered_subset(self, capsys):
        code, out, err = run_cli(["validate", "--tier", "quick",
                                  "--only", "hyper_quad"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["name", "analytic", "mc", "stderr", "z", "passed",
                          "seed"]
        assert [r[0] for r in rows] == ["hyper_quad_minor_root_exact"]
        assert rows[0][5] == "true"
        assert "1/1 checks passed" in err

    def test_only_kac_rows(self, capsys):
        code, out, _ = run_cli(["validate", "--tier", "quick",
                                "--only", "kac_mean"], capsys)
        _, rows = parse_csv(out)
        assert all("kac" in r[0] for r in rows)
        assert rows

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            target = tmp_path / name
            code = main(["--out", str(target), "validate", "--tier", "quick",
                         "--seed", "7", "--only", "mean_falling"])
            assert code == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]
