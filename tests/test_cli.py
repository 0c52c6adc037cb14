import csv
import io
import json
from pathlib import Path

import pytest

from oubv import cli, simulate
from oubv.cli import main
from oubv.model import ModelParams, band_coordinate

HELP_DIR = Path(__file__).resolve().parent / "data" / "help"


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

    def test_bad_thread_count_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("OUBV_THREADS", "abc")
        code, _, err = run_cli(["simulate", "--target", "falling-time",
                                "--replicates", "3"], capsys)
        assert code == 2
        assert err == "error: OUBV_THREADS must be an integer, got 'abc'\n"

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

    def test_automatic_range_draws_the_sample_once(self, capsys,
                                                   monkeypatch):
        # the sample that sets the range is the one binned
        calls = []
        advance = simulate.advance

        def counted(state, *args):
            calls.append(state.x.size)
            advance(state, *args)

        monkeypatch.setattr(simulate, "advance", counted)
        code, _, _ = run_cli(["simulate", "--target", "histogram",
                              "--replicates", "2000", "--horizon", "1"],
                             capsys)
        assert code == 0
        assert calls == [2000]


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

    def test_pfaff_series_error_names_the_band_coordinate(self, capsys):
        # the series runs at w = z / (z - 1); the message names z itself
        code, out, _ = run_cli(["analytic", "--quantity", "laplace-falling",
                                "--gamma1", "0.1", "--q", "5", "--start", "0",
                                "--x", "50"], capsys)
        assert code == 4
        _, rows = parse_csv(out)
        z = band_coordinate(50.0, ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 0.1))
        assert z == -49.0 / 11.0
        assert "Gauss series cancelled" in rows[0][11]
        assert rows[0][11].endswith(f"(z={z!r})")

    def test_series_convergence_exit_code(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity", "laplace-falling",
                                "--gamma1", "0.1", "--q", "5", "--start", "1",
                                "--x", "12"], capsys)
        assert code == 4
        _, rows = parse_csv(out)
        assert rows[0][8] == ""
        assert "Gauss series cancelled" in rows[0][11]

    def test_long_horizon_occupation(self, capsys):
        # the psi-series overflowed here; the eigen form gives the
        # stationary law
        code, out, _ = run_cli(["analytic", "--quantity", "occupation-pi00",
                                "--s", "10000"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][8:] == ["0.5", "eigen", "", ""]

    @pytest.mark.parametrize("quantity,grid", [("occupation-pi01", "0.7,5"),
                                               ("mgf-gamma", "1,2")])
    def test_method_names_the_route(self, quantity, grid, capsys):
        # MGF-like rates for mgf-gamma: 2 delta t is 2.06 at t = 1
        code, out, _ = run_cli(["analytic", "--quantity", quantity,
                                "--lambda1", "0.5", "--gamma0", "2",
                                "--grid", grid], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[9] for row in rows] == ["series", "eigen"]

    def test_negative_time_is_config_error(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity", "kac-reference-var",
                                "--t", "-1"], capsys)
        _, rows = parse_csv(out)
        assert code == 2
        assert [row[-1] for row in rows] == ["t must be nonnegative and finite"]

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

    @pytest.mark.parametrize("argv,key", [
        (["analytic", "--quantity", "mgf-gamma", "--t", "abc"], "eval.t"),
        (["analytic", "--quantity", "mgf-gamma", "--t", "nan"], "eval.t"),
        (["analytic", "--quantity", "mgf-gamma", "--t", "inf"], "eval.t"),
        (["analytic", "--quantity", "mean-x", "--x", "nan"], "eval.x"),
        (["analytic", "--quantity", "mean-falling", "--grid", "1,nan"],
         "eval.grid"),
        (["analytic", "--quantity", "mgf-gamma", "--n", "1.5"], "eval.n"),
        (["simulate", "--target", "histogram", "--horizon", "nan"],
         "eval.horizon"),
        (["simulate", "--target", "falling-time", "--x", "nan"], "eval.x"),
        (["validate", "--seed", "x"], "mc.seed"),
    ])
    def test_bad_number_is_config_error(self, argv, key, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key} must be ")

    @pytest.mark.parametrize("config,key", [
        ({"mc": {"seed": "x"}}, "mc.seed"),
        ({"model": {"a0": None}}, "model.a0"),
        ({"eval": {"grid": [0.5, "inf"]}}, "eval.grid"),
    ])
    def test_bad_config_number_is_config_error(self, config, key, tmp_path,
                                               capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(["--config", str(cfg), "analytic",
                                "--quantity", "mgf-gamma"], capsys)
        assert code == 2
        assert err.startswith(f"error: {key} must be ")

    def test_invalid_model_named_inequality(self, capsys):
        code, _, err = run_cli(["analytic", "--quantity", "mgf-gamma",
                                "--a1", "5", "--gamma1", "1"], capsys)
        assert code == 2
        assert "a1/gamma1 < a0/gamma0" in err

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code, stdout, err = run_cli(["--out", str(out), "analytic",
                                     "--quantity", "mgf-gamma"], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and str(out) in err
        assert not out.parent.exists()

    def test_bad_start_same_message_in_both_subcommands(self, capsys):
        code, out, err = run_cli(["analytic", "--quantity", "mgf-gamma",
                                  "--start", "2"], capsys)
        _, rows = parse_csv(out)
        assert code == 2
        assert [row[-1] for row in rows] == ["start must be 0 or 1"]
        code, out, err = run_cli(["simulate", "--target", "falling-time",
                                  "--start", "2", "--replicates", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: start must be 0 or 1\n"


    @pytest.mark.parametrize("argv", [
        ["validate", "--only", "hyper", "--lambda0", "5"],
        ["analytic", "--quantity", "mgf-gamma", "--seed", "3"],
    ])
    def test_flag_of_unread_section_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in captured.err

    def test_parser_is_built_once_and_reused(self, capsys, monkeypatch):
        assert cli._build_parser() is cli._build_parser()
        argv = ["analytic", "--quantity", "mgf-gamma", "--t", "2"]
        first = run_cli(argv, capsys)
        with pytest.raises(SystemExit):
            main(["analytic", "--quantity", "mgf-gamma", "--seed", "3"])
        capsys.readouterr()
        assert run_cli(argv, capsys) == first
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["analytic", "--help"])
        want = (HELP_DIR / "analytic.txt").read_text()
        assert capsys.readouterr().out == want
        assert run_cli(argv, capsys) == first

    def test_telegraph_density_bad_terminal_regime(self, capsys):
        code, out, _ = run_cli(["analytic", "--quantity", "telegraph-density",
                                "--n", "2"], capsys)
        _, rows = parse_csv(out)
        assert code == 2
        assert [row[-1] for row in rows] == ["n must be 0 or 1"]

class TestValidate:
    # validate reads only mc.seed of the Monte Carlo section
    @pytest.mark.parametrize("flag", ["--replicates", "--chunk"])
    def test_unread_mc_key_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--only", "hyper", flag, "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 5" in captured.err

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

    def test_bad_tier_from_config_file(self, tmp_path, capsys):
        # argparse checks --tier; a config file's tier reaches the harness
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"validate": {"tier": "bogus"}}))
        code, out, err = run_cli(["--config", str(cfg), "validate",
                                  "--only", "hyper"], capsys)
        assert code == 2
        assert out == ""
        assert "error: tier must be 'quick' or 'full'" in err

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


class TestHelpText:
    """The four ``--help`` texts, pinned byte for byte at 80 columns."""

    @staticmethod
    def _help(argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", ["oubv", "simulate", "analytic",
                                         "validate"])
    def test_pinned(self, command, capsys, monkeypatch):
        argv = ["--help"] if command == "oubv" else [command, "--help"]
        want = (HELP_DIR / f"{command}.txt").read_text()
        assert self._help(argv, capsys, monkeypatch) == want

    # the configuration sections, or single dotted keys, each subcommand
    # reads; its flags are these keys' leaves and no others
    @pytest.mark.parametrize("command,sections", [
        ("simulate", ("model", "mc", "eval", "sim")),
        ("analytic", ("model", "eval")),
        ("validate", ("mc.seed", "validate.tier", "validate.only")),
    ])
    def test_every_key_is_a_flag(self, command, sections, capsys,
                                 monkeypatch):
        text = self._help([command, "--help"], capsys, monkeypatch)
        flags = {token.strip("[],") for token in text.split()
                 if token.strip("[").startswith("--")}
        want = {"--help", "--config", "--out"}
        if command == "analytic":
            want.add("--quantity")
        for entry in sections:
            section, _, key = entry.partition(".")
            want.update(f"--{leaf}"
                        for leaf in ([key] if key else cli._DEFAULTS[section]))
        assert flags == want
