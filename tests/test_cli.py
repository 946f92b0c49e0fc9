import csv
import json
import platform
import time
from dataclasses import fields

import numpy as np
import pytest
import scipy

from helmgrid import cli, problems
from helmgrid.cli import main, parse_k_spec, read_config_file
from helmgrid.grid import ConstantK, WedgeK
from helmgrid.multigrid import DivergenceError
from helmgrid.problems import (ProblemConfig, linear_fit, max_grid_size, pick_grid_size, sweep,
                               sweep_configs)

RESTART_CAPPING_255 = next(2**j for j in range(64) if max_grid_size(2**j) < 255)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


class TestParsing:
    def test_constant_k(self):
        assert parse_k_spec("40") == ConstantK(40.0)

    def test_wedge_k(self):
        spec = parse_k_spec("wedge:10,20,40")
        assert spec == WedgeK(10.0, 20.0, 40.0)
        spec = parse_k_spec("wedge:10,20,40:0.25,0.75")
        assert spec.interfaces == (0.25, 0.75)

    def test_wedge_needs_three_values(self):
        with pytest.raises(ValueError, match="three"):
            parse_k_spec("wedge:10,20")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("n = 31\nk = wedge:10,20,40\nsigma-max = 0.5  # comment\n")
        values = read_config_file(cfg)
        assert values == {"n": "31", "k": "wedge:10,20,40", "sigma_max": "0.5"}

    def test_config_file_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        with pytest.raises(ValueError, match="key = value"):
            read_config_file(cfg)

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("n = 15\nbogus = 1\n")
        code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "unknown config key 'bogus'" in capsys.readouterr().err
        # the symbol grid is fixed at 64 angles per axis; its old key is gone
        cfg.write_text("n = 15\ntheta_count = 32\n")
        code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "unknown config key 'theta_count'" in capsys.readouterr().err
        # the grid sets the hierarchy's depth; the old depth key is gone too
        cfg.write_text("n = 15\nlevels = 3\n")
        code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown config key 'levels'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, key",
        [("n = 31\nn = 63\n", "n"), ("sigma-max = 0.5\nsigma_max = 0.7\n", "sigma_max")],
        ids=["n", "sigma_max"],
    )
    def test_repeated_config_key_named(self, tmp_path, capsys, text, key):
        # a key set twice is an error, not a silent last-one-wins
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        code = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: key {key!r} is already set on line 1\n"
        assert not (tmp_path / "out").exists()

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("n = 15\nk = 10\nmax_iter = 7\n")
        code = main(
            ["solve", "--config", str(cfg), "--max-iter", "100",
             "--out-dir", str(tmp_path / "out")]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["max_iter"] == 100
        assert report["config"]["n"] == 15

    def test_every_field_round_trips_to_report(self, tmp_path):
        values = {
            "n": 31, "k": "wedge:10,20,30", "layer_width": 3, "sigma_max": 0.5,
            "ramp": "linear", "beta": 0.6, "precond": "csl", "smoother": "gmres3",
            "nu_pre": 2, "nu_post": 0, "tol": 1e-5, "restart": 15,
            "max_iter": 300, "rhs": "random", "seed": 4,
        }
        assert set(values) == {f.name for f in fields(ProblemConfig)}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        assert main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        assert set(echo) == set(values)
        assert echo.pop("k") == {"kind": "wedge", "k_top": 10.0, "k_mid": 20.0, "k_bot": 30.0,
                                 "interfaces": [1 / 3, 2 / 3]}
        assert echo == {key: value for key, value in values.items() if key != "k"}

    @pytest.mark.parametrize("command", ["solve", "sweep", "spectrum"])
    def test_flags_are_the_config_fields(self, command):
        extra = ["--k-list", "10"] if command == "sweep" else []
        args = cli.build_parser().parse_args([command, *extra])
        own = {"command", "config", "out_dir", "diagnostics", "write_solution", "k_list", "ppw"}
        assert set(vars(args)) - own == {f.name for f in fields(ProblemConfig)}

    @pytest.mark.parametrize(
        "values, message",
        [({"n": 64}, "^grid size n must be odd"), ({"k": 20.0}, "^wave number k must be a ConstantK"),
         ({"n": 63.0}, "^n must be an integer, got 63.0$"),
         ({"max_iter": 10.5}, "^max_iter must be an integer"),
         ({"nu_pre": 1.5}, "^nu_pre must be an integer"),
         ({"nu_post": True}, "^nu_post must be an integer, got True$"),
         ({"restart": True}, "^restart must be an integer"),
         ({"restart": 20.5}, "^restart must be an integer"),
         ({"seed": 1.5, "rhs": "random"}, "^seed must be an integer"),
         ({"layer_width": 4.5, "sigma_max": 1.0}, "^layer_width must be an integer"),
         ({"sigma_max": "1"}, "^sigma_max must be a real number, got '1'$"),
         ({"tol": "1e-6"}, "^tol must be a real number, got '1e-6'$"),
         ({"beta": True}, "^beta must be a real number, got True$"),
         ({"sigma_max": None}, "^sigma_max must be a real number, got None$")],
        ids=["n64", "bare-k", "n-float", "max_iter-float", "nu_pre-float", "nu_post-bool",
             "restart-bool", "restart-float", "seed-float", "layer_width-float", "sigma_max-str",
             "tol-str", "beta-bool", "sigma_max-none"],
    )
    def test_invalid_config_raises_when_built(self, values, message):
        # a config that exists is valid: no set-up or solve re-checks it, so a
        # count that is not an integer is rejected here, naming its field
        with pytest.raises(ValueError, match=message):
            ProblemConfig(**values)

    def test_numpy_integers_are_integers(self):
        assert ProblemConfig(n=np.int64(63)).n == 63

    def test_numpy_and_integer_values_are_real_numbers(self):
        assert ProblemConfig(beta=np.float64(0.5)).beta == 0.5
        assert ProblemConfig(tol=1).tol == 1
        # the sigma_max cap overflows float32: the check compares it as a float
        # (the suite turns the cast's RuntimeWarning into an error)
        assert ProblemConfig(sigma_max=np.float32(1.0)).sigma_max == 1.0

    @pytest.mark.parametrize("command", ["solve", "sweep", "spectrum"])
    def test_every_flag_help_is_its_field_help(self, command):
        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
        helps = {a.dest: a.help for a in subparsers.choices[command]._actions}
        for f in fields(ProblemConfig):
            assert isinstance(f.metadata["help"], str) and f.metadata["help"].strip()
            assert helps[f.name] == f.metadata["help"]

    def test_smoothing_count_flags_reach_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--n", "15", "--k", "10", "--nu-pre", "2", "--nu-post", "2",
                     "--out-dir", str(out)]) == 0
        echo = json.loads((out / "report.json").read_text())["config"]
        assert (echo["nu_pre"], echo["nu_post"]) == (2, 2)

    def test_pick_grid_size(self):
        assert pick_grid_size(10.0) == 15
        assert pick_grid_size(20.0) == 31
        assert pick_grid_size(40.0) == 63
        assert pick_grid_size(80.0) == 127
        assert pick_grid_size(160.0) == 255
        assert pick_grid_size(320.0) == 511


class TestSolveCommand:
    def test_writes_all_files_and_converges(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["solve", "--n", "63", "--k", "20", "--out-dir", str(out),
             "--diagnostics", "--write-solution"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["report"]["converged"] is True
        residual_rows = read_rows(out / "residuals.csv")
        assert residual_rows[0] == ["iteration", "relative_residual"]
        assert float(residual_rows[1][1]) == 1.0
        assert len(residual_rows) - 1 == len(report["report"]["residual_history"])
        diag_rows = read_rows(out / "diagnostics.csv")
        assert diag_rows[0] == ["cycle", "level", "cgc_ratio", "pre_residual", "post_residual"]
        assert len(diag_rows) > 1
        sol_rows = read_rows(out / "solution.csv")
        assert len(sol_rows) - 1 == 63 * 63

    def test_report_echoes_numpy_scalars_as_python_numbers(self, tmp_path):
        # a config built in code may hold numpy scalars; the report still
        # writes, and its echo reads back as Python numbers
        config = ProblemConfig(n=np.int64(15), k=ConstantK(np.float32(10.0)), tol=np.float64(1e-6))
        assert cli.run_solve(config, tmp_path) == 0
        echo = json.loads((tmp_path / "report.json").read_text())["config"]
        assert echo["n"] == 15 and type(echo["n"]) is int
        assert echo["k"] == {"kind": "constant", "k0": 10.0}
        assert echo["tol"] == 1e-6

    def test_report_records_environment(self, tmp_path, monkeypatch):
        # outputs are byte-identical per BLAS thread count, so the count is
        # recorded; the variable is only read here, no thread is started
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(["solve", "--n", "15", "--k", "10", "--out-dir", str(tmp_path)]) == 0
        env = json.loads((tmp_path / "report.json").read_text())["environment"]
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "2"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        assert (env["python"], env["numpy"], env["scipy"]) == (
            platform.python_version(), np.__version__, scipy.__version__)
        assert env["blas"]["name"] and env["blas"]["version"]
        assert env == cli.environment()

    def test_deterministic_outputs(self, tmp_path):
        args = ["solve", "--n", "31", "--k", "20", "--rhs", "random", "--seed", "3"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "residuals.csv").read_text() == (
            tmp_path / "b" / "residuals.csv"
        ).read_text()

    def test_invalid_beta_names_field(self, tmp_path, capsys):
        code = main(["solve", "--n", "15", "--k", "10", "--beta", "-1",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "shift beta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--ramp", "cubic"), ("--smoother", "sor"), ("--precond", "shift"), ("--rhs", "plane"),
         ("--seed", "-1")],
    )
    def test_unknown_choice_names_field(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        code = main(["solve", "--n", "15", "--k", "10", flag, value, "--out-dir", str(out)])
        assert code == 1
        assert f"{flag[2:]} must be" in capsys.readouterr().err
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize(
        "flag, field", [("--tol", "tol"), ("--beta", "beta"), ("--sigma-max", "sigma_max")]
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_names_field(self, tmp_path, capsys, flag, field, value):
        code = main(["solve", "--n", "15", "--k", "10", flag, value,
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "wedge:10,inf,30", "wedge:-1,2,3", "1e200",
                                       "wedge:10,20,30:0.8,0.2", "wedge:10,20,30:0,0.5",
                                       "wedge:10,20,30:0.3,0.6:junk", "wedge:10,20,30:0.3",
                                       "wedge:10,20,30:0.3,0.6,0.9"])
    def test_bad_wave_number_names_field(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        code = main(["solve", "--n", "15", "--k", value, "--out-dir", str(out)])
        assert code == 1
        assert "wave number k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e200", "nan", "wedge:10,20,30:0.8,0.2"])
    def test_wave_number_value_is_not_a_parse_error(self, tmp_path, capsys, value):
        # the text parses; the spec rejects the value and its rule is the error
        out = tmp_path / "out"
        code = main(["solve", "--n", "15", "--k", value, "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: k: ") and "wave number k" in err
        assert "cannot parse" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sigma_max", ["1e160", "1e200"])
    def test_sigma_max_past_spacing_overflow_names_field(self, tmp_path, capsys, sigma_max):
        # the layer coefficients would overflow; csl sets no sigma_max limit of its own
        out = tmp_path / "out"
        code = main(["solve", "--n", "15", "--k", "10", "--sigma-max", sigma_max,
                     "--precond", "csl", "--smoother", "poly3", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: sigma_max must be finite, >= 0 and below")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key, value", [("n", "abc"), ("tol", "small"), ("k", "wedge:1,x,3")])
    def test_unparsable_value_names_key(self, tmp_path, capsys, source, key, value):
        if source == "flag":
            args = [f"--{key}", value]
        else:
            (tmp_path / "case.cfg").write_text(f"{key} = {value}\n")
            args = ["--config", str(tmp_path / "case.cfg")]
        code = main(["solve", *args, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: cannot parse {value!r}")

    @pytest.mark.parametrize(
        "extra, fields",
        [
            (["--n", "66"], ["grid size n", "odd", "66"]),
            (["--n", "64"], ["grid size n", "odd", "64"]),
            (["--n", "133"], ["n=133", "66x66"]),
        ],
        ids=["n66", "n64", "n133"],
    )
    def test_invalid_grid_size_names_field(self, tmp_path, capsys, extra, fields):
        code = main(["solve", "--k", "10", *extra, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert all(f in err for f in fields)

    @pytest.mark.parametrize(
        "extra", [["--sigma-max", "5"], ["--sigma-max", "2", "--beta", "3"]],
        ids=["sigma5-beta0.5", "sigma2-beta3"],
    )
    def test_layer_past_rotation_names_fields(self, tmp_path, capsys, extra):
        # h(1 + i sigma_max) * sqrt(1 + i beta) loses its positive real part
        code = main(["solve", "--n", "31", "--k", "20", *extra, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "sigma_max" in err and "beta" in err

    def test_grid_past_memory_fails_fast(self, tmp_path, capsys):
        # the n pick_grid_size(1e7) once returned: ~2.5e14 unknowns
        out = tmp_path / "out"
        t0 = time.perf_counter()
        code = main(["solve", "--n", "15728639", "--out-dir", str(out)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert "grid size n=15728639" in err and "physical memory" in err
        assert not out.exists()

    def test_large_sigma_max_solves_with_csl(self, tmp_path):
        code = main(["solve", "--n", "31", "--k", "20", "--sigma-max", "5", "--precond", "csl",
                     "--out-dir", str(tmp_path)])
        assert code == 0

    def test_setup_failure_exit_code(self, tmp_path, capsys):
        # a nearly unshifted preconditioner leaves no stable cubic on some level
        code = main(["solve", "--smoother", "poly3", "--beta", "0.01", "--n", "31",
                     "--k", "30", "--out-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: unstable level")
        assert "GMRES(3) smoother (--smoother gmres3, the default) needs no design" in err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "unstable_level"
        assert report["error"] == err.removeprefix("error: ").strip()
        assert report["config"]["beta"] == 0.01
        assert report["environment"] == cli.environment()

    @pytest.mark.parametrize(
        "extra",
        [["--n", "63", "--k", "wedge:10,20,40"], ["--n", "31", "--k", "20", "--sigma-max", "3"]],
        ids=["wedge-n63", "n31-sigma3"],
    )
    def test_unstable_poly3_case_solves_with_gmres3(self, tmp_path, capsys, extra):
        # the error's advice holds on the known cases: poly3 finds no stable
        # cubic, and GMRES(3) converges on the same problem
        code = main(["solve", *extra, "--smoother", "poly3", "--out-dir", str(tmp_path / "p")])
        assert code == 3
        assert "--smoother gmres3" in capsys.readouterr().err
        assert main(["solve", *extra, "--out-dir", str(tmp_path / "g")]) == 0

    def test_divergence_writes_report(self, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("divergence detected at level 0")

        monkeypatch.setattr(cli, "solve", diverge)
        code = main(["solve", "--n", "15", "--k", "10", "--out-dir", str(tmp_path)])
        assert code == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "divergence"
        assert report["error"] == "divergence detected at level 0"
        assert report["config"]["n"] == 15

    @pytest.mark.parametrize(
        "command, target",
        [(["solve"], "solve"), (["sweep", "--k-list", "10"], "sweep"),
         (["spectrum"], "setup_problem")],
        ids=["solve", "sweep", "spectrum"],
    )
    def test_every_subcommand_reports_a_failure(self, tmp_path, capsys, monkeypatch, command,
                                                target):
        # one failure path: exit 3 and report.json, whichever command failed
        def diverge(*args, **kwargs):
            raise DivergenceError("divergence detected at level 1")

        monkeypatch.setattr(cli, target, diverge)
        out = tmp_path / "out"
        assert main([*command, "--n", "15", "--k", "10", "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == "error: divergence detected at level 1\n"
        report = json.loads((out / "report.json").read_text())
        assert (report["status"], report["error"]) == ("divergence", "divergence detected at level 1")
        assert report["config"]["n"] == 15
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_vanishing_full_diagonal_runs_to_maxiter(self, tmp_path, capsys):
        # kh = 2 exactly: the physical operator's full diagonal 4/h^2 - k^2 is
        # zero off the layer; the solve runs and reports its status
        out = tmp_path / "kh2"
        code = main(["solve", "--n", "31", "--k", "64", "--max-iter", "20",
                     "--out-dir", str(out)])
        assert code == 3
        assert "maxiter" in capsys.readouterr().out
        assert json.loads((out / "report.json").read_text())["report"]["status"] == "maxiter"

    def test_nonconverged_exit_code(self, tmp_path):
        code = main(["solve", "--n", "31", "--k", "20", "--max-iter", "2",
                     "--out-dir", str(tmp_path / "nc")])
        assert code == 3
        # report still written
        assert (tmp_path / "nc" / "report.json").exists()


class TestSweepCommand:
    def test_single_k_matches_solve(self, tmp_path):
        main(["solve", "--n", "15", "--k", "10", "--out-dir", str(tmp_path / "s")])
        main(["sweep", "--k-list", "10", "--out-dir", str(tmp_path / "w")])
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        rows = read_rows(tmp_path / "w" / "sweep.csv")
        assert rows[0] == ["k", "n", "iterations", "converged", "wall_time"]
        assert int(rows[1][2]) == report["report"]["iterations"]

    def test_fit_written(self, tmp_path):
        main(["sweep", "--k-list", "10,20", "--out-dir", str(tmp_path / "w")])
        fit = json.loads((tmp_path / "w" / "sweep_fit.json").read_text())
        assert set(fit) == {"slope", "intercept", "r_squared"}

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--k-list", "10,abc"], "k_list: cannot parse '10,abc'"),
            (["--k-list", "nan"], "k_list must be finite and > 0"),
            (["--k-list", "10,-5"], "k_list must be finite and > 0"),
            (["--k-list", "10", "--ppw", "x"], "ppw: cannot parse 'x'"),
            (["--k-list", "10", "--ppw", "1,2"], "ppw: cannot parse '1,2'"),
            (["--k-list", "10", "--ppw", "0"], "ppw must be finite and > 0"),
            (["--k-list", "10", "--ppw", "inf"], "ppw must be finite and > 0"),
            (["--k-list", "10,10"], "k_list: k=10 is repeated"),
            (["--k-list", "20,10,20"], "k_list: k=20 is repeated"),
        ],
    )
    def test_bad_sweep_flag_names_key(self, tmp_path, capsys, extra, message):
        out = tmp_path / "out"
        code = main(["sweep", *extra, "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_k_past_memory_fails_fast(self, tmp_path, capsys):
        out = tmp_path / "out"
        t0 = time.perf_counter()
        code = main(["sweep", "--k-list", "1e7", "--out-dir", str(out)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert "wave number k=1e+07" in err and "physical memory" in err
        assert not out.exists()

    def test_k_without_grid_size_makes_no_directory(self, tmp_path, capsys):
        # k = 1 at 10 points per wavelength wants n < 3; no grid size fits
        out = tmp_path / "out"
        code = main(["sweep", "--k-list", "10,1", "--out-dir", str(out)])
        assert code == 1
        assert "for k=1.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--k-list", "10,20", "--layer-width", "5"], "k=10 (n=15): layer_width"),
            # the least power-of-two restart that leaves n = 255 past the memory cap
            (["--k-list", "20,160", "--restart", str(RESTART_CAPPING_255)],
             "k=160 (n=255): grid size n=255"),
        ],
    )
    def test_invalid_k_config_makes_no_directory(self, tmp_path, capsys, extra, message):
        # every k's config is validated before the directory or the first solve
        out = tmp_path / "out"
        t0 = time.perf_counter()
        code = main(["sweep", *extra, "--out-dir", str(out)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_library_sweep_rejects_repeated_k_before_solving(self, monkeypatch):
        monkeypatch.setattr(problems, "solve", lambda *args, **kwargs: pytest.fail("solved"))
        with pytest.raises(ValueError, match="k_list: k=10 is repeated"):
            sweep([10, 10])

    @pytest.mark.parametrize("k", [np.nan, np.inf])
    def test_library_sweep_names_non_finite_k(self, monkeypatch, k):
        # no grid size fits a non-finite k, so the error must name k first
        monkeypatch.setattr(problems, "solve", lambda *args, **kwargs: pytest.fail("solved"))
        with pytest.raises(ValueError, match="^k0 must be positive .* wave number k"):
            sweep([10, k])

    @pytest.mark.parametrize("ppw", [np.nan, np.inf, 0.0, -1.0])
    def test_library_sweep_rejects_bad_ppw(self, ppw):
        # pick_grid_size divides by ppw, so it checks it
        with pytest.raises(ValueError, match="^ppw must be finite and > 0"):
            sweep_configs([20], ppw=ppw)

    def test_unstable_level_writes_report(self, tmp_path, capsys):
        # a nearly unshifted preconditioner leaves no stable cubic at k = 20
        # (n = 31); the report echoes the base configuration, not k's
        out = tmp_path / "out"
        code = main(["sweep", "--k-list", "20", "--smoother", "poly3", "--beta", "0.01",
                     "--out-dir", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: unstable level")
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "unstable_level"
        assert report["error"] == err.removeprefix("error: ").strip()
        assert report["config"]["n"] == ProblemConfig.n
        assert report["config"]["beta"] == 0.01
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_linear_fit_on_one_distinct_x(self):
        # a repeated x is one point, fitted by the one-point branch; a numpy
        # RankWarning would fail here, as Tier-1 turns warnings into errors
        assert linear_fit([10, 10], [5, 6]) == {"slope": 0.0, "intercept": 5.0, "r_squared": 1.0}


class TestSpectrumCommand:
    def test_row_counts_match_declared_samples(self, tmp_path, capsys):
        out = tmp_path / "spec"
        assert main(["spectrum", "--n", "63", "--k", "40", "--out-dir", str(out)]) == 0
        tri_rows = read_rows(out / "spectrum_triangles.csv")
        sample_rows = read_rows(out / "spectrum_samples.csv")

        from helmgrid.problems import setup_problem
        from helmgrid.spectrum import symbol_samples

        problem = setup_problem(ProblemConfig(n=63, k=ConstantK(40.0)))
        assert problem.hierarchy.depth == 3  # 63 -> 31 -> 15
        # one triangle row per smoothing level; the coarsest is solved by LU
        assert len(tri_rows) - 1 == problem.hierarchy.depth - 1
        declared = sum(
            symbol_samples(lv.op).points.size
            for lv in problem.hierarchy.levels
        )
        assert len(sample_rows) - 1 == declared
        assert capsys.readouterr().out == f"spectrum: 3 levels, 2 designed, {declared} samples\n"

    def test_triangle_vertices_lower_half(self, tmp_path):
        out = tmp_path / "spec"
        main(["spectrum", "--n", "31", "--k", "20", "--out-dir", str(out)])
        rows = read_rows(out / "spectrum_triangles.csv")[1:]
        assert len(rows) == 1  # 31 -> 15, and the 15 x 15 level is solved by LU
        for row in rows:
            for col in (2, 4, 6):  # v1_im, v2_im, v3_im
                assert float(row[col]) <= 1e-12

    def test_unstable_level_writes_report(self, tmp_path, capsys):
        # the wedge 10/20/40 leaves no stable cubic on the finest level
        out = tmp_path / "spec"
        code = main(["spectrum", "--n", "63", "--k", "wedge:10,20,40", "--out-dir", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: unstable level")
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "unstable_level"
        assert report["error"] == err.removeprefix("error: ").strip()
        assert report["config"]["k"]["kind"] == "wedge"
        assert report["config"]["smoother"] == "poly3"
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_explicit_gmres3_smoother_is_rejected(self, tmp_path, capsys, source):
        # spectrum writes the cubic's designs; a smoother that has none is an
        # input error naming the field, not ignored, and makes no directory
        out = tmp_path / "spec"
        argv = ["spectrum", "--n", "31", "--k", "20", "--out-dir", str(out)]
        if source == "flag":
            argv += ["--smoother", "gmres3"]
        else:
            cfg = tmp_path / "case.cfg"
            cfg.write_text("smoother = gmres3\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: smoother: ")
        assert not out.exists()
        # an explicit poly3 is the default's design
        assert main(argv[:7] + ["--smoother", "poly3"]) == 0
        assert len(read_rows(out / "spectrum_triangles.csv")) == 2
