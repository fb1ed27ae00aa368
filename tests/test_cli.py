import argparse
import logging
from pathlib import Path

import numpy as np
import pytest

from fdpctl import cli, oracle
from fdpctl.constants import family_report
from fdpctl.core import Gamma
from fdpctl.pairdist import EquicorrelatedPairs


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


@pytest.fixture()
def pfile(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("# demo p-values\n0.01\n0.06\n0.07\n")
    return str(path)


class TestManifest:
    UNECHOED = ("output", "svg", "threads")

    @staticmethod
    def dests(subcommand):
        """Every argument a subcommand's parser stores, help aside."""
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return [a.dest for a in sub.choices[subcommand]._actions
                if a.dest != "help"]

    @pytest.mark.parametrize("argv", [
        ["constants", "--family", "thm37", "--n", "6", "--gamma", "1/10",
         "--rho", "0.3"],
        ["test", "--direction", "su", "--constants", "0.02,0.05,0.075"],
        ["test", "--direction", "sd", "--family", "thm34", "--k", "2",
         "--gamma", "1/10", "--rho", "0.3"],
        ["simulate", "--procedures", "lr-sd", "--n", "10", "--gamma", "1/10",
         "--reps", "5"],
    ], ids=["constants", "test-constants", "test-family", "simulate"])
    def test_every_parsed_argument_is_echoed(self, capsys, pfile, argv):
        if argv[0] == "test":
            argv = argv + ["--pvalues", pfile]
        code, out, _ = run(capsys, *argv)
        keys = [ln[2:].split("=")[0] for ln in out.splitlines()
                if ln.startswith("# ") and "=" in ln]
        assert code == 0
        for dest in self.dests(argv[0]):
            assert (dest in keys) == (dest not in self.UNECHOED), dest

    def test_values_are_echoed_as_typed(self, capsys, pfile):
        code, out, _ = run(capsys, "test", "--pvalues", pfile, "--direction",
                           "su", "--constants", "0.02,0.05,0.075")
        assert code == 0 and "# gamma=" in out.splitlines()
        code, out, _ = run(capsys, "constants", "--family", "lr", "--n", "4",
                           "--gamma", "0.1")
        assert code == 0 and "# gamma=0.1" in out.splitlines()


class TestConstantsCommand:
    def test_lr_first_row(self, capsys):
        code, out, _ = run(capsys, "constants", "--family", "lr", "--n", "10",
                           "--gamma", "1/10", "--alpha", "0.05")
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "i,alpha_i"
        assert rows[1].startswith("1,") and float(rows[1].split(",")[1]) == 0.005

    def test_rescaled_family_matches_lr_for_k1(self, capsys):
        _, out_lr, _ = run(capsys, "constants", "--family", "lr", "--n", "10",
                           "--gamma", "1/10")
        _, out_32, _ = run(capsys, "constants", "--family", "thm32",
                           "--template", "lr", "--k", "1", "--n", "10",
                           "--gamma", "1/10")
        vals_lr = [float(r.split(",")[1]) for r in data_rows(out_lr)[1:11]]
        vals_32 = [float(r.split(",")[1]) for r in data_rows(out_32)[1:11]]
        assert np.allclose(vals_32, vals_lr, rtol=1e-12)
        assert any(r.startswith("C,") for r in data_rows(out_32))

    def test_pairwise_family_k1_is_usage_error(self, capsys):
        code, _, err = run(capsys, "constants", "--family", "thm34", "--k", "1",
                           "--n", "10", "--gamma", "1/10", "--rho", "0.5")
        assert code == 1 and "k >= 2" in err

    @pytest.mark.parametrize("argv", [
        ("--family", "thm32", "--n", "-3"),
        ("--family", "thm37", "--n", "-3", "--rho", "0.3"),
        ("--family", "thm32", "--n", "10", "--k", "0"),
        ("--family", "thm37", "--n", "10", "--k", "0", "--rho", "0.3"),
        ("--family", "thm33", "--n", "5", "--k", "6"),
    ])
    def test_k_outside_one_to_n_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, "constants", "--gamma", "1/10", *argv)
        assert code == 1 and "need 1 <= k <= n" in err

    def test_pairwise_family_without_model_is_usage_error(self, capsys):
        code, _, err = run(capsys, "constants", "--family", "thm37", "--n", "8",
                           "--gamma", "1/10")
        assert code == 1 and "needs --rho" in err

    def test_calibrated_family_reports_beta(self, capsys):
        code, out, _ = run(capsys, "constants", "--family", "thm38", "--n", "8",
                           "--gamma", "1/10", "--rho", "0")
        assert code == 0
        assert any(r.startswith("beta_star,") for r in data_rows(out))

    def test_calibrated_bound_does_not_exceed_alpha(self, capsys):
        code, out, _ = run(capsys, "constants", "--family", "thm37", "--n", "10",
                           "--gamma", "1/10", "--rho", "0.3")
        assert code == 0
        scale = [r for r in data_rows(out) if r.startswith("C,")]
        assert len(scale) == 1 and float(scale[0].split(",")[1]) <= 0.05

    @pytest.mark.parametrize("family, k", [("thm34", "2"), ("thm37", "1"),
                                           ("thm38", "1")])
    def test_rho_zero_is_independence(self, capsys, family, k):
        code, out, _ = run(capsys, "constants", "--family", family, "--n", "20",
                           "--k", k, "--gamma", "1/10", "--rho", "0")
        report = family_report(family, 20, Gamma(1, 10), int(k), 0.05,
                               F=EquicorrelatedPairs(0.0))
        expected = ["i,alpha_i"] + [
            f"{i},{float(v)!r}"
            for i, v in enumerate(report.constants.values, start=1)]
        expected.append(f"C,{report.scale!r}")
        if report.beta_star is not None:
            expected.append(f"beta_star,{report.beta_star!r}")
        assert code == 0
        assert data_rows(out) == expected

    def test_named_model_flag_is_gone(self, capsys):
        # argparse reads the prefix --f as --family, which has no such choice
        code, out, _ = run(capsys, "constants", "--family", "thm37", "--n", "8",
                           "--gamma", "1/10", "--f", "independence")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("alpha", ["nan", "0", "1", "2"])
    @pytest.mark.parametrize("family", ["lr", "thm35", "thm37"])
    def test_alpha_outside_unit_interval_is_named(self, capsys, family, alpha):
        code, out, err = run(capsys, "constants", "--family", family, "--n", "8",
                             "--gamma", "1/10", "--rho", "0.3", "--alpha", alpha)
        assert code == 1 and out == ""
        assert err == f"usage error: alpha must lie in (0, 1), got {float(alpha)}\n"

    def test_pairwise_lr_scale_row_is_a_plain_float(self, capsys):
        code, out, _ = run(capsys, "constants", "--family", "thm34", "--n", "10",
                           "--k", "2", "--gamma", "1/10", "--rho", "0.3")
        assert code == 0 and "C,0.5370621909191886" in data_rows(out)

    def test_n0_cap_flag_is_gone(self, capsys):
        code, _, err = run(capsys, "constants", "--family", "thm32", "--n", "10",
                           "--gamma", "1/10", "--n0-max", "4")
        assert code == 1 and "unrecognized arguments" in err

    def test_decimal_gamma_warns(self, capsys):
        code, _, err = run(capsys, "constants", "--family", "lr", "--n", "5",
                           "--gamma", "0.1")
        assert code == 0 and "interpreted as exact fraction 1/10" in err

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "constants", "--family", "lr",
                           "--gamma", "1/10")
        assert code == 1 and "--n" in err

    @pytest.mark.parametrize("family", [("thm35",), ("thm37", "--rho", "0.3")],
                             ids=lambda f: f[0])
    def test_gamma_with_floors_beyond_int64_is_usage_error(self, capsys, family):
        big = 10**18
        code, out, err = run(capsys, "constants", "--family", *family,
                             "--n", "20", "--gamma", f"{big}/{big + 1}")
        assert (code, out) == (1, "")
        assert err == (f"usage error: gamma {big}/{big + 1} is too close to 1: "
                       f"floor(j * {big}/1) exceeds int64 at j = 20\n")

    def test_unattainable_calibration_is_numeric_failure(self, capsys):
        code, _, err = run(capsys, "constants", "--family", "thm37", "--n", "5",
                           "--gamma", "1/10", "--rho", "0",
                           "--alpha", "1e-15")
        assert code == 3 and "unattainable" in err


class TestTestCommand:
    def test_stepup_rejects_all(self, capsys, pfile):
        code, out, _ = run(capsys, "test", "--pvalues", pfile, "--direction",
                           "su", "--constants", "0.02,0.05,0.075")
        assert code == 0
        assert data_rows(out)[-1] == "R,3"

    def test_stepdown_rejects_one(self, capsys, pfile):
        code, out, _ = run(capsys, "test", "--pvalues", pfile, "--direction",
                           "sd", "--constants", "0.02,0.05,0.075")
        assert code == 0
        rows = data_rows(out)
        assert rows[-1] == "R,1"
        assert rows[1].endswith(",1") and rows[2].endswith(",0")

    def test_family_constants_path(self, capsys, pfile):
        # lr and thm34 leave the direction open, so both run either way
        for family, k in [("lr", "1"), ("thm34", "2")]:
            for direction in ["sd", "su"]:
                code, out, _ = run(capsys, "test", "--pvalues", pfile,
                                   "--direction", direction, "--family", family,
                                   "--k", k, "--gamma", "1/10", "--alpha", "0.2",
                                   "--rho", "0.3")
                assert code == 0 and data_rows(out)[-1].startswith("R,"), \
                    (family, direction)

    def test_empty_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        code, _, err = run(capsys, "test", "--pvalues", str(path),
                           "--direction", "su", "--constants", "0.1")
        assert code == 1 and "no p-values" in err

    def test_out_of_range_pvalue(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        # a NaN must fail here, before the family's constants are built
        sources = [("--constants", "0.1,0.2"),
                   ("--family", "thm34", "--k", "1", "--gamma", "1/10",
                    "--rho", "0.3")]
        for bad in ["1.5", "-0.5", "nan"]:
            path.write_text(f"0.5\n{bad}\n")
            for source in sources:
                code, _, err = run(capsys, "test", "--pvalues", str(path),
                                   "--direction", "su", *source)
                assert (code, err) == \
                    (1, "usage error: p-values must lie in [0, 1]\n"), (bad, source)

    @pytest.mark.parametrize("family, direction", [
        ("thm32", "su"), ("thm33", "sd"), ("thm35", "su"),
        ("thm36", "sd"), ("thm37", "su"), ("thm38", "sd"),
    ])
    def test_family_outside_its_direction_is_usage_error(
            self, capsys, pfile, family, direction):
        code, out, err = run(capsys, "test", "--pvalues", pfile, "--direction",
                             direction, "--family", family, "--gamma", "1/10",
                             "--rho", "0.3")
        assert code == 1 and out == ""
        assert f"family '{family}' in direction '{direction}'" in err

    @pytest.mark.parametrize("source", [
        ("--constants", "0.02,0.05,0.075", "--family", "thm35",
         "--alpha", "0.5", "--gamma", "1/10"),
        (),
    ], ids=["both", "neither"])
    def test_exactly_one_constant_source(self, capsys, pfile, source):
        code, out, err = run(capsys, "test", "--pvalues", pfile,
                             "--direction", "su", *source)
        assert code == 1 and out == ""
        assert "--constants" in err and "--family" in err

    @pytest.mark.parametrize("flags", [
        ("--gamma", "nonsense", "--alpha", "0.9", "--rho", "5",
         "--template", "bh"),
        ("--alpha", "0.05",),
        ("--template", "lr",),
    ], ids=["four", "alpha-at-default", "template-at-default"])
    def test_constants_rejects_family_flags(self, capsys, pfile, flags):
        # --constants reads none of these, so a given one is an error even
        # at its default value; without them the manifest is unchanged
        code, out, err = run(capsys, "test", "--pvalues", pfile, "--direction",
                             "su", "--constants", "0.02,0.05,0.075", *flags)
        assert code == 1 and out == ""
        for flag in flags[::2]:
            assert flag in err
        code, out, _ = run(capsys, "test", "--pvalues", pfile, "--direction",
                           "su", "--constants", "0.02,0.05,0.075")
        assert code == 0
        for line in ("# gamma=", "# alpha=0.05", "# template=lr", "# rho="):
            assert line in out.splitlines()

    def test_unflattened_constants_name_rank_k(self, capsys, pfile):
        code, out, err = run(capsys, "test", "--pvalues", pfile, "--direction",
                             "su", "--constants", "0.1,0.2,0.3", "--k", "2")
        assert (code, out) == (1, "")
        assert err == ("usage error: every constant below rank 2 must equal "
                       "the constant at rank 2\n")

    def test_n_is_read_from_the_pvalue_file(self, capsys, pfile):
        code, _, err = run(capsys, "test", "--pvalues", pfile, "--direction",
                           "su", "--constants", "0.02,0.05,0.075", "--n", "5")
        assert code == 1 and "unrecognized arguments" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "test", "--pvalues", "/nonexistent/p.txt",
                           "--direction", "su", "--constants", "0.1")
        assert code == 1


class TestSimulateCommand:
    def test_single_cell_matches_api(self, capsys, monkeypatch):
        monkeypatch.setenv("FDPCTL_TIMESTAMP", "fixed")
        code, out, _ = run(capsys, "simulate", "--procedures", "lr-su",
                           "--n", "30", "--pi0", "0.5", "--rho", "0.2",
                           "--gamma", "1/10", "--reps", "200", "--seed", "13")
        assert code == 0
        row = data_rows(out)[1].split(",")
        assert row[0] == "lr-su"

        from fdpctl.core import Gamma
        from fdpctl.simlab import (DependenceModel, MonteCarloConfig,
                                   build_procedure, run_cell)
        exceed, power = run_cell(MonteCarloConfig(
            n=30, pi0=0.5, gamma=Gamma(1, 10), reps=200, seed=13,
            model=DependenceModel("uniform", 0.2)),
            [build_procedure("lr-su")])["lr-su"]
        assert float(row[5]) == float(exceed.mean())
        assert float(row[7]) == float(np.mean(power))

    def test_reps_one_blanks_se_columns(self, capsys):
        code, out, _ = run(capsys, "simulate", "--procedures", "lr-sd",
                           "--n", "10", "--pi0", "0.5", "--rho", "0",
                           "--gamma", "1/10", "--reps", "1", "--seed", "1")
        assert code == 0
        fields = data_rows(out)[1].split(",")
        assert fields[6] == "" and fields[8] == ""

    def test_complete_null_blanks_power_columns(self, capsys):
        code, out, _ = run(capsys, "simulate", "--procedures", "lr-su",
                           "--n", "10", "--pi0", "1.0", "--rho", "0",
                           "--gamma", "1/10", "--reps", "20", "--seed", "1")
        assert code == 0
        fields = data_rows(out)[1].split(",")
        assert fields[7] == "" and fields[8] == ""

    def test_output_is_deterministic_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FDPCTL_TIMESTAMP", "2024-01-01T00:00:00Z")
        args = ["simulate", "--procedures", "lr-sd,lr-su", "--n", "20",
                "--pi0", "0.5", "--rho", "0,0.4", "--gamma", "1/10",
                "--reps", "100", "--seed", "5"]
        f1, f2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(args + ["-o", f1, "--threads", "1"]) == 0
        assert cli.main(args + ["-o", f2, "--threads", "3"]) == 0
        assert Path(f1).read_bytes() == Path(f2).read_bytes()

    def test_svg_output(self, capsys, tmp_path):
        out_svg = str(tmp_path / "chart.svg")
        code, _, _ = run(capsys, "simulate", "--procedures", "lr-sd,lr-su",
                         "--n", "20", "--pi0", "0.5", "--rho", "0,0.3,0.6",
                         "--gamma", "1/10", "--reps", "50", "--seed", "2",
                         "--svg", out_svg)
        assert code == 0
        doc = Path(out_svg).read_text()
        assert doc.startswith("<!--") and "<svg" in doc
        assert doc.count("<polyline") >= 4          # 2 procedures x 2 panels
        assert "stroke-dasharray" in doc            # the alpha rule

    def test_block_dependence_flag(self, capsys):
        code, out, _ = run(capsys, "simulate", "--procedures", "lr-sd",
                           "--n", "12", "--pi0", "0.5", "--rho", "0.4",
                           "--gamma", "1/10", "--reps", "20", "--seed", "1",
                           "--dependence", "block:3")
        assert code == 0 and len(data_rows(out)) == 2

    def test_bad_procedure_token(self, capsys):
        code, _, err = run(capsys, "simulate", "--procedures", "nope",
                           "--n", "10", "--pi0", "0.5", "--rho", "0",
                           "--gamma", "1/10")
        assert code == 1 and "unknown procedure" in err

    def test_k_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--procedures", "thm32",
                           "--n", "10", "--gamma", "1/10", "--k", "0",
                           "--reps", "5")
        assert code == 1 and "need 1 <= k <= n" in err

    def test_repeated_procedure_is_usage_error(self, capsys):
        code, out, err = run(capsys, "simulate", "--procedures", "lr-sd,lr-sd",
                             "--n", "10", "--gamma", "1/10", "--reps", "5")
        assert code == 1 and "lr-sd" in err and out == ""

    @pytest.mark.parametrize("effect", ["nan", "inf", "-inf"])
    def test_non_finite_effect_is_usage_error(self, capsys, effect):
        code, out, err = run(capsys, "simulate", "--procedures", "lr-sd",
                             "--n", "10", "--gamma", "1/10", "--reps", "5",
                             f"--effect={effect}")
        assert code == 1 and "effect must be finite" in err and out == ""

    @pytest.mark.parametrize("argv,message", [
        (["--pi0", "nan"], "pi0 must lie in [0, 1], got nan"),
        (["--pi0", "1.5"], "pi0 must lie in [0, 1], got 1.5"),
        (["--pi0", "0.5,-0.5"], "pi0 must lie in [0, 1], got -0.5"),
        (["--n", "0"], "n must be >= 1, got 0"),
        (["--alpha", "nan"], "alpha must lie in (0, 1), got nan"),
        (["--alpha", "0"], "alpha must lie in (0, 1), got 0.0"),
        (["--alpha", "2"], "alpha must lie in (0, 1), got 2.0"),
        (["--dependence", "block:x"],
         "block size must be a positive integer, got 'x'"),
        (["--dependence", "block:"],
         "block size must be a positive integer, got ''"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_bad_cell_names_the_field(self, capsys, argv, message):
        argv = ["--n", "10", *argv]
        code, out, err = run(capsys, "simulate", "--procedures", "lr-sd",
                             "--gamma", "1/10", "--reps", "5", *argv)
        assert code == 1 and out == ""
        assert err == f"usage error: {message}\n"


class TestLogLevel:
    ARGV = {
        "thm37": ["constants", "--family", "thm37", "--n", "12", "--gamma",
                  "1/10", "--rho", "0.3"],
        "thm38": ["constants", "--family", "thm38", "--n", "12", "--gamma",
                  "1/4", "--rho", "0.5"],
        "simulate": ["simulate", "--procedures", "thm37,lr-su", "--n", "10",
                     "--gamma", "1/10", "--rho", "0.3", "--reps", "20"],
    }

    @pytest.mark.parametrize("name", list(ARGV))
    def test_stdout_is_identical_with_and_without_the_flag(
            self, capsys, monkeypatch, name):
        monkeypatch.setenv("FDPCTL_TIMESTAMP", "fixed")
        code, plain, plain_err = run(capsys, *self.ARGV[name])
        assert code == 0 and plain_err == ""
        code, logged, err = run(capsys, "--log-level", "DEBUG",
                                *self.ARGV[name])
        assert code == 0 and logged == plain
        lines = err.splitlines()
        assert lines and all(ln.startswith("DEBUG fdpctl: ") for ln in lines)
        kind = "run_cell" if name == "simulate" else "calibrate_pair_scale"
        assert any(ln.split()[2] == kind for ln in lines)

    def test_calibration_record_names_evals_residual_and_worst_n0(
            self, capsys):
        code, out, err = run(capsys, "--log-level", "DEBUG",
                             *self.ARGV["thm37"])
        (line,) = err.splitlines()
        fields = dict(item.split("=") for item in line.split()[3:])
        assert code == 0 and fields["direction"] == "sd"
        assert {"bound_evals", "residual", "worst_n0"} <= set(fields)
        assert f"beta_star,{fields['beta_star']}" in out.splitlines()

    def test_level_above_debug_hides_the_records(self, capsys):
        code, _, err = run(capsys, "--log-level", "INFO", *self.ARGV["thm38"])
        assert code == 0 and err == ""

    def test_handler_and_level_are_undone(self, capsys):
        logger = logging.getLogger("fdpctl")
        before = (list(logger.handlers), logger.level)
        # a run, and a run whose command fails (k > n)
        for argv, want in ((self.ARGV["thm37"], 0),
                           (self.ARGV["thm37"] + ["--k", "13"], 1)):
            code, _, _ = run(capsys, "--log-level", "DEBUG", *argv)
            assert code == want
            assert (list(logger.handlers), logger.level) == before

    def test_unknown_level_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--log-level", "debug",
                             *self.ARGV["thm37"])
        assert code == 1 and out == ""
        assert err.startswith("usage error: argument --log-level: invalid "
                              "choice: 'debug'")


class TestVerifyCommand:
    def test_constants_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "constants")
        assert code == 0
        assert "lr_scale_identity" in out and "PASS" in out and "FAIL" not in out

    def test_pairdist_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "pairdist")
        assert code == 0 and "pairwise_kernel" in out

    def test_seconds_column(self, capsys, monkeypatch):
        timed = oracle.SuiteReport()
        timed.add("synthetic", 3, [], elapsed=1.25)
        monkeypatch.setattr(oracle, "run_suite", lambda **kw: timed)
        code, out, _ = run(capsys, "verify", "--suite", "lemmas")
        header, row = out.splitlines()[:2]
        assert code == 0 and "seconds" in header.split()
        assert row.split() == ["synthetic", "3", "0", "1.25", "PASS"]

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = oracle.SuiteReport()
        failing.add("synthetic", 1, ["boom"])
        monkeypatch.setattr(oracle, "run_suite",
                            lambda **kw: failing)
        code, out, _ = run(capsys, "verify", "--suite", "lemmas")
        assert code == 2 and "FAIL" in out and "boom" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "everything")
        assert code == 1

    @pytest.mark.parametrize("argv,message", [
        (["--fuzz-count", "0"], "fuzz_count must be >= 1, got 0"),
        (["--fuzz-count", "-3"], "fuzz_count must be >= 1, got -3"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_lemma_run_that_checks_nothing_is_usage_error(
            self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "--suite", "lemmas", *argv)
        assert code == 1 and out == ""
        assert err == f"usage error: {message}\n"

    def test_small_fuzz_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "pairdist",
                           "--fuzz-count", "10")
        assert code == 0


@pytest.mark.parametrize("argv", [
    ["constants", "--family", "lr", "--n", "5"],
    ["simulate", "--procedures", "lr-sd", "--n", "10", "--reps", "5"],
    ["test", "--direction", "su", "--family", "lr"],
], ids=lambda argv: argv[0])
def test_zero_denominator_gamma_is_usage_error(capsys, pfile, argv):
    if argv[0] == "test":
        argv = [*argv, "--pvalues", pfile]
    code, out, err = run(capsys, *argv, "--gamma", "1/0")
    assert (code, out) == (1, "")
    assert err == "usage error: gamma '1/0' has a zero denominator\n"
