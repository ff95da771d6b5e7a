import argparse
import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

from betlab.cli import SEED_ENV_VAR, build_parser, run
from betlab.seeding import DEFAULT_SEED

# The package root's 33 names, by the submodule each comes from.
ROOT_EXPORTS = {
    "betmath": [
        "BetSpec", "GrowthCurve", "asymptotic_growth", "critical_fraction", "fractional_kelly",
        "growth_curve", "growth_derivative", "kelly_fraction", "mixed_sequence_fractions",
        "stochastic_p_fraction",
    ],
    "errors": [
        "BudgetError", "DomainError", "EmptySelection", "InfeasibleThreshold", "NoClear",
        "NoPositiveRoot",
    ],
    "grational": [
        "GrationalProblem", "GrationalSolution", "LossKind", "McBudget", "solve",
        "violation_probability",
    ],
    "seeding": ["DEFAULT_SEED", "stream"],
    "wealthsim": [
        "PathStats", "SimConfig", "WealthPath", "adaptive_policy_growth", "drawdown",
        "path_stats", "ruin_probability_all_in", "simulate_paths", "worst_loss",
    ],
}
ROOT_NAMES = [name for names in ROOT_EXPORTS.values() for name in names]

# Each subcommand's arguments, and the betlab modules it loads beside the four
# that ``import betlab.cli`` loads; "@trades" stands for the trades file.
COMMAND_MODULES = {
    "grational": (
        ["--p", "0.6", "--d", "1", "--steps", "5", "--threshold", "0.3", "--max-prob", "0.2",
         "--paths", "1000", "--grid-step", "0.1"],
        ["betmath", "grational", "seeding", "wealthsim"],
    ),
    "simulate": (
        ["--p", "0.6", "--d", "1", "--f", "0.2", "--steps", "5", "--paths", "3"],
        ["betmath", "seeding", "wealthsim"],
    ),
    # sysstats takes its loss functionals from wealthsim.
    "stats": (["--input", "@trades"], ["betmath", "seeding", "sysstats", "tails", "wealthsim"]),
    "pennies": (
        ["--p1", "biased:0.6", "--p2", "exploiter", "--rounds", "20"], ["games", "seeding"]
    ),
    "miller": (["--sds", "0,5", "--shares", "50", "--buyers", "1000"], ["millerclear", "seeding"]),
}

TRADES = """period_id,side,pnl
1,L,3
2,S,-1
3,F,0
4,L,2
5,L,-4
6,S,5
7,F,0
8,L,0
9,S,-2
10,L,6
"""


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


@pytest.fixture
def trades_csv(tmp_path):
    path = tmp_path / "trades.csv"
    path.write_text(TRADES)
    return str(path)


def out_of(capsys, argv, expect_code=0):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.err
    return captured.out


class TestExitCodes:
    def test_success(self, capsys):
        assert run(["kelly", "--p", "0.6", "--d", "1"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["kelly", "--p", "0.6"],  # missing required
            ["kelly", "--p", "0.6", "--d", "1", "--format", "xml"],
            ["kelly", "--p", "0.6", "--d", "1", "--seed", "-3"],
            ["nonsense"],
            ["popp", "--state", "++,+"],  # malformed vector is a usage error
            [],
        ],
    )
    def test_usage_errors_exit_two(self, argv, capsys):
        assert run(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("sds", [",", "", " , ,"])
    def test_number_list_without_numbers_exits_two(self, sds, capsys):
        assert run(["miller", "--sds", sds, "--shares", "50", "--buyers", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --sds: expected comma-separated numbers, got {sds!r}\n" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["kelly", "--p", "0.6", "--d", "1", "--seed", "-1"],
             f"argument --seed: seed must lie in [0, {2**64 - 1}], got -1"),
            (["miller", "--sds", "1,x", "--shares", "50", "--buyers", "1000"],
             "argument --sds: could not convert string to float: 'x'"),
            (["pennies", "--p1", "exploiter:k=9", "--p2", "coinflip", "--rounds", "3"],
             "argument --p1: bad strategy spec 'exploiter:k=9': "
             "context order must lie in [1, 8], got 9"),
            (["popp", "--state", "a,b"],
             "argument --state: expected 9 comma-separated levels "
             "(ret,vol,sr,spd,pop,lev,sdiv,slink,srob), got 2"),
            (["pennies", "--p1", "coinflip:0.9", "--p2", "coinflip", "--rounds", "3"],
             "argument --p1: bad strategy spec 'coinflip:0.9': expected coinflip"),
            (["pennies", "--p1", "coinflip", "--p2", "exploiter:k=", "--rounds", "3"],
             "argument --p2: bad strategy spec 'exploiter:k=': expected exploiter[:k=<1..8>]"),
            (["pennies", "--p1", "alternator:", "--rounds", "3", "--spy"],
             "argument --p1: bad strategy spec 'alternator:': expected alternator[:<H|T>]"),
        ],
    )
    def test_bad_flag_value_prints_its_rule(self, argv, message, capsys):
        # argparse once printed "invalid <function name> value" instead.
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f": error: {message}\n")

    @pytest.mark.parametrize(
        "spec, message",
        [
            # Python's conversion text once stood in place of the spec's rule.
            ("biased:x", "expected biased:<p>"),
            ("bestresponse:1/2", "expected bestresponse:<p>"),
            ("exploiter:k=x", "expected exploiter[:k=<1..8>]"),
            ("exploiter:K=2.5", "expected exploiter[:k=<1..8>]"),
            ("exploiter:x", "expected exploiter[:k=<1..8>]"),
            # A value that converts keeps its range message.
            ("biased:1.5", "p_h must lie in [0, 1], got 1.5"),
            ("exploiter:K=0", "context order must lie in [1, 8], got 0"),
            # A missing value once printed "choice must be H or T, got ''".
            ("fixed", "expected fixed:<H|T>"),
        ],
    )
    def test_bad_strategy_value_is_one_usage_error(self, spec, message, capsys):
        assert run(["pennies", "--p1", spec, "--p2", "coinflip", "--rounds", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ")
        assert err.count("usage:") == 1 and err.count("error:") == 1
        assert err.endswith(f": error: argument --p1: bad strategy spec {spec!r}: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["kelly", "--p", "1.5", "--d", "1"],  # bad probability
            ["stats", "--input", "/nonexistent/trades.csv"],
            ["grational", "--p", "0.6", "--d", "1", "--steps", "5",
             "--threshold", "-1", "--max-prob", "0.1"],
            ["pennies", "--p1", "coinflip", "--rounds", "10"],  # needs --p2
        ],
    )
    def test_domain_errors_exit_one(self, argv, capsys):
        assert run(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # 10**20 and 2**62 buyers' estimates are more than a float64 array can hold.
            (["miller", "--mode", "empirical", "--shares", "1", "--buyers", str(10**20),
              "--sds", "1"], f"m_buyers must lie in [1, {sys.maxsize // 8}], got {10**20}"),
            (["grational", "--p", "0.6", "--d", "1", "--steps", "5", "--threshold", "nan",
              "--max-prob", "0.1"], "loss threshold must lie in [-inf, inf], got nan"),
            (["miller", "--mode", "empirical", "--shares", "1", "--buyers", str(2**62),
              "--sds", "1"], f"m_buyers must lie in [1, {sys.maxsize // 8}], got {2**62}"),
            # Drawn in blocks, the matrix is still bounded before any path.
            (["grational", "--p", "0.6", "--d", "1", "--steps", "2", "--threshold", "1",
              "--max-prob", "0.1", "--paths", str(10**20)],
             f"{10**20} paths of 2 steps exceed what numpy can index"),
        ],
    )
    def test_domain_error_line(self, argv, message, capsys):
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_unallocatable_length_is_one_error_line(self, capsys):
        # 2**59 buyers pass the length rule, but their 4 EiB of estimates
        # exceed any address space, so numpy refuses them at once.
        argv = ["miller", "--mode", "empirical", "--shares", "1", "--buyers", str(2**59),
                "--sds", "1"]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def flag(subcommand: str, option: str) -> argparse.Action:
    """The action of ``option`` in the ``betlab`` parser's ``subcommand``."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[subcommand]._actions if option in a.option_strings)


class TestParser:
    def test_literal_choices_are_the_enum_values(self):
        # Literal, so that building the parser imports neither module.
        from betlab import grational, sysstats

        assert flag("grational", "--loss").choices == tuple(k.value for k in grational.LossKind)
        assert flag("stats", "--filter").choices == tuple(f.value for f in sysstats.Filter)

    @pytest.mark.parametrize(
        "subcommand, option, name",
        [("pennies", "--p1", "parse_strategy"), ("pennies", "--p2", "parse_strategy"),
         ("popp", "--state", "from_tokens")],
    )
    def test_lazy_types_keep_their_names(self, subcommand, option, name):
        # argparse names the type in "invalid <name> value" for an error
        # that is not a ValueError.
        assert flag(subcommand, option).type.__name__ == name


class TestKelly:
    def test_text_output(self, capsys):
        out = out_of(capsys, ["kelly", "--p", "0.6", "--d", "1"])
        assert out == "f 0.2\nf_c 0.389390683335\ngrowth 0.0201355135507\n"

    def test_json_matches_text_at_12_digits(self, capsys):
        text = out_of(capsys, ["kelly", "--p", "0.6", "--d", "1"])
        blob = json.loads(
            out_of(capsys, ["kelly", "--p", "0.6", "--d", "1", "--format", "json"])
        )
        # json passes the raw double through; only text rounds
        assert blob["f"] == 0.6 - 0.4
        for line in text.splitlines():
            key, shown = line.split(" ")
            assert format(blob[key], ".12g") == shown

    def test_no_edge_prints_na(self, capsys):
        out = out_of(capsys, ["kelly", "--p", "0.5", "--d", "1"])
        assert out == "f 0\nf_c NA\ngrowth 0\n"
        blob = json.loads(
            out_of(capsys, ["kelly", "--p", "0.5", "--d", "1", "--format", "json"])
        )
        assert blob["f_c"] is None

    def test_csv_output(self, capsys):
        out = out_of(capsys, ["kelly", "--p", "0.5", "--d", "1", "--format", "csv"])
        assert out.splitlines() == ["f,f_c,growth", "0,NA,0"]


class TestSeedResolution:
    ARGS = ["pennies", "--p1", "coinflip", "--p2", "coinflip", "--rounds", "50"]

    def test_identical_runs_are_byte_identical(self, capsys):
        a = out_of(capsys, [*self.ARGS, "--seed", "11"])
        b = out_of(capsys, [*self.ARGS, "--seed", "11"])
        assert a == b

    def test_env_var_supplies_the_seed(self, capsys, monkeypatch):
        explicit = out_of(capsys, [*self.ARGS, "--seed", "99"])
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        assert out_of(capsys, self.ARGS) == explicit

    def test_flag_beats_env(self, capsys, monkeypatch):
        explicit = out_of(capsys, [*self.ARGS, "--seed", "7"])
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        assert out_of(capsys, [*self.ARGS, "--seed", "7"]) == explicit

    def test_default_seed_when_nothing_given(self, capsys):
        explicit = out_of(capsys, [*self.ARGS, "--seed", str(DEFAULT_SEED)])
        assert out_of(capsys, self.ARGS) == explicit

    def test_bad_env_value_is_a_domain_error(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        assert run(self.ARGS) == 1
        assert SEED_ENV_VAR in capsys.readouterr().err

    def test_flag_shields_a_bad_env(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        assert run([*self.ARGS, "--seed", "7"]) == 0
        capsys.readouterr()

    def test_only_empirical_miller_reads_the_env(self, capsys, monkeypatch):
        # Normal mode draws nothing, so a bad env seed must not stop it.
        argv = ["miller", "--sds", "1", "--shares", "1", "--buyers", "2"]
        clean = out_of(capsys, argv)
        monkeypatch.setenv(SEED_ENV_VAR, "bad")
        assert out_of(capsys, argv) == clean
        assert run([*argv, "--mode", "empirical"]) == 1
        err = capsys.readouterr().err
        assert f"bad {SEED_ENV_VAR} value 'bad'" in err


class TestOutputFile:
    def test_file_matches_stdout(self, capsys, tmp_path):
        stdout = out_of(capsys, ["kelly", "--p", "0.6", "--d", "1"])
        target = tmp_path / "out.txt"
        out = out_of(
            capsys, ["kelly", "--p", "0.6", "--d", "1", "--output", str(target)]
        )
        assert out == ""
        assert target.read_text() == stdout

    def test_csv_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        out_of(
            capsys,
            ["miller", "--sds", "0,10", "--shares", "50", "--buyers", "1000",
             "--format", "csv", "--output", str(target)],
        )
        lines = target.read_text().splitlines()
        assert lines[0] == "sd,clearing_price"
        assert lines[1] == "0,50"

    def test_unwritable_path_exits_one(self, capsys):
        argv = ["kelly", "--p", "0.6", "--d", "1", "--output", "/nonexistent/dir/x"]
        assert run(argv) == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_text_table(self, capsys, trades_csv):
        out = out_of(capsys, ["stats", "--input", trades_csv])
        lines = out.splitlines()
        assert lines[0].split() == [
            "np", "npi", "maxdd", "pnlpp", "ir",
            "pnltot", "sdpnl", "winpct", "runs", "runspvu",
        ]
        row = lines[1].split()
        assert row[0] == "All"
        assert row[1:4] == ["10", "8", "-4"]
        assert row[6] == "9"  # total P&L

    def test_filter_rows(self, capsys, trades_csv):
        out = out_of(capsys, ["stats", "--input", trades_csv, "--filter", "long"])
        row = out.splitlines()[1].split()
        assert row[0] == "Long"
        assert row[1:3] == ["5", "5"]
        assert row[6] == "7"

    def test_years_line(self, capsys, trades_csv):
        out = out_of(capsys, ["stats", "--input", trades_csv, "--years", "2"])
        assert out.splitlines()[-1] == "avg_gain_per_year 4.5"

    def test_ppgs_line(self, capsys, trades_csv):
        out = out_of(
            capsys, ["stats", "--input", trades_csv, "--ppgs-alpha", "0.05"]
        )
        assert out.splitlines()[-1] == "classification indeterminate"

    def test_json_payload(self, capsys, trades_csv):
        blob = json.loads(
            out_of(capsys, ["stats", "--input", trades_csv, "--format", "json"])
        )
        assert blob["All"]["np"] == 10
        assert blob["All"]["maxdd"] == -4.0
        assert blob["All"]["pnltot"] == 9.0

    @pytest.mark.parametrize("fmt, want", [("text", "0"), ("csv", "0"), ("json", "0.0")])
    def test_no_drawdown_is_zero(self, capsys, tmp_path, fmt, want):
        # A record without a drawdown once printed maxdd as -0 and -0.0.
        path = tmp_path / "one.csv"
        path.write_text("period_id,side,pnl\n1,L,1\n")
        out = out_of(capsys, ["stats", "--input", str(path), "--format", fmt])
        if fmt == "json":
            assert json.dumps(json.loads(out)["All"]["maxdd"]) == want
        else:
            assert out.splitlines()[1].replace(",", " ").split()[3] == want

    def test_csv_row(self, capsys, trades_csv):
        out = out_of(capsys, ["stats", "--input", trades_csv, "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "filter,np,npi,maxdd,pnlpp,ir,pnltot,sdpnl,winpct,runs,runspvu"
        cells = lines[1].split(",")
        assert cells[0] == "All"
        assert cells[1:4] == ["10", "8", "-4"]

    def test_bad_header_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,direction,gain\n1,L,3\n")
        assert run(["stats", "--input", str(path)]) == 1
        capsys.readouterr()

    def test_non_utf8_file_is_one_error_line(self, capsys, tmp_path):
        # Read in the locale's encoding, 0xff once escaped as UnicodeDecodeError.
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"period_id,side,pnl\n1,L,\xff\n")
        assert run(["stats", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == f"error: {path} is not UTF-8 text: invalid start byte\n"

    def test_average_gain_overflow_is_one_error_line(self, capsys, trades_csv):
        assert run(["stats", "--input", trades_csv, "--years", "1e-320"]) == 1
        assert capsys.readouterr() == (
            "", "error: average gain per year overflows over 1e-320 years\n"
        )

    def test_cumulative_overflow_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "overflow.csv"
        rows = (f"{i},L,1.0574665499190091e+307\n" for i in range(1, 18))
        path.write_text("period_id,side,pnl\n" + "".join(rows))
        assert run(["stats", "--input", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: cumulative P&L overflows double precision\n")

    def test_mean_overflow_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "overflow.csv"
        path.write_text("period_id,side,pnl\n1,L,1e308\n2,L,1e308\n")
        assert run(["stats", "--input", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: P&L sums overflow double precision\n")

    @pytest.mark.parametrize("end", ["\r", "\r\n"])
    def test_line_ends_read_as_newlines(self, capsys, trades_csv, tmp_path, end):
        # The file is opened with newline="", so csv and numpy split it alike.
        argv = ["stats", "--ppgs-alpha", "0.05", "--format", "json"]
        want = out_of(capsys, [*argv, "--input", trades_csv])
        path = tmp_path / "ends.csv"
        path.write_bytes(TRADES.replace("\n", end).encode())
        assert out_of(capsys, [*argv, "--input", str(path)]) == want

    def test_byte_order_mark_is_skipped(self, capsys, trades_csv, tmp_path):
        # Spreadsheets' "CSV UTF-8" export starts with one; it was once read
        # as part of the first header cell.
        argv = ["stats", "--format", "json"]
        want = out_of(capsys, [*argv, "--input", trades_csv])
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + TRADES.encode())
        assert out_of(capsys, [*argv, "--input", str(path)]) == want

    def test_cell_past_the_field_limit_is_one_error_line(self, capsys, tmp_path):
        # csv's field limit once escaped as a traceback.
        path = tmp_path / "long.csv"
        path.write_text("period_id,side,pnl\n1,L,1\n2,S," + "1" * 200_000 + "\n")
        assert run(["stats", "--input", str(path)]) == 1
        message = "error: line 3: field larger than field limit (131072)\n"
        assert capsys.readouterr() == ("", message)


class TestPennies:
    def test_spy_payload(self, capsys):
        blob = json.loads(
            out_of(
                capsys,
                ["pennies", "--p1", "biased:0.8", "--rounds", "100", "--spy",
                 "--format", "json"],
            )
        )
        assert blob["total_gain2"] == 100.0
        assert blob["mean_gain2"] == 1.0
        assert blob["total_gain1"] == -100.0

    @pytest.mark.parametrize(
        "extra", [["--p2", "fixed:H"], ["--rake", "0.5"], ["--rake", "0.5", "--p2", "fixed:H"]]
    )
    def test_spy_rejects_p2_and_rake(self, capsys, extra):
        argv = ["pennies", "--p1", "coinflip", "--rounds", "10", "--spy", *extra]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --p2 and --rake are not taken with --spy\n"

    def test_transcript_csv(self, capsys):
        out = out_of(
            capsys,
            ["pennies", "--p1", "fixed:H", "--p2", "fixed:T", "--rounds", "2",
             "--seed", "1", "--format", "csv"],
        )
        assert out.splitlines() == [
            "round,choice1,choice2,gain1,gain2",
            "1,H,T,-1,1",
            "2,H,T,-1,1",
        ]

    def test_text_fields(self, capsys):
        out = out_of(
            capsys,
            ["pennies", "--p1", "coinflip", "--p2", "exploiter", "--rounds", "40",
             "--seed", "3"],
        )
        keys = [line.split(" ")[0] for line in out.splitlines()]
        assert keys == [
            "rounds", "stake", "rake",
            "total_gain1", "total_gain2", "mean_gain1", "mean_gain2",
        ]


class TestMiller:
    def test_text_sweep(self, capsys):
        out = out_of(
            capsys,
            ["miller", "--sds", "0,5,10", "--shares", "50", "--buyers", "1000"],
        )
        assert out.splitlines() == [
            "0 50",
            "5 58.2242681348",
            "10 66.4485362695",
        ]

    def test_json_fields(self, capsys):
        blob = json.loads(
            out_of(
                capsys,
                ["miller", "--sds", "10", "--shares", "50", "--buyers", "1000",
                 "--short", "50", "--format", "json"],
            )
        )
        assert blob["quantile_level"] == 0.9
        assert blob["mode"] == "normal"
        assert blob["prices"][0] == pytest.approx(62.815515655446, abs=1e-10)

    def test_empirical_mode_is_seeded(self, capsys):
        argv = ["miller", "--sds", "10", "--shares", "50", "--buyers", "2000",
                "--mode", "empirical", "--seed", "5"]
        assert out_of(capsys, argv) == out_of(capsys, argv)

    def test_oversupply_exits_one(self, capsys):
        argv = ["miller", "--sds", "10", "--shares", "50", "--buyers", "10"]
        assert run(argv) == 1
        capsys.readouterr()

    def test_first_bad_field_is_named(self, capsys):
        # AuctionSpec declares n_shares before m_buyers.
        assert run(["miller", "--sds", "1", "--shares", "-1", "--buyers", "0"]) == 1
        assert capsys.readouterr() == ("", "error: n_shares must lie in [0, inf), got -1\n")


class TestPopp:
    def test_ranking_and_multiplier(self, capsys):
        out = out_of(capsys, ["popp", "--state", "++,+,+,-,-,-,+,?,+"])
        lines = out.splitlines()
        assert lines[0] == "eureka 9"
        assert lines[-1] == "kelly_multiplier 1"
        assert len(lines) == 5

    def test_crash_state(self, capsys):
        out = out_of(capsys, ["popp", "--state", "NA,NA,NA,NA,NA,NA,NA,NA,NA"])
        lines = out.splitlines()
        assert lines[0] == "crash 9"
        assert lines[-1] == "kelly_multiplier 0"

    def test_csv_schema(self, capsys):
        out = out_of(
            capsys,
            ["popp", "--state", "++,+,+,-,-,-,+,?,+", "--format", "csv"],
        )
        lines = out.splitlines()
        assert lines[0] == "phase,score,kelly_multiplier"
        assert lines[1] == "eureka,9,1"


class TestSimulate:
    ARGS = ["simulate", "--p", "0.6", "--d", "1", "--f", "0.2",
            "--steps", "30", "--paths", "200", "--seed", "4"]

    def test_deterministic(self, capsys):
        assert out_of(capsys, self.ARGS) == out_of(capsys, self.ARGS)

    def test_json_payload(self, capsys):
        blob = json.loads(out_of(capsys, [*self.ARGS, "--format", "json"]))
        assert blob["n_paths"] == 200
        assert blob["n_steps"] == 30
        assert blob["mean_growth"] == pytest.approx(
            blob["asymptotic_growth"], abs=5 * blob["se_growth"]
        )

    def test_single_path_se_is_null(self, capsys):
        argv = ["simulate", "--p", "0.6", "--d", "1", "--f", "0.2",
                "--steps", "10", "--paths", "1", "--format", "json"]
        blob = json.loads(out_of(capsys, argv))
        assert blob["se_growth"] is None

    def test_csv_paths(self, capsys):
        argv = ["simulate", "--p", "0.6", "--d", "1", "--f", "0.2",
                "--steps", "3", "--paths", "2", "--seed", "4", "--format", "csv"]
        lines = out_of(capsys, argv).splitlines()
        assert lines[0] == "path_id,step,log_wealth,outcome"
        assert lines[1] == "0,0,0,"
        assert len(lines) == 1 + 2 * 4


class TestImportGraph:
    def test_scipy_loads_only_for_stats_and_miller(self, trades_csv, tmp_path):
        # A fresh interpreter, since this one has long imported scipy.  The
        # long record's 60 positioned periods take both the normal branch of
        # the runs test and the t-test, and neither loads scipy.
        long_csv = tmp_path / "long.csv"
        long_csv.write_text("period_id,side,pnl\n" + "".join(
            f"{k},{'LS'[k % 2]},{(-1) ** (k // 3) * (1 + k % 5) / 4 + 0.1}\n" for k in range(1, 61)
        ))
        code = textwrap.dedent(
            f"""
            import contextlib, io, sys
            from betlab import cli

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            def run(*argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.run(list(argv)) == 0, argv

            run("kelly", "--p", "0.6", "--d", "1")
            run("grational", "--p", "0.6", "--d", "1", "--steps", "5", "--threshold",
                "0.3", "--max-prob", "0.2", "--paths", "1000", "--grid-step", "0.1")
            run("simulate", "--p", "0.6", "--d", "1", "--f", "0.2", "--steps", "5",
                "--paths", "3")
            run("pennies", "--p1", "biased:0.6", "--p2", "exploiter", "--rounds", "20")
            run("popp", "--state", "++,+,+,-,-,-,+,?,+")
            print(scipy_modules())
            run("stats", "--input", {trades_csv!r}, "--ppgs-alpha", "0.05")
            run("stats", "--input", {str(long_csv)!r}, "--ppgs-alpha", "0.05")
            print(scipy_modules())
            run("miller", "--sds", "0,5", "--shares", "50", "--buyers", "1000")
            print("scipy.special" in scipy_modules(), "scipy.stats" in sys.modules)
            """
        )
        env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]", "True False"]

    def test_numpy_random_loads_only_for_streams(self):
        code = textwrap.dedent(
            """
            import contextlib, io, sys
            from betlab import cli

            def run(*argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.run(list(argv)) == 0, argv

            print("numpy.random" in sys.modules)
            run("kelly", "--p", "0.6", "--d", "1")
            run("popp", "--state", "++,+,+,-,-,-,+,?,+")
            print("numpy.random" in sys.modules)
            run("grational", "--p", "0.6", "--d", "1", "--steps", "5", "--threshold",
                "0.3", "--max-prob", "0.2", "--paths", "1000", "--grid-step", "0.1")
            print("numpy.random" in sys.modules)
            """
        )
        env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "False", "True"]

    def test_pure_python_modules_load_no_numpy(self):
        code = textwrap.dedent(
            """
            import sys
            import betlab.errors, betlab.render, betlab.tails
            import betlab.cli, betlab.betmath, betlab.popp
            print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "betlab")))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == str([
            "betlab", "betlab.betmath", "betlab.cli", "betlab.errors", "betlab.popp",
            "betlab.render", "betlab.tails",
        ]) + "\n"

    def test_scalar_commands_load_no_numpy(self):
        # A fresh interpreter: each subcommand imports its modules when it runs.
        code = textwrap.dedent(
            """
            import contextlib, io, sys
            from betlab import cli

            for argv in (["kelly", "--p", "0.6", "--d", "1"], ["popp", "--state", "++,+,+,-,-,-,+,?,+"],
                         ["--help"], ["kelly", "--help"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.run(argv) == 0, argv
            print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
    def test_command_loads_only_its_modules(self, command, trades_csv):
        # A fresh interpreter: each subcommand imports its modules when it runs.
        args, modules = COMMAND_MODULES[command]
        argv = [command, *(trades_csv if arg == "@trades" else arg for arg in args)]
        code = textwrap.dedent(
            """
            import contextlib, io, sys
            from betlab import cli

            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(sys.argv[1:]) == 0, sys.argv
            print(sorted(m for m in sys.modules if m.split(".")[0] == "betlab"))
            """
        )
        env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        own = ["betlab", "betlab.cli", "betlab.errors", "betlab.render"]
        assert proc.stdout == str(sorted(own + [f"betlab.{m}" for m in modules])) + "\n"

    def test_root_names_load_on_first_use(self):
        # A fresh interpreter: the root lists its names before loading any.
        code = textwrap.dedent(
            """
            import sys
            import betlab
            print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "betlab")))
            print(sorted(set(betlab.__all__) & set(dir(betlab))))
            star = {}
            exec("from betlab import *", star)
            print(sorted(star.keys() - {"__builtins__"}))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        loaded, listed, bound = proc.stdout.splitlines()
        assert loaded == "['betlab']"
        assert listed == bound == str(sorted(ROOT_NAMES))

    def test_root_names_are_the_submodules_own(self):
        import betlab

        assert betlab.__all__ == ROOT_NAMES
        for module, names in ROOT_EXPORTS.items():
            owner = importlib.import_module(f"betlab.{module}")
            for name in names:
                assert getattr(betlab, name) is getattr(owner, name), name
        with pytest.raises(AttributeError, match="module 'betlab' has no attribute 'nope'"):
            getattr(betlab, "nope")
