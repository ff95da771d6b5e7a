"""Byte-identity guard for everything betlab prints.

Each case runs a CLI subcommand or an experiment script in-process and
compares the sha256 of its stdout, and of the file it writes when given
``--output``, with a digest recorded from the code before the output
format moved into one module.  The cases cover every
subcommand in text, json and csv, the NA cells (kelly without an edge,
simulate with one path), and the three scripts at small sizes.  ``HELP``
pins the ``--help`` text of ``betlab`` and of each subcommand.  The
exploiter's round loop is pinned against a spy and against a second
exploiter, with the digests recorded before its seat kept only a context.

The stats record has more than 30 positioned periods, so the runs p-value
takes the normal approximation and ``--ppgs-alpha`` runs the t-test;
miller's normal mode prints full-precision ``ndtri`` quantiles in JSON.
A third record is written the way a hand-kept file might be: lower-case
and space-padded sides, blank lines, a trailing note column and quoted
P&L cells.

Refusals have two tables.  ``MALFORMED`` holds the exact message and exit
code for each kind of bad trades file, including which line is reported
when several are bad.  ``REFUSED`` holds every other refusal of ``betlab``
and of the scripts, a bad argv or environment: the exit code and the exact
last line of stderr, which on exit 2 ends one argparse usage block.  A new
refusal is a new row in one of them, and every subcommand and script has a
``REFUSED`` row.
"""

import argparse
import hashlib
import re
import runpy
import sys
from pathlib import Path

import pytest

from betlab.cli import SEED_ENV_VAR, build_parser, run
from betlab.errors import MAX_LENGTH

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def trades_text(clustered: bool) -> str:
    """80 periods with flats, zero-P&L periods and fractional P&L.

    The plain record has a positive drift and more runs than chance;
    the clustered one has wins and losses in blocks and no clear drift.
    """
    lines = ["period_id,side,pnl"]
    for i in range(1, 81):
        k = (i * 37) % 11
        if k == 0:
            lines.append(f"{i},F,0")
            continue
        side = "L" if k % 2 else "S"
        if i % 13 == 0:
            pnl = 0.0
        elif clustered:
            mag = ((i * 7919) % 97 + 1) / 7.0
            pnl = -mag if (i // 5) % 3 == 0 else 0.55 * mag
        else:
            pnl = ((i * 7919) % 97 - 44) / 7.0
        lines.append(f"{i},{side},{pnl!r}")
    return "\n".join(lines) + "\n"


def messy_trades_text() -> str:
    """70 periods in the loose spellings the trades reader accepts."""
    sides = ["l", " L", "s ", " s ", "f", "F ", "L", "S"]
    lines = ["period_id,side,pnl", ""]
    for i in range(1, 71):
        side = sides[(i * 5) % 8]
        pnl = "0" if side.strip() in "fF" else repr(((i * 53) % 89 - 41) / 8.0)
        if i % 3 == 0:
            pnl = f'"{pnl}"'
        elif i % 4 == 0:
            pnl = f" {pnl} "
        row = f" {i}," if i % 6 == 0 else f"{i},"
        row += f"{side},{pnl}"
        if i % 5 == 0:
            row += ',"note, with a comma"'
        lines.append(row)
        if i % 7 == 0:
            lines.append("")
    return "\n".join(lines) + "\n"


TRADES = {
    "drift": trades_text(clustered=False),
    "clustered": trades_text(clustered=True),
    "messy": messy_trades_text(),
}

MILLER = ["miller", "--sds", "0,0.5,3,10,25.75"]
EMPIRICAL = ["miller", "--mode", "empirical", "--sds", "1,7.5", "--shares", "30",
             "--buyers", "200", "--seed", "12"]
KELLY = ["kelly", "--p", "0.6", "--d", "1.5"]
KELLY_NO_EDGE = ["kelly", "--p", "0.4", "--d", "1"]
KELLY_SURE = ["kelly", "--p", "1", "--d", "2"]
SIMULATE = ["simulate", "--p", "0.55", "--d", "1.2", "--f", "0.15", "--steps", "25",
            "--paths", "4", "--w0", "3", "--seed", "7"]
SIMULATE_ONE = ["simulate", "--p", "0.6", "--d", "1", "--f", "0.3", "--steps", "12",
                "--paths", "1"]
GRATIONAL = ["grational", "--p", "0.6", "--d", "1", "--steps", "20", "--threshold", "0.4",
             "--max-prob", "0.1", "--paths", "1000", "--grid-step", "0.05", "--seed", "3"]
DRAWDOWN = ["grational", "--p", "0.55", "--d", "1.5", "--steps", "15", "--loss", "drawdown",
            "--threshold", "0.3", "--max-prob", "0.2", "--paths", "1000", "--grid-step",
            "0.1", "--f-max", "0.6"]
PENNIES = ["pennies", "--p1", "biased:0.6", "--p2", "exploiter:k=2", "--rounds", "40",
           "--seed", "9"]
SPY = ["pennies", "--p1", "alternator", "--spy", "--rounds", "12", "--stake", "2.5"]
SPY_EXPLOITER = ["pennies", "--p1", "exploiter:k=3", "--spy", "--rounds", "300", "--seed", "5"]
EXPLOITERS = ["pennies", "--p1", "exploiter:k=1", "--p2", "exploiter:k=8", "--rounds", "2000",
              "--seed", "5"]
RAKE = ["pennies", "--p1", "coinflip", "--p2", "fixed:T", "--rounds", "15", "--rake", "0.3",
        "--stake", "0.7"]
POPP = ["popp", "--state", "++,+,+,-,-,-,+,?,+"]
POPP_MIXED = ["popp", "--state", "+,-,?,NA,+,-,+,?,-"]

# name -> (argv, sha256 of stdout).  "@drift", "@clustered" and "@messy"
# stand for the path of that trades record in TRADES; an argv that starts with a
# ".py" name runs that script from scripts/.
CASES = {
    "stats-drift-json": (
        ["stats", "--input", "@drift", "--format", "json", "--ppgs-alpha", "0.05",
         "--years", "3"],
        "6dec9b107654e8c0100147756032f234189f8b51ab789e0c3162c3387ca04017",
    ),
    "stats-drift-text": (
        ["stats", "--input", "@drift", "--ppgs-alpha", "0.5"],
        "36656d4a9eaec19b7a0f2ecc3e65e1af737323850d94520641517dc9b712546a",
    ),
    "stats-drift-long-json": (
        ["stats", "--input", "@drift", "--filter", "long", "--format", "json",
         "--ppgs-alpha", "0.3"],
        "b228f112bed9ccb5c6d0a8ca57f81ca447a7b038868d002387f38a7c952b7a7f",
    ),
    "stats-clustered-json": (
        ["stats", "--input", "@clustered", "--format", "json", "--ppgs-alpha", "0.05"],
        "d1d1efdb014f0165c0ebff3dc46fed51c29930e2b58647cff507beba06127397",
    ),
    "stats-clustered-text": (
        ["stats", "--input", "@clustered", "--ppgs-alpha", "0.6", "--years", "0.5"],
        "f0551ea3e64e74b41e9f098c42a8ed9d608a602563d1b3ada1c50e7d03f1caa8",
    ),
    "stats-clustered-short-csv": (
        ["stats", "--input", "@clustered", "--filter", "short", "--format", "csv"],
        "7e3829b7896c4d001402eaeb30e24abb00a796e854bdf7f7089f8aa74bddb257",
    ),
    "stats-messy-json": (
        ["stats", "--input", "@messy", "--format", "json", "--ppgs-alpha", "0.05",
         "--years", "2"],
        "4685e397090a0cfadd0d8d3ca2ef30dea7771a98a0c51e62158e03c31fa294a9",
    ),
    "stats-messy-short-text": (
        ["stats", "--input", "@messy", "--filter", "short"],
        "bfa32ad27a691ab82e3b753bf6fd891e1acad83b61abe36fb34ccb1b29430cde",
    ),
    "stats-messy-long-csv": (
        ["stats", "--input", "@messy", "--filter", "long", "--format", "csv"],
        "344d80efcc049dd3c5d48a4cdd661ffa9d2953595fbebe2334f7d84248cd0b31",
    ),
    "miller-scarce-json": (
        [*MILLER, "--shares", "50", "--buyers", "1000", "--format", "json"],
        "9ad1614a1074719b85519658191e0d710f2cebc03a9b447a37153043a46af366",
    ),
    "miller-median-json": (
        [*MILLER, "--shares", "500", "--buyers", "1000", "--format", "json"],
        "c4edea66688130319e3305beb336dd12a8c3ea0ba1a80b11111729d4560a7af0",
    ),
    "miller-plentiful-json": (
        [*MILLER, "--mean", "-3.25", "--shares", "7", "--buyers", "13", "--short", "2",
         "--format", "json"],
        "49b78fa31c55d8ef5cd0f56711166f56f136fe08c3c86b359eb313301bf62ec6",
    ),
    "miller-thin-tail-json": (
        [*MILLER, "--shares", "1", "--buyers", "1000000", "--format", "json"],
        "f46a0f5ed5897544b69ded543d1e5338433a8e033683199ef3c057dc12e3c795",
    ),
    "miller-text": (
        [*MILLER, "--shares", "999", "--buyers", "1000"],
        "cfc2e749d9a768d0badc138e1dc3ee3d2606f4e04e4858f753d2ffb76088a2d1",
    ),
    "miller-csv": (
        [*MILLER, "--shares", "50", "--buyers", "1000", "--format", "csv"],
        "509f4e8c06d1807b491a35862f7d071355c9fe162fa55ef512a050d1b7135895",
    ),
    "miller-empirical-text": (
        EMPIRICAL,
        "701fa5c68cff7aa8ae7f0bf08c5473cd74838a79047abdd0a9358f81ae601062",
    ),
    "miller-empirical-json": (
        [*EMPIRICAL, "--format", "json"],
        "71377fc15e97d2b97720c079e8809e1b170ec52ca93496b634c05f83a0a5c7d9",
    ),
    "miller-empirical-csv": (
        [*EMPIRICAL, "--format", "csv"],
        "a74b53430d46bfc5f71e3290ea55d539d4e92b8880bd87937eb9f4a7fcb1c104",
    ),
    "kelly-text": (KELLY, "f7037f6a1581266a33c1c7dbbd1114f20ce83c9a4f28066648584c77f1a304c8"),
    "kelly-json": (
        [*KELLY, "--format", "json"],
        "480ccc033045ec2945438a329355cf3aa950495b56294ba990256f90b0e3ca47",
    ),
    "kelly-csv": (
        [*KELLY, "--format", "csv"],
        "95d82381405082f4ecb5c0710484142da8272cc0d5d65a16537daa0f9cb53e6b",
    ),
    "kelly-no-edge-text": (
        KELLY_NO_EDGE,
        "b0fbd90e91f47c7c5abe8288b10d394510c5df6a9d9749a8f8f48763824b2a8d",
    ),
    "kelly-no-edge-json": (
        [*KELLY_NO_EDGE, "--format", "json"],
        "2a1755daeb542172873d35c56f2570a196b26062dfb5ce029d4f509282695a09",
    ),
    "kelly-no-edge-csv": (
        [*KELLY_NO_EDGE, "--format", "csv"],
        "a2fe6b37a9f44bdf23a088300ef52b88570004390f0f5e3e7f832a332ae8b2f8",
    ),
    "kelly-sure-text": (
        KELLY_SURE,
        "8240aebc3ecda79efc4da04c9dcbc70903a24bb0fa74792b056c0ee3c818b584",
    ),
    "simulate-text": (
        SIMULATE,
        "d81e15131f0cd73a007dc694fa28d4354c07b1ba6694b89f07f1afe4d4a2faf4",
    ),
    "simulate-json": (
        [*SIMULATE, "--format", "json"],
        "823bb9e6fc275b2325ab492b938ac80591b8f5d0bad4e269e646623567c4dbc6",
    ),
    "simulate-csv": (
        [*SIMULATE, "--format", "csv"],
        "cbef5694de7c11361d92d33dd47cb78bc52d88330f2d3ce016e808adf193579a",
    ),
    "simulate-one-path-text": (
        SIMULATE_ONE,
        "ac75149cf53b3c3fc72c986099d71e095817b0490e6a20ec23d65f8fbeef3d14",
    ),
    "simulate-one-path-json": (
        [*SIMULATE_ONE, "--format", "json"],
        "4d30508345af940e8325b0ce91f10cc134c7ab4b2474b2058d058be59001d731",
    ),
    "simulate-one-path-csv": (
        [*SIMULATE_ONE, "--format", "csv"],
        "2b982ce6978f1be2e769b3548023d931bb765c147a13c4a5ab885974102ee581",
    ),
    "grational-text": (
        GRATIONAL,
        "58c81d5125f6e0d4b36e89806cf44826d60f369cd644dc370a752b4b9240945a",
    ),
    "grational-json": (
        [*GRATIONAL, "--format", "json"],
        "4a593f7732c299c7f8a1ab8af1a561cb5df00211e26e80df88f3fd6f48a9a108",
    ),
    "grational-csv": (
        [*GRATIONAL, "--format", "csv"],
        "7f7a7fe5c0f1b175c06861d85d744c54125edb372f8beba2f44e8f97258fa7f1",
    ),
    "grational-drawdown-text": (
        DRAWDOWN,
        "38f746b1a1a5f0d093537ccefa0dde901bde9c628590f051ee799402167a44db",
    ),
    "grational-drawdown-csv": (
        [*DRAWDOWN, "--format", "csv"],
        "dc9f2e66ae630d84b329e0834d8293c4e3a0dfd06fa0a208acebb344cf6648d9",
    ),
    # Blocks of 32 paths of 2000 steps: the kernel keeps them path by path.
    "grational-long-drawdown-csv": (
        ["grational", "--p", "0.6", "--d", "1", "--steps", "2000", "--loss", "drawdown",
         "--threshold", "0.5", "--max-prob", "0.1", "--paths", "1000", "--seed", "4",
         "--format", "csv"],
        "98006b1480714af13eea4c791a7ed1a7b743aa6c46d43ae4e813c6b74b9b5d44",
    ),
    "stats-drift-csv": (
        ["stats", "--input", "@drift", "--format", "csv"],
        "ed870aa288f274572e67dffcc1db3638452a24b7634a014244cdd2e3ede4da6c",
    ),
    "stats-clustered-long-text": (
        ["stats", "--input", "@clustered", "--filter", "long", "--years", "2"],
        "cc1d703c95db5a27675bf0db06557bbae345d5381ea5ec59ab4397a978ea8596",
    ),
    "pennies-text": (
        PENNIES,
        "267d808e5465588df7cc07c86b95778259666492f384039712bbfc2d1a0ef2c6",
    ),
    "pennies-json": (
        [*PENNIES, "--format", "json"],
        "044e4b7aab2903d8aafe8301d8800f504774a3a6dbb49e26b4e4c748d723f66b",
    ),
    "pennies-csv": (
        [*PENNIES, "--format", "csv"],
        "477fe6e38d029aae4443f48be3cefebbf064e290e2bb0fc9d4d8aae0b9675b93",
    ),
    "pennies-spy-text": (
        SPY,
        "b3121b06ac6bb84fcd7330114efe8addf30ae427468b449016497e086b885558",
    ),
    "pennies-spy-json": (
        [*SPY, "--format", "json"],
        "bfb9f75bb29bb71d5b7c7fd3058685418ed7b773261a3d4d3056f8274c653a69",
    ),
    "pennies-spy-csv": (
        [*SPY, "--format", "csv"],
        "93d8623dcdd271e9916109f695749c003417331bf4df89198a0980f8f019cb19",
    ),
    "pennies-spy-exploiter-text": (
        SPY_EXPLOITER,
        "cb17f9cf9283cec223536cfd1dbd954c3a16183c8709a41a2f9681f1d18a780a",
    ),
    "pennies-spy-exploiter-json": (
        [*SPY_EXPLOITER, "--format", "json"],
        "ecc53430fe6f533f2f8d60fef240c6d7a5d55da3059c847f18c7b5b60fd1ebc8",
    ),
    "pennies-spy-exploiter-csv": (
        [*SPY_EXPLOITER, "--format", "csv"],
        "28065f6f81c6a7a96c6896b74fa379825c67224151860d7075d89a9944cb5278",
    ),
    "pennies-exploiters-text": (
        EXPLOITERS,
        "3e3b623200ab4fff07ffe19083222a88f2fa9d5e225efe657ece3c5d8f0d564e",
    ),
    "pennies-exploiters-json": (
        [*EXPLOITERS, "--format", "json"],
        "a19609112a21c6bd9dc056ccfd3b8db3003b7ef78ceb25bbc2b720cd94239d9d",
    ),
    "pennies-exploiters-csv": (
        [*EXPLOITERS, "--format", "csv"],
        "0d7eb363788fb92e1c147ebf53a4509fba268365e86437ab9a5360a086ad0b04",
    ),
    "pennies-rake-text": (
        RAKE,
        "21f2c7f23fd8db4ec4361bdd4611b13d75a3d18f3f969e41ed6eb75e8bd33676",
    ),
    "pennies-rake-json": (
        [*RAKE, "--format", "json"],
        "aeb6152f159c365faf7916c146cd76a55c597b6706a8cf8c1242cfa9875cf597",
    ),
    "pennies-rake-csv": (
        [*RAKE, "--format", "csv"],
        "d251e69e4b14e1ff270149511d71815d9c5bae86d2dcaa769878076ac1cf3b95",
    ),
    "popp-text": (POPP, "4876ba93320c313dbdb62377d51ae468014362658e69c7791e03b29f12315b13"),
    "popp-json": (
        [*POPP, "--format", "json"],
        "2fc83bc9dcde403d335fdfc6009e2860c0ca61cb65238423090430986a3cc381",
    ),
    "popp-csv": (
        [*POPP, "--format", "csv"],
        "c1ef3c8040249a9742a3333b430449313987005ccd6f5c74099b8a8403bd9574",
    ),
    "popp-mixed-text": (
        POPP_MIXED,
        "d4ce0096f2e13a2f9f683848ea3641996763ed9f735b38971c41830908c9de13",
    ),
    "popp-mixed-csv": (
        [*POPP_MIXED, "--format", "csv"],
        "5053650cd563ce0cb38b6b4034ba09329a3b35cc3aad9af4d0b86d2b3718e96f",
    ),
    "script-growth-frontier": (
        ["growth_frontier.py", "--steps", "20", "--threshold", "0.4", "--paths", "1000",
         "--grid-step", "0.05", "--caps", "0,0.05,0.3,1"],
        "b3de22927c9fbd28335fd40471aaf363a7f6d179fd09f1313e27f37660bbf8b5",
    ),
    "script-growth-frontier-drawdown-seeded": (
        ["growth_frontier.py", "--p", "0.55", "--d", "1.5", "--steps", "12",
         "--loss", "drawdown", "--threshold", "0.25", "--paths", "1000", "--seed", "5",
         "--caps", "0.02,0.5"],
        "25d6585146bd0952c839629e2c968e144b05f4a5345c071010940161b8ec22c4",
    ),
    "script-overbetting-demo": (
        ["overbetting_demo.py", "--steps", "60", "--paths", "3"],
        "759d02ea95c6753be99c1b43fe031bf8649a08e55893ce170de6ed8ba758a295",
    ),
    "script-overbetting-demo-seeded": (
        ["overbetting_demo.py", "--p", "0.7", "--d", "0.8", "--steps", "40", "--paths", "2",
         "--seed", "11"],
        "e89b6c0d6b76a1cdaf865778f8a83d5a925af34e5ffce2dbcd4702adbdca24e5",
    ),
    "script-pennies-tournament": (
        ["pennies_tournament.py", "--rounds", "30"],
        "4c8c7c04e72a1eaff76c9b91030f81ba9e474c4cb6528b3c93e8feb0d9e14feb",
    ),
    "script-pennies-tournament-seeded": (
        ["pennies_tournament.py", "--rounds", "25", "--seed", "4"],
        "c269b405b3a20b3a0b695877fd0f2f3e09908e816a2aabba5dca2e86fe1ac645",
    ),
}


def resolve(argv, tmp_path):
    out = []
    for arg in argv:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.csv"
            path.write_text(TRADES[arg[1:]])
            arg = str(path)
        out.append(arg)
    return out


def run_script(argv, monkeypatch) -> int:
    """Run scripts/<argv[0]> as ``python3 scripts/<argv[0]> argv[1:]`` would;
    return its exit code."""
    monkeypatch.setattr(sys, "argv", argv)
    try:
        runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


def run_case(argv, tmp_path, monkeypatch) -> int:
    if argv and argv[0].endswith(".py"):
        return run_script(argv, monkeypatch)
    return run(resolve(argv, tmp_path))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest(name, tmp_path, capsys, monkeypatch):
    """The case's stdout, and the file it writes with ``--output``, match."""
    argv, expected = CASES[name]
    assert run_case(argv, tmp_path, monkeypatch) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected, out
    target = tmp_path / "output"
    assert run_case([*argv, "--output", str(target)], tmp_path, monkeypatch) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == expected


# name -> (argv, sha256 of stdout) of each parser's help, wrapped at 80 columns.
HELP = {
    "betlab": (["--help"], "721b036d7629a4ab0c3f451c214dda81d0110b69dfc8b3e9e5860244b551cb2d"),
    "kelly": (["kelly", "--help"],
              "33dd5b8643202c84cb51e70708e61a6026c608e3a401be86703c2178cb532b59"),
    "simulate": (["simulate", "--help"],
                 "73ee953530a701ed606f381361d1112346b4c1c7ceba062169ef65fdaef868fe"),
    "grational": (["grational", "--help"],
                  "186e53977691f26f8b74d1f58a339fd19bc6a7c3628026f2b866fee5a8d44881"),
    "stats": (["stats", "--help"],
              "991d2ea07784feb57889df3a3f7d2c9bc9b1d294cac7723849dc1783418cea5b"),
    "pennies": (["pennies", "--help"],
                "f0c0e8a8926053cb2b5a8421720e9f33889591289bb14de3e9a3c4e7c528ce4a"),
    "miller": (["miller", "--help"],
               "966a4abd55829aad5c2494cd171dc7fc899bf76296e638f0cde8d09d7092aa12"),
    "popp": (["popp", "--help"],
             "0bb9ed37ad2f9376f8591233f171557b637c2c88b7106e0ec75e12b516339be3"),
}


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_digest(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    argv, expected = HELP[name]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected, out


HEADER = "period_id,side,pnl\n"
FLOAT_NONE = "float() argument must be a string or a real number, not 'NoneType'"

# name -> (trades file, exit code, stderr of ``betlab stats``).
MALFORMED = {
    "bad-side": (HEADER + "1,L,1\n2,X,1\n", 1,
                 "error: line 3: side must be one of L,S,F, got 'X'\n"),
    "empty-side": (HEADER + "1,,1\n", 1,
                   "error: line 2: side must be one of L,S,F, got ''\n"),
    "one-cell-row": (HEADER + "1,L,1\n2\n", 1,
                     "error: line 3: side must be one of L,S,F, got None\n"),
    "short-row": (HEADER + "1,L,1\n2,S\n", 1, f"error: line 3: {FLOAT_NONE}\n"),
    "bad-id": (HEADER + "1,L,1\n2.5,S,1\n", 1,
               "error: line 3: invalid literal for int() with base 10: '2.5'\n"),
    "bad-pnl": (HEADER + "1,L,1\n2,S,1,5\n3,S,x\n", 1,
                "error: line 4: could not convert string to float: 'x'\n"),
    "nan-pnl": (HEADER + "1,L,nan\n", 1, "error: line 2: pnl must be finite, got 'nan'\n"),
    "inf-pnl": (HEADER + "1,L,1\n2,S,-inf\n", 1,
                "error: line 3: pnl must be finite, got '-inf'\n"),
    "overflow-pnl": (HEADER + "1,L,1e999\n", 1,
                     "error: line 2: pnl must be finite, got '1e999'\n"),
    "repeated-id": (HEADER + "1,L,1\n2,S,1\n2,L,1\n", 1,
                    "error: period_ids must be strictly increasing\n"),
    "flat-nonzero": (HEADER + "1,L,1\n2,F,0.5\n", 1,
                     "error: flat period 2 carries pnl 0.5\n"),
    "bad-header": ("id,side,pnl\n1,L,1\n", 1,
                   "error: expected header period_id,side,pnl, got ['id', 'side', 'pnl']\n"),
    "header-extra-column": (
        "period_id,side,pnl,note\n1,L,1,x\n", 1,
        "error: expected header period_id,side,pnl, got ['period_id', 'side', 'pnl', 'note']\n",
    ),
    "header-only": (HEADER, 1, "error: no data rows in trades CSV\n"),
    "header-and-blank-lines": (HEADER + "\n\n", 1, "error: no data rows in trades CSV\n"),
    "empty-file": ("", 1, "error: expected header period_id,side,pnl, got None\n"),
    "blank-first-line": ("\n" + HEADER + "1,L,1\n", 1,
                         "error: expected header period_id,side,pnl, got []\n"),
    "blank-lines-do-not-count": (HEADER + "\n1,L,1\n\n\n2,Q,1\n", 1,
                                 "error: line 3: side must be one of L,S,F, got 'Q'\n"),
    "side-before-id": (HEADER + "1,L,1\nx,Q,y\n", 1,
                       "error: line 3: side must be one of L,S,F, got 'Q'\n"),
    "id-before-pnl": (HEADER + "1,L,1\nx,S,y\n", 1,
                      "error: line 3: invalid literal for int() with base 10: 'x'\n"),
    "first-bad-line-wins": (HEADER + "1,L,1\n2,S,nan\n3,Q,1\nx,L,1\n", 1,
                            "error: line 3: pnl must be finite, got 'nan'\n"),
    "short-row-after-bad-pnl": (HEADER + "1,L,1\n2,S,zz\n3\n", 1,
                                "error: line 3: could not convert string to float: 'zz'\n"),
    "bad-pnl-after-short-row": (HEADER + "1,L,1\n2,S\n3,L,zz\n", 1,
                                f"error: line 3: {FLOAT_NONE}\n"),
    "line-error-before-order": (HEADER + "5,L,1\n4,S,1\n6,L,inf\n", 1,
                                "error: line 4: pnl must be finite, got 'inf'\n"),
    "order-before-flat": (HEADER + "1,F,2\n3,L,1\n2,S,1\n", 1,
                          "error: period_ids must be strictly increasing\n"),
    "first-flat-named": (HEADER + "1,L,1\n2,F,-0.25\n3,F,7\n", 1,
                         "error: flat period 2 carries pnl -0.25\n"),
    "line-error-before-flat": (HEADER + "1,F,2\n2,L,nan\n", 1,
                               "error: line 3: pnl must be finite, got 'nan'\n"),
    "side-word": (HEADER + "1,LONG,1\n", 1,
                  "error: line 2: side must be one of L,S,F, got 'LONG'\n"),
    "order-before-flat-pnl": (HEADER + "2,L,1\n1,F,3\n", 1,
                              "error: period_ids must be strictly increasing\n"),
    # The first bad line is named, whatever makes it bad: a side with a
    # trailing NUL reads as its letter, and a cell past csv's field limit
    # (131072) after a bad line is never reached.
    "bad-pnl-after-nul-side": (HEADER + "1,L\x00,1\n2,S,zz\n", 1,
                               "error: line 3: could not convert string to float: 'zz'\n"),
    "bad-id-before-long-cell": (HEADER + "x,L,1\n2,S," + "1" * 200_000 + "\n", 1,
                                "error: line 2: invalid literal for int() with base 10: 'x'\n"),
    # A cell past the field limit on its own once escaped as a traceback.
    "long-cell": (HEADER + "1,L," + "1" * 200_000 + "\n", 1,
                  "error: line 2: field larger than field limit (131072)\n"),
    "long-cell-after-good-line": (HEADER + "1,L,1\n2,S," + "1" * 200_000 + "\n", 1,
                                  "error: line 3: field larger than field limit (131072)\n"),
    # A comment line is read as data, not skipped.
    "comment-line": (HEADER + "# a comment\n1,L,1\n", 1,
                     "error: line 2: side must be one of L,S,F, got None\n"),
    # A quoted cell sends the file to the row reader; TradeSeries refuses a
    # flat period's P&L from either reader the same way.
    "quoted-flat-pnl": (HEADER + '1,F,"1"\n', 1, "error: flat period 1 carries pnl 1.0\n"),
    # 17 Long periods just under DBL_MAX/17: numpy's pairwise sum (so the
    # mean) is finite, the running sum is not.
    "cumulative-overflow": (
        HEADER + "".join(f"{i},L,1.0574665499190091e+307\n" for i in range(1, 18)), 1,
        "error: cumulative P&L overflows double precision\n",
    ),
    # Two periods whose P&L sum passes double range: the mean overflows.
    "mean-overflow": (HEADER + "1,L,1e308\n2,L,1e308\n", 1,
                      "error: P&L sums overflow double precision\n"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_trades_message(name, tmp_path, capsys):
    text, code, message = MALFORMED[name]
    path = tmp_path / "trades.csv"
    path.write_text(text)
    assert run(["stats", "--input", str(path)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


SEED_RANGE = f"seed must lie in [0, {2**64 - 1}]"
BAD_ENV = f"error: bad {SEED_ENV_VAR} value"
NOT_INT = "invalid literal for int() with base 10:"
LEVELS = "expected 9 comma-separated levels (ret,vol,sr,spd,pop,lev,sdiv,slink,srob), got 2"
SPY_ONLY = "error: --p2 and --rake are not taken with --spy"
BET = ["--p", "0.6", "--d", "1"]
SPY_COINFLIP = ["pennies", "--p1", "coinflip", "--rounds", "10", "--spy"]
EMPIRICAL_ONE = ["miller", "--mode", "empirical", "--shares", "1", "--sds", "1", "--buyers"]
# The scripts at small sizes.
FRONTIER = ["growth_frontier.py", "--steps", "10", "--paths", "1000", "--grid-step", "0.1",
            "--caps", "0.1"]
DEMO = ["overbetting_demo.py", "--steps", "20", "--paths", "2"]
TOURNAMENT = ["pennies_tournament.py", "--rounds", "20"]

# name -> (argv, environment, exit code, last line of stderr), the argv read
# as in CASES.  Exit 1 prints only that line; exit 2 prints argparse's usage
# first.  Python 3.11's argparse stores [] for --flag=-- without calling the
# flag's type, so ``run`` refuses it itself, under betlab's own usage.
REFUSED = {
    "no-subcommand": ([], {}, 2, "betlab: error: the following arguments are required: subcommand"),
    "unknown-subcommand": (["nonsense"], {}, 2, "betlab: error: argument subcommand: invalid "
                           "choice: 'nonsense' (choose from 'kelly', 'simulate', 'grational', "
                           "'stats', 'pennies', 'miller', 'popp')"),
    "kelly-missing-d": (["kelly", "--p", "0.6"], {}, 2,
                        "betlab kelly: error: the following arguments are required: --d"),
    "kelly-format-xml": (["kelly", *BET, "--format", "xml"], {}, 2, "betlab kelly: error: argument "
                         "--format: invalid choice: 'xml' (choose from 'text', 'json', 'csv')"),
    # A flag's rule, where argparse once printed "invalid <function name> value".
    "kelly-seed-minus-3": (["kelly", *BET, "--seed", "-3"], {}, 2,
                           f"betlab kelly: error: argument --seed: {SEED_RANGE}, got -3"),
    "kelly-seed-minus-1": (["kelly", *BET, "--seed", "-1"], {}, 2,
                           f"betlab kelly: error: argument --seed: {SEED_RANGE}, got -1"),
    "kelly-seed-dash-dash": (["kelly", *BET, "--seed=--"], {}, 2,
                             "betlab: error: argument --seed: expected one argument"),
    "kelly-p-dash-dash": (["kelly", "--p=--", "--d", "1"], {}, 2,
                          "betlab: error: argument --p: expected one argument"),
    "kelly-p-above-one": (["kelly", "--p", "1.5", "--d", "1"], {}, 1,
                          "error: win probability must lie in [0, 1], got 1.5"),
    "kelly-output-unwritable": (["kelly", *BET, "--output", "/nonexistent/dir/x"], {}, 1,
                                "error: [Errno 2] No such file or directory: '/nonexistent/dir/x'"),
    "simulate-f-dash-dash": (["simulate", *BET, "--f=--", "--steps", "3", "--paths", "2"], {}, 2,
                             "betlab: error: argument --f: expected one argument"),
    "simulate-env-seed-x": (["simulate", *BET, "--f", "0.2", "--steps", "3", "--paths", "2"],
                            {SEED_ENV_VAR: "x"}, 1, f"{BAD_ENV} 'x': {NOT_INT} 'x'"),
    "grational-negative-threshold": (
        ["grational", *BET, "--steps", "5", "--threshold", "-1", "--max-prob", "0.1"], {}, 1,
        "error: loss threshold must be positive, got -1.0; "
        "a nonpositive threshold is violated even by f = 0",
    ),
    "grational-nan-threshold": (
        ["grational", *BET, "--steps", "5", "--threshold", "nan", "--max-prob", "0.1"], {}, 1,
        "error: loss threshold must lie in [-inf, inf], got nan",
    ),
    # Drawn in blocks, the matrix is still bounded before any path.
    "grational-paths-1e20": (
        ["grational", *BET, "--steps", "2", "--threshold", "1", "--max-prob", "0.1", "--paths",
         str(10**20)], {}, 1, f"error: {10**20} paths of 2 steps exceed what numpy can index",
    ),
    "grational-steps-dash-dash": (
        ["grational", *BET, "--steps=--", "--threshold", "0.5", "--max-prob", "0.1"], {}, 2,
        "betlab: error: argument --steps: expected one argument",
    ),
    "stats-missing-file": (["stats", "--input", "/nonexistent/trades.csv"], {}, 1,
                           "error: [Errno 2] No such file or directory: '/nonexistent/trades.csv'"),
    "stats-years-1e-320": (["stats", "--input", "@drift", "--years", "1e-320"], {}, 1,
                           "error: average gain per year overflows over 1e-320 years"),
    "stats-input-dash-dash": (["stats", "--input=--"], {}, 2,
                              "betlab: error: argument --input: expected one argument"),
    "pennies-no-p2": (["pennies", "--p1", "coinflip", "--rounds", "10"], {}, 1,
                      "error: --p2 is required unless --spy is given"),
    "pennies-spy-p2": ([*SPY_COINFLIP, "--p2", "fixed:H"], {}, 1, SPY_ONLY),
    "pennies-spy-rake": ([*SPY_COINFLIP, "--rake", "0.5"], {}, 1, SPY_ONLY),
    "pennies-spy-rake-p2": ([*SPY_COINFLIP, "--rake", "0.5", "--p2", "fixed:H"], {}, 1, SPY_ONLY),
    "pennies-p2-dash-dash": (["pennies", "--p1", "coinflip", "--p2=--", "--rounds", "4"], {}, 2,
                             "betlab: error: argument --p2: expected one argument"),
    "pennies-p2-exploiter:k=": (
        ["pennies", "--p1", "coinflip", "--p2", "exploiter:k=", "--rounds", "3"], {}, 2,
        "betlab pennies: error: argument --p2: bad strategy spec 'exploiter:k=': "
        "expected exploiter[:k=<1..8>]",
    ),
    "pennies-p1-alternator:": (
        ["pennies", "--p1", "alternator:", "--rounds", "3", "--spy"], {}, 2,
        "betlab pennies: error: argument --p1: bad strategy spec 'alternator:': "
        "expected alternator[:<H|T>]",
    ),
    # A --p1 spec prints its rule, never Python's conversion text; a value
    # that converts keeps its range message.
    **{
        f"pennies-p1-{spec}": (
            ["pennies", "--p1", spec, "--p2", "coinflip", "--rounds", "3"], {}, 2,
            f"betlab pennies: error: argument --p1: bad strategy spec {spec!r}: {rule}",
        )
        for spec, rule in [
            ("biased:x", "expected biased:<p>"),
            ("bestresponse:1/2", "expected bestresponse:<p>"),
            ("exploiter:k=x", "expected exploiter[:k=<1..8>]"),
            ("exploiter:K=2.5", "expected exploiter[:k=<1..8>]"),
            ("exploiter:x", "expected exploiter[:k=<1..8>]"),
            ("biased:1.5", "p_h must lie in [0, 1], got 1.5"),
            ("exploiter:K=0", "context order must lie in [1, 8], got 0"),
            ("exploiter:k=9", "context order must lie in [1, 8], got 9"),
            ("coinflip:0.9", "expected coinflip"),
            # A missing value once printed "choice must be H or T, got ''".
            ("fixed", "expected fixed:<H|T>"),
        ]
    },
    "pennies-env-seed-word": (
        ["pennies", "--p1", "coinflip", "--p2", "coinflip", "--rounds", "50"],
        {SEED_ENV_VAR: "not-a-seed"}, 1, f"{BAD_ENV} 'not-a-seed': {NOT_INT} 'not-a-seed'",
    ),
    "pennies-env-seed-2e64": (
        ["pennies", "--p1", "coinflip", "--p2", "coinflip", "--rounds", "3"],
        {SEED_ENV_VAR: str(2**64)}, 1, f"{BAD_ENV} '{2**64}': {SEED_RANGE}, got {2**64}",
    ),
    **{
        f"miller-sds-{sds!r}": (["miller", "--sds", sds, "--shares", "50", "--buyers", "1000"], {},
                                2, f"betlab miller: error: argument --sds: {rule}")
        for sds, rule in [
            (",", "expected comma-separated numbers, got ','"),
            ("", "expected comma-separated numbers, got ''"),
            (" , ,", "expected comma-separated numbers, got ' , ,'"),
            ("1,x", "could not convert string to float: 'x'"),
        ]
    },
    "miller-sds-dash-dash": (["miller", "--sds=--", "--shares", "1", "--buyers", "2"], {}, 2,
                             "betlab: error: argument --sds: expected one argument"),
    "miller-oversupply": (["miller", "--sds", "10", "--shares", "50", "--buyers", "10"], {}, 1,
                          "error: supply 50 exceeds the 10 potential buyers"),
    # AuctionSpec declares n_shares before m_buyers.
    "miller-first-bad-field": (["miller", "--sds", "1", "--shares", "-1", "--buyers", "0"], {}, 1,
                               "error: n_shares must lie in [0, inf), got -1"),
    # More buyers' estimates than a float64 array can hold.
    "miller-buyers-1e20": ([*EMPIRICAL_ONE, str(10**20)], {}, 1,
                           f"error: m_buyers must lie in [1, {MAX_LENGTH}], got {10**20}"),
    "miller-buyers-2e62": ([*EMPIRICAL_ONE, str(2**62)], {}, 1,
                           f"error: m_buyers must lie in [1, {MAX_LENGTH}], got {2**62}"),
    "miller-empirical-env-seed": ([*EMPIRICAL_ONE, "2"], {SEED_ENV_VAR: "bad"}, 1,
                                  f"{BAD_ENV} 'bad': {NOT_INT} 'bad'"),
    "popp-state-two-levels": (["popp", "--state", "++,+"], {}, 2,
                              f"betlab popp: error: argument --state: {LEVELS}"),
    "popp-state-words": (["popp", "--state", "a,b"], {}, 2,
                         f"betlab popp: error: argument --state: {LEVELS}"),
    "popp-state-dash-dash": (["popp", "--state=--"], {}, 2,
                             "betlab: error: argument --state: expected one argument"),
    # Each script shares the CLI's seed rule.
    **{
        f"{argv[0]}-{name}": ([*argv, *flags], env, code, line)
        for argv in [FRONTIER, DEMO, TOURNAMENT]
        for name, flags, env, code, line in [
            ("seed-minus-1", ["--seed", "-1"], {}, 2,
             f"{argv[0]}: error: argument --seed: {SEED_RANGE}, got -1"),
            ("seed-2e64", ["--seed", str(2**64)], {}, 2,
             f"{argv[0]}: error: argument --seed: {SEED_RANGE}, got {2**64}"),
            ("env-seed-minus-4", [], {SEED_ENV_VAR: "-4"}, 1,
             f"{BAD_ENV} '-4': {SEED_RANGE}, got -4"),
        ]
    },
    # No edge, so no critical fraction.
    "overbetting_demo.py-p-no-edge": ([*DEMO, "--p", "0.4"], {}, 1,
                                      "error: bet (p=0.4, d=1.0) has no positive edge"),
    "overbetting_demo.py-d-inf": ([*DEMO, "--d", "inf"], {}, 1,
                                  "error: odds must lie in (0, inf), got inf"),
    "overbetting_demo.py-p-dash-dash": (
        [*DEMO, "--p=--"], {}, 2, "overbetting_demo.py: error: argument --p: expected one argument"
    ),
    "growth_frontier.py-paths-10": (
        [*FRONTIER, "--paths", "10"], {}, 1,
        "error: need at least 1000 paths for usable violation estimates, got 10",
    ),
    "growth_frontier.py-caps-2": ([*FRONTIER, "--caps", "2"], {}, 1,
                                  "error: max_prob must lie in [0, 1], got 2.0"),
    **{
        f"growth_frontier.py-caps-{caps!r}": ([*FRONTIER, "--caps", caps], {}, 2,
                                              f"growth_frontier.py: error: argument --caps: {rule}")
        for caps, rule in [
            ("0.1,x", "could not convert string to float: 'x'"),
            (",", "expected comma-separated numbers, got ','"),
            ("", "expected comma-separated numbers, got ''"),
        ]
    },
    "growth_frontier.py-threshold-dash-dash": (
        [*FRONTIER, "--threshold=--"], {}, 2,
        "growth_frontier.py: error: argument --threshold: expected one argument",
    ),
    "pennies_tournament.py-rounds-0": ([*TOURNAMENT, "--rounds", "0"], {}, 1,
                                       f"error: n_rounds must lie in [1, {MAX_LENGTH}], got 0"),
    "pennies_tournament.py-rounds-dash-dash": (
        [*TOURNAMENT, "--rounds=--"], {}, 2,
        "pennies_tournament.py: error: argument --rounds: expected one argument",
    ),
    "pennies_tournament.py-output-unwritable": (
        [*TOURNAMENT, "--output", "/nonexistent/dir/x.csv"], {}, 1,
        "error: [Errno 2] No such file or directory: '/nonexistent/dir/x.csv'",
    ),
}

# The usage block argparse prints before its error line: "usage: ", then
# lines indented under it.
USAGE = re.compile(r"usage: .*\n( .*\n)*")


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused(name, tmp_path, capsys, monkeypatch):
    argv, env, code, line = REFUSED[name]
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert run_case(argv, tmp_path, monkeypatch) == code
    out, err = capsys.readouterr()
    assert out == ""
    if code == 1:
        assert err == f"{line}\n" and line.startswith("error: ")
    else:
        assert code == 2 and err.endswith(f"\n{line}\n"), err
        assert USAGE.fullmatch(err.removesuffix(f"{line}\n")), err


def test_every_command_has_a_refused_row():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = {*sub.choices, *(path.name for path in SCRIPTS.glob("*.py"))}
    assert commands - {argv[0] for argv, *_ in REFUSED.values() if argv} == set()
