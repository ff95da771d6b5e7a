"""Byte-identity guard for the CLI paths that call scipy's compiled kernels.

Each case runs the CLI in-process and compares the sha256 of its stdout
with a digest recorded before those kernels were called through
``scipy.special`` instead of ``scipy.stats``.  The stats record has more
than 30 positioned periods, so the runs p-value takes the normal
approximation and ``--ppgs-alpha`` runs the t-test; miller's normal mode
prints full-precision ``ndtri`` quantiles in JSON.
"""

import hashlib

import pytest

from betlab.cli import SEED_ENV_VAR, run


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


MILLER = ["miller", "--sds", "0,0.5,3,10,25.75"]

# name -> (argv, sha256 of stdout); "@drift" and "@clustered" stand for
# the path of the trades record of that kind.
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
}


def resolve(argv, tmp_path):
    out = []
    for arg in argv:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.csv"
            path.write_text(trades_text(clustered=arg == "@clustered"))
            arg = str(path)
        out.append(arg)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    argv, expected = CASES[name]
    assert run(resolve(argv, tmp_path)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected, out
