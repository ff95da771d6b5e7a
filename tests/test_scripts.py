"""The experiment scripts share the CLI's seed rule and ``--output`` flag.

Their refusals are rows of ``REFUSED`` in ``tests/test_output_digests.py``; the
tests here also run ``--caps``, the one flag that parses a list, through the
script itself.
"""

import runpy
import sys
from pathlib import Path

import pytest

from betlab.cli import SEED_ENV_VAR

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SMALL = {
    "growth_frontier.py": ["--steps", "10", "--paths", "1000", "--grid-step", "0.1",
                           "--caps", "0.1"],
    "overbetting_demo.py": ["--steps", "20", "--paths", "2"],
    "pennies_tournament.py": ["--rounds", "20"],
}


def run_script(name, args, monkeypatch, capsys):
    """Run scripts/<name> in-process; return (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", sorted(SMALL))
def test_output_file(name, tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.csv"
    code, stdout, _ = run_script(name, SMALL[name], monkeypatch, capsys)
    assert code == 0
    code, out, _ = run_script(name, [*SMALL[name], "--output", str(target)], monkeypatch,
                              capsys)
    assert code == 0 and out == ""
    assert target.read_text() == stdout


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seed_env_var_seeds_the_script(name, monkeypatch, capsys):
    _, default, _ = run_script(name, SMALL[name], monkeypatch, capsys)
    _, flagged, _ = run_script(name, [*SMALL[name], "--seed", "4"], monkeypatch, capsys)
    monkeypatch.setenv(SEED_ENV_VAR, "4")
    _, from_env, _ = run_script(name, SMALL[name], monkeypatch, capsys)
    assert from_env == flagged != default


# (script, flags added to its SMALL flags, exit code)
BAD = [
    ("growth_frontier.py", ["--caps", "0.1,x"], 2),
]


@pytest.mark.parametrize(
    ("name", "flags", "expected"), BAD, ids=[f"{n} {' '.join(f)}" for n, f, _ in BAD]
)
def test_bad_input_exits_with_a_message(name, flags, expected, monkeypatch, capsys):
    code, out, err = run_script(name, [*SMALL[name], *flags], monkeypatch, capsys)
    assert code == expected, err
    assert out == ""
    assert "error:" in err and "Traceback" not in err
    if expected == 2:
        assert err.startswith("usage:")


def test_caps_error_prints_its_rule(monkeypatch, capsys):
    flags = [*SMALL["growth_frontier.py"], "--caps", "0.1,x"]
    code, _, err = run_script("growth_frontier.py", flags, monkeypatch, capsys)
    assert (code, err.splitlines()[-1]) == (
        2, "growth_frontier.py: error: argument --caps: could not convert string to float: 'x'"
    )
