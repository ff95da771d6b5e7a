"""CLI fuzzing: numeric flags, sizes and P&L values with NaN, infinities and huge values.

Every run must exit 0, 1 or 2, raise no exception (a RuntimeWarning counts
as one), print no traceback, and print no nan or inf; JSON must parse.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betlab.cli import run

EDGES = [0.0, -0.0, 5e-324, 1e-320, 1e-12, 0.5, 1.0, 1e15, 1e154, 1e300, 1.7976931348623157e308]
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGES + [-x for x in EDGES] + [float("nan"), float("inf"), float("-inf")]),
)


def numbers(lo: float, hi: float) -> st.SearchStrategy[str]:
    """Flag values: half from the valid range [lo, hi], half from anywhere."""
    return st.one_of(st.floats(lo, hi), FLOATS).map(repr)


def counts(hi: int) -> st.SearchStrategy[int]:
    return st.integers(-3, hi) | st.integers(-3, 10**30)


def sizes(hi: int) -> st.SearchStrategy[int]:
    """Array sizes: small ones, or ones numpy cannot index (never a huge allocation)."""
    return st.integers(-3, hi) | st.integers(2**63, 10**30)


SEEDS = st.none() | st.integers(min_value=-1, max_value=2**64)


FORMATS = st.sampled_from(["text", "json", "csv"])
SETTINGS = settings(max_examples=150, deadline=None)  # some runs import scipy.special


def check(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    text = out.getvalue()
    assert "nan" not in text.lower() and "inf" not in text.lower(), (argv, text)
    if code == 0 and "--format=json" in argv:
        json.loads(text)
    if code != 0:
        assert text == "" and err.getvalue(), argv


@given(
    fmt=FORMATS,
    mean=numbers(-100.0, 100.0),
    sds=st.lists(st.floats(0.0, 100.0).map(repr), min_size=1, max_size=4)
    | st.lists(numbers(0.0, 100.0), min_size=1, max_size=4),
    shares=counts(1000),
    buyers=counts(2000),
    short=counts(100),
)
@SETTINGS
def test_miller_normal(fmt, mean, sds, shares, buyers, short):
    check(["miller", f"--format={fmt}", f"--mean={mean}", f"--sds={','.join(sds)}",
           f"--shares={shares}", f"--buyers={buyers}", f"--short={short}"])


@given(
    fmt=FORMATS,
    mean=numbers(-100.0, 100.0),
    sd=numbers(0.0, 100.0),
    shares=st.integers(min_value=-3, max_value=300),
    buyers=st.integers(min_value=-3, max_value=300),  # one estimate drawn per buyer
)
@SETTINGS
def test_miller_empirical(fmt, mean, sd, shares, buyers):
    check(["miller", "--mode=empirical", f"--format={fmt}", f"--mean={mean}",
           f"--sds={sd}", f"--shares={shares}", f"--buyers={buyers}"])


@given(
    fmt=FORMATS,
    stake=numbers(0.0, 100.0),
    rake=numbers(0.0, 10.0),
    p_h=numbers(0.0, 1.0),
    spy=st.booleans(),
    seed=st.integers(min_value=-1, max_value=2**64),
)
@SETTINGS
def test_pennies(fmt, stake, rake, p_h, spy, seed):
    argv = ["pennies", f"--format={fmt}", f"--p1=biased:{p_h}", "--rounds=16",
            f"--stake={stake}", f"--seed={seed}"]
    check(argv + ["--spy"] if spy else argv + ["--p2=exploiter", f"--rake={rake}"])


def seed_flag(seed: int | None) -> list[str]:
    return [] if seed is None else [f"--seed={seed}"]


@given(fmt=FORMATS, p=numbers(0.0, 1.0), d=numbers(0.0, 10.0))
@example(fmt="json", p="0.6", d="inf")
@example(fmt="text", p="0.6", d="inf")
@example(fmt="text", p="--", d="1")  # argparse turns --p=-- into []
@SETTINGS
def test_kelly(fmt, p, d):
    check(["kelly", f"--format={fmt}", f"--p={p}", f"--d={d}"])


@given(
    fmt=FORMATS,
    p=numbers(0.0, 1.0),
    d=numbers(0.0, 10.0),
    f=numbers(0.0, 1.0),
    steps=sizes(40),
    paths=sizes(6),
    w0=st.none() | numbers(0.0, 10.0),
    seed=SEEDS,
)
@example(fmt="csv", p="0.6", d="1", f="--", steps=3, paths=2, w0=None, seed=None)
@SETTINGS
def test_simulate(fmt, p, d, f, steps, paths, w0, seed):
    argv = ["simulate", f"--format={fmt}", f"--p={p}", f"--d={d}", f"--f={f}",
            f"--steps={steps}", f"--paths={paths}", *seed_flag(seed)]
    check(argv + ([] if w0 is None else [f"--w0={w0}"]))


@given(
    fmt=FORMATS,
    p=numbers(0.0, 1.0),
    d=numbers(0.0, 10.0),
    steps=sizes(12),
    loss=st.sampled_from(["worstloss", "drawdown"]),
    threshold=numbers(0.0, 3.0),
    max_prob=numbers(0.0, 1.0),
    paths=st.sampled_from([1000, 1100]) | sizes(1200),
    # A valid step is at least 0.02 here, so the grid has at most 50 points.
    grid_step=st.floats(0.02, 0.1).map(repr) | st.sampled_from(
        [repr(x) for x in EDGES + [-x for x in EDGES] + [float("nan"), float("inf")]]
    ),
    f_max=st.none() | numbers(0.0, 1.0),
    seed=SEEDS,
)
@settings(max_examples=60, deadline=None)  # each valid run builds 1000+ streams
@example(fmt="json", p="0.6", d="inf", steps=10, loss="worstloss", threshold="0.5",
         max_prob="0.1", paths=1000, grid_step="0.05", f_max=None, seed=None)
@example(fmt="text", p="0.6", d="1.0", steps=10**30, loss="drawdown", threshold="0.5",
         max_prob="0.1", paths=1000, grid_step="0.05", f_max=None, seed=None)
def test_grational(fmt, p, d, steps, loss, threshold, max_prob, paths, grid_step, f_max,
                   seed):
    argv = ["grational", f"--format={fmt}", f"--p={p}", f"--d={d}", f"--steps={steps}",
            f"--loss={loss}", f"--threshold={threshold}", f"--max-prob={max_prob}",
            f"--paths={paths}", f"--grid-step={grid_step}", *seed_flag(seed)]
    check(argv + ([] if f_max is None else [f"--f-max={f_max}"]))


LEVELS = ["--", "-", "=", "+", "++", "?", "NA"]


@given(
    fmt=FORMATS,
    levels=st.lists(st.sampled_from(LEVELS), min_size=9, max_size=9)
    | st.lists(st.sampled_from(LEVELS) | st.text(max_size=3), max_size=11),
)
@example(fmt="text", levels=["--"])  # argparse turns --state=-- into []
@SETTINGS
def test_popp(fmt, levels):
    check(["popp", f"--format={fmt}", f"--state={','.join(levels)}"])


@pytest.fixture(scope="module")
def trades_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_trades")


@given(
    fmt=FORMATS,
    pnls=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40)
    | st.lists(FLOATS, min_size=1, max_size=40),
    years=st.none() | numbers(0.0, 100.0),
    alpha=st.none() | numbers(0.0, 1.0),
    which=st.sampled_from(["all", "long", "short"]),
)
@SETTINGS
def test_stats(trades_dir, fmt, pnls, years, alpha, which):
    path = trades_dir / "trades.csv"
    rows = [f"{i},{'LS'[i % 2]},{v!r}" for i, v in enumerate(pnls, start=1)]
    path.write_text("period_id,side,pnl\n" + "\n".join(rows) + "\n")
    argv = ["stats", f"--input={path}", f"--format={fmt}", f"--filter={which}"]
    argv += [] if years is None else [f"--years={years}"]
    argv += [] if alpha is None else [f"--ppgs-alpha={alpha}"]
    check(argv)
