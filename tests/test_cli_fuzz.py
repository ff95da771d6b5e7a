"""CLI fuzzing: numeric flags and P&L values with NaN, infinities and huge values.

Every run must exit 0, 1 or 2, raise no exception (a RuntimeWarning counts
as one), print no traceback, and print no nan or inf; JSON must parse.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betlab.cli import SEED_ENV_VAR, run

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


FORMATS = st.sampled_from(["text", "json", "csv"])
SETTINGS = settings(max_examples=150, deadline=None)  # some runs import scipy.special


@pytest.fixture(autouse=True, scope="module")
def clean_seed_env():
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(SEED_ENV_VAR, raising=False)
        yield


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
