"""The pure-Python tails against their oracles: scipy's ``ndtr`` bit for
bit, and the incomplete beta function of mpmath at 50 digits."""

import math
import struct
import sys

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from betlab.errors import DomainError
from betlab.sysstats import _P_SLACK
from betlab.tails import _SQRT1_2, ndtr, t_pvalue


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def neighbours(x: float, steps: int = 3) -> list[float]:
    out = [x]
    for toward in (math.inf, -math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


# The branch edges of ndtr and erfc: |a| * sqrt(1/2) at sqrt(1/2), 1 and 8,
# and the exp underflow of erfc near |a| * sqrt(1/2) = sqrt(709.78).
EDGES = [
    sign * y
    for edge in (_SQRT1_2, 1.0, 8.0, math.sqrt(7.09782712893383996843e2))
    for y in neighbours(edge / _SQRT1_2)
    for sign in (1.0, -1.0)
]


@settings(max_examples=3000, deadline=None)  # the first call imports scipy.special
@given(st.floats() | st.sampled_from(EDGES) | st.floats(-40.0, 40.0))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
def test_ndtr_is_scipys_bit_for_bit(a):
    from scipy.special import ndtr as scipy_ndtr

    want = float(scipy_ndtr(a))
    got = ndtr(a)
    assert bits(got) == bits(want) or (math.isnan(got) and math.isnan(want)), (got, want)


def exact_pvalue(t: float, df: int) -> mpmath.mpf:
    """I_x(df/2, 1/2) at x = df/(df + t**2), from the side that mpmath sums well."""
    with mpmath.workdps(50):
        t2 = mpmath.mpf(t) ** 2
        a, b = mpmath.mpf(df) / 2, mpmath.mpf(1) / 2
        x, y = df / (df + t2), t2 / (df + t2)
        if (a + b) * y >= b:
            return mpmath.betainc(a, b, 0, x, regularized=True)
        return 1 - mpmath.betainc(b, a, 0, y, regularized=True)


@settings(max_examples=300, deadline=None)
@given(
    df=st.integers(1, 40) | st.integers(1, 10**9),
    t=st.floats(0.0, 40.0) | st.floats(1e-300, 4.0) | st.floats(-40.0, 0.0),
)
@example(df=29, t=2.045)
@example(df=10**9, t=1.96)
@example(df=10**9, t=35.0)
@example(df=1, t=1e150)
@example(df=2, t=1e-300)
def test_t_pvalue_is_the_incomplete_beta(df, t):
    from scipy.special import stdtr

    assume(2 * stdtr(df, -abs(t)) > 1e-280)  # mpmath cannot sum far below that
    exact = exact_pvalue(t, df)
    assume(exact > 1e-290)
    got = t_pvalue(t, df)
    assert got is not None
    assert abs(mpmath.mpf(got) - exact) <= _P_SLACK / 10 * exact, (got, exact)


def test_t_pvalue_ends():
    assert t_pvalue(0.0, 5) == t_pvalue(-0.0, 5) == 1.0
    assert t_pvalue(1e-200, 10**9) == 1.0
    # A t whose square overflows leaves the fraction unconverged.
    assert t_pvalue(1e200, 30) is None
    assert t_pvalue(math.nan, 30) is None


# df log-uniform over every finite value the function takes.
DFS = st.floats(math.log(sys.float_info.min), math.log(sys.float_info.max)).map(math.exp)


@settings(max_examples=1000, deadline=None)
@given(t=st.floats(allow_nan=False, allow_infinity=False), df=DFS)
@example(t=1.0, df=sys.float_info.min)
@example(t=1.7e308, df=sys.float_info.max)
def test_t_pvalue_is_a_probability(t, df):
    p = t_pvalue(t, df)
    assert p is None or 0.0 <= p <= 1.0, p


@pytest.mark.parametrize("t", [1e-10, -1e-10, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
def test_t_pvalue_at_a_tiny_df_is_one(t):
    # The product of the front factor and the fraction once rounded to 1.000000000000032.
    assert t_pvalue(t, 1e-307) == 1.0


@pytest.mark.parametrize("df", [0, -1.0, 5e-324, math.nan, math.inf])
def test_t_pvalue_refuses_degrees_of_freedom_out_of_range(df):
    # 0 raised ZeroDivisionError; half of 5e-324 is 0, where lgamma raised ValueError.
    with pytest.raises(DomainError, match="^df must lie in"):
        t_pvalue(1.0, df)
