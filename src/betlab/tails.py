"""Normal and Student-t tail probabilities in pure Python.

``ndtr`` is a port of the Cephes ``ndtr`` with its ``erf`` and ``erfc``
(Moshier, *Methods and Programs for Mathematical Functions*, 1989): the
same coefficients, the same Horner order in one ``_polevl`` (the denominator
tables store Cephes' implicit leading 1) and the libm ``exp``, so it returns
the bits of ``scipy.special.ndtr``, which compiles that code.

``t_pvalue`` is the two-sided p-value of a t statistic,
``I_x(df/2, 1/2)`` at ``x = df/(df + t**2)``.  It evaluates the
continued fraction of the incomplete beta function in the form of
DiDonato & Morris ("Algorithm 708: Significant digit computation of the
incomplete beta function ratios", ACM TOMS 18(3), 1992), whose terms are
built from ``lambda = (a + b)(1 - x) - b`` and do not cancel when ``x``
is near 1 (large df).  ``log B(df/2, 1/2)`` comes from the Stirling series
of ``log Gamma(a + 1/2) - log Gamma(a)``, which does not cancel at large
``a`` as a difference of ``lgamma`` values does.  Against mpmath at 50
digits its worst relative error measured is about 2e-13 for df up to 1e9,
near scipy's own; it is not scipy's value bit for bit.
"""

from __future__ import annotations

import math
import sys

from .errors import real, within

# Cephes ndtr.c: erfc on [1, 8) is P/Q, on [8, inf) R/S; erf on [0, 1) is x T/U.
# _polevl evaluates them all: Q, S and U store the 1 that Cephes' p1evl implies.
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """erf for ``|x| < 1``, the only arguments ``ndtr`` and ``_erfc`` give it."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(x: float) -> float:
    """erfc for ``x >= sqrt(1/2)``, the only arguments ``ndtr`` gives it."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:  # exp(z) underflows
        return 0.0
    p, q = (_P, _Q) if x < 8.0 else (_R, _S)
    return math.exp(z) * _polevl(x, p) / _polevl(x, q)


def ndtr(a: float) -> float:
    """The standard normal CDF at ``a``, bit for bit ``scipy.special.ndtr``."""
    a = real(a, "a")
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


# log Gamma(1/2) = log sqrt(pi).
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# From here on, the Stirling series of log Gamma(a + 1/2) - log Gamma(a)
# below is exact to double precision: its first omitted term is 2e-16.
_STIRLING_MIN = 16.0
# Terms of the continued fraction before it counts as not converging.
_MAX_TERMS = 1000


def _log_gamma_half_ratio(a: float) -> float:
    """``log Gamma(a + 1/2) - log Gamma(a)`` for ``a > 0``."""
    if a < _STIRLING_MIN:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    # sum over even n of (2**(1-n) - 2) B_n / (n (n-1) a**(n-1)), B_n Bernoulli
    r = 1.0 / (a * a)
    series = 1 / 8 - r * (1 / 192 - r * (1 / 640 - r * (17 / 14336 - r * 31 / 18432)))
    return 0.5 * math.log(a) - series / a


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float | None:
    """``I_x(a, b)`` over ``x**a y**b / B(a, b)``, where ``y = 1 - x`` and
    ``lam = (a + b) y - b >= 0``; None if it has not converged in
    ``_MAX_TERMS`` terms.  TOMS 708's ``bfrac``: the convergents of a
    three-term recurrence, rescaled after each term."""
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _MAX_TERMS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return None


def t_pvalue(t: float, df: float) -> float | None:
    """Two-sided p-value of ``t`` with ``df`` degrees of freedom,
    ``P[|T| >= |t|]``; None when the continued fraction does not converge
    (as for a ``t`` whose square overflows).  ``df`` is a finite float of at
    least ``sys.float_info.min``: half of a subnormal one underflows to 0."""
    t, df = real(t, "t"), within(df, "df", sys.float_info.min, math.inf, "[)")
    ratio = t * t / df  # (1 - x) / x
    if ratio == 0.0:
        return 1.0
    a, b = 0.5 * df, 0.5
    x, y = 1.0 / (1.0 + ratio), ratio / (1.0 + ratio)
    # log(x**a y**b / B(a, b)), where
    # log B(a, 1/2) = log sqrt(pi) - (log Gamma(a + 1/2) - log Gamma(a)).
    log_x = -math.log1p(ratio)
    log_front = a * log_x + b * (math.log(ratio) + log_x) - _LOG_SQRT_PI + _log_gamma_half_ratio(a)
    lam = (a + b) * y - b
    if lam >= 0.0:
        fraction = _beta_fraction(a, b, x, y, lam)
        # At a tiny df the product can round past 1 (1.000000000000032 at df = 1e-307).
        return None if fraction is None else min(1.0, math.exp(log_front) * fraction)
    # Near x = 1 the fraction converges for I_y(b, a) = 1 - I_x(a, b).
    fraction = _beta_fraction(b, a, y, x, -lam)
    return None if fraction is None else 1.0 - math.exp(log_front) * fraction
