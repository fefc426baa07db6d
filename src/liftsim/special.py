"""The standard normal CDF and the Beta quantile, in numpy alone.

They draw a world's ground truth (see :mod:`liftsim.world`), so that no
part of the package imports scipy. Accuracies below are relative, as
measured against ``scipy.special`` in ``tests/test_special.py``.

:func:`normal_cdf` is Φ(z) = ½·erfc(−z/√2). Its erfc is Cody's
rational Chebyshev approximation ("Rational Chebyshev approximations for
the error function", Math. Comp. 1969; the coefficients of his CALERF
routine) over three ranges of y = |z|/√2, with his exact split of
exp(−y²). It is within 2.7e-15 of ``ndtr`` for |z| <= 8, and 5.7e-14
down to z = −37.5, where erfc's own sensitivity to the rounding of y
dominates.

:func:`beta_quantile` is the x with I_x(a, b) = u, the regularized
incomplete beta function. I_x is the continued fraction of Numerical
Recipes' ``betacf`` (Press et al., §6.4), read backwards from a fixed
depth, on the side of x = (a + 1)/(a + b + 2) where it converges fast,
and by the symmetry I_x(a, b) = 1 − I_{1−x}(b, a) on the other. Its
prefactor x^a (1 − x)^b / B(a, b) takes log B(a, b) from Stirling's
series where large log-gammas would cancel, as DiDonato and Morris's
Algorithm 708 (ACM TOMS 1992) does. The quantile reads t = logit x from
a table of cubic pieces in logit u, built once per (a, b) and process
(about 2 ms at (2, 5) and 10 ms at (500, 500)), and takes one Newton
step on log I_x in t. It is within 3.3e-15 of ``betaincinv`` at
Beta(2, 5), and 8.8e-14 for a and b from 0.1 to 500 and u in
[1e-10, 1 − 1e-10]. The Newton residual is a difference of logs, so the
error grows as about eps |log u| / a in the lower tail (1.2e-13 at
u = 1e-300), where scipy's own answer is NaN, 2**-1022 or off by up to
5e-11. With b far beyond 500 and a small, the fraction's terms cancel
near the switch point for u near 1: 4.9e-13 at (a, b) = (0.1, 1e4),
1.7e-11 at (1, 1e6) and 4.2e-11 at (0.1, 1e6) (checked at 30 digits).
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Cody's CALERF coefficients: erf on |x| <= 0.46875 (A over B), erfc on
# (0.46875, 4] (C over D) and beyond 4 (P over Q). Each numerator's
# leading coefficient is its last one; each denominator is monic.
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02,
           8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03,
           2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02,
           5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)
_SQRT_HALF = math.sqrt(0.5)
_RSQRT_PI = 1.0 / math.sqrt(math.pi)


def _rational(y: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """num(y) / den(y) by Horner's rule, in CALERF's coefficient order."""
    top = num[-1] * y
    bottom = y + den[0]
    top += num[0]
    top *= y
    for cn, cd in zip(num[1:len(den) - 1], den[1:-1]):
        top += cn
        top *= y
        bottom *= y
        bottom += cd
    top += num[len(den) - 1]
    bottom *= y
    bottom += den[-1]
    top /= bottom
    return top


def normal_cdf(z) -> np.ndarray:
    """Φ(z), the standard normal CDF, elementwise, for finite z."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        return normal_cdf(z.ravel()).reshape(z.shape)
    y = np.abs(z)
    y *= _SQRT_HALF
    out = np.empty_like(y)
    near = y <= 0.46875
    idx = np.flatnonzero(near)  # Φ = ½ + ½ erf(z / √2)
    x = z[idx] * _SQRT_HALF
    out[idx] = 0.5 + 0.5 * x * _rational(x * x, _ERF_A, _ERF_B)
    idx = np.flatnonzero(~near)  # Φ = ½ erfc(y) or 1 − ½ erfc(y)
    y = y[idx]
    r = _rational(y, _ERFC_C, _ERFC_D)
    far = np.flatnonzero(y > 4.0)
    if far.size:
        yf = y[far]
        s = 1.0 / (yf * yf)
        r[far] = (_RSQRT_PI - s * _rational(s, _ERFC_P, _ERFC_Q)) / yf
    # erfc(y) = exp(-y^2) r, with exp(-y^2) as exp(-ysq^2) exp(-(y - ysq)
    # (y + ysq)) for ysq = y rounded down to a sixteenth: ysq^2 is exact.
    ysq = np.trunc(y * 16.0)
    ysq *= 0.0625
    r *= np.exp(-(ysq * ysq))
    r *= np.exp((ysq - y) * (ysq + y))
    r *= 0.5
    out[idx] = np.subtract(1.0, r, out=r, where=z[idx] >= 0)
    return out


# ---------------------------------------------------------------------------
# The Beta quantile
# ---------------------------------------------------------------------------

_TABLE_NODES = 4097
# The table spans logit u over every double u in (0, 1), from
# log(5e-324) (-744.4) to log((1 - 2**-53) / 2**-53) (36.7).
_LOGIT_U_LOW, _LOGIT_U_HIGH = -746.0, 38.0
_W_SCALE = 8.0  # nodes are spaced evenly in asinh(logit u / _W_SCALE)


def _stirling_tail(x: float) -> float:
    """log Γ(x) − ((x − ½) log x − x + ½ log 2π), for x >= 8."""
    coefs = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)
    inv, inv2 = 1.0 / x, 1.0 / (x * x)
    return inv * sum(c * inv2 ** k for k, c in enumerate(coefs))


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0, without the cancellation of large
    log-gammas."""
    a, b = min(a, b), max(a, b)
    if b < 8.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # log Γ(b) − log Γ(a + b), by Stirling's series for both.
    tail = _stirling_tail(b) - _stirling_tail(a + b)
    if a < 8.0:
        return (math.lgamma(a) - (b - 0.5) * math.log1p(a / b)
                - a * math.log(a + b) + a + tail)
    return (0.5 * math.log(2 * math.pi) - 0.5 * math.log(a)
            - a * math.log1p(b / a) - (b - 0.5) * math.log1p(a / b)
            + _stirling_tail(a) + tail)


def _cf_depth(a: float, b: float, x: float) -> int:
    """Terms of I_x(a, b)'s continued fraction that the modified Lentz
    method takes to converge to double precision at x."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    for m in range(1, 100_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            c = 1.0 + aa / c
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = c if abs(c) > tiny else tiny
        if abs(c * d - 1.0) <= 2.2e-16:
            return 2 * m + 1
    raise ArithmeticError(f"I_x({a}, {b}) does not converge at x = {x}")


class _Side(NamedTuple):
    """I_x(a, b) by its continued fraction, below the switch point."""

    a: float
    b: float
    log_a: float
    coefs: tuple[float, ...]  # d_1 ... d_K; term k is d_k x


def _side(a: float, b: float, x_switch: float) -> _Side:
    coefs = []
    for k in range(1, _cf_depth(a, b, x_switch) + 3):
        m = k // 2
        coefs.append(
            m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m)) if k % 2 == 0
            else -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1)))
    return _Side(a, b, math.log(a), tuple(coefs))


def _log_sigmoids(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log x, log (1 − x)) at x = 1/(1 + e^-t), without overflow."""
    soft = np.log1p(np.exp(-np.abs(t)))
    return np.minimum(t, 0.0) - soft, np.minimum(-t, 0.0) - soft


def _log_cdf(side: _Side, log_beta_ab: float, t: np.ndarray):
    """(log I_x(a, b), log dI_x/dt) at x = 1/(1 + e^-t), for x below the
    switch point; dI_x/dt = x^a (1 − x)^b / B(a, b)."""
    log_x, log_y = _log_sigmoids(t)
    log_dens = side.a * log_x + side.b * log_y - log_beta_ab
    x = np.exp(log_x)
    # 1 / (1 + d_1 x / (1 + d_2 x / (1 + ...))), from the last term.
    s = side.coefs[-1] * x
    s += 1.0
    for d in side.coefs[-2::-1]:
        np.divide(x, s, out=s)
        s *= d
        s += 1.0
    return log_dens - np.log(s) - side.log_a, log_dens


class _BetaCdf(NamedTuple):
    """I_x(a, b) in t = logit x: one continued fraction each side of the
    switch point."""

    log_beta: float
    t_switch: float  # logit of the switch point (a + 1) / (a + b + 2)
    lower: _Side     # I_x(a, b), for t below t_switch
    upper: _Side     # 1 − I_x(a, b) = I_{1−x}(b, a), for t above, at −t


def _log_both(cdf: _BetaCdf, t: np.ndarray):
    """(log u, log (1 − u), log du/dt) at t, u = I_x(a, b)."""
    log_u, log_v, log_dens = (np.empty_like(t) for _ in range(3))
    below = t < cdf.t_switch
    for side, idx, near, far, sign in (
            (cdf.lower, np.flatnonzero(below), log_u, log_v, 1.0),
            (cdf.upper, np.flatnonzero(~below), log_v, log_u, -1.0)):
        log_p, log_dens[idx] = _log_cdf(side, cdf.log_beta, sign * t[idx])
        near[idx] = log_p
        far[idx] = np.log1p(-np.exp(log_p))
    return log_u, log_v, log_dens


def _newton(cdf: _BetaCdf, t: np.ndarray, log_u: np.ndarray,
            log_v: np.ndarray) -> np.ndarray:
    """One Newton step in t toward I_x(a, b) = u, v = 1 − u: on log I_x
    below the switch point and on log (1 − I_x) above it.

    Both are concave in t, as the logit of a Beta variable has a
    log-concave density, so a step never passes the root from below.
    """
    t = t.copy()
    below = t < cdf.t_switch
    for side, idx, sign, log_target in (
            (cdf.lower, np.flatnonzero(below), 1.0, log_u),
            (cdf.upper, np.flatnonzero(~below), -1.0, log_v)):
        tt = sign * t[idx]
        log_p, log_dens = _log_cdf(side, cdf.log_beta, tt)
        tt -= (log_p - log_target[idx]) * np.exp(log_p - log_dens)
        t[idx] = sign * tt
    return t


class _BetaTable(NamedTuple):
    """t(logit u) of Beta(a, b) as cubic pieces between nodes spaced
    evenly in w = asinh(logit u / _W_SCALE)."""

    cdf: _BetaCdf
    w0: float                # w at the first node
    inv_dw: float            # nodes per unit of w
    cubic: np.ndarray        # (4, nodes − 1): coefficients of s^0 ... s^3


@lru_cache(maxsize=16)
def _beta_table(a: float, b: float) -> _BetaTable:
    x_switch = (a + 1.0) / (a + b + 2.0)
    lb, ts = _log_beta(a, b), math.log((a + 1.0) / (b + 1.0))
    cdf = _BetaCdf(lb, ts, _side(a, b, x_switch), _side(b, a, 1.0 - x_switch))
    # The tails are near straight lines, logit u ≈ a t − log(a B) below
    # and ≈ b t + log(b B) above. Between the t where they reach the
    # table's ends, a first pass spaces 1025 nodes evenly in
    # asinh((t − t_switch) / 0.01).
    lo, hi = _LOGIT_U_LOW, _LOGIT_U_HIGH
    t_lo = min((lo + math.log(a) + lb) / a, ts - 1.0)
    t_hi = max((hi - math.log(b) - lb) / b, ts + 1.0)
    first = ts + 0.01 * np.sinh(np.linspace(
        math.asinh((t_lo - ts) / 0.01), math.asinh((t_hi - ts) / 0.01), 1025))
    log_u, log_v, _ = _log_both(cdf, first)
    # The nodes: t at each node's logit u, by Newton's method from the
    # first pass read as straight lines.
    w = np.linspace(math.asinh(lo / _W_SCALE), math.asinh(hi / _W_SCALE),
                    _TABLE_NODES)
    lu = _W_SCALE * np.sinh(w)
    t = np.interp(lu, log_u - log_v, first)
    target_u, target_v = _log_sigmoids(lu)
    for _ in range(3):
        t = _newton(cdf, t, target_u, target_v)
    # Cubic Hermite pieces in s = (w − w_k) / dw, with the slopes
    # dt/ds = (dlu/ds) / (dlu/dt).
    log_u, log_v, log_dens = _log_both(cdf, t)
    dw = w[1] - w[0]
    slope = (dw * _W_SCALE * np.cosh(w)
             / (np.exp(log_dens - log_u) + np.exp(log_dens - log_v)))
    t0, t1, m0, m1 = t[:-1], t[1:], slope[:-1], slope[1:]
    cubic = np.array([t0, m0, 3.0 * (t1 - t0) - 2.0 * m0 - m1,
                      2.0 * (t0 - t1) + m0 + m1])
    return _BetaTable(cdf, float(w[0]), 1.0 / dw, cubic)


def beta_quantile(a: float, b: float, u) -> np.ndarray:
    """The x in [0, 1] with I_x(a, b) = u, elementwise, for a, b > 0 and
    u in [0, 1]: the table's cubic at logit u, then one Newton step."""
    u = np.asarray(u, dtype=float)
    inner = (u > 0.0) & (u < 1.0)
    if not inner.all():
        x = (u >= 1.0).astype(float)
        x[inner] = beta_quantile(a, b, u[inner])
        return x
    table = _beta_table(float(a), float(b))
    log_u, log_v = np.log(u), np.log1p(-u)
    pos = np.arcsinh((log_u - log_v) / _W_SCALE)
    pos -= table.w0
    pos *= table.inv_dw
    k = pos.astype(np.intp).clip(0, table.cubic.shape[1] - 1)
    s = pos - k
    c = table.cubic[:, k]
    t = c[3] * s
    t += c[2]
    t *= s
    t += c[1]
    t *= s
    t += c[0]
    t = _newton(table.cdf, t, log_u, log_v)
    e = np.exp(-np.abs(t))
    return np.where(t < 0, e, 1.0) / (1.0 + e)
