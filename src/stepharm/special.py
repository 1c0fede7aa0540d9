"""Gamma-family special functions used by every closed-form expression.

Everything here is self-contained double-precision code on two kernels.

A single pass of the Lanczos series (g = 7, n = 9; Lanczos, SIAM J. Numer.
Anal. B 1, 86 (1964)) gives log Gamma and its derivative psi together
(DLMF 5.2).  For Re z >= 1/2, with t = z + g - 1/2 and the partial
fractions p_i = c_i / (z - 1 + i), i = 1..8, formed as one (8 x points)
array (term by term for long arrays),

    log Gamma(z) = log sqrt(2 pi) + (z - 1/2) log t - t + log A,
    psi(z)       = log t - g / t - (sum_i p_i / (z - 1 + i)) / A,
    A            = c_0 + sum_i p_i,

both sums taken left to right.  Below 1/2 the complex log_gamma reflects,
digamma shifts by one, psi(x) = psi(x+1) - 1/x, and reciprocal_gamma
reflects in real arithmetic.  A pass forms log Gamma only where a result
uses it.  log_gamma, gamma, reciprocal_gamma and digamma use this kernel.
Every real sine and cosine of pi x in the closed forms comes from
_sin_cos_pi, which reduces x exactly to [-1/2, 1/2] first.

The Gamma half-ratio R(z) = Gamma(z + 1/2) / Gamma(z) and
D(z) = psi(z + 1/2) - psi(z) = R'(z)/R(z) come from a second kernel, one
route for every z > 0 with no difference of large values: below z = 16 the
argument is moved up to w = z + 16, where the asymptotic series of log R
(DLMF 5.11.8) and its derivative hold to rounding, and brought back by
products and sums of positive terms.  gamma_half_ratio is its first
output; the level solver and the bound-state norm take R and D from it
directly.

All functions accept scalars or numpy arrays and are pure, so they are safe
to call concurrently.  The Lanczos coefficients and the series coefficients
of log R are read on every call.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GammaPoleError

_LOG_SQRT_TWO_PI = 0.9189385332046727  # log(sqrt(2*pi))

# Lanczos coefficients for g = 7, n = 9 (double precision).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]
_FRACTION_STEPS = np.arange(1.0, len(_LANCZOS_COEFFS))  # i of the fractions c_i / (z - 1 + i)
# Up to this many points _lanczos forms the fractions as one (8 x points)
# array, in the fewest numpy calls: on the few points of a level-phase,
# norm or 1/Gamma evaluation that is 15 us a call faster than term by term.
# Beyond, it forms them term by term: from 2048 points an (8 x points)
# array is 128 KiB or more, and the matrix form measured 2.5x slower there.
_MATRIX_POINTS = 1024

# log R(w) = (1/2) log w + sum over odd k of d_k w^-k, R(w) = Gamma(w + 1/2) / Gamma(w)
# (DLMF 5.11.8 at h = 1/2 minus h = 0), d_k = (-1)^(k+1) [B_{k+1}(1/2) - B_{k+1}(0)] / (k (k+1)),
# k = 1, 3, ..., 11.  From w = 16 on, the first term left out (k = 13) is
# below 3e-18 in log R and 1e-16 relative in its derivative.
_RATIO_SERIES = [
    -0.125,  # -1/8
    0.005208333333333333,  # 1/192
    -0.0015625,  # -1/640
    0.0011858258928571428,  # 17/14336
    -0.001681857638888889,  # -31/18432
    0.0038341175426136365,  # 691/180224
]
# _ratio_and_psi_gap moves every z below this up by this many unit steps.
_RATIO_SHIFT = 16.0
_RATIO_STEPS = np.arange(_RATIO_SHIFT)[:, None]  # j of the factors and terms of the shift


def _fraction_terms(zz, coeffs):
    """c_i / (zz + i) and c_i / (zz + i)^2, i = 1..8, one pair of arrays at a time."""
    for i, c in enumerate(coeffs[1:], start=1):
        shifted = zz + i
        fraction = c / shifted
        yield fraction, fraction / shifted


def _lanczos(z, log_gamma=True):
    """log Gamma(z) and psi(z) of a 1-d array with Re(z) >= 1/2, from one Lanczos pass.

    The sums run left to right from c_0, so both ways of forming the
    fractions give the bits of the term-by-term series.  With log_gamma
    false the first value is None: log Gamma is not formed, which also
    keeps it from overflowing above z = 2.6e305.
    """
    coeffs = _LANCZOS_COEFFS
    zz = z - 1.0
    if zz.size <= _MATRIX_POINTS:
        shifted = zz + _FRACTION_STEPS[:, None]
        fractions = np.asarray(coeffs[1:])[:, None] / shifted
        terms = zip(fractions, fractions / shifted)
    else:
        terms = _fraction_terms(zz, coeffs)
    acc, d_acc = coeffs[0], 0.0  # A and -A'
    for fraction, slope in terms:
        acc = acc + fraction
        d_acc = d_acc + slope
    t = zz + _LANCZOS_G + 0.5
    log_t = np.log(t)
    psi = log_t - _LANCZOS_G / t - d_acc / acc
    if not log_gamma:
        return None, psi
    return _LOG_SQRT_TWO_PI + (zz + 0.5) * log_t - t + np.log(acc), psi


def _positive(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError(f"{name} requires a strictly positive argument")
    return arr


def _shaped(values, arr: np.ndarray):
    """values, computed on arr.ravel(), in the shape of arr; a Python number for a 0-d arr."""
    values = values.reshape(arr.shape)
    return values.item() if arr.ndim == 0 else values


def log_gamma(z):
    """Logarithm of the Gamma function for complex argument.

    Uses the Lanczos approximation for Re(z) >= 0.5 and the reflection
    formula log(pi / sin(pi z)) - log Gamma(1 - z) elsewhere.  The branch is
    such that ``exp(log_gamma(z))`` reproduces Gamma(z); on the positive real
    axis the result is real.

    Raises
    ------
    GammaPoleError
        If ``z`` is a non-positive integer (a pole of Gamma).
    """
    arr = np.asarray(z, dtype=complex)
    poles = (arr.imag == 0) & (arr.real <= 0) & (arr.real == np.floor(arr.real))
    if np.any(poles):
        raise GammaPoleError("log_gamma pole at non-positive integer argument")
    work = arr.ravel()
    reflect = work.real < 0.5
    out, _ = _lanczos(np.where(reflect, 1.0 - work, work))
    out[reflect] = np.log(np.pi) - np.log(np.sin(np.pi * work[reflect])) - out[reflect]
    return _shaped(out, arr)


def gamma(z):
    """Gamma function, ``exp(log_gamma(z))``."""
    return np.exp(log_gamma(z))


def _sin_cos_pi(x):
    """sin(pi x) and cos(pi x) of real x, elementwise, the argument reduced exactly.

    With n = round(x) and r = x - n, which is exact, sin(pi x) = (-1)^n sin(pi r)
    and cos(pi x) = (-1)^n sin(pi (1/2 - |r|)): both vanish exactly at their
    zeros and keep their relative accuracy next to them, for every x.
    """
    n = np.round(x)
    r = x - n
    signed_pi = np.pi - 2.0 * np.pi * (n % 2.0)  # (-1)^n pi, moved into the odd sine
    return np.sin(signed_pi * r), np.sin(signed_pi * (0.5 - np.abs(r)))


def reciprocal_gamma(x):
    """1/Gamma(x) for real x, in real arithmetic; exactly 0 at the poles of Gamma.

    exp(-log Gamma(x)) for x >= 1/2 and, by reflection,
    sin(pi x) Gamma(1 - x) / pi below, sin(pi x) from _sin_cos_pi, so 1/Gamma
    keeps its relative accuracy next to its zeros.
    """
    arr = np.asarray(x, dtype=float)
    work = arr.ravel()
    reflect = work < 0.5
    log_g, _ = _lanczos(np.where(reflect, 1.0 - work, work))
    out = np.exp(np.where(reflect, log_g, -log_g))
    if reflect.any():
        out[reflect] *= _sin_cos_pi(work[reflect])[0] / np.pi
        out[reflect & (work == np.floor(work))] = 0.0  # also where Gamma(1 - x) overflows
    return _shaped(out, arr)


def digamma(x):
    """Digamma function for positive real argument.

    The derivative of the Lanczos series for x >= 1/2, and
    psi(x) = psi(x + 1) - 1/x below.

    Raises
    ------
    DomainError
        If any argument is <= 0.
    """
    arr = _positive(x, "digamma")
    work = arr.ravel()
    low = work < 0.5
    if not low.any():
        return _shaped(_lanczos(work, log_gamma=False)[1], arr)
    _, psi = _lanczos(np.where(low, work + 1.0, work), log_gamma=False)
    psi[low] -= 1.0 / work[low]
    return _shaped(psi, arr)


def _ratio_and_psi_gap(z):
    """R(z) = Gamma(z + 1/2) / Gamma(z) and D(z) = psi(z + 1/2) - psi(z) of a 1-d array of z > 0.

    At w = z (z >= 16) or w = z + 16 (z < 16), log R(w) - (1/2) log w is
    the series of _RATIO_SERIES and D(w) = 1/(2w) plus its derivative, both
    summed by Horner's rule in w^-2.  The shift is undone by

        R(z) = R(w) prod_j (z + j) / (z + j + 1/2),
        D(z) = D(w) + sum_j 1 / (2 (z + j) (z + j + 1/2)),    j = 0..15,

    whose factors and terms are all positive.  Whether a point is shifted
    depends on that point alone, and the rows j are multiplied and added in
    order, so each value has the bits of a one-point call.
    """
    d = _RATIO_SERIES
    low = z < _RATIO_SHIFT
    w = z + _RATIO_SHIFT * low
    u = 1.0 / w
    u2 = u * u
    series = d[-1]  # sum_k d_k u^(k-1)
    slope = (2 * len(d) - 1) * d[-1]  # sum_k k d_k u^(k-1)
    for i in range(len(d) - 2, -1, -1):
        series = d[i] + u2 * series
        slope = (2 * i + 1) * d[i] + u2 * slope
    ratio = np.sqrt(w) * np.exp(u * series)
    gap = u * (0.5 - u * slope)
    shifted = np.count_nonzero(low)
    if shifted:
        # a level table or a norm has every z below the shift: no subset copy
        part = slice(None) if shifted == z.size else low
        zj = z[part] + _RATIO_STEPS
        zh = zj + 0.5
        ratio[part] *= np.multiply.reduce(zj / zh)
        gap[part] += np.add.accumulate(0.5 / (zj * zh))[-1]
    return ratio, gap


def gamma_half_ratio(z):
    """Ratio Gamma(z + 1/2) / Gamma(z) for z > 0.

    One route for every z: the asymptotic series of the logarithm at
    w = z + 16 (w = z from z = 16 on), brought back by the product of the
    positive factors (z + j) / (z + j + 1/2), j = 0..15 (see
    _ratio_and_psi_gap).  Nothing cancels, so the result is within a few
    ulps for every z, and it stays finite up to the largest double.

    Raises
    ------
    DomainError
        If any argument is <= 0.
    """
    arr = _positive(z, "gamma_half_ratio")
    ratio, _ = _ratio_and_psi_gap(arr.ravel())
    return _shaped(ratio, arr)
