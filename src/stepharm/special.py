"""Gamma-family special functions used by every closed-form expression.

Everything here is self-contained double-precision code on one kernel: a
single pass of the Lanczos series (g = 7, n = 9; Lanczos, SIAM J. Numer.
Anal. B 1, 86 (1964)) gives log Gamma and its derivative psi together
(DLMF 5.2).  For Re z >= 1/2, with t = z + g - 1/2 and the partial
fractions p_i = c_i / (z - 1 + i), i = 1..8, formed as one (8 x points)
array (term by term for long arrays),

    log Gamma(z) = log sqrt(2 pi) + (z - 1/2) log t - t + log A,
    psi(z)       = log t - g / t - (sum_i p_i / (z - 1 + i)) / A,
    A            = c_0 + sum_i p_i,

both sums taken left to right.

Below 1/2 the complex log_gamma reflects; the functions of a positive real
argument shift by one instead, psi(x) = psi(x+1) - 1/x and
log Gamma(x) = log Gamma(x+1) - log x, and reciprocal_gamma reflects in
real arithmetic.  gamma_half_ratio, Gamma(z + 1/2) / Gamma(z), takes its
logarithms from the pass on z + 1/2 and z below z = 1e3 and uses its
asymptotic series above, so that it stays finite and accurate for very
large z; half_ratio_digamma returns it together with the two digammas of
the same pass.  A pass forms log Gamma only where a result uses it.

All functions accept scalars or numpy arrays and are pure, so they are safe
to call concurrently.  The Lanczos coefficients are read on every call.
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

# gamma_half_ratio switches from log-Gamma differences to its asymptotic series here.
_HALF_RATIO_SERIES_FROM = 1e3


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


def _lanczos_positive(x, log_gamma=True):
    """log Gamma(x) and psi(x) of a 1-d array of x > 0, from one Lanczos pass (see _lanczos).

    Below 1/2 the pass runs on x + 1 and both values are shifted back.
    """
    low = x < 0.5
    if not low.any():
        return _lanczos(x, log_gamma)
    log_g, psi = _lanczos(np.where(low, x + 1.0, x), log_gamma)
    below = x[low]
    if log_gamma:
        log_g[low] -= np.log(below)
    psi[low] -= 1.0 / below
    return log_g, psi


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


def reciprocal_gamma(x):
    """1/Gamma(x) for real x, in real arithmetic; exactly 0 at the poles of Gamma.

    exp(-log Gamma(x)) for x >= 1/2 and, by reflection,
    sin(pi x) Gamma(1 - x) / pi below, with sin(pi x) = (-1)^n sin(pi (x - n))
    for the nearest integer n: x - n is exact, so 1/Gamma keeps its relative
    accuracy next to its zeros.
    """
    arr = np.asarray(x, dtype=float)
    work = arr.ravel()
    reflect = work < 0.5
    log_g, _ = _lanczos(np.where(reflect, 1.0 - work, work))
    out = np.exp(np.where(reflect, log_g, -log_g))
    if reflect.any():
        below = work[reflect]
        n = np.round(below)
        out[reflect] *= np.sin(np.pi * (below - n)) * (1.0 - 2.0 * (n % 2.0)) / np.pi
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
    _, psi = _lanczos_positive(arr.ravel(), log_gamma=False)
    return _shaped(psi, arr)


def _half_ratio(z):
    """Gamma(z + 1/2) / Gamma(z) of a 1-d array of z > 0 (see gamma_half_ratio)."""
    ratio = np.empty_like(z)
    large = z >= _HALF_RATIO_SERIES_FROM
    small = z[~large]
    log_g, _ = _lanczos_positive(np.concatenate([small + 0.5, small]))
    ratio[~large] = np.exp(log_g[:small.size] - log_g[small.size:])
    if large.any():
        w = 1.0 / z[large]
        series = 1.0 + w * (-1.0 / 8.0 + w * (1.0 / 128.0 + w * (5.0 / 1024.0
                                                               - w * 21.0 / 32768.0)))
        ratio[large] = np.sqrt(z[large]) * series
    return ratio


def _half_ratio_pass(z):
    """Gamma(z+1/2)/Gamma(z), psi(z+1/2) and psi(z) of a 1-d array of z > 0.

    One Lanczos pass on z + 1/2 and z when every z is below the series
    switch; otherwise the pass gives only the digammas, and _half_ratio
    makes a second one on the z below the switch.
    """
    n = z.size
    below = bool(np.all(z < _HALF_RATIO_SERIES_FROM))
    log_g, psi = _lanczos_positive(np.concatenate([z + 0.5, z]), log_gamma=below)
    ratio = np.exp(log_g[:n] - log_g[n:]) if below else _half_ratio(z)
    return ratio, psi[:n], psi[n:]


def gamma_half_ratio(z):
    """Ratio Gamma(z + 1/2) / Gamma(z) for z > 0.

    Below z = 1e3 it is ``exp(log Gamma(z + 1/2) - log Gamma(z))``, both
    logarithms from one Lanczos pass, which never overflows.  Above, that
    difference of large logarithms loses digits (2e-10 relative at z = 1e5),
    so the asymptotic series
    sqrt(z) (1 - 1/(8z) + 1/(128z^2) + 5/(1024z^3) - 21/(32768z^4)) is used
    instead; its truncation error is about 1e-18 at z = 1e3.

    Raises
    ------
    DomainError
        If any argument is <= 0.
    """
    arr = _positive(z, "gamma_half_ratio")
    return _shaped(_half_ratio(arr.ravel()), arr)


def half_ratio_digamma(z):
    """gamma_half_ratio(z), digamma(z + 1/2) and digamma(z) from one Lanczos pass.

    Each value equals the one of the separate call bit for bit.  A second
    pass is made only when some z is at or above 1e3, the series switch of
    gamma_half_ratio.

    Raises
    ------
    DomainError
        If any argument is <= 0.
    """
    arr = _positive(z, "half_ratio_digamma")
    return tuple(_shaped(v, arr) for v in _half_ratio_pass(arr.ravel()))
