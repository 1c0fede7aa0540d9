"""Gamma-family special functions used by every closed-form expression.

Everything here is self-contained double-precision code: a Lanczos
approximation for the complex log-Gamma, a digamma for positive real
arguments that shifts each small argument by its own count of unit steps
and then sums the asymptotic series, and the ratio Gamma(z+1/2)/Gamma(z),
evaluated in log space from the same Lanczos series in real arithmetic, or
by its asymptotic series for large z, so that it stays finite and accurate
for very large z.

All functions accept scalars or numpy arrays and are pure, so they are safe
to call concurrently.
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

# Bernoulli-number coefficients B_{2k}/(2k) of the digamma asymptotic series.
_DIGAMMA_ASYMPTOTIC = [
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
]
_DIGAMMA_SHIFT = 12.0

# gamma_half_ratio switches from log-Gamma differences to its asymptotic series here.
_HALF_RATIO_SERIES_FROM = 1e3


def _lanczos_log_gamma(z):
    """Lanczos series for log Gamma, valid for Re(z) >= 0.5."""
    zz = z - 1.0
    acc = np.full_like(zz, _LANCZOS_COEFFS[0])
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc = acc + c / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (zz + 0.5) * np.log(t) - t + np.log(acc)


def _reflected_log_gamma(z):
    """log Gamma of a 1-d array free of poles, reflected below Re(z) = 0.5.

    The Lanczos series for Re(z) >= 0.5, log(pi / sin(pi z)) - log Gamma(1 - z)
    below.  Real arguments are evaluated in real arithmetic, complex ones in
    complex.
    """
    reflect = z.real < 0.5
    out = _lanczos_log_gamma(np.where(reflect, 1.0 - z, z))
    out[reflect] = np.log(np.pi) - np.log(np.sin(np.pi * z[reflect])) - out[reflect]
    return out


def log_gamma(z):
    """Logarithm of the Gamma function for complex argument.

    Uses the Lanczos approximation for Re(z) >= 0.5 and the reflection
    formula elsewhere.  The branch is such that ``exp(log_gamma(z))``
    reproduces Gamma(z); on the positive real axis the result is real.

    Raises
    ------
    GammaPoleError
        If ``z`` is a non-positive integer (a pole of Gamma).
    """
    arr = np.asarray(z, dtype=complex)
    poles = (arr.imag == 0) & (arr.real <= 0) & (arr.real == np.floor(arr.real))
    if np.any(poles):
        raise GammaPoleError("log_gamma pole at non-positive integer argument")
    out = _reflected_log_gamma(np.atleast_1d(arr)).reshape(arr.shape)
    return complex(out) if arr.ndim == 0 else out


def gamma(z):
    """Gamma function, ``exp(log_gamma(z))``."""
    return np.exp(log_gamma(z))


def digamma(x):
    """Digamma function for positive real argument.

    An argument x below 12 is moved above 12 in one step, by its own count
    m = ceil(12 - x) of unit shifts: Psi(x) = Psi(x+m) - sum_{k<m} 1/(x+k).
    There the asymptotic series ``log x - 1/(2x) - sum B_2k / (2k x^{2k})``
    is accurate to well below 1e-12 absolute.

    Raises
    ------
    DomainError
        If any argument is <= 0.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("digamma requires a strictly positive argument")
    work = np.atleast_1d(arr).copy()
    acc = np.zeros_like(work)
    small = work < _DIGAMMA_SHIFT
    x = work[small]
    shifts = np.ceil(_DIGAMMA_SHIFT - x)
    steps = np.arange(_DIGAMMA_SHIFT)
    # one row of reciprocals per argument, summed row by row, so that a value
    # does not depend on the other arguments of the call
    acc[small] = -np.where(steps < shifts[:, None], 1.0 / (x[:, None] + steps),
                           0.0).sum(axis=1)
    work[small] = x + shifts
    inv2 = 1.0 / (work * work)
    series = np.zeros_like(work)
    power = inv2.copy()
    for coeff in _DIGAMMA_ASYMPTOTIC:
        series += coeff * power
        power *= inv2
    result = acc + np.log(work) - 0.5 / work - series
    result = result.reshape(arr.shape)
    return float(result) if arr.ndim == 0 else result


def gamma_half_ratio(z):
    """Ratio Gamma(z + 1/2) / Gamma(z) for z > 0.

    Below z = 1e3 it is ``exp(log Gamma(z + 1/2) - log Gamma(z))``, which
    never overflows; both logarithms come from one evaluation of the
    Lanczos series on the joined arguments, reflected below 1/2 as in
    ``log_gamma`` but in real arithmetic.  Above, that difference of large
    logarithms loses digits (2e-10 relative at z = 1e5), so the asymptotic series
    sqrt(z) (1 - 1/(8z) + 1/(128z^2) + 5/(1024z^3) - 21/(32768z^4)) is
    used instead; its truncation error is about 1e-18 at z = 1e3.

    Raises
    ------
    DomainError
        If any argument is <= 0.
    """
    arr = np.asarray(z, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("gamma_half_ratio requires a strictly positive argument")
    work = np.atleast_1d(arr)
    result = np.empty_like(work)
    large = work >= _HALF_RATIO_SERIES_FROM
    if large.any():
        w = 1.0 / work[large]
        series = 1.0 + w * (-1.0 / 8.0 + w * (1.0 / 128.0 + w * (5.0 / 1024.0
                                                               - w * 21.0 / 32768.0)))
        result[large] = np.sqrt(work[large]) * series
    if not large.all():
        small = work[~large]
        logs = _reflected_log_gamma(np.concatenate([small + 0.5, small]))
        result[~large] = np.exp(logs[:small.size] - logs[small.size:])
    result = result.reshape(arr.shape)
    return float(result) if arr.ndim == 0 else result
