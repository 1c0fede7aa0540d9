"""Continuum quantities: reflection coefficient, phase shift, delay, resonances.

Above the step (beta > beta0) the spectrum is continuous and reflection is
total: the exterior wave is e^{-ikx} + zeta(beta) e^{ikx} with a
unit-modulus reflection coefficient zeta.  The phase delta = arg(zeta)
carries all the physics; its derivative delta'(beta) has an exact closed
form in terms of Gamma and digamma, and the delay time is
tau = delta'(beta)/omega with the classical half-period pi/omega as its
high-energy limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError, SingularityError
from .potential import PotentialConfig
from .runtime import parallel_map
from .special import _sin_cos_pi, digamma, gamma_half_ratio, reciprocal_gamma

_SQRT2 = math.sqrt(2.0)
_RESONANCE_SCAN_STEP = 0.01
_RESONANCE_MIN_HEIGHT = 1.05  # in units of the classical limit pi/omega
_RESONANCE_TOL = 1e-10  # bracket width where the peak and half-height searches stop
_SECTIONS = 16  # equal parts each open bracket is cut into per call of the residual


@dataclass(frozen=True)
class Resonance:
    """A local maximum of the delay curve: position, height and FWHM in beta.

    The maximum is so flat that beta_peak is located only to about 1e-7,
    although CSV output prints it to 12 digits; tau_peak is far more
    accurate.
    """

    beta_peak: float
    tau_peak: float
    width: float


def _require_continuum(beta, beta0: float):
    if np.any(np.asarray(beta, dtype=float) <= beta0):
        raise DomainError("continuum quantities require beta > beta0")


def _junction_pair(beta: np.ndarray, beta0: float):
    """(u, v) = (a, b) / hypot(a, b) of ``zeta``, hypot(a, b) and sin, cos(pi beta / 2)."""
    sin, cos = _sin_cos_pi(beta / 2.0)
    b = np.sqrt(2.0 / (beta - beta0)) * gamma_half_ratio(beta / 2.0) * cos
    norm = np.hypot(sin, b)
    return sin / norm, b / norm, norm, sin, cos


def zeta(beta, config: PotentialConfig):
    """Unit-modulus reflection coefficient.

    Computed in the reflection-identity form

        zeta = (a - i b) / (a + i b) = (u - v)(u + v) - 2i u v,
        (u, v) = (a, b) / hypot(a, b),    a = sin(pi beta / 2),
        b = sqrt(2/(beta - beta0)) * [Gamma((beta+1)/2)/Gamma(beta/2)] * cos(pi beta / 2),

    in real arithmetic, so |zeta| = 1 to rounding, no Gamma pole enters for
    beta > beta0, and each element has the bits of a one-point call.  With
    the sine and cosine of special._sin_cos_pi, zeta is exactly -1 + 0j at
    even beta (a = 0) and exactly 1 at odd beta (b = 0).
    """
    _require_continuum(beta, config.beta0)
    u, v = _junction_pair(np.atleast_1d(np.asarray(beta, dtype=float)), config.beta0)[:2]
    value = (u - v) * (u + v) - 2j * (u * v)
    return complex(value[0]) if np.ndim(beta) == 0 else value


def phase_shift(beta, config: PotentialConfig):
    """Principal-value phase shift delta = arg(zeta) in (-pi, pi]; pi at even beta."""
    value = np.angle(zeta(beta, config))
    return float(value) if np.ndim(beta) == 0 else value


def delta_prime(beta, config: PotentialConfig):
    """Closed-form derivative of the phase shift with respect to beta.

    The sin(pi beta) factor is distributed into the bracket so the
    expression stays finite at integer beta, where the 2 pi / sin(pi beta)
    term would otherwise pair a zero with an infinity:

        num = (1/2) sqrt(beta-beta0) * [ sin(pi beta) * (1/(beta-beta0)
              + Psi(beta/2) - Psi((beta+1)/2)) + 2 pi ]
        den = (beta-beta0) sin^2(pi beta/2) / (sqrt(2) R)
              + sqrt(2) R cos^2(pi beta/2),      R = Gamma((beta+1)/2)/Gamma(beta/2)

    Near threshold the 1/(beta - beta0) term dominates and the sign of
    sin(pi beta0) decides between +inf and -inf.
    """
    beta0 = config.beta0
    _require_continuum(beta, beta0)
    b = np.asarray(beta, dtype=float)
    x = b - beta0
    ratio = gamma_half_ratio(b / 2.0)
    sin, cos = _sin_cos_pi(b / 2.0)  # of pi beta / 2; sin(pi beta) = 2 sin cos
    num = 0.5 * np.sqrt(x) * (
        2.0 * sin * cos * (1.0 / x + digamma(b / 2.0) - digamma((b + 1.0) / 2.0))
        + 2.0 * np.pi)
    den = x / (ratio * _SQRT2) * sin ** 2 + ratio * _SQRT2 * cos ** 2
    value = num / den
    return float(value) if np.ndim(beta) == 0 else value


def delay_time(beta, config: PotentialConfig):
    """Reflection delay tau = delta'(beta)/omega."""
    return delta_prime(beta, config) / config.omega


def pi_coefficient(beta, config: PotentialConfig):
    """Interior amplitude Pi(beta) = 2 / [J(beta) + i sqrt(2/(beta-beta0)) J(beta-1)].

    The bracket is scale (a + i b) / (i e^{i pi beta}), scale = 2 pi / Gamma((beta+1)/2),
    with the a, b of ``zeta``, so Pi = 2i e^{i pi beta} (a - i b) / (scale (a^2 + b^2))
    = 2i e^{i pi beta} (u - i v) / (scale hypot(a, b)), with e^{i pi beta} =
    (c - s)(c + s) + 2i s c from s, c = sin, cos(pi beta / 2): real arithmetic,
    each element with the bits of a one-point call.  Raises SingularityError
    naming the first beta where scale hypot(a, b) is below 1e-300 (from beta ~ 335).
    """
    _require_continuum(beta, config.beta0)
    b = np.atleast_1d(np.asarray(beta, dtype=float))
    u, v, norm, s, c = _junction_pair(b, config.beta0)
    den = 2.0 * math.pi * reciprocal_gamma(0.5 * (b + 1.0)) * norm
    if np.any(den < 1e-300):
        raise SingularityError(f"Pi denominator vanished at beta={float(b[den < 1e-300][0])}")
    real, imag, factor = (c - s) * (c + s), 2.0 * s * c, 2.0 / den  # e^{i pi beta}, 2 / den
    value = factor * (real * v - imag * u) + 1j * (factor * (real * u + imag * v))
    return complex(value[0]) if np.ndim(beta) == 0 else value


def _golden_max(f, lo: float, hi: float) -> float:
    """Golden-section search for the maximizer of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _RESONANCE_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _multisect(f, inside: np.ndarray, outside: np.ndarray, tol: float) -> np.ndarray:
    """Roots of every bracket (inside[i], outside[i]) at once, ends in either order.

    f(points, brackets) maps points to residuals elementwise; ``brackets``
    holds each point's bracket index, so each bracket can have its own
    residual.  After one call on the ends, each call cuts every open
    bracket into _SECTIONS equal parts and keeps the first, counted from
    the inside, whose far end has changed sign or is zero.  An exact zero
    at an end or a node is the root.  Otherwise a bracket ends no wider
    than tol, or when a call cannot narrow it (so a tol below the float
    spacing still ends), and its midpoint is the root.
    """
    every = np.arange(inside.size)
    ends = f(np.concatenate([inside, outside]), np.concatenate([every, every]))
    f_near, f_far = np.split(ends, 2)
    no_change = np.flatnonzero(np.sign(f_near) * np.sign(f_far) > 0.0)
    if no_change.size:
        i = no_change[0]
        raise BracketError(f"no sign change on bracket ({inside[i]}, {outside[i]})")
    far = np.where(f_near == 0.0, inside, outside)
    near = np.where(f_far == 0.0, far, inside)  # a zero end closes its bracket
    fractions = np.arange(1, _SECTIONS) / _SECTIONS
    live = np.flatnonzero(np.abs(far - near) > tol)
    while live.size:
        lo, hi = near[live], far[live]
        nodes = np.column_stack([lo, lo[:, None] + (hi - lo)[:, None] * fractions, hi])
        inner = f(nodes[:, 1:-1].ravel(), np.repeat(live, _SECTIONS - 1))
        # the far end's sign is opposite to the near end's by construction
        values = np.column_stack([f_near[live], inner.reshape(live.size, -1), -f_near[live]])
        j = np.argmax(np.sign(values[:, 1:]) != np.sign(values[:, :1]), axis=1) + 1
        rows = np.arange(live.size)
        near[live] = nodes[rows, np.where(values[rows, j] == 0.0, j, j - 1)]
        far[live], f_near[live] = nodes[rows, j], values[rows, j - 1]
        moved = (near[live] != lo) | (far[live] != hi)
        live = live[moved & (np.abs(far[live] - near[live]) > tol)]
    return 0.5 * (near + far)


def find_resonances(config: PotentialConfig, beta_max: float) -> list[Resonance]:
    """Locate delay-curve maxima: coarse scan, golden-section refinement, FWHM.

    Maxima shallower than 1.05 * pi/omega are discarded as non-resonant
    ripple.  The width is measured where tau crosses halfway between the
    peak and the classical baseline pi/omega (the raw half-maximum can lie
    below the baseline and would never be crossed).  The monotone descent
    from a threshold divergence is not a local maximum and is therefore
    never reported.  The half-height crossings of all peaks are found
    together by one multisection, each ``delay_time`` call after the one on
    the bracket ends narrowing every open bracket 16-fold.
    """
    beta0 = config.beta0
    if not math.isfinite(beta_max):
        raise DomainError("beta_max must be finite")
    if beta_max <= beta0 + 1.0:
        raise DomainError("beta_max must exceed beta0 + 1")
    baseline = math.pi / config.omega
    grid = np.arange(beta0 + _RESONANCE_SCAN_STEP, beta_max, _RESONANCE_SCAN_STEP)
    taus = delay_time(grid, config)
    interior = np.flatnonzero((taus[1:-1] > taus[:-2]) & (taus[1:-1] >= taus[2:])) + 1
    candidates = [i for i in interior if taus[i] > _RESONANCE_MIN_HEIGHT * baseline]

    tau_of = lambda b: delay_time(float(b), config)

    def peak(i: int) -> tuple[float, float]:
        beta_peak = _golden_max(tau_of, grid[i - 1], grid[i + 1])
        return beta_peak, tau_of(beta_peak)

    peaks = parallel_map(peak, candidates)
    halves = [baseline + 0.5 * (tau_peak - baseline) for _, tau_peak in peaks]
    # Walk outward on the coarse grid until tau drops through the half
    # level.  A side that reaches the end of the grid first ends there;
    # every other side brackets its crossing between its last two steps.
    walks = []
    for i, half in zip(candidates, halves):
        for step in (-1, 1):
            j = i
            while 0 < j < len(grid) - 1 and taus[j] > half:
                j += step
            walks.append((j - step, j))
    inside, outside = np.array(walks, dtype=int).reshape(-1, 2).T
    levels = np.repeat(halves, 2)
    ends = grid[outside]
    crossed = np.flatnonzero(taus[outside] <= levels)
    if crossed.size:
        ends[crossed] = _multisect(
            lambda b, k: delay_time(b, config) - levels[crossed[k]],
            grid[inside[crossed]], ends[crossed], _RESONANCE_TOL)
    return [Resonance(beta_peak=float(beta_peak), tau_peak=float(tau_peak),
                      width=float(b_right - b_left))
            for (beta_peak, tau_peak), b_left, b_right
            in zip(peaks, ends[0::2], ends[1::2])]
