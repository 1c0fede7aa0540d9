"""Bound states of the step-harmonic potential.

A bound state at E < U0 must join the interior solution F(alpha x) e^{-y^2/2}
smoothly onto the decaying exterior exponential.  Eliminating the amplitudes
from the junction conditions gives the level equation

    g(beta) = [Gamma((beta+1)/2)/Gamma(beta/2)] * cot(pi beta / 2)
              + sqrt((beta0 - beta)/2) = 0,

whose zeros on (0, beta0) are the levels.  The cotangent confines each root
to an interval (2n+1, 2n+2), one root per interval, which makes bracketed
bisection a guaranteed solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contour
from .errors import BracketError, ConvergenceError, DomainError
from .potential import PotentialConfig
from .special import digamma, gamma_half_ratio

_ENDPOINT_PULL = 1e-9
_JUNCTION_TOL = 1e-8  # relative F(0) - J(beta_n), as in the verify junction checks


@dataclass(frozen=True)
class EnergyLevel:
    """One bound state.

    ``marginal`` marks the threshold state at beta0 = 1 whose exterior decay
    constant vanishes (E = U0); it is reported but is not square-summable.
    """

    n: int
    beta_n: float
    energy: float
    k_n: float
    marginal: bool = False


def level_count(config: PotentialConfig) -> int:
    """Number of bound states for the given step height.

    A level with index n exists for beta0 > 2n+1; the state that sits
    exactly at threshold when beta0 equals an odd integer is excluded
    (zero decay constant), except the documented beta0 = 1 ground state
    which is reported as marginal.
    """
    beta0 = config.beta0
    if beta0 < 1.0:
        return 0
    if beta0 == 1.0:
        return 1
    return int(math.ceil((beta0 - 1.0) / 2.0 - 1e-15))


def level_equation_residual(beta, config: PotentialConfig):
    """Residual g(beta) of the level equation; a bound state is a zero.

    Defined on 0 < beta <= beta0.  The cotangent poles at even integer
    beta are mapped to infinities, which the bracketing in
    :func:`solve_levels` never touches.
    """
    beta0 = config.beta0
    b = np.asarray(beta, dtype=float)
    if np.any((b <= 0.0) | (b > beta0)):
        raise DomainError("level equation is defined on 0 < beta <= beta0")
    with np.errstate(divide="ignore"):
        cot = np.cos(np.pi * b / 2.0) / np.sin(np.pi * b / 2.0)
        g = gamma_half_ratio(b / 2.0) * cot + np.sqrt((beta0 - b) / 2.0)
    return float(g) if np.ndim(beta) == 0 else g


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(f"no sign change on bracket ({lo}, {hi})")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def solve_levels(config: PotentialConfig, tol: float = 1e-12) -> list[EnergyLevel]:
    """All bound states, sorted by index, each located by bisection.

    Bracket endpoints are pulled slightly inward to stay clear of the
    cotangent pole at the left end and the square-root branch point at
    beta0; the pull shrinks with the bracket so no root is ever skipped.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    beta0 = config.beta0
    if beta0 == 1.0:
        return [EnergyLevel(n=0, beta_n=1.0, energy=config.energy(1.0),
                            k_n=0.0, marginal=True)]
    levels = []
    for n in range(level_count(config)):
        lo = 2.0 * n + 1.0
        hi = min(2.0 * n + 2.0, beta0)
        pull = min(_ENDPOINT_PULL, (hi - lo) * 1e-6)
        root = _bisect(lambda b: level_equation_residual(b, config),
                       lo + pull, hi - pull, tol)
        levels.append(EnergyLevel(n=n, beta_n=root, energy=config.energy(root),
                                  k_n=config.k_bound(root)))
    return levels


def _norm_over_j2(level: EnergyLevel, config: PotentialConfig,
                  xs: np.ndarray) -> float:
    """Integral of |u_n|^2 dx in units of |J(beta_n)|^2 (see bound_eigenfunction)."""
    alpha = config.alpha
    if level.marginal:
        lo, hi = float(xs.min()), float(xs.max())
        if hi <= lo:
            raise DomainError("the marginal state is normalized over the sampled "
                              "range, which must have positive length")
        inside = (math.erf(alpha * min(hi, 0.0)) - math.erf(alpha * min(lo, 0.0)))
        return math.sqrt(math.pi) / (2.0 * alpha) * inside + max(hi, 0.0) - max(lo, 0.0)
    beta = level.beta_n
    sin, cos = math.sin(math.pi * beta / 2.0), math.cos(math.pi * beta / 2.0)
    ratio = gamma_half_ratio(beta / 2.0)
    d_ratio = 0.5 * ratio * (digamma((beta + 1.0) / 2.0) - digamma(beta / 2.0))
    d_slope = 2.0 * (d_ratio * cos / sin - 0.5 * math.pi * ratio / (sin * sin))
    return -d_slope / (2.0 * alpha) + 1.0 / (2.0 * level.k_n)


def bound_eigenfunction(level: EnergyLevel, config: PotentialConfig, xs,
                        contour_spec: contour.ContourSpec = contour.DEFAULT_CONTOUR,
                        normalized: bool = True):
    """Sample the bound-state wavefunction u_n on the given positions.

    u_n(x) = F(alpha x) exp(-(alpha x)^2 / 2) for x < 0 and
    J(beta_n) exp(-k_n x) for x >= 0; both branches equal J(beta_n) at the
    junction.  Before sampling, the contour value F(0) is checked against
    the closed-form J(beta_n): a relative mismatch above 1e-8 (the contour
    quadrature fails for highly excited states) raises ConvergenceError
    instead of returning wrong samples.

    When ``normalized`` the result carries unit L2 norm, in closed form.
    With y = alpha x and eps = 2 beta - 1 the interior obeys
    u'' = (y^2 - eps) u; differentiating in eps gives, for the real
    solution v = u / (-i e^{-i pi beta}),

        int_{-inf}^0 v^2 dy = v'(0) d_eps v(0) - v(0) d_eps v'(0)
                            = -v(0)^2 s'(beta) / 2,

    where s = v'(0)/v(0) = 2 R cot(pi beta / 2) is the log-slope at the
    junction and R = Gamma((beta+1)/2) / Gamma(beta/2).  Hence

        int |u|^2 dx = |J|^2 [-s'(beta) / (2 alpha) + 1 / (2 k_n)],
        s' = 2 [R' cot(pi beta/2) - (pi/2) R csc^2(pi beta/2)],
        R' = (R/2) [psi((beta+1)/2) - psi(beta/2)].

    The samples are divided by |J| sqrt([...]), never by |J|^2, which is
    subnormal near beta = 200.  The marginal beta0 = 1 state, J e^{-y^2/2}
    inside and flat outside, is not square-integrable; it is normalized
    over the sampled range [min xs, max xs] instead.
    """
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    beta_n = level.beta_n
    j_val = contour.j_beta(beta_n)
    mismatch = abs(contour.f_epsilon(beta_n, 0.0, contour_spec) - j_val) / abs(j_val)
    if not mismatch <= _JUNCTION_TOL:
        raise ConvergenceError(
            f"contour solution for beta_n={beta_n!r} misses J(beta_n) at the "
            f"junction by {mismatch:.3g} relative (tolerance {_JUNCTION_TOL:g})")

    values = np.empty(xs_arr.shape, dtype=complex)
    neg = xs_arr < 0.0
    if neg.any():
        y = config.alpha * xs_arr[neg]
        values[neg] = contour.f_epsilon(beta_n, y, contour_spec) * np.exp(-0.5 * y * y)
    values[~neg] = j_val * np.exp(-level.k_n * xs_arr[~neg])
    if normalized:
        values /= abs(j_val) * math.sqrt(_norm_over_j2(level, config, xs_arr))
    return values[0] if np.ndim(xs) == 0 else values.reshape(np.shape(xs))
