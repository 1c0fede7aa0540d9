"""Bound states of the step-harmonic potential.

A bound state at E < U0 must join the interior solution F(alpha x) e^{-y^2/2}
smoothly onto the decaying exterior exponential.  Eliminating the amplitudes
from the junction conditions gives the level equation

    g(beta) = [Gamma((beta+1)/2)/Gamma(beta/2)] * cot(pi beta / 2)
              + sqrt((beta0 - beta)/2) = 0,

whose zeros on (0, beta0) are the levels.  The cotangent confines each root
to a bracket [2n+1, min(2n+2, beta0)], one root per bracket.  There
cot(pi beta / 2) = -tan(pi (beta - 2n - 1) / 2), so with
R = Gamma((beta+1)/2)/Gamma(beta/2) and q = sqrt((beta0 - beta)/2) the
level equation is equivalent to the pole-free phase form

    G_n(beta) = beta - (2n+1) - (2/pi) atan2(q, R) = 0,

negative at 2n+1 and positive at the upper end, with
G_n' = 1 + (2/pi) (R/(4q) + q R') / (R^2 + q^2) >= 1.  All levels are
solved at once by a safeguarded Newton iteration on G_n: one evaluation at
the ends and midpoints of every bracket, then one per Newton step, about
four array evaluations per table at the default tol = 1e-12 however many
levels it has.  G_n' grows like 1/q at beta0, where G_n is analytic in q
instead, so next to beta0 the step is taken in q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contour
from .errors import BracketError, DomainError
from .potential import PotentialConfig
from .special import gamma_half_ratio, half_ratio_digamma


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
    beta are mapped to infinities; :func:`solve_levels` works on the
    pole-free phase form instead (see the module docstring).
    """
    beta0 = config.beta0
    b = np.asarray(beta, dtype=float)
    if np.any((b <= 0.0) | (b > beta0)):
        raise DomainError("level equation is defined on 0 < beta <= beta0")
    with np.errstate(divide="ignore"):
        cot = np.cos(np.pi * b / 2.0) / np.sin(np.pi * b / 2.0)
        g = gamma_half_ratio(b / 2.0) * cot + np.sqrt((beta0 - b) / 2.0)
    return float(g) if np.ndim(beta) == 0 else g


def _ratio_and_slope(beta: np.ndarray):
    """R = Gamma((beta+1)/2) / Gamma(beta/2) and R' = (R/2) [psi((beta+1)/2) - psi(beta/2)].

    R and both digammas come from one Lanczos pass on beta/2 + 1/2 and
    beta/2, each value as from its own gamma_half_ratio or digamma call.
    """
    ratio, psi_upper, psi_lower = half_ratio_digamma(beta / 2.0)
    return ratio, 0.5 * ratio * (psi_upper - psi_lower)


def _level_phase(beta: np.ndarray, odd: np.ndarray, config: PotentialConfig):
    """G(beta) = beta - odd - (2/pi) atan2(q, R) and G'(beta), q = sqrt((beta0 - beta)/2).

    The pole-free form of the level equation on the bracket of the level
    whose lower end is ``odd`` (see the module docstring); G' is infinite
    only at beta = beta0.
    """
    ratio, slope = _ratio_and_slope(beta)
    q = np.sqrt((config.beta0 - beta) / 2.0)
    with np.errstate(divide="ignore"):
        d_phase = (ratio / (4.0 * q) + q * slope) / (ratio * ratio + q * q)
    return beta - odd - (2.0 / np.pi) * np.arctan2(q, ratio), 1.0 + (2.0 / np.pi) * d_phase


def solve_levels(config: PotentialConfig, tol: float = 1e-12) -> list[EnergyLevel]:
    """All bound states, sorted by index, by one safeguarded Newton iteration over all brackets.

    Level n is the zero of the pole-free G_n on [2n+1, min(2n+2, beta0)]
    (module docstring), which needs no endpoint pull.  The first evaluation
    covers both ends and the midpoint of every bracket; an end with the
    wrong sign raises BracketError.  Each later evaluation serves one Newton
    step of every level still open, from its last point, taken in
    q = sqrt((beta0 - beta)/2) next to beta0; a step that would leave the
    bracket known to hold the root halves it instead.  A level is
    done once its last step is no longer than tol, or when its bracket is
    two adjacent floats, so a tol below the float spacing still ends.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    beta0 = config.beta0
    if beta0 == 1.0:
        return [EnergyLevel(n=0, beta_n=1.0, energy=config.energy(1.0),
                            k_n=0.0, marginal=True)]
    odd = 2.0 * np.arange(level_count(config)) + 1.0
    lo, hi = odd.copy(), np.minimum(odd + 1.0, beta0)
    x = 0.5 * (lo + hi)
    g, slope = (v.reshape(3, -1) for v in
                _level_phase(np.concatenate([lo, hi, x]), np.tile(odd, 3), config))
    wrong = ~((g[0] < 0.0) & (g[1] > 0.0))
    if wrong.any():
        i = int(np.argmax(wrong))
        raise BracketError(f"no sign change on bracket ({float(lo[i])}, {float(hi[i])})")
    g, slope = g[2], slope[2]
    at_branch = odd + 1.0 >= beta0  # the last bracket, when it ends at beta0
    roots = np.empty(odd.size)
    live = np.arange(odd.size)
    while live.size:
        below = g < 0.0
        lo[live[below]] = x[below]
        hi[live[~below]] = x[~below]
        a, b = lo[live], hi[live]
        step_to = x - g / slope
        # G is analytic in q = sqrt((beta0 - beta)/2) at beta0, not in beta.
        # Once the branch term carries most of G' (G' > 2), Newton's error
        # constant is the smaller in q: step in q there, where dG/dq = -4q G'
        # tends to -(2/pi)/R.  A step past q = 0 halves instead.
        branch = at_branch[live] & (slope > 2.0)
        if branch.any():
            q = np.sqrt((beta0 - x[branch]) / 2.0)
            q_to = q + g[branch] / (4.0 * q * slope[branch])
            step_to[branch] = np.where(q_to > 0.0, beta0 - 2.0 * q_to * q_to, np.nan)
        mid = 0.5 * (a + b)
        # x is now an end of its bracket: a Newton point must lie strictly
        # inside, unless the step rounds to zero, which ends the level
        newton = np.isfinite(slope) & (((a < step_to) & (step_to < b))
                                       | (step_to == x))
        step_to = np.where(newton, step_to, mid)
        done = (np.abs(step_to - x) <= tol) | (mid == a) | (mid == b)
        roots[live[done]] = step_to[done]
        live, x = live[~done], step_to[~done]
        if live.size:
            g, slope = _level_phase(x, odd[live], config)
    return [EnergyLevel(n=n, beta_n=root, energy=energy, k_n=k_n)
            for n, (root, energy, k_n) in enumerate(zip(
                roots.tolist(), config.energy(roots).tolist(),
                config.k_bound(roots).tolist()))]


def _norm_over_j2(level: EnergyLevel, config: PotentialConfig,
                  xs: np.ndarray) -> float:
    """Integral of |u_n|^2 dx in units of |J(beta_n)|^2 (see bound_eigenfunction)."""
    alpha = config.alpha
    if level.marginal:
        lo, hi = (float(xs.min()), float(xs.max())) if xs.size else (0.0, 0.0)
        if hi <= lo:
            raise DomainError("the marginal state is normalized over the sampled "
                              "range, which must have positive length")
        inside = (math.erf(alpha * min(hi, 0.0)) - math.erf(alpha * min(lo, 0.0)))
        return math.sqrt(math.pi) / (2.0 * alpha) * inside + max(hi, 0.0) - max(lo, 0.0)
    beta = level.beta_n
    sin, cos = math.sin(math.pi * beta / 2.0), math.cos(math.pi * beta / 2.0)
    [ratio], [d_ratio] = _ratio_and_slope(np.array([beta]))
    d_slope = 2.0 * (d_ratio * cos / sin - 0.5 * math.pi * ratio / (sin * sin))
    return -d_slope / (2.0 * alpha) + 1.0 / (2.0 * level.k_n)


def bound_eigenfunction(level: EnergyLevel, config: PotentialConfig, xs,
                        normalized: bool = True):
    """Sample the bound-state wavefunction u_n on the given positions.

    u_n(x) = F(alpha x) exp(-(alpha x)^2 / 2) for x < 0 and
    J(beta_n) exp(-k_n x) for x >= 0; both branches equal J(beta_n) at the
    junction.  Positions x >= 0 need no contour solution.  Positions x < 0
    are one row of ``contour.interior_rows``: one contour call on them plus
    x = 0, which raises ConvergenceError instead of returning wrong samples
    where that call's F(0) misses J(beta_n), or where the row reaches the
    round-off floor of its sums (high beta_n on x far below 0).

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
    over the sampled range [min xs, max xs] instead, and a range of zero
    length (one point, or none) raises DomainError.
    """
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    j_val = contour.j_beta(level.beta_n)
    values = np.empty(xs_arr.shape, dtype=complex)
    neg = xs_arr < 0.0
    if neg.any():
        y = config.alpha * xs_arr[neg]
        values[neg] = contour.interior_rows([level.beta_n], y)[0] * np.exp(-0.5 * y * y)
    values[~neg] = j_val * np.exp(-level.k_n * xs_arr[~neg])
    if normalized:
        values /= abs(j_val) * math.sqrt(_norm_over_j2(level, config, xs_arr))
    return values[0] if np.ndim(xs) == 0 else values.reshape(np.shape(xs))
