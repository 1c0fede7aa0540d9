"""Independent brute-force verifiers.

Nothing here shares numerical kernels with the analytic modules: the ODE
integrators are hand-rolled Runge-Kutta 4, the direct loop quadrature uses
composite Simpson instead of Gauss-Legendre panels, and no Gamma-function
code is touched but in ``rk4_convergence_order``.  That one seeds its march
with J(beta) and 2 J(beta - 1) of ``contour.j_beta`` on purpose: from
arbitrary seeds the growing solution dominates, and the measured slope is
3.84, not 4.00.  These routines anchor the cross-checks exposed through
the ``verify`` command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError
from .potential import PotentialConfig

_SHOOT_START_Y = -8.0  # exp(-32) suppresses growing-solution contamination
_ENDPOINT_PULL = 1e-9
_ORDER_BETA, _ORDER_Y = 1.3, -3.0  # the run whose RK4 order is measured


@dataclass(frozen=True)
class ShootingResult:
    """Energies located by shooting plus their junction mismatch residuals."""

    energies: list[float]
    mismatch_residuals: list[float]
    marginal: list[bool] = field(default_factory=list)


def _hermite_step(beta: float, y: float, h: float, f: complex, fp: complex):
    """One RK4 step of F'' = 2 y F' - 2 (beta - 1) F."""
    two_b = 2.0 * (beta - 1.0)

    def rhs(yy, ff, ffp):
        return ffp, 2.0 * yy * ffp - two_b * ff

    k1f, k1p = rhs(y, f, fp)
    k2f, k2p = rhs(y + 0.5 * h, f + 0.5 * h * k1f, fp + 0.5 * h * k1p)
    k3f, k3p = rhs(y + 0.5 * h, f + 0.5 * h * k2f, fp + 0.5 * h * k2p)
    k4f, k4p = rhs(y + h, f + h * k3f, fp + h * k3p)
    return (f + h * (k1f + 2 * k2f + 2 * k3f + k4f) / 6.0,
            fp + h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0)


def _propagate_hermite(beta: float, y0: float, y1: float, f: complex,
                       fp: complex, n_steps: int):
    h = (y1 - y0) / n_steps
    y = y0
    for _ in range(n_steps):
        f, fp = _hermite_step(beta, y, h, f, fp)
        y += h
    return f, fp


def integrate_hermite_ode(beta: float, y_grid, f0: complex, f0_prime: complex):
    """Solve F'' - 2yF' + (eps - 1)F = 0 on a uniform grid containing 0.

    Integration proceeds outward from y = 0 with classical RK4 (the first
    derivative term rules out Numerov); substeps per grid interval are
    doubled until halving them changes the endpoint values by less than
    1e-8 relative.
    """
    grid = np.asarray(y_grid, dtype=float)
    steps = np.diff(grid)
    if grid.ndim != 1 or len(grid) < 2 or not np.allclose(steps, steps[0]):
        raise DomainError("y_grid must be a uniform 1-D grid")
    i_zero = int(np.argmin(np.abs(grid)))
    if abs(grid[i_zero]) > 1e-12:
        raise DomainError("y_grid must contain y = 0")

    def march(indices) -> dict[int, complex]:
        values = {}
        for n_sub in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            f, fp = complex(f0), complex(f0_prime)
            trial = {}
            prev = grid[i_zero]
            for idx in indices:
                f, fp = _propagate_hermite(beta, prev, grid[idx], f, fp, n_sub)
                trial[idx] = f
                prev = grid[idx]
            if values and indices:
                last = indices[-1]
                if abs(trial[last] - values[last]) <= 1e-8 * (1.0 + abs(trial[last])):
                    return trial
            values = trial
            if not indices:
                return values
        raise ConvergenceError("RK4 substep refinement underflowed before converging")

    out = np.empty(grid.shape, dtype=complex)
    out[i_zero] = f0
    right = march(list(range(i_zero + 1, len(grid))))
    left = march(list(range(i_zero - 1, -1, -1)))
    for idx, val in {**right, **left}.items():
        out[idx] = val
    return out


def _schrodinger_log_derivative(eps: float, n_steps: int) -> float:
    """u'/u at y = 0 for u'' = (y^2 - eps) u seeded deep in the left barrier.

    The seed is the Gaussian asymptote u = e^{-y^2/2} (u'/u = -y); any
    admixture of the growing solution decays by e^{-y^2} on the way to the
    origin, so the returned log-derivative is insensitive to seed details.
    """
    y = _SHOOT_START_Y
    h = -_SHOOT_START_Y / n_steps
    u, up = 1.0, -y
    for _ in range(n_steps):
        k1u, k1p = up, (y * y - eps) * u
        ym = y + 0.5 * h
        k2u, k2p = up + 0.5 * h * k1p, (ym * ym - eps) * (u + 0.5 * h * k1u)
        k3u, k3p = up + 0.5 * h * k2p, (ym * ym - eps) * (u + 0.5 * h * k2u)
        ye = y + h
        k4u, k4p = up + h * k3p, (ye * ye - eps) * (u + h * k3u)
        u += h * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0
        up += h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
        y += h
    return up / u


def _converged_steps(eps: float) -> int:
    prev = None
    n = 512
    while n <= 65536:
        val = _schrodinger_log_derivative(eps, n)
        if prev is not None and abs(val - prev) < 1e-9 * (1.0 + abs(val)):
            return n
        prev = val
        n *= 2
    raise ConvergenceError("shooting step size did not converge")


def shoot_bound_states(config: PotentialConfig, n_max: int) -> ShootingResult:
    """Bound-state energies by direct integration of the eigenvalue equation.

    For each bracket (2n+1, min(2n+2, beta0)) the mismatch between the
    interior log-derivative at the junction and the exterior decaying
    slope -sqrt(2(beta0 - beta)) is driven to zero by bisection.  This
    route never touches the closed-form level equation.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    beta0 = config.beta0
    if beta0 == 1.0:
        return ShootingResult(energies=[config.energy(1.0)],
                              mismatch_residuals=[0.0], marginal=[True])

    def mismatch(beta: float, n_steps: int) -> float:
        eps = 2.0 * beta - 1.0
        return (_schrodinger_log_derivative(eps, n_steps)
                + math.sqrt(2.0 * (beta0 - beta)))

    energies, residuals, marginal = [], [], []
    for n in range(n_max):
        if 2 * n + 1 >= beta0:
            break
        lo = 2.0 * n + 1.0
        hi = min(2.0 * n + 2.0, beta0)
        pull = min(_ENDPOINT_PULL, (hi - lo) * 1e-6)
        lo += pull
        hi -= pull
        n_steps = _converged_steps(2.0 * (0.5 * (lo + hi)) - 1.0)
        f_lo, f_hi = mismatch(lo, n_steps), mismatch(hi, n_steps)
        if f_lo * f_hi > 0.0:
            raise BracketError(f"shooting found no root in bracket ({lo}, {hi})")
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            f_mid = mismatch(mid, n_steps)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        beta_root = 0.5 * (lo + hi)
        energies.append(config.energy(beta_root))
        residuals.append(abs(mismatch(beta_root, n_steps)))
        marginal.append(False)
    return ShootingResult(energies=energies, mismatch_residuals=residuals,
                          marginal=marginal)


def _simpson(values: np.ndarray, h: float) -> complex:
    if len(values) % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of samples")
    acc = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    return acc * h / 3.0


def contour_quadrature_j(beta: float) -> complex:
    """Direct quadrature of the loop integral of e^{-t^2} t^{-beta} at y = 0.

    Realized as the unit circle plus the two edges of the cut, sampled with
    composite Simpson (deliberately a different rule and different code
    from the production quadrature).  The two cut edges combine into the
    factor (e^{-2 pi i beta} - 1) times the real-axis integral.
    """
    beta = float(beta)
    t_max = 2.0
    while math.exp(-t_max * t_max) * t_max ** abs(beta) > 1e-16:
        t_max += 0.5
    previous = None
    n = 801
    for _ in range(8):
        theta = np.linspace(0.0, 2.0 * np.pi, n)
        circle = _simpson(1j * np.exp(1j * (1.0 - beta) * theta
                                      - np.exp(2j * theta)),
                          theta[1] - theta[0])
        ts = np.linspace(1.0, t_max, n)
        edge = _simpson(np.exp(-ts * ts - beta * np.log(ts)), ts[1] - ts[0])
        value = circle + (np.exp(-2j * np.pi * beta) - 1.0) * edge
        if previous is not None and abs(value - previous) < 1e-11 * (1.0 + abs(value)):
            return complex(value)
        previous = value
        n = 2 * n - 1
    raise ConvergenceError(f"direct loop quadrature stalled at beta={beta}")


def rk4_convergence_order() -> float:
    """Measured convergence order of the RK4 marcher (should be close to 4).

    The Hermite equation at beta = 1.3 is marched from y = 0 to y = -3.
    """
    from .contour import j_beta

    beta, y_target = _ORDER_BETA, _ORDER_Y
    f0 = j_beta(beta)
    f0p = 2.0 * j_beta(beta - 1.0)
    reference, _ = _propagate_hermite(beta, 0.0, y_target, f0, f0p, 8192)
    hs, errs = [], []
    for n in (32, 64, 128, 256):
        value, _ = _propagate_hermite(beta, 0.0, y_target, f0, f0p, n)
        hs.append(abs(y_target) / n)
        errs.append(abs(value - reference))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
