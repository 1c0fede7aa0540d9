"""Independent brute-force verifiers.

Nothing here shares numerical kernels with the analytic modules: one
hand-rolled Runge-Kutta 4 marcher of F'' = 2 y F' - 2 (beta - 1) F serves
the ODE oracle, shooting and the order check, the direct loop quadrature
uses composite Simpson instead of Gauss-Legendre panels, the three
refinements share one doubling helper, and no Gamma-function code is
touched but in ``rk4_convergence_order``.  That one seeds its march
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


def _march(beta: float, y: float, y_end: float, f, fp, n: int):
    """(F, F') at y_end after n classical RK4 steps of F'' = 2 y F' - 2 (beta - 1) F."""
    two_b = 2.0 * (beta - 1.0)
    h = (y_end - y) / n
    for _ in range(n):
        k1f, k1p = fp, 2.0 * y * fp - two_b * f
        k2f = fp + 0.5 * h * k1p
        k2p = 2.0 * (y + 0.5 * h) * k2f - two_b * (f + 0.5 * h * k1f)
        k3f = fp + 0.5 * h * k2p
        k3p = 2.0 * (y + 0.5 * h) * k3f - two_b * (f + 0.5 * h * k2f)
        k4f = fp + h * k3p
        k4p = 2.0 * (y + h) * k4f - two_b * (f + h * k3f)
        f, fp = (f + h * (k1f + 2 * k2f + 2 * k3f + k4f) / 6.0,
                 fp + h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0)
        y += h
    return f, fp


def _settled(evaluate, sizes, tol: float, what: str):
    """(size, evaluate(size)) at the first size whose value moved by less than
    tol (1 + |value|) from the size before; a list's last element is its value."""
    previous = None
    for size in sizes:
        value = evaluate(size)
        last = value[-1] if isinstance(value, list) else value
        if previous is not None and abs(last - previous) < tol * (1.0 + abs(last)):
            return size, value
        previous = last
    raise ConvergenceError(what)


def integrate_hermite_ode(beta: float, y_grid, f0: complex, f0_prime: complex):
    """Solve F'' - 2yF' + (eps - 1)F = 0 on a uniform grid containing 0.

    Integration proceeds outward from y = 0 with classical RK4 (the first
    derivative term rules out Numerov); substeps per grid interval are
    doubled from 1 to at most 512 until halving them changes the endpoint
    values by less than 1e-8 relative.
    """
    grid = np.asarray(y_grid, dtype=float)
    steps = np.diff(grid)
    if grid.ndim != 1 or len(grid) < 2 or not np.allclose(steps, steps[0]):
        raise DomainError("y_grid must be a uniform 1-D grid")
    i_zero = int(np.argmin(np.abs(grid)))
    if abs(grid[i_zero]) > 1e-12:
        raise DomainError("y_grid must contain y = 0")
    points, beta = grid.tolist(), float(beta)  # Python floats: numpy scalars step slower

    def march(indices, n_sub: int) -> list[complex]:
        f, fp, prev, values = complex(f0), complex(f0_prime), points[i_zero], []
        for idx in indices:
            f, fp = _march(beta, prev, points[idx], f, fp, n_sub)
            values.append(f)
            prev = points[idx]
        return values

    out = np.empty(grid.shape, dtype=complex)
    out[i_zero] = f0
    for side in (range(i_zero + 1, len(grid)), range(i_zero - 1, -1, -1)):
        if side:
            out[side] = _settled(lambda n_sub: march(side, n_sub), [2 ** k for k in range(10)],
                                 1e-8, "RK4 substep refinement underflowed before converging")[1]
    return out


def shoot_bound_states(config: PotentialConfig, n_max: int) -> ShootingResult:
    """Bound-state energies by direct integration of the eigenvalue equation.

    For each bracket (2n+1, min(2n+2, beta0)) the mismatch between the
    interior log-derivative at the junction and the exterior decaying
    slope -sqrt(2(beta0 - beta)) is driven to zero by bisection.  The
    interior u = F e^{-y^2/2} is marched as F from y = -8 with F = 1,
    F' = 0, the Gaussian asymptote u = e^{-y^2/2}; any admixture of the
    growing solution decays by e^{-y^2} on the way to the origin, where
    u'/u = F'/F.  This route never touches the closed-form level equation.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    beta0 = config.beta0
    if beta0 == 1.0:
        return ShootingResult(energies=[config.energy(1.0)],
                              mismatch_residuals=[0.0], marginal=[True])

    def log_slope(beta: float, n_steps: int) -> float:
        f, fp = _march(beta, _SHOOT_START_Y, 0.0, 1.0, 0.0, n_steps)
        return fp / f

    def mismatch(beta: float, n_steps: int) -> float:
        return log_slope(beta, n_steps) + math.sqrt(2.0 * (beta0 - beta))

    energies, residuals, marginal = [], [], []
    for n in range(n_max):
        if 2 * n + 1 >= beta0:
            break
        lo = 2.0 * n + 1.0
        hi = min(2.0 * n + 2.0, beta0)
        pull = min(_ENDPOINT_PULL, (hi - lo) * 1e-6)
        lo += pull
        hi -= pull
        n_steps, _ = _settled(lambda n_steps: log_slope(0.5 * (lo + hi), n_steps),
                              [512 * 2 ** k for k in range(8)], 1e-9,
                              "shooting step size did not converge")
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

    def quadrature(n: int) -> complex:
        theta = np.linspace(0.0, 2.0 * np.pi, n)
        circle = _simpson(1j * np.exp(1j * (1.0 - beta) * theta
                                      - np.exp(2j * theta)),
                          theta[1] - theta[0])
        ts = np.linspace(1.0, t_max, n)
        edge = _simpson(np.exp(-ts * ts - beta * np.log(ts)), ts[1] - ts[0])
        return complex(circle + (np.exp(-2j * np.pi * beta) - 1.0) * edge)

    return _settled(quadrature, [800 * 2 ** k + 1 for k in range(8)], 1e-11,
                    f"direct loop quadrature stalled at beta={beta}")[1]


def rk4_convergence_order() -> float:
    """Measured convergence order of the RK4 marcher (should be close to 4).

    The Hermite equation at beta = 1.3 is marched from y = 0 to y = -3.
    """
    from .contour import j_beta

    beta, y_target = _ORDER_BETA, _ORDER_Y
    f0 = j_beta(beta)
    f0p = 2.0 * j_beta(beta - 1.0)
    reference, _ = _march(beta, 0.0, y_target, f0, f0p, 8192)
    hs, errs = [], []
    for n in (32, 64, 128, 256):
        value, _ = _march(beta, 0.0, y_target, f0, f0p, n)
        hs.append(abs(y_target) / n)
        errs.append(abs(value - reference))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
