"""Cross-check suite pairing every analytic route with its brute-force oracle.

Each check returns the measured residual together with its threshold so the
``verify`` command can print a human-readable report and emit the same data
as JSON.  All thresholds are fixed here, not tuned at run time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import contour, oracle, scattering, spectrum, wavepacket
from .potential import PotentialConfig
from .special import _ratio_and_psi_gap, digamma, gamma, gamma_half_ratio, log_gamma

_PHASE_SPAN = 20.0  # width of the beta window of phase_derivative_residual
_PHASE_STEP = 1e-3  # its finite-difference step


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    detail: str = ""
    seconds: float = 0.0  # wall time of the check, set by run_all

    def as_dict(self) -> dict:
        return asdict(self)


def _check(name: str, residual: float, threshold: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, residual=float(residual), threshold=float(threshold),
                       passed=bool(residual < threshold), detail=detail)


def check_gamma_reflection() -> CheckResult:
    zs = np.array([z for z in np.arange(-4.9, 4.91, 0.2)
                   if abs(z - round(z)) > 1e-9])
    product = gamma(zs) * gamma(1.0 - zs)
    reference = np.pi / np.sin(np.pi * zs)
    residual = float(np.max(np.abs(product - reference) / np.abs(reference)))
    return _check("gamma_reflection_identity", residual, 1e-10)


def check_gamma_duplication() -> CheckResult:
    zs = np.linspace(0.1, 60.0, 241)
    residual = float(np.max(np.abs(
        gamma_half_ratio(zs) * gamma_half_ratio(zs + 0.5) / zs - 1.0)))
    return _check("gamma_half_ratio_duplication", residual, 1e-14)


def check_gamma_ratio_routes() -> CheckResult:
    """The ratio kernel's R and psi(z+1/2) - psi(z) against the Lanczos pass.

    The two kernels share no code, so each route checks the other.  The
    Lanczos values are differences of two log Gamma or two digamma values,
    which lose a few digits; the threshold allows for that.
    """
    zs = np.linspace(0.5, 20.0, 196)
    ratio, gap = _ratio_and_psi_gap(zs)
    lanczos_ratio = np.exp(log_gamma(zs + 0.5).real - log_gamma(zs).real)
    lanczos_gap = digamma(zs + 0.5) - digamma(zs)
    residual = max(float(np.max(np.abs(lanczos_ratio / ratio - 1.0))),
                   float(np.max(np.abs(lanczos_gap / gap - 1.0))))
    return _check("gamma_ratio_routes", residual, 1e-13)


def check_digamma_recurrence() -> CheckResult:
    xs = np.linspace(0.1, 50.0, 500)
    residual = float(np.max(np.abs(digamma(xs + 1.0) - digamma(xs) - 1.0 / xs)))
    return _check("digamma_recurrence", residual, 1e-12)


def check_j_route_independence() -> CheckResult:
    worst = 0.0
    for beta in (-1.5, -0.5, 0.3, 0.5, 0.9):
        direct = oracle.contour_quadrature_j(beta)
        closed = contour.j_beta(beta)
        worst = max(worst, abs(direct - closed) / (1.0 + abs(closed)))
    for beta in (1.3, 2.6, 4.1):
        via_f = contour.f_epsilon(beta, 0.0)
        closed = contour.j_beta(beta)
        worst = max(worst, abs(via_f - closed) / (1.0 + abs(closed)))
    return _check("j_route_independence", worst, 1e-8)


def check_hermite_degeneracy() -> CheckResult:
    ys = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    worst = 0.0
    for n in range(6):
        reference = 2j * np.pi * contour.hermite_poly(n, ys) / math.factorial(n)
        values = contour.f_epsilon(float(n + 1), ys)
        scale = 1.0 + np.abs(reference)
        worst = max(worst, float(np.max(np.abs(values - reference) / scale)))
    return _check("hermite_degeneracy", worst, 1e-6)


def check_ode_oracle() -> CheckResult:
    grid = np.linspace(-4.0, 1.0, 51)
    worst = 0.0
    for beta in (0.8, 1.3, 2.6):
        seeded = oracle.integrate_hermite_ode(
            beta, grid, contour.j_beta(beta), 2.0 * contour.j_beta(beta - 1.0))
        direct = contour.f_epsilon(beta, grid)
        worst = max(worst, float(np.max(np.abs(seeded - direct) / np.abs(direct))))
    return _check("hermite_ode_oracle", worst, 1e-6)


def check_rk4_order() -> CheckResult:
    slope = oracle.rk4_convergence_order()
    residual = abs(slope - 4.0)
    return _check("rk4_convergence_order", residual, 0.3, detail=f"slope={slope:.3f}")


def check_shooting_vs_levels() -> CheckResult:
    worst = 0.0
    for beta0 in (1.5, 2.5, 4.5):
        config = PotentialConfig.from_beta0(beta0)
        analytic = spectrum.solve_levels(config)
        shot = oracle.shoot_bound_states(config, n_max=4)
        if len(shot.energies) != len(analytic):
            return _check("shooting_vs_levels", math.inf, 1e-6,
                          detail=f"count mismatch at beta0={beta0}")
        scale = config.hbar * config.omega
        for level, energy in zip(analytic, shot.energies):
            worst = max(worst, abs(level.energy - energy) / scale)
    return _check("shooting_vs_levels", worst, 1e-6)


def check_unitarity() -> CheckResult:
    worst = 0.0
    for beta0 in (1.5, 2.0, 2.5, 3.5, 4.0, 4.5):
        config = PotentialConfig.from_beta0(beta0)
        betas = np.linspace(beta0 + 1e-4, beta0 + 20.0, 1000)
        worst = max(worst, float(np.max(np.abs(
            np.abs(scattering.zeta(betas, config)) - 1.0))))
    return _check("zeta_unitarity", worst, 1e-10)


def phase_derivative_residual(config: PotentialConfig) -> float:
    """Scaled mismatch between closed-form delta' and a finite difference.

    The unwrapped principal phase is differentiated with the fourth-order
    central stencil on a step-1e-3 grid over beta0 + 0.1 to beta0 + 20;
    the comparison is scaled by (1 + |delta'|) because delta' has isolated
    zeros inside the window where a pointwise relative error is ill-posed.
    Points within 0.05 of a resonance peak are excluded.
    """
    beta0 = config.beta0
    span, step = _PHASE_SPAN, _PHASE_STEP
    betas = np.arange(beta0 + 0.1 - 2.0 * step, beta0 + span + 2.5 * step, step)
    delta = np.unwrap(scattering.phase_shift(betas, config))
    fd = (-delta[4:] + 8.0 * delta[3:-1] - 8.0 * delta[1:-3] + delta[:-4]) / (12.0 * step)
    mid = betas[2:-2]
    closed = scattering.delta_prime(mid, config)
    keep = (mid >= beta0 + 0.1) & (mid <= beta0 + span)
    for res in scattering.find_resonances(config, beta_max=beta0 + span + 1.0):
        keep &= np.abs(mid - res.beta_peak) > 0.05
    return float(np.max(np.abs(fd[keep] - closed[keep])
                        / (1.0 + np.abs(closed[keep]))))


def check_phase_derivative() -> CheckResult:
    residual = max(phase_derivative_residual(PotentialConfig.from_beta0(beta0))
                   for beta0 in (1.5, 4.5))
    return _check("phase_derivative_consistency", residual, 1e-5)


def check_bound_junction() -> CheckResult:
    worst = 0.0
    for beta0 in (1.5, 4.5):
        config = PotentialConfig.from_beta0(beta0)
        for level in spectrum.solve_levels(config):
            left = 2.0 * config.alpha * contour.j_beta(level.beta_n - 1.0)
            right = -level.k_n * contour.j_beta(level.beta_n)
            worst = max(worst, abs(left - right) / abs(right))
    return _check("bound_state_junction", worst, 1e-8)


def check_improper_junction() -> CheckResult:
    config = PotentialConfig.from_beta0(1.5)
    worst = 0.0
    for beta in (1.7, 2.9, 4.2, 7.5):
        pi_coeff = scattering.pi_coefficient(beta, config)
        z = scattering.zeta(beta, config)
        k = config.k_continuum(beta)
        value = pi_coeff * contour.f_epsilon(beta, 0.0)
        worst = max(worst, abs(value - (1.0 + z)) / abs(1.0 + z))
        slope_left = pi_coeff * config.alpha * contour.f_epsilon_derivative(beta, 0.0)
        slope_right = 1j * k * (z - 1.0)
        worst = max(worst, abs(slope_left - slope_right) / abs(slope_right))
    return _check("improper_junction", worst, 1e-8)


def check_wavepacket_delay() -> CheckResult:
    config = PotentialConfig.from_beta0(1.5)
    spec = wavepacket.WavePacketSpec.for_beta(config, 6.0)
    measured = wavepacket.measure_delay(spec)
    analytic = scattering.delay_time(6.0, config)
    residual = abs(measured - analytic) / analytic
    return _check("wavepacket_delay", residual, 0.05,
                  detail=f"measured={measured:.5f} analytic={analytic:.5f}")


_ALL_CHECKS = [
    check_gamma_reflection,
    check_gamma_duplication,
    check_gamma_ratio_routes,
    check_digamma_recurrence,
    check_j_route_independence,
    check_hermite_degeneracy,
    check_ode_oracle,
    check_rk4_order,
    check_shooting_vs_levels,
    check_unitarity,
    check_phase_derivative,
    check_bound_junction,
    check_improper_junction,
    check_wavepacket_delay,
]


def run_all() -> list[CheckResult]:
    """Run and time every cross-check; never raises, failures are reported as results."""
    results = []
    for check in _ALL_CHECKS:
        start = time.perf_counter()
        try:
            result = check()
        except Exception as exc:  # a crashed check is a failed check
            result = CheckResult(name=check.__name__.removeprefix("check_"),
                                 residual=math.inf, threshold=0.0,
                                 passed=False, detail=repr(exc))
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
