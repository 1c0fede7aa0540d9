"""Wave-packet reflection off the harmonic barrier.

A continuum superposition psi(x, t) = integral dk c(k) u_k(x) e^{-i Omega t}
is assembled from the improper eigenfunctions, with a Gaussian envelope

    |c(k)| = (2 pi sigma_k^2)^(-1/4) exp(-(k - k_center)^2 / (4 sigma_k^2))

and launch phase gamma(k) = k * x_start, which places the packet at
x = x_start at t = 0 moving toward the barrier with speed hbar*k_center/m.
The reflection delay is measured as the time the reflected packet's
centroid crosses the detector at x_start, minus the perfect-mirror
prediction 2*x_start/(hbar*k_center/m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contour, scattering
from .contour import _JUNCTION_TOL
from .errors import ConvergenceError, DispersionError, DomainError
from .potential import PotentialConfig
from .special import log_gamma

_FRAME_TOL = 1e-6
_FRAME_NODES = 128  # first k-node count of evolve; doubled up to _FRAME_ROUNDS times
_FRAME_ROUNDS = 6
_DELAY_NODES = 256  # first k-node count of measure_delay
_REL_WIDTH = 1.0 / 30.0  # sigma_k / k_center of WavePacketSpec.for_beta
_START_WIDTHS = 6.0  # x_start of WavePacketSpec.for_beta, in initial widths sigma_x
_K_SUPPORT_SIGMAS = 5.0
_MIN_OVERLAP_SIGMAS = 4.8  # Gaussian tail beyond 4.75 sigma is < 1e-6


@dataclass(frozen=True)
class WavePacketSpec:
    """Envelope parameters of an incoming packet."""

    k_center: float
    sigma_k: float
    x_start: float
    config: PotentialConfig

    def __post_init__(self):
        if self.k_center <= 0 or self.sigma_k <= 0 or self.x_start <= 0:
            raise DomainError("k_center, sigma_k and x_start must be positive")
        if self.k_center - 4.0 * self.sigma_k <= 0.0:
            raise DomainError("packet must be supported above threshold "
                              "(k_center - 4 sigma_k > 0)")
        if self.x_start < _MIN_OVERLAP_SIGMAS * self.sigma_x:
            raise DomainError("x_start too small: initial overlap with x < 0 "
                              "exceeds 1e-6")

    @classmethod
    def for_beta(cls, config: PotentialConfig, beta: float) -> "WavePacketSpec":
        """Packet centered on the continuum point beta.

        sigma_k = k_center / 30, and the packet starts six initial widths
        sigma_x = 1 / (2 sigma_k) out, at x_start = 3 / sigma_k.
        """
        k_center = config.k_continuum(beta)
        sigma_k = k_center * _REL_WIDTH
        return cls(k_center=k_center, sigma_k=sigma_k,
                   x_start=_START_WIDTHS / (2.0 * sigma_k), config=config)

    @property
    def sigma_x(self) -> float:
        """Initial spatial width 1/(2 sigma_k)."""
        return 1.0 / (2.0 * self.sigma_k)

    @property
    def beta_center(self) -> float:
        return self.config.beta_from_k(self.k_center)

    @property
    def group_speed(self) -> float:
        return self.config.hbar * self.k_center / self.config.mass

    def envelope(self, k):
        """Complex momentum amplitude c(k) = |c(k)| e^{i k x_start}."""
        k = np.asarray(k, dtype=float)
        mag = ((2.0 * np.pi * self.sigma_k**2) ** -0.25
               * np.exp(-((k - self.k_center) ** 2) / (4.0 * self.sigma_k**2)))
        return mag * np.exp(1j * k * self.x_start)

    def omega_of(self, k):
        """Dispersion Omega(k) = U0/hbar + hbar k^2 / (2m)."""
        cfg = self.config
        return cfg.u0 / cfg.hbar + cfg.hbar * np.asarray(k, dtype=float) ** 2 / (2.0 * cfg.mass)


@dataclass(frozen=True)
class FrameSet:
    """Snapshots psi[time, space] of an evolving packet."""

    times: np.ndarray
    x_grid: np.ndarray
    psi: np.ndarray

    def norms(self) -> np.ndarray:
        """L2 norm of each frame over the stored grid."""
        return np.trapezoid(np.abs(self.psi) ** 2, self.x_grid, axis=1)

    def centroids(self) -> np.ndarray:
        rho = np.abs(self.psi) ** 2
        return (np.trapezoid(self.x_grid * rho, self.x_grid, axis=1)
                / np.trapezoid(rho, self.x_grid, axis=1))


def improper_eigenfunction(beta, config: PotentialConfig, x):
    """Continuum eigenfunction, k-normalized with the 1/sqrt(2 pi) prefactor.

    Pi(beta) F(alpha x) e^{-(alpha x)^2/2} on the harmonic side and
    e^{-ikx} + zeta(beta) e^{ikx} on the step side; the junction is smooth
    by construction of Pi and zeta.  This is the packet's mode row at
    k = k(beta).  Positions x < 0 first check the contour solution against
    J(beta) as ``evolve`` does, and raise ConvergenceError on a mismatch.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if np.any(x_arr < 0.0):
        _check_interior_solution(np.array([beta], dtype=float))
    ks = np.array([config.k_continuum(beta)])
    out = _mode_matrix(config, ks, x_arr, mirror=False)[0]
    return out[0] if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _k_rule(spec: WavePacketSpec, n_nodes: int):
    lo = spec.k_center - _K_SUPPORT_SIGMAS * spec.sigma_k
    hi = spec.k_center + _K_SUPPORT_SIGMAS * spec.sigma_k
    return contour._panel_rule(lo, hi, n_nodes)


def _outgoing(config: PotentialConfig, ks: np.ndarray, xs: np.ndarray,
              mirror: bool) -> np.ndarray:
    """Reflected plane waves zeta(k) e^{ikx}, with zeta = 1 for the mirror."""
    refl = (np.ones_like(ks, dtype=complex) if mirror
            else scattering.zeta(config.beta_from_k(ks), config))
    return refl[:, None] * np.exp(1j * np.outer(ks, xs))


def _mode_matrix(config: PotentialConfig, ks: np.ndarray, x_grid: np.ndarray,
                 mirror: bool) -> np.ndarray:
    """Rows u_k(x) of the improper eigenfunctions on the grid.

    The one place where continuum modes are formed: ``evolve`` sums them
    into packets and ``improper_eigenfunction`` returns a single row.
    """
    modes = np.empty((len(ks), len(x_grid)), dtype=complex)
    neg = x_grid < 0.0
    pos = ~neg
    if pos.any():
        xp = x_grid[pos]
        modes[:, pos] = np.exp(-1j * np.outer(ks, xp)) + _outgoing(config, ks, xp, mirror)
    if neg.any():
        if mirror:
            modes[:, neg] = 0.0
        else:
            betas = config.beta_from_k(ks)
            y = config.alpha * x_grid[neg]
            solutions = np.vstack([contour.f_epsilon(beta, y) for beta in betas.tolist()])
            modes[:, neg] = (scattering.pi_coefficient(betas, config)[:, None]
                             * solutions * np.exp(-0.5 * y * y))
    return modes / math.sqrt(2.0 * math.pi)


def _check_interior_solution(betas: np.ndarray) -> None:
    """Raise ConvergenceError where the contour solution misses J(beta) at y = 0.

    The mismatch F(0) - J(beta) is measured against 2 pi / Gamma((beta+1)/2),
    the size of J without its factor sin(pi beta / 2), which vanishes at
    even beta.  The betas are checked in order, and the first failure raises.
    """
    scales = 2.0 * math.pi * np.exp(-log_gamma(0.5 * (betas + 1.0)).real)
    for beta, scale, j in zip(betas.tolist(), scales.tolist(),
                              contour.j_beta(betas).tolist()):
        error = abs(contour.f_epsilon(beta, 0.0) - j)
        mismatch = error / scale if scale > 0.0 else math.inf
        if not mismatch <= _JUNCTION_TOL:
            raise ConvergenceError(
                f"contour solution for beta={beta!r} misses J(beta) at the junction "
                f"by {mismatch:.3g} relative to 2 pi / Gamma((beta+1)/2) "
                f"(tolerance {_JUNCTION_TOL:g})")


def _frames_at(spec: WavePacketSpec, ks, ws, modes, times) -> np.ndarray:
    """Packet frames psi[t, x] = sum_k w_k c(k) e^{-i Omega(k) t} modes[k, x]."""
    weights = ws * spec.envelope(ks)
    phases = np.exp(-1j * np.outer(np.asarray(times, float), spec.omega_of(ks)))
    return (phases * weights) @ modes


def evolve(spec: WavePacketSpec, x_grid, times, mirror: bool = False) -> FrameSet:
    """Propagate the packet and return frames on the given grids.

    The k-quadrature (Gauss-Legendre over k_center +/- 5 sigma_k) starts
    from 128 nodes and doubles them, at most six times in all, until the
    frames change by less than 1e-6 relative.  Positions x < 0 request the costly interior
    eigenfunction evaluation; keep the grid non-negative when only the
    reflected motion matters.  ``mirror`` replaces zeta by 1, the
    delay-free perfect-mirror reference.  Before any interior row is
    assembled, the contour solution is checked against J(beta) at the
    centre and both ends of the k-support; a mismatch above 1e-8 (the
    contour solution fails for highly excited states) raises
    ConvergenceError at once.
    """
    x_arr = np.asarray(x_grid, dtype=float)
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(np.diff(x_arr) <= 0):
        raise DomainError("x_grid must be strictly increasing")
    if not mirror and np.any(x_arr < 0.0):
        offsets = np.array([-_K_SUPPORT_SIGMAS, 0.0, _K_SUPPORT_SIGMAS])
        _check_interior_solution(
            spec.config.beta_from_k(spec.k_center + offsets * spec.sigma_k))
    previous = None
    n = _FRAME_NODES
    for _ in range(_FRAME_ROUNDS):
        ks, ws = _k_rule(spec, n)
        psi = _frames_at(spec, ks, ws, _mode_matrix(spec.config, ks, x_arr, mirror), t_arr)
        if previous is not None:
            scale = 1.0 + float(np.abs(psi).max())
            if float(np.abs(psi - previous).max()) < _FRAME_TOL * scale:
                return FrameSet(times=t_arr, x_grid=x_arr, psi=psi)
        previous = psi
        n *= 2
    raise ConvergenceError("k-quadrature did not converge while assembling frames")


def _crossing_time(times: np.ndarray, centroids: np.ndarray, target: float):
    above = centroids >= target
    if not above.any() or above[0]:
        return None
    i = int(np.argmax(above))
    t0, t1 = times[i - 1], times[i]
    c0, c1 = centroids[i - 1], centroids[i]
    return t0 + (target - c0) * (t1 - t0) / (c1 - c0)


def measure_delay(spec: WavePacketSpec, mirror: bool = False) -> float:
    """Reflection delay from the centroid of the reflected packet.

    The centroid of |psi_ref|^2 moves ballistically at the mean group
    speed once formed; its crossing time at the detector x = x_start,
    minus the mirror prediction 2 x_start / (hbar k_center / m), is the
    measured delay.  Raises DispersionError when the reflected packet is
    too broad to localize (width > x_start / 2).
    """
    cfg = spec.config
    v = spec.group_speed
    t_mirror = 2.0 * spec.x_start / v
    # dispersion-grown width at the expected crossing time
    spread = spec.sigma_x * math.sqrt(
        1.0 + (cfg.hbar * t_mirror / (2.0 * cfg.mass * spec.sigma_x**2)) ** 2)
    window = 10.0 * math.pi / cfg.omega
    t_lo = max(t_mirror - 4.0 * spread / v, 0.0)
    t_hi = t_mirror + window
    times = np.linspace(t_lo, t_hi, 201)
    xs = np.linspace(0.0, spec.x_start + 12.0 * spread, 1600)

    def centroid_delay(n: int):
        ks, ws = _k_rule(spec, n)
        modes = _outgoing(cfg, ks, xs, mirror) / math.sqrt(2.0 * math.pi)
        psi = _frames_at(spec, ks, ws, modes, times)
        rho = np.abs(psi) ** 2
        mass = np.trapezoid(rho, xs, axis=1)
        cent = np.trapezoid(xs * rho, xs, axis=1) / mass
        t_cross = _crossing_time(times, cent, spec.x_start)
        if t_cross is None:
            raise ConvergenceError("reflected centroid never crossed the detector "
                                   "inside the sampling window")
        i = int(np.searchsorted(times, t_cross))
        second = np.trapezoid(xs**2 * rho[i], xs) / mass[i]
        width = math.sqrt(max(second - cent[i] ** 2, 0.0))
        return t_cross - t_mirror, width

    previous = None
    last_change = math.inf
    for n in (_DELAY_NODES, 2 * _DELAY_NODES, 4 * _DELAY_NODES):
        delay, width = centroid_delay(n)
        if previous is not None:
            last_change = abs(delay - previous)
            if last_change < 1e-5 / cfg.omega:
                break
        previous = delay
    if last_change > 1e-3 / cfg.omega:
        raise ConvergenceError("k-quadrature did not stabilize the measured delay")
    if width > spec.x_start / 2.0:
        raise DispersionError("reflected packet too dispersed to localize "
                              f"(width {width:.3g} > x_start/2)")
    return delay
