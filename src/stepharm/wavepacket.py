"""Wave-packet reflection off the harmonic barrier.

A continuum superposition psi(x, t) = integral dk c(k) u_k(x) e^{-i Omega t}
is assembled from the improper eigenfunctions, with a Gaussian envelope

    |c(k)| = (2 pi sigma_k^2)^(-1/4) exp(-(k - k_center)^2 / (4 sigma_k^2))

and launch phase gamma(k) = k * x_start, which places the packet at
x = x_start at t = 0 moving toward the barrier with speed hbar*k_center/m.
The reflection delay is measured as the time the reflected packet's
centroid crosses the detector at x_start, minus the perfect-mirror
prediction 2*x_start/(hbar*k_center/m).

The k integral is the composite Gauss-Legendre rule ``contour._panel_rule``
over k_center +/- 5 sigma_k.  Every mode and frame is the one sum
psi[t, x] = sum_k A[t, k] u_k(x) of ``_mode_sum``: A = w c(k) e^{-i Omega(k) t}
for a packet, A = [[1]] for one eigenfunction.  zeta(k), Pi(beta) and
1/sqrt(2 pi) ride on A, so no (k x x) mode table is formed: the plane waves
e^{ikx} are one table built from per-panel factors (``_plane_waves``), and
the incoming wave is the conjugate of conj(A) times it.  ``evolve`` converges
its frames by the one doubling refinement ``contour._refine``: from 128 k
nodes, doubled until they change by less than 1e-6 relative to 1 + max|psi|,
at most six evaluations.  ``measure_delay`` sums the outgoing waves alone, on
the nodes of its detector window, and converges by that rule only the norm
and first moment at each time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contour, scattering
from .errors import ConvergenceError, DispersionError, DomainError
from .potential import PotentialConfig

_FRAME_TOL = 1e-6
_FRAME_NODES = 128  # first k-node count of the frame refinement
_REL_WIDTH = 1.0 / 30.0  # default sigma_k / k_center of WavePacketSpec.for_k
_START_WIDTHS = 6.0  # default x_start of WavePacketSpec.for_k, in initial widths sigma_x
_K_SUPPORT_SIGMAS = 5.0
_MIN_OVERLAP_SIGMAS = 4.8  # Gaussian tail beyond 4.75 sigma is < 1e-6
# Phi(-2): the share on x < 0 of a Gaussian of width x_start/2 centred on
# the detector; a reflected packet missing more than this is not yet formed
_UNFORMED_SHARE = 0.5 * math.erfc(math.sqrt(2.0))


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
    def for_k(cls, config: PotentialConfig, k_center: float, sigma_k: float | None = None,
              x_start: float | None = None) -> "WavePacketSpec":
        """Packet centered on k_center, with the default shape where not given.

        The default sigma_k is k_center / 30, and the default launch point is
        six initial widths sigma_x = 1 / (2 sigma_k) out, x_start = 3 / sigma_k.
        """
        if sigma_k is None:
            sigma_k = k_center * _REL_WIDTH
        if x_start is None:
            x_start = _START_WIDTHS / (2.0 * sigma_k)
        return cls(k_center=k_center, sigma_k=sigma_k, x_start=x_start, config=config)

    @classmethod
    def for_beta(cls, config: PotentialConfig, beta: float) -> "WavePacketSpec":
        """Packet of the default shape (see ``for_k``) centered on the continuum point beta."""
        return cls.for_k(config, config.k_continuum(beta))

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
        """L2 norm of each frame over the stored grid, by the trapezoid rule."""
        return np.trapezoid(self.psi.real ** 2 + self.psi.imag ** 2, self.x_grid, axis=1)

    def centroids(self) -> np.ndarray:
        density = self.psi.real ** 2 + self.psi.imag ** 2
        return np.trapezoid(self.x_grid * density, self.x_grid, axis=1) / self.norms()


def improper_eigenfunction(beta, config: PotentialConfig, x):
    """Continuum eigenfunction, k-normalized with the 1/sqrt(2 pi) prefactor.

    Pi(beta) F(alpha x) e^{-(alpha x)^2/2} on the harmonic side and
    e^{-ikx} + zeta(beta) e^{ikx} on the step side; the junction is smooth
    by construction of Pi and zeta.  It is ``_mode_sum`` at the one node
    k = k(beta), amplitude 1: x < 0 raise ConvergenceError where the row of
    ``contour.interior_rows`` misses J(beta); x >= 0 need no contour solution.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    k = np.array([config.k_continuum(beta)])
    out = _mode_sum(config, contour._PanelRule(k, np.ones(1), k, np.zeros(1)),
                    np.ones((1, 1)), x_arr)[0]
    return out[0] if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _k_rule(spec: WavePacketSpec, n_nodes: int) -> contour._PanelRule:
    """The ``contour._panel_rule`` over k_center +/- 5 sigma_k."""
    return contour._panel_rule(spec.k_center - _K_SUPPORT_SIGMAS * spec.sigma_k,
                               spec.k_center + _K_SUPPORT_SIGMAS * spec.sigma_k, n_nodes)


def _plane_waves(rule: contour._PanelRule, x: np.ndarray) -> np.ndarray:
    """Table e^{ikx}[node, x] of the rule's nodes, from per-panel factors.

    e^{i (c_p + o_q) x} = e^{i c_p x} e^{i o_q x}: one exponential per panel
    centre and one per shared node offset at each x, then one complex
    product per entry, in place of one exponential per entry.
    """
    centre = np.exp(1j * np.multiply.outer(rule.centres, x))
    offset = np.exp(1j * np.multiply.outer(rule.offsets, x))
    return (centre[:, None, :] * offset[None, :, :]).reshape(rule.nodes.size, x.size)


def _mode_sum(config: PotentialConfig, rule: contour._PanelRule, amplitudes: np.ndarray,
              x: np.ndarray, mirror: bool = False, incoming: bool = True) -> np.ndarray:
    """psi[t, x] = sum_k amplitudes[t, k] u_k(x) over the rule's nodes: every continuum mode.

    u_k is (e^{-ikx} + zeta(k) e^{ikx}) / sqrt(2 pi) on x >= 0, the incoming
    wave only if ``incoming``, and Pi(beta) F(y) e^{-y^2/2} / sqrt(2 pi) on
    x < 0, F the checked rows of ``contour.interior_rows``; ``mirror`` sets
    zeta = 1 and the interior to 0.  The factors of k go on the amplitudes.
    """
    betas = config.beta_from_k(rule.nodes)
    amplitudes = amplitudes / math.sqrt(2.0 * math.pi)
    neg = x < 0.0
    waves = _plane_waves(rule, x[~neg])
    step = (amplitudes if mirror else amplitudes * scattering.zeta(betas, config)) @ waves
    if incoming:
        step += np.conj(np.conj(amplitudes) @ waves)
    if not neg.any():  # no copy into a larger array
        return step
    psi = np.zeros((amplitudes.shape[0], x.size), dtype=complex)
    psi[:, ~neg] = step
    if not mirror:
        y = config.alpha * x[neg]
        rows, _ = contour.interior_rows(betas, y)
        psi[:, neg] = ((amplitudes * scattering.pi_coefficient(betas, config)) @ rows
                       * np.exp(-0.5 * y * y))
    return psi


def _amplitudes(spec: WavePacketSpec, rule: contour._PanelRule, times: np.ndarray) -> np.ndarray:
    """Packet amplitudes A[t, k] = w_k c(k) e^{-i Omega(k) t} on the rule's nodes."""
    phases = np.exp(-1j * np.outer(times, spec.omega_of(rule.nodes)))
    return phases * (rule.weights * spec.envelope(rule.nodes))


def evolve(spec: WavePacketSpec, x_grid, times, mirror: bool = False) -> FrameSet:
    """Propagate the packet and return frames on the given grids.

    The k-quadrature (Gauss-Legendre over k_center +/- 5 sigma_k) starts
    from 128 nodes and doubles them until the frames change by less than
    1e-6 relative to 1 + max|psi|; ConvergenceError names the last change
    and node count if six evaluations do not settle.  A scalar ``x_grid`` or
    ``times`` is one point; an empty one gives empty frames.  Positions x < 0
    add one contour call per round, the block of ``contour.interior_rows`` on
    them plus x = 0, which raises ConvergenceError naming the first beta
    whose own F(0) misses J(beta), or the first at the round-off floor of
    its sums.
    ``mirror`` replaces zeta by 1, the delay-free perfect-mirror reference.
    """
    x_arr = np.atleast_1d(np.asarray(x_grid, dtype=float))
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(np.diff(x_arr) <= 0):
        raise DomainError("x_grid must be strictly increasing")

    def frames(n_nodes: int) -> np.ndarray:
        rule = _k_rule(spec, n_nodes)
        return _mode_sum(spec.config, rule, _amplitudes(spec, rule, t_arr), x_arr, mirror)

    psi = contour._refine(frames, _FRAME_NODES, _FRAME_TOL, "packet frames", "about {} k nodes")
    return FrameSet(times=t_arr, x_grid=x_arr, psi=psi)


def measure_delay(spec: WavePacketSpec, mirror: bool = False) -> float:
    """Reflection delay from the centroid of the reflected packet.

    At 201 times, the norm and first moment of |psi_ref|^2 on 0 <= x <= L =
    x_start + 12 widths converge by the frame rule of ``evolve``, integrated
    on the ``contour._panel_rule`` of ceil(10 sigma_k L) nodes: |psi_ref|^2
    holds only wavenumbers within +/- 10 sigma_k, which that many nodes
    integrate to rounding.  The centroid moves ballistically at the mean group
    speed once the packet is formed: from the first frame that misses less
    than Phi(-2) ~ 0.0228 of the unit reflected norm, the share on x < 0 of a
    Gaussian of width x_start/2 centred on the detector.  Until then the
    window may hold only a faint prompt echo off the step.  The first upward
    crossing of the detector x = x_start from that frame on, minus the mirror
    prediction 2 x_start / (hbar k_center / m), is the measured delay.  Raises
    DispersionError when the centroid is already past the detector on that
    frame (the packet is too broad to localize).
    """
    cfg = spec.config
    v = spec.group_speed
    t_mirror = 2.0 * spec.x_start / v
    # dispersion-grown width at the expected crossing time
    spread = spec.sigma_x * math.sqrt(
        1.0 + (cfg.hbar * t_mirror / (2.0 * cfg.mass * spec.sigma_x**2)) ** 2)
    window = 10.0 * math.pi / cfg.omega
    times = np.linspace(max(t_mirror - 4.0 * spread / v, 0.0), t_mirror + window, 201)
    length = spec.x_start + 12.0 * spread
    x = contour._panel_rule(0.0, length, math.ceil(10.0 * spec.sigma_k * length))
    moment_weights = np.c_[x.weights, x.weights * x.nodes / spec.x_start]

    def moments(n_nodes: int) -> np.ndarray:  # norm, moment / x_start; outgoing waves alone
        rule = _k_rule(spec, n_nodes)
        psi = _mode_sum(cfg, rule, _amplitudes(spec, rule, times), x.nodes, mirror, incoming=False)
        return (psi.real ** 2 + psi.imag ** 2) @ moment_weights

    norms, first = contour._refine(moments, _FRAME_NODES, _FRAME_TOL, "reflected frames",
                                   "about {} k nodes").T
    centroids = spec.x_start * first / norms
    # the packet has unit norm and |zeta| = 1: what the window misses is 1 - norm
    formed = np.flatnonzero(norms > 1.0 - _UNFORMED_SHARE)
    if formed.size == 0:
        raise ConvergenceError("reflected packet never formed inside the sampling window")
    start = formed[0]
    if centroids[start] >= spec.x_start:
        raise DispersionError("reflected packet too dispersed to localize: its "
                              "centroid is past the detector when it forms")
    above = np.flatnonzero(centroids[start:] >= spec.x_start)
    if above.size == 0:
        raise ConvergenceError("reflected centroid never crossed the detector "
                               "inside the sampling window")
    i = start + above[0]
    t0, t1, c0, c1 = times[i - 1], times[i], centroids[i - 1], centroids[i]
    return t0 + (spec.x_start - c0) * (t1 - t0) / (c1 - c0) - t_mirror
