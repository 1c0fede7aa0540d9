"""Output checks made apart from the program, with scipy only.

Nothing here imports stepharm.  Each check takes the program's outputs as
plain numbers and returns a list of problems; an empty list means the
output passed.  Units are the dimensionless ones of ``--beta0`` runs
(hbar = m = kappa = 1, so omega = alpha = 1).

The independent routes:

* the level equation and the phase delta = arg zeta are recomputed with
  ``scipy.special.poch``, which gives Gamma((b+1)/2)/Gamma(b/2) directly;
* delta' is compared with a fourth-order finite difference of that phase,
  not with the program's digamma closed form;
* bound states are compared with J(beta) D_{beta-1}(-sqrt(2) y) /
  D_{beta-1}(0), the parabolic-cylinder form of the contour solution,
  through ``scipy.special.pbdv`` and ``scipy.special.rgamma``, and their
  norm is recomputed by Simpson's rule plus ``scipy.integrate.quad`` tails;
* wave-packet delays are compared with the finite-difference delay
  averaged over the packet's momentum distribution |c(k)|^2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

FD_STEP = 1e-3
DELAY_TOL = 1e-6           # |fd - tau| / (1 + |tau|) where fd is trustworthy
FD_TRUST = 1e-7            # |fd(h) - fd(2h)| / (1 + |fd|) must be below this
EIGEN_TOL = 1e-8           # max |u - c u_indep| / max |u|, c fitted
JUNCTION_TOL = 1e-4        # cubic extrapolation gap at x = 0, / max |u|
NORM_TOL = 1e-5            # the program's own quadrature leaves ~2e-6
PACKET_DELAY_TOL = 0.05
MIRROR_TOL = 1e-4
FRAME_NORM_TOL = 5e-4
RESONANCE_MIN_HEIGHT = 1.05
RESONANCE_SCAN_STEP = 1e-3  # fine scan for the maxima that must all be reported
RESONANCE_EDGE = 0.05      # maxima this close to the span's ends are optional
RESONANCE_CUT_MARGIN = 0.01  # and so are those within 1 % of the height cut
NODE_FLOOR = 1e-6          # samples below this share of max |u| count as tail


# -- independent special-function routes ----------------------------------
def gamma_ratio(b):
    """Gamma((b+1)/2) / Gamma(b/2)."""
    return special.poch(np.asarray(b, dtype=float) / 2.0, 0.5)


def level_residual(beta, beta0):
    b = np.asarray(beta, dtype=float)
    return gamma_ratio(b) / np.tan(np.pi * b / 2.0) + np.sqrt((beta0 - b) / 2.0)


def phase(beta, beta0):
    """delta = arg zeta, zeta = (a - i b)/(a + i b), modulo 2 pi."""
    b = np.asarray(beta, dtype=float)
    re = np.sin(np.pi * b / 2.0)
    im = np.sqrt(2.0 / (b - beta0)) * gamma_ratio(b) * np.cos(np.pi * b / 2.0)
    return -2.0 * np.arctan2(im, re)


def fd_delay(beta, beta0, h=FD_STEP):
    """Fourth-order central difference of the phase (omega = 1)."""
    b = np.asarray(beta, dtype=float)
    stencil = np.stack([phase(b + k * h, beta0) for k in (-2, -1, 1, 2)])
    stencil = np.unwrap(stencil, axis=0)
    return (stencil[0] - 8.0 * stencil[1] + 8.0 * stencil[2] - stencil[3]) / (12.0 * h)


def j_beta(beta):
    """J(beta) = 2 pi sin(pi beta/2) e^{-i pi beta} / (i Gamma((beta+1)/2))."""
    return (2.0 * math.pi * math.sin(math.pi * beta / 2.0)
            * np.exp(-1j * math.pi * beta) * special.rgamma((beta + 1.0) / 2.0) / 1j)


def bound_state_raw(beta_n, k_n, xs):
    """Unnormalised u_n: J D_{b-1}(-sqrt2 x)/D_{b-1}(0) for x < 0, J e^{-k x} after."""
    xs = np.asarray(xs, dtype=float)
    j = j_beta(beta_n)
    out = np.empty(xs.shape, dtype=complex)
    neg = xs < 0.0
    d0 = special.pbdv(beta_n - 1.0, 0.0)[0]
    out[neg] = j * special.pbdv(beta_n - 1.0, -math.sqrt(2.0) * xs[neg])[0] / d0
    out[~neg] = j * np.exp(-k_n * xs[~neg])
    return out


def bound_state_norm(beta_n, k_n):
    """Integral of |u_raw|^2 over the whole line."""
    d0 = special.pbdv(beta_n - 1.0, 0.0)[0]
    left, _ = integrate.quad(
        lambda x: (special.pbdv(beta_n - 1.0, -math.sqrt(2.0) * x)[0] / d0) ** 2,
        -np.inf, 0.0, epsabs=0.0, epsrel=1e-12, limit=400)
    return abs(j_beta(beta_n)) ** 2 * (left + 1.0 / (2.0 * k_n))


# -- spectra ----------------------------------------------------------------
def check_levels(beta0, levels) -> list[str]:
    """levels: (n, beta_n, k_n) rows of one step height."""
    problems = []
    expected = int(math.ceil((beta0 - 1.0) / 2.0))
    if len(levels) != expected:
        problems.append(f"beta0={beta0}: {len(levels)} levels, expected {expected}")
    for i, (n, beta_n, k_n) in enumerate(levels):
        if n != i:
            problems.append(f"beta0={beta0}: level {i} reported as n={n}")
        hi = min(2 * n + 2.0, beta0)
        if not 2 * n + 1.0 < beta_n < hi:
            problems.append(f"beta0={beta0}: beta_{n}={beta_n} outside ({2*n+1}, {hi})")
            continue
        h = 1e-9 * max(1.0, beta_n)
        lo_side, hi_side = level_residual([beta_n - h, min(beta_n + h, beta0)], beta0)
        if lo_side * hi_side > 0.0:
            problems.append(f"beta0={beta0}: level equation keeps its sign "
                            f"across beta_{n}={beta_n!r}")
        # compared as energies: near the threshold k_n is small, and a beta_n
        # printed to 12 digits moves it by more than 1e-9 of itself
        if abs(0.5 * k_n * k_n - (beta0 - beta_n)) > 1e-9 * beta0:
            problems.append(f"beta0={beta0}: k_{n}={k_n} != sqrt(2(beta0-beta_n))")
    return problems


def check_delay_curve(beta0, betas, taus, asymptotic: bool = True) -> list[str]:
    """tau (omega = 1) against the finite-difference delay, and its high-energy limit."""
    betas = np.asarray(betas, dtype=float)
    taus = np.asarray(taus, dtype=float)
    problems = []
    if not np.all(np.isfinite(taus)):
        return [f"beta0={beta0}: non-finite delay"]
    fd = fd_delay(betas, beta0)
    fd2 = fd_delay(betas, beta0, 2.0 * FD_STEP)
    trusted = ((np.abs(fd - fd2) < FD_TRUST * (1.0 + np.abs(fd)))
               & (betas - beta0 > 4.0 * FD_STEP))
    if trusted.sum() < len(betas) // 2:
        problems.append(f"beta0={beta0}: finite difference trusted at only "
                        f"{trusted.sum()} of {len(betas)} points")
    err = np.abs(fd - taus) / (1.0 + np.abs(taus))
    worst = float(err[trusted].max(initial=0.0))
    if worst > DELAY_TOL:
        problems.append(f"beta0={beta0}: delta' differs from the finite "
                        f"difference by {worst:.2e}")
    if asymptotic:
        # the largest deviation from the classical half period pi/omega
        # must shrink from each half-decade of beta - beta0 to the next
        dev = np.abs(taus / math.pi - 1.0)
        edges = 10.0 ** np.arange(1.0, 3.01, 0.5)
        above = betas - beta0
        peaks = [float(dev[(above >= lo) & (above <= hi)].max())
                 for lo, hi in zip(edges[:-1], edges[1:])]
        if not all(later < earlier for earlier, later in zip(peaks, peaks[1:])):
            problems.append(f"beta0={beta0}: |tau omega/pi - 1| does not shrink "
                            f"with beta: {peaks}")
    return problems


def delay_maxima(beta0, beta_max):
    """Local maxima of the fd delay above the cut on a fine grid of (beta0, beta_max).

    Returns (beta, tau, required) rows.  A maximum is not required of the
    program when it lies within ``RESONANCE_EDGE`` of either end of the
    span, where a coarse search has no grid point beyond it, or when its
    height is within ``RESONANCE_CUT_MARGIN`` of the cut.  The descent from
    the threshold divergence is monotone and so never a maximum here.
    """
    grid = np.arange(beta0 + RESONANCE_SCAN_STEP, beta_max, RESONANCE_SCAN_STEP)
    taus = fd_delay(grid, beta0, h=0.1 * RESONANCE_SCAN_STEP)
    peaks = np.flatnonzero((taus[1:-1] > taus[:-2]) & (taus[1:-1] >= taus[2:])) + 1
    cut = RESONANCE_MIN_HEIGHT * math.pi
    rows = []
    for i in peaks:
        if taus[i] <= cut * (1.0 - RESONANCE_CUT_MARGIN):
            continue
        inside = beta0 + RESONANCE_EDGE < grid[i] < beta_max - RESONANCE_EDGE
        rows.append((float(grid[i]), float(taus[i]),
                     inside and taus[i] > cut * (1.0 + RESONANCE_CUT_MARGIN)))
    return rows


def check_resonances(beta0, beta_max, resonances) -> list[str]:
    """(beta_peak, tau_peak, width) rows: the maxima of the fd delay, one for one.

    Each reported row must be a local maximum of the independent delay, and
    every maximum of a fine scan of that delay must be reported.
    """
    problems = []
    reported = sorted(row[0] for row in resonances)
    maxima = delay_maxima(beta0, beta_max)
    for beta, tau, required in maxima:
        near = [b for b in reported if abs(b - beta) <= 2.0 * RESONANCE_SCAN_STEP]
        if len(near) > 1 or (required and not near):
            problems.append(f"beta0={beta0}: the delay peaks at {beta:.4f} "
                            f"(tau {tau:.4g}), reported {len(near)} times")
    for b in reported:
        if not any(abs(b - beta) <= 2.0 * RESONANCE_SCAN_STEP for beta, _, _ in maxima):
            problems.append(f"beta0={beta0}: resonance at {b} has no maximum "
                            f"of the delay near it")
    for beta_peak, tau_peak, width in resonances:
        if not beta0 < beta_peak < beta_max or width <= 0.0:
            problems.append(f"beta0={beta0}: resonance at {beta_peak} width {width}")
            continue
        # a sharp peak, or one close to the threshold, needs a finer stencil
        h = min(FD_STEP, width / 50.0, (beta_peak - beta0) / 500.0)
        d = min(1e-3, 0.05 * width)
        here, left, right = fd_delay([beta_peak, beta_peak - d, beta_peak + d],
                                     beta0, h=h)
        if not (here >= left and here >= right):
            problems.append(f"beta0={beta0}: {beta_peak} is not a maximum of tau "
                            f"({left}, {here}, {right})")
        if abs(here - tau_peak) > 1e-6 * abs(here):
            problems.append(f"beta0={beta0}: tau at {beta_peak} is {here}, "
                            f"reported {tau_peak}")
        if tau_peak <= RESONANCE_MIN_HEIGHT * math.pi:
            problems.append(f"beta0={beta0}: peak {tau_peak} below the 1.05 pi cut")
    return problems


def check_spectral_table(beta0, out, delay_offsets, span) -> list[str]:
    return (check_levels(beta0, out["levels"])
            + check_delay_curve(beta0, beta0 + delay_offsets, out["taus"])
            + check_resonances(beta0, beta0 + span, out["resonances"]))


# -- states -----------------------------------------------------------------
def junction_gap(xs, u) -> float:
    """|left - right| at x = 0, each side extrapolated from its 4 nearest samples."""
    xs = np.asarray(xs, dtype=float)
    u = np.asarray(u, dtype=complex)
    left = np.flatnonzero(xs < 0.0)[-4:]
    right = np.flatnonzero(xs >= 0.0)[:4]

    def at_zero(idx):
        x = xs[idx]
        # Lagrange weights of the cubic through the four samples, at x = 0
        w = [np.prod([-x[m] / (x[l] - x[m]) for m in range(4) if m != l])
             for l in range(4)]
        return np.dot(w, u[idx])

    return float(abs(at_zero(left) - at_zero(right)) / np.abs(u).max())


def node_count(u) -> int:
    """Sign changes of u after removing its constant phase, ignoring the tails."""
    u = np.asarray(u, dtype=complex)
    peak = u[np.argmax(np.abs(u))]
    real = (u * np.conj(peak) / abs(peak)).real
    real = real[np.abs(u) > NODE_FLOOR * abs(peak)]
    return int(np.count_nonzero(np.signbit(real[1:]) != np.signbit(real[:-1])))


def check_bound_state(beta0, n, beta_n, k_n, xs, u) -> list[str]:
    """One normalised bound state sampled on a uniform grid that has x = 0."""
    xs = np.asarray(xs, dtype=float)
    u = np.asarray(u, dtype=complex)
    tag = f"beta0={beta0} n={n}"
    if not np.all(np.isfinite(u)):
        return [f"{tag}: non-finite samples"]
    problems = []
    scale = float(np.abs(u).max())
    # shape: u against the best multiple of the independent form; the
    # normalisation is checked on its own below
    raw = bound_state_raw(beta_n, k_n, xs)
    fitted = np.vdot(raw, u) / np.vdot(raw, raw) * raw
    mismatch = float(np.abs(u - fitted).max()) / scale
    if mismatch > EIGEN_TOL:
        problems.append(f"{tag}: u differs from the parabolic-cylinder form by "
                        f"{mismatch:.2e}")
    gap = junction_gap(xs, u)
    if gap > JUNCTION_TOL:
        problems.append(f"{tag}: junction gap {gap:.2e}")
    nodes = node_count(u)
    if nodes != n:
        problems.append(f"{tag}: {nodes} nodes")
    # Simpson on the samples, plus the two tails beyond the grid
    inside = integrate.simpson(np.abs(u) ** 2, x=xs)
    d0 = special.pbdv(beta_n - 1.0, 0.0)[0]
    c2 = abs(j_beta(beta_n)) ** 2 / bound_state_norm(beta_n, k_n)
    left_tail, _ = integrate.quad(
        lambda x: c2 * (special.pbdv(beta_n - 1.0, -math.sqrt(2.0) * x)[0] / d0) ** 2,
        -np.inf, xs[0], epsabs=0.0, epsrel=1e-10)
    right_tail = abs(u[-1]) ** 2 / (2.0 * k_n)
    norm = inside + left_tail + right_tail
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"{tag}: norm {norm!r}")
    return problems


# -- packets ----------------------------------------------------------------
def packet_delay(beta0, k_center, sigma_k):
    """Finite-difference delay averaged over |c(k)|^2, k in k_center +- 6 sigma_k."""
    ks = np.linspace(k_center - 6.0 * sigma_k, k_center + 6.0 * sigma_k, 2401)
    weights = np.exp(-((ks - k_center) ** 2) / (2.0 * sigma_k ** 2))
    taus = fd_delay(beta0 + 0.5 * ks ** 2, beta0)
    return float(integrate.trapezoid(weights * taus, ks)
                 / integrate.trapezoid(weights, ks))


def check_packet_delay(beta0, k_center, sigma_k, measured, mirror) -> list[str]:
    tag = f"beta0={beta0} k={k_center:.6g}"
    if mirror:
        if not abs(measured) < MIRROR_TOL:
            return [f"{tag}: mirror delay {measured!r}"]
        return []
    expected = packet_delay(beta0, k_center, sigma_k)
    rel = abs(measured - expected) / expected
    if not rel < PACKET_DELAY_TOL:
        return [f"{tag}: measured delay {measured!r} vs {expected!r} ({rel:.3f})"]
    return []


def frame_norms(xs, psi) -> np.ndarray:
    """Simpson's rule on each side of x = 0, where the grid spacing changes."""
    xs = np.asarray(xs, dtype=float)
    rho = np.abs(np.atleast_2d(psi)) ** 2
    zero = int(np.searchsorted(xs, 0.0))
    norms = integrate.simpson(rho[:, zero:], x=xs[zero:], axis=1)
    if zero > 0:
        norms += integrate.simpson(rho[:, :zero + 1], x=xs[:zero + 1], axis=1)
    return norms


def check_frame_norms(xs, psi, frames=None) -> list[str]:
    """Every listed frame keeps the unit norm of the incoming packet."""
    norms = frame_norms(xs, psi)
    if frames is not None:
        norms = norms[list(frames)]
    worst = float(np.abs(norms - 1.0).max())
    if not worst < FRAME_NORM_TOL:
        return [f"frame norm drifts by {worst:.2e}"]
    return []


def check_packet(params, out) -> list[str]:
    return (check_packet_delay(params["beta0"], out["k_center"], out["sigma_k"],
                               out["delay"], params["mirror"])
            + check_frame_norms(out["xs"], out["psi"]))


# -- verify -------------------------------------------------------------------
def check_verify(stdout: str, report: dict) -> list[str]:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    problems = []
    if not lines or not lines[-1].startswith("all checks passed"):
        problems.append(f"verify summary: {lines[-1] if lines else '(none)'}")
    data = report.get("data", [])
    failed = [row.get("name") for row in data if not row.get("passed")]
    if not data or failed:
        problems.append(f"verify report failures: {failed or 'empty report'}")
    return problems
