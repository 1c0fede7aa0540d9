"""Contour-integral solution of the Hermite equation.

For non-integer beta the relevant solution of

    F'' - 2 y F' + (eps - 1) F = 0,        eps = 2*beta - 1,

is the loop integral of exp(-t^2 + 2ty) * t^(-beta) around the branch cut
along the positive real t-axis (argument convention arg t in [0, 2pi)).
Deforming the loop onto a circle of radius r plus the two edges of the cut
gives the numerically usable split

    F(y) = I_beta(y) - 2i e^{-i pi beta} sin(pi beta) *
           integral_r^inf exp(-t^2 + 2ty) t^(-beta) dt,

where I_beta is the circle contribution.  Both pieces are evaluated with
composite Gauss-Legendre panels and refined by doubling the node counts
until two successive evaluations agree.  (The circle integrand is periodic
only when beta is an integer, so a plain periodic trapezoid rule stalls at
a few times 1e-3 for generic beta; Gauss-Legendre panels converge
geometrically for both pieces.)

At integer beta = n+1 the cut disappears, the line term vanishes through
sin(pi*beta), and the circle integral reduces to the residue formula, so
the same code path reproduces (2 pi i / n!) * H_n(y) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .special import log_gamma

_TWO_PI = 2.0 * math.pi
_MAX_REFINEMENTS = 12


@dataclass(frozen=True)
class ContourSpec:
    """Discretization of the deformed contour.

    ``circle_nodes`` and ``line_nodes`` are the starting node counts of the
    adaptive refinement; ``line_truncation`` replaces the infinite upper
    limit of the cut-edge integral (chosen automatically when None so that
    the discarded tail is below ``target_tol / 100``).
    """

    circle_radius: float = 1.0
    line_truncation: float | None = None
    circle_nodes: int = 80
    line_nodes: int = 120
    target_tol: float = 1e-10

    def __post_init__(self):
        if self.circle_radius <= 0:
            raise DomainError("circle_radius must be positive")
        if self.line_truncation is not None and self.line_truncation <= self.circle_radius:
            raise DomainError("line_truncation must exceed circle_radius")
        if self.circle_nodes < 16 or self.line_nodes < 16:
            raise DomainError("node counts must be >= 16")
        if self.target_tol <= 0:
            raise DomainError("target_tol must be positive")


DEFAULT_CONTOUR = ContourSpec()

_NODES_PER_PANEL = 20
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)


def _panel_rule(a: float, b: float, n_nodes: int):
    """Composite Gauss-Legendre rule on [a, b] with about n_nodes nodes."""
    n_panels = max(1, int(math.ceil(n_nodes / _NODES_PER_PANEL)))
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return ((mid + half * _GL_NODES[None, :]).ravel(),
            (half * _GL_WEIGHTS[None, :]).ravel())


def _beta_of(point) -> float:
    """Accept a BetaPoint or a bare float beta."""
    return float(getattr(point, "beta", point))


def _circle_part(beta: float, y: np.ndarray, radius: float, n_nodes: int) -> np.ndarray:
    theta, w = _panel_rule(0.0, _TWO_PI, n_nodes)
    t = radius * np.exp(1j * theta)
    integrand = np.exp(1j * (1.0 - beta) * theta - t * t + 2.0 * t * y[:, None])
    return 1j * radius ** (1.0 - beta) * (integrand @ w)


def _line_part(beta: float, y: np.ndarray, radius: float, t_max: float,
               n_nodes: int) -> np.ndarray:
    t, w = _panel_rule(radius, t_max, n_nodes)
    # Single exp of the combined log integrand; keeps t^(-beta) * e^{2ty}
    # from pairing overflow with underflow when |y| is large.
    log_f = -t * t + 2.0 * t * y[:, None] - beta * np.log(t)
    return np.exp(log_f) @ w


def _auto_truncation(beta: float, y_max: float, radius: float, tol: float) -> float:
    target = math.log(tol) - math.log(100.0)
    t = max(2.0, radius + 1.0, y_max + 1.0)
    while -t * t + 2.0 * t * max(y_max, 0.0) - beta * math.log(t) > target:
        t += 0.5
    return t


def f_epsilon(point, y, contour: ContourSpec = DEFAULT_CONTOUR):
    """Evaluate the loop solution F(y) of the Hermite equation.

    Parameters
    ----------
    point : BetaPoint or float
        Spectral point; only its beta is needed.
    y : float or array
        Dimensionless position(s) alpha*x.
    contour : ContourSpec
        Quadrature discretization; node counts are doubled until two
        successive evaluations agree to ``target_tol``.

    Returns
    -------
    complex or complex ndarray matching the shape of ``y``.
    """
    beta = _beta_of(point)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    if not np.all(np.isfinite(y_arr)):
        raise DomainError("y must be finite")
    radius = contour.circle_radius
    t_max = contour.line_truncation
    if t_max is None:
        t_max = _auto_truncation(beta, float(y_arr.max(initial=0.0)), radius,
                                 contour.target_tol)
    line_factor = -2j * np.exp(-1j * math.pi * beta) * math.sin(math.pi * beta)

    n_c, n_l = contour.circle_nodes, contour.line_nodes
    previous = None
    for _ in range(_MAX_REFINEMENTS):
        value = _circle_part(beta, y_arr, radius, n_c)
        value = value + line_factor * _line_part(beta, y_arr, radius, t_max, n_l)
        if previous is not None:
            scale = 1.0 + float(np.abs(value).max())
            if float(np.abs(value - previous).max()) < contour.target_tol * scale:
                return value[0] if np.ndim(y) == 0 else value.reshape(np.shape(y))
        previous = value
        n_c *= 2
        n_l *= 2
    raise ConvergenceError(
        f"contour quadrature for beta={beta} stalled before reaching "
        f"target_tol={contour.target_tol}")


def f_epsilon_derivative(point, y, contour: ContourSpec = DEFAULT_CONTOUR):
    """dF/dy, via the recurrence F'(y) = 2 F_{beta-1}(y).

    Differentiating under the integral sign lowers beta by one and doubles
    the integrand, so no finite differencing is needed.
    """
    beta = _beta_of(point)
    return 2.0 * f_epsilon(beta - 1.0, y, contour)


def j_beta(beta: float) -> complex:
    """Boundary value J(beta) = F(0) of the loop solution.

    Evaluated in the pole-free closed form

        J(beta) = 2 pi sin(pi beta / 2) / (i e^{i pi beta} Gamma((beta+1)/2)),

    equivalent to sin(pi beta) Gamma((1-beta)/2) / (i e^{i pi beta}) by the
    reflection formula but free of the 0 * inf cancellations of the latter
    at odd integer beta.  J is entire; where 1/Gamma vanishes the value is
    exactly zero.
    """
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError("beta must be finite")
    half = 0.5 * (beta + 1.0)
    if half <= 0 and half == math.floor(half):
        return 0.0 + 0.0j  # zero of 1/Gamma
    inv_gamma = np.exp(-log_gamma(half))
    return complex(_TWO_PI * math.sin(math.pi * beta / 2.0)
                   * np.exp(-1j * math.pi * beta) * inv_gamma / 1j)


def hermite_poly(n: int, y):
    """Physicists' Hermite polynomial H_n(y) by the three-term recurrence."""
    if n < 0:
        raise DomainError("hermite_poly requires n >= 0")
    y_arr = np.asarray(y, dtype=float)
    h_prev = np.ones_like(y_arr)
    if n == 0:
        return float(h_prev) if y_arr.ndim == 0 else h_prev
    h = 2.0 * y_arr
    for k in range(1, n):
        h_prev, h = h, 2.0 * y_arr * h - 2.0 * k * h_prev
    return float(h) if y_arr.ndim == 0 else h


def asymptotic_f2(point, y):
    """Large-y reference -2i e^{-i pi beta} sqrt(pi) sin(pi beta) e^{y^2} / y^beta.

    Only meaningful for y > 0 and non-degenerate beta: at integer beta the
    loop solution is a polynomial times the residue factor and this
    expression (identically zero there) does not describe it, so those
    arguments are rejected.
    """
    beta = _beta_of(point)
    if beta >= 1.0 and beta == math.floor(beta):
        raise DomainError("asymptotic form is invalid at Hermite-degenerate integer beta")
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0):
        raise DomainError("asymptotic form requires y > 0")
    value = (-2j * np.exp(-1j * math.pi * beta) * math.sqrt(math.pi)
             * math.sin(math.pi * beta) * np.exp(y_arr**2) / y_arr**beta)
    return complex(value) if y_arr.ndim == 0 else value
