"""Contour-integral solution of the Hermite equation.

For non-integer beta the relevant solution of

    F'' - 2 y F' + (eps - 1) F = 0,        eps = 2*beta - 1,

is the loop integral of exp(-t^2 + 2ty) * t^(-beta) around the branch cut
along the positive real t-axis (argument convention arg t in [0, 2pi)).
Deforming the loop onto a circle of radius r plus the two edges of the cut
gives the numerically usable split

    F(y) = I_beta(y) - 2i e^{-i pi beta} sin(pi beta) *
           integral_r^inf exp(-t^2 + 2ty) t^(-beta) dt,

where I_beta is the circle contribution.  By Cauchy's theorem any radius
gives the same F; the module fixes r = _CIRCLE_RADIUS = 1 and the
tolerance _TARGET_TOL = 1e-10 below, and passes r to the helpers as an
argument so that it can become a function of beta in one place.

The circle is summed in closed form.  The Hermite generating function
exp(2ty - t^2) = sum_n H_n(y) t^n / n! (DLMF 18.12.15), integrated term by
term over t = r e^{i theta}, gives the exact series

    I_beta(y) = i r^{1-beta} sum_n h_n(y) 2 pi e^{i pi a_n} sinc(a_n),
    h_n = H_n(y) r^n / n!,        a_n = n + 1 - beta,

with h_{n+1} = (2ry h_n - 2r^2 h_{n-1}) / (n+1).  Once n+1 exceeds
2g, g = 2r(max|y| + r), each h_n is below half the larger of the two
before it, so the tail after h_n is at most 2 max(|h_n|, |h_{n-1}|) times
the weight bound 2 pi r^{1-beta}; the series stops when that bound,
doubled, is below _TARGET_TOL / 100.  At integer beta = m+1 every sinc
vanishes but the n = m one, and the series is the residue formula
(2 pi i / m!) H_m(y).  The sum over n is one real contraction.

The cut-edge integral is a composite Gauss-Legendre sum of positive terms
up to the point where the integrand drops below _TARGET_TOL / 100.  It
starts from _LINE_NODES nodes and doubles them until two successive values
of F agree to _TARGET_TOL relative to 1 + max|F|.  A tolerance below the
round-off floor of the two sums (machine epsilon times their absolute
sums) cannot be confirmed in double precision and raises ConvergenceError
at once, as do series terms that overflow.  No reduction goes through BLAS.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .special import log_gamma

_TWO_PI = 2.0 * math.pi
_CIRCLE_RADIUS = 1.0
_LINE_NODES = 120  # first node count of the cut-edge refinement
_TARGET_TOL = 1e-10
_JUNCTION_TOL = 1e-8  # relative F(0) - J(beta) that the junction checks allow
_MAX_REFINEMENTS = 12
_SERIES_CHUNK = 8  # series terms between two checks of the stop rule
_EPS = float(np.finfo(float).eps)


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


def _circle_part(beta: float, y: np.ndarray, radius: float, tol: float):
    """Circle arc I_beta(y) as the Hermite series (see the module docstring).

    Returns the values, the absolute sum of the series terms at each y (its
    round-off scale) and the number of terms summed.
    """
    prefactor = radius ** (1.0 - beta)
    if not 0.0 < prefactor < math.inf:
        raise ConvergenceError(
            f"circle prefactor r^(1-beta)={prefactor} is out of range for "
            f"r={radius}, beta={beta}")
    two_g = 4.0 * radius * (float(np.abs(y).max()) + radius)
    limit = tol / (400.0 * _TWO_PI * prefactor)
    ry, r2 = 2.0 * radius * y, 2.0 * radius * radius
    rows = [np.ones_like(y), ry]
    n = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            for _ in range(_SERIES_CHUNK):
                rows.append((ry * rows[n] - r2 * rows[n - 1]) / (n + 1))
                n += 1
            tail = max(float(np.abs(rows[n]).max()), float(np.abs(rows[n - 1]).max()))
            if not math.isfinite(tail):
                raise ConvergenceError(
                    f"Hermite series of the circle overflows for beta={beta} at "
                    f"min y={float(y.min())}, max y={float(y.max())} "
                    f"({n + 1} terms)")
            if n + 1 > two_g and tail <= limit:
                break
    h = np.array(rows)
    # With beta = k + f, k = round(beta), the weight 2 pi e^{i pi a} sinc(a)
    # is 2 pi e^{-i pi f} d_n, d_n = -sin(pi f) / (pi a_n), and d_n = 1 at
    # a_n = 0.  Splitting off the integer k keeps every other d_n exactly
    # zero at integer beta, so only the residue term is left there.
    whole = round(beta)
    frac = beta - whole
    a = (np.arange(n + 1) + (1.0 - whole)) - frac
    d = np.divide(-math.sin(math.pi * frac), math.pi * a, out=np.ones_like(a),
                  where=a != 0.0)
    scale = _TWO_PI * prefactor
    value = 1j * scale * np.exp(-1j * math.pi * frac) * np.einsum("n,ny->y", d, h)
    abs_sum = scale * np.einsum("n,ny->y", np.abs(d), np.abs(h))
    return value, abs_sum, n + 1


def _line_part(beta: float, y: np.ndarray, radius: float, t_max: float,
               n_nodes: int) -> np.ndarray:
    t, w = _panel_rule(radius, t_max, n_nodes)
    # Single exp of the combined log integrand, weights included; keeps
    # t^(-beta) * e^{2ty} from pairing overflow with underflow when |y| is
    # large.  Every term is positive.
    log_f = np.multiply.outer(y, 2.0 * t)
    log_f += np.log(w) - t * t - beta * np.log(t)
    return np.exp(log_f, out=log_f).sum(axis=1)


def _auto_truncation(beta: float, y_max: float, radius: float, tol: float) -> float:
    target = math.log(tol) - math.log(100.0)
    t = max(2.0, radius + 1.0, y_max + 1.0)
    while -t * t + 2.0 * t * max(y_max, 0.0) - beta * math.log(t) > target:
        t += 0.5
    return t


def f_epsilon(beta: float, y):
    """Evaluate the loop solution F(y) of the Hermite equation.

    The contour is fixed: the circle of radius ``_CIRCLE_RADIUS`` is summed
    as its Hermite series down to ``_TARGET_TOL / 100``, and the cut-edge
    sum, cut off where its integrand falls below ``_TARGET_TOL / 100``,
    starts from ``_LINE_NODES`` nodes and doubles them until two successive
    values of F agree to ``_TARGET_TOL`` relative to 1 + max|F|.

    Parameters
    ----------
    beta : float
        Spectral coordinate (epsilon + 1) / 2.
    y : float or array
        Dimensionless position(s) alpha*x.

    Returns
    -------
    complex or complex ndarray matching the shape of ``y``.

    Raises
    ------
    ConvergenceError
        If the series overflows, if the tolerance is below the round-off
        floor of the sums, or if the refinement stalls.
    """
    beta = float(beta)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    if not np.all(np.isfinite(y_arr)):
        raise DomainError("y must be finite")
    radius, tol = _CIRCLE_RADIUS, _TARGET_TOL
    t_max = _auto_truncation(beta, float(y_arr.max(initial=0.0)), radius, tol)
    line_factor = -2j * np.exp(-1j * math.pi * beta) * math.sin(math.pi * beta)

    circle, circle_abs, n_terms = _circle_part(beta, y_arr, radius, tol)
    n_l = _LINE_NODES
    previous, change = None, math.inf
    for _ in range(_MAX_REFINEMENTS):
        line = _line_part(beta, y_arr, radius, t_max, n_l)
        value = circle + line_factor * line
        allowed = tol * (1.0 + float(np.abs(value).max()))
        if previous is None:
            floor = _EPS * float((circle_abs + abs(line_factor) * line).max())
            if not allowed > floor:
                raise ConvergenceError(
                    f"contour for beta={beta}: target_tol*scale={allowed:.3g} is "
                    f"below the round-off floor {floor:.3g} of the sums "
                    f"({n_terms} series terms, {n_l} line nodes)")
        else:
            change = float(np.abs(value - previous).max())
            if change < allowed:
                return value[0] if np.ndim(y) == 0 else value.reshape(np.shape(y))
        previous = value
        n_l *= 2
    raise ConvergenceError(
        f"contour for beta={beta} stalled: last change {change:.3g} "
        f"against target_tol*scale={allowed:.3g} ({n_terms} series terms, "
        f"{n_l // 2} line nodes)")


def f_epsilon_derivative(beta: float, y):
    """dF/dy, via the recurrence F'(y) = 2 F_{beta-1}(y).

    Differentiating under the integral sign lowers beta by one and doubles
    the integrand, so no finite differencing is needed.
    """
    return 2.0 * f_epsilon(float(beta) - 1.0, y)


def j_beta(beta):
    """Boundary value J(beta) = F(0) of the loop solution, for scalars or arrays.

    Evaluated in the pole-free closed form

        J(beta) = 2 pi sin(pi beta / 2) / (i e^{i pi beta} Gamma((beta+1)/2)),

    equivalent to sin(pi beta) Gamma((1-beta)/2) / (i e^{i pi beta}) by the
    reflection formula but free of the 0 * inf cancellations of the latter
    at odd integer beta.  J is entire; where 1/Gamma vanishes the value is
    exactly zero.  1/Gamma is real, so only the real part of the complex
    exponential is kept: each element then gets the same bits whatever the
    shape of the call.  A scalar argument returns a complex.
    """
    b = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(b)):
        raise DomainError("beta must be finite")
    half = 0.5 * (b + 1.0)
    zero = (half <= 0) & (half == np.floor(half))  # zeros of 1/Gamma
    inv_gamma = np.exp(-log_gamma(np.where(zero, 1.0, half))).real
    value = np.where(zero, 0j, _TWO_PI * np.sin(np.pi * b / 2.0)
                     * np.exp(-1j * np.pi * b) * inv_gamma / 1j)
    return complex(value) if b.ndim == 0 else value


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


def asymptotic_f2(beta: float, y):
    """Large-y reference -2i e^{-i pi beta} sqrt(pi) sin(pi beta) e^{y^2} / y^beta.

    Only meaningful for y > 0 and non-degenerate beta: at integer beta the
    loop solution is a polynomial times the residue factor and this
    expression (identically zero there) does not describe it, so those
    arguments are rejected.
    """
    beta = float(beta)
    if beta >= 1.0 and beta == math.floor(beta):
        raise DomainError("asymptotic form is invalid at Hermite-degenerate integer beta")
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0):
        raise DomainError("asymptotic form requires y > 0")
    value = (-2j * np.exp(-1j * math.pi * beta) * math.sqrt(math.pi)
             * math.sin(math.pi * beta) * np.exp(y_arr**2) / y_arr**beta)
    return complex(value) if y_arr.ndim == 0 else value
