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
argument.

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
(2 pi i / m!) H_m(y).

Both pieces separate in beta, so an array of beta is one block of rows
F(beta_i, y_j): the (beta x n) weights times the rows h_n, which do not
depend on beta, and the cut edge, the positive terms
w_m t_m^(-beta_i) e^{-t_m^2 + 2 t_m y_j} of the Gauss-Legendre panel rule of
quadrature, cut off where they drop below _TARGET_TOL / 100 at b, the
smallest beta.  With nodes t_m = c_p + o_q (panel centre plus offset), a term
is g_im e^{2 o_q y_j} e^{2 c_p y_j - c_p^2}: only the node factor
g_im = w_m t_m^(-beta_i) e^{-2 c_p o_q - o_q^2} depends on beta, and the
(offset x y) and (panel x y) exponentials on y alone.  Every block contracts
g with the offsets in one real matrix product, then with the panels, and
forms no (node x y) exponentials.  At bound-state sizes that product runs on
one CPU: process CPU time equals wall time in the benchmark's states
workload, and a CI step checks it.  The cut edge goes through
quadrature.refine from _LINE_NODES nodes at _TARGET_TOL.  A tolerance below a
row's round-off floor (machine epsilon times its absolute sums at the first
evaluation) raises ConvergenceError at once, as do series terms that
overflow.

Every table on y is built once per y grid: _grid_table keeps one read-only
entry per grid, under the bytes of the float64 y, with the rows h_n (keyed by
the radius, the stop limit and _SERIES_CHUNK) and, added the first time each
is used, the cut edge's node factors and exponentials (keyed by the radius,
t_max, the node count and quadrature.NODES_PER_PANEL).  A later call on the
same y (another level on a state grid, the next k round of a packet) forms
no exponential and no recurrence on y, and gets the same bits as a cold call,
which uses the same tables.  At most _TABLE_CACHE_ENTRIES grids and
_TABLE_CACHE_BYTES of arrays are kept (the four grids of the benchmark's
states workload take 4.3 MB), least recently used first out; a larger table
is used once.  A lock makes this cache, the package's one hidden state, safe
to share between threads.

interior_rows gives every interior sample of the package: one block of rows
on y plus y = 0, each checked against J(beta) = F(0) by its own F(0), and
returns the J(beta) it checked them against.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from . import quadrature
from .errors import ConvergenceError, DomainError
# _line_part's rule; bench/tracer.py (EXTRA_FUNCTIONS) looks it up under this name and
# counts its calls, in every traced module that binds it, as contour._panel_rule
from .quadrature import panel_rule as _panel_rule, refine
from .special import _sin_cos_pi, reciprocal_gamma

_TWO_PI = 2.0 * math.pi
_CIRCLE_RADIUS = 1.0
_LINE_NODES = 120  # first node count of the cut-edge refinement
_TARGET_TOL = 1e-10
_JUNCTION_TOL = 1e-8  # relative F(0) - J(beta) that interior_rows allows
_SERIES_CHUNK = 8  # series terms between two checks of the stop rule
_EPS = float(np.finfo(float).eps)
_TABLE_CACHE_ENTRIES = 8  # y grids whose tables _grid_table keeps between calls
_TABLE_CACHE_BYTES = 6 << 20  # every array of them, y keys included
_tables: OrderedDict = OrderedDict()  # y bytes -> {key: arrays}, least recently used first
_tables_lock = threading.Lock()


def _grid_table(y: np.ndarray, key: tuple, build) -> tuple:
    """Read-only arrays ``build()`` of the grid y, kept in its entry under ``key``.

    ``key`` holds every number the arrays depend on (see the module docstring);
    the least recently used grids go first, and a table above the byte cap is
    returned but not kept.
    """
    grid = y.tobytes()
    with _tables_lock:
        entry = _tables.get(grid)
        if entry is not None:
            _tables.move_to_end(grid)
            if key in entry:
                return entry[key]
    table = build()
    for array in table:
        array.flags.writeable = False
    if len(grid) + sum(a.nbytes for a in table) <= _TABLE_CACHE_BYTES:
        with _tables_lock:
            _tables.setdefault(grid, {})[key] = table
            _tables.move_to_end(grid)  # another thread may have stored it first
            while len(_tables) > _TABLE_CACHE_ENTRIES or sum(
                    len(g) + sum(a.nbytes for t in e.values() for a in t)
                    for g, e in _tables.items()) > _TABLE_CACHE_BYTES:
                _tables.popitem(last=False)
    return table


def _hermite_rows(y: np.ndarray, radius: float, limit: float) -> np.ndarray:
    """Rows h_n(y) = H_n(y) r^n / n! of the circle series, until the stop rule holds.

    The stop rule (see the module docstring) is checked every _SERIES_CHUNK
    terms against ``limit``; terms that overflow raise ConvergenceError.
    """
    two_g = 4.0 * radius * (float(np.abs(y).max()) + radius)
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
                    f"Hermite series of the circle overflows at "
                    f"min y={float(y.min())}, max y={float(y.max())} "
                    f"({n + 1} terms)")
            if n + 1 > two_g and tail <= limit:
                break
    return np.array(rows)


def _circle_part(beta: np.ndarray, y: np.ndarray, radius: float, tol: float):
    """Circle arcs I_beta(y) of a 1-D array beta, one Hermite series for the block.

    Returns the (beta x y) values, the absolute sums of the series terms (their
    round-off scale), the number of terms summed and the (beta x 1) factors
    -2i e^{-i pi beta} sin(pi beta) of the cut edge.
    """
    prefactor = radius ** (1.0 - beta)
    largest = float(prefactor.max())
    if not (0.0 < float(prefactor.min()) and largest < math.inf):
        i = int(np.argmax(~((prefactor > 0.0) & (prefactor < math.inf))))
        raise ConvergenceError(
            f"circle prefactor r^(1-beta)={prefactor[i]} is out of range for "
            f"r={radius}, beta={beta[i]}")
    limit = tol / (400.0 * _TWO_PI * largest)
    (h,) = _grid_table(y, ("hermite", radius, limit, _SERIES_CHUNK),
                       lambda: (_hermite_rows(y, radius, limit),))
    n = h.shape[0] - 1
    # With beta = k + f, k = round(beta), the weight 2 pi e^{i pi a} sinc(a)
    # is 2 pi e^{-i pi f} d_n, d_n = -sin(pi f) / (pi a_n), and d_n = 1 at
    # a_n = 0.  Splitting off the integer k keeps every other d_n exactly
    # zero at integer beta, so only the residue term is left there.  The cut
    # edge's e^{-i pi beta} sin(pi beta) is e^{-i pi f} sin(pi f), zero there too.
    whole = np.round(beta)
    frac = (beta - whole)[:, None]
    sine, cosine = _sin_cos_pi(frac)
    phase = cosine - 1j * sine
    a = (np.arange(n + 1) + (1.0 - whole)[:, None]) - frac
    d = np.divide(-sine, np.pi * a, out=np.ones_like(a), where=a != 0.0)
    scale = _TWO_PI * prefactor[:, None]
    value = 1j * scale * phase * np.einsum("bn,ny->by", d, h)
    abs_sum = scale * np.einsum("bn,ny->by", np.abs(d), np.abs(h))
    return value, abs_sum, n + 1, -2j * phase * sine


def _line_tables(y: np.ndarray, radius: float, t_max: float, n_nodes: int) -> tuple:
    """log g at beta = 0 and log t by node, e^{2 o y} and e^{2 c y - c^2}: the cut edge tables."""
    rule = _panel_rule(radius, t_max, n_nodes)
    # t^2 - c^2 = o (2c + o), exact to rounding where t^2 and c^2 are large
    log_g0 = np.log(rule.weights) - (rule.offsets * np.add.outer(2.0 * rule.centres,
                                                                 rule.offsets)).ravel()
    offset = np.multiply.outer(2.0 * rule.offsets, y)
    panel = np.multiply.outer(2.0 * rule.centres, y) - (rule.centres * rule.centres)[:, None]
    return log_g0, np.log(rule.nodes), np.exp(offset, out=offset), np.exp(panel, out=panel)


def _line_part(beta: np.ndarray, y: np.ndarray, radius: float, t_max: float,
               n_nodes: int) -> np.ndarray:
    # t = c_p + o_q: w t^(-beta) e^{-t^2 + 2ty} = g e^{2 o_q y} e^{2 c_p y - c_p^2}, and only
    # g = w t^(-beta) e^{-2 c_p o_q - o_q^2} depends on beta; the y tables are the grid's
    # kept ones.  e^{2 c_p y - c_p^2} = e^{y^2 - (c_p - y)^2} is at most 1 for y <= 0 and
    # e^{y^2}, the size of the largest term, for y > 0, and |o_q| is at most half a panel,
    # so no factor overflows before the terms or the circle series do.
    key = ("line", radius, t_max, n_nodes, quadrature.NODES_PER_PANEL)
    log_g0, log_t, offset, panel = _grid_table(
        y, key, lambda: _line_tables(y, radius, t_max, n_nodes))
    g = np.exp(log_g0 - np.multiply.outer(beta, log_t))
    per_panel = g.reshape(-1, offset.shape[0]) @ offset
    return np.einsum("bpy,py->by", per_panel.reshape(beta.size, -1, y.size), panel)


def _auto_truncation(beta: float, y_max: float, radius: float, tol: float) -> float:
    target = math.log(tol) - math.log(100.0)
    t = max(2.0, radius + 1.0, y_max + 1.0)
    while -t * t + 2.0 * t * max(y_max, 0.0) - beta * math.log(t) > target:
        t += 0.5
    return t


def f_epsilon(beta, y):
    """Loop solution F(beta, y) of the Hermite equation (see the module docstring).

    An array of beta is one block: one series, one cut-off at its smallest
    beta and one refinement serve every row, with max|F| over the block.
    The refinement stops on that max|F| and all rows share one node count,
    so a value can move within _TARGET_TOL * (1 + max|F|) with the block it
    is evaluated in: F(beta, 0) alone and among other points may differ.

    Parameters
    ----------
    beta : float or array
        Spectral coordinate(s) (epsilon + 1) / 2.
    y : float or array
        Dimensionless position(s) alpha*x.

    Returns
    -------
    complex or complex ndarray of shape ``shape(beta) + shape(y)``.

    Raises
    ------
    DomainError
        If a beta or a y is not finite.
    ConvergenceError
        If the series overflows, if the tolerance is below the round-off
        floor of the sums of a row (naming the first such beta), or if the
        refinement stalls.
    """
    b = np.asarray(beta, dtype=float).ravel()
    y_arr = np.asarray(y, dtype=float).ravel()
    if not np.isfinite(b).all():
        raise DomainError("beta must be finite")
    if not np.isfinite(y_arr).all():
        raise DomainError("y must be finite")
    shape = np.shape(beta) + np.shape(y)
    if b.size == 0 or y_arr.size == 0:
        return np.empty(shape, dtype=complex)
    radius, tol = _CIRCLE_RADIUS, _TARGET_TOL
    t_max = _auto_truncation(float(b.min()), float(y_arr.max(initial=0.0)), radius, tol)
    circle, circle_abs, n_terms, line_factor = _circle_part(b, y_arr, radius, tol)

    def value_at(n_l: int) -> np.ndarray:
        line = _line_part(b, y_arr, radius, t_max, n_l)
        value = circle + line_factor * line
        if n_l == _LINE_NODES:  # the round-off floor of each row, before any doubling
            allowed = tol * (1.0 + np.abs(value).max(axis=1))
            floor = _EPS * (circle_abs + np.abs(line_factor) * line).max(axis=1)
            above = allowed > floor
            if not above.all():
                i = int(np.argmin(above))  # the first row that fails
                raise ConvergenceError(
                    f"contour for beta={b[i]}: target_tol*scale={allowed[i]:.3g} is "
                    f"below the round-off floor {floor[i]:.3g} of the sums "
                    f"({n_terms} series terms, {n_l} line nodes)")
        return value

    what = f"beta={b[0]}" if b.size == 1 else f"beta in [{b.min()}, {b.max()}]"
    value = refine(value_at, _LINE_NODES, tol, f"contour for {what}",
                    f"{n_terms} series terms, {{}} line nodes")
    return value.reshape(shape)[()]


def f_epsilon_derivative(beta, y):
    """dF/dy, via the recurrence F'(y) = 2 F_{beta-1}(y), for a beta or an array of beta.

    Differentiating under the integral sign lowers beta by one and doubles
    the integrand, so no finite differencing is needed.
    """
    return 2.0 * f_epsilon(np.asarray(beta, dtype=float) - 1.0, y)


def j_beta(beta):
    """Boundary value J(beta) = F(0) of the loop solution, for scalars or arrays.

    Evaluated in the pole-free closed form

        J(beta) = 2 pi sin(pi beta / 2) / (i e^{i pi beta} Gamma((beta+1)/2)),

    equivalent to sin(pi beta) Gamma((1-beta)/2) / (i e^{i pi beta}) by the
    reflection formula but free of the 0 * inf cancellations of the latter
    at odd integer beta.  J is entire and exactly zero at its zeros: even
    beta, where special._sin_cos_pi gives sin(pi beta / 2) = 0, and negative
    odd beta, where 1/Gamma vanishes.  Both are real arithmetic, so each
    element gets the same bits whatever the shape of the call.  A scalar
    argument returns a complex.
    """
    b = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(b)):
        raise DomainError("beta must be finite")
    value, _ = _j_and_scale(b)
    return complex(value) if b.ndim == 0 else value


def _j_and_scale(b: np.ndarray):
    """J(b) and 2 pi / Gamma((b+1)/2), both from one evaluation of 1/Gamma (see j_beta).

    With s, c = sin, cos(pi b / 2), e^{-i pi b} / i = -sin(pi b) - i cos(pi b)
    = -2sc - i (c - s)(c + s): each part of J is a product of reals.
    """
    scale = _TWO_PI * reciprocal_gamma(0.5 * (b + 1.0))
    s, c = _sin_cos_pi(b / 2.0)
    amplitude = scale * s
    return amplitude * (-2.0 * s * c) - 1j * (amplitude * ((c - s) * (c + s))), scale


def interior_rows(betas, y: np.ndarray):
    """Rows F(beta_i, y) of one f_epsilon block on y plus y = 0, and the J(beta_i).

    A row whose own F(0) misses J(beta_i) by more than _JUNCTION_TOL of
    2 pi / Gamma((beta_i+1)/2) (J without its factor sin(pi beta / 2), zero at
    even beta) raises ConvergenceError naming the first such beta, after the
    block is formed.  A row that f_epsilon itself refuses raises from
    f_epsilon first: high beta on y far below 0 reaches the round-off floor
    of its sums there (bound states from beta_n ~ 59 at beta0 = 60 on
    y >= -14, from beta_n ~ 86 at beta0 = 200 on y >= -23).
    """
    betas = np.asarray(betas, dtype=float)
    js, scales = _j_and_scale(betas)
    rows = f_epsilon(betas, np.append(y, 0.0))
    mismatch = np.divide(np.abs(rows[:, -1] - js), scales,
                         out=np.full(betas.shape, math.inf), where=scales > 0.0)
    within = mismatch <= _JUNCTION_TOL
    if not within.all():
        i = int(np.argmin(within))  # the first row that fails
        raise ConvergenceError(
            f"contour solution for beta={betas[i]:.12g} misses J(beta) at the "
            f"junction by {mismatch[i]:.3g} relative to 2 pi / Gamma((beta+1)/2) "
            f"(tolerance {_JUNCTION_TOL:g})")
    return rows[:, :-1], js


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

