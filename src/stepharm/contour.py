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

The rows h_n do not depend on beta, so they are built once per y grid:
_hermite_table keeps each (terms x y) table, read-only, under the bytes of
the float64 y, the radius, the stop limit and _SERIES_CHUNK.  A later call
on the same y (another level on a state grid, the next k round of a packet,
a repeated F(0)) skips the recurrence and gets the same bits as a cold
call.  At most _TABLE_CACHE_ENTRIES tables and _TABLE_CACHE_BYTES are
kept, the least recently used going first; a larger table is used once
and dropped.  A lock makes the cache safe to share between threads.

Both pieces separate in beta, so an array of beta is one block of rows
F(beta_i, y_j): the (beta x n) weights times the rows h_n, which do not
depend on beta, and the cut edge, the factors t_m^(b - beta_i), b the
smallest beta, times the positive terms w_m t_m^(-b) e^{-t_m^2 + 2 t_m y_j}
of a composite Gauss-Legendre rule, cut off where they drop below
_TARGET_TOL / 100.  With nodes t_m = c_p + o_q (panel centre plus offset),
e^{2 t_m y_j} = e^{2 c_p y_j} e^{2 o_q y_j}, so every block forms (offset x y)
and (panel x y) exponentials, never (node x y) ones, and contracts the
offsets in one real matrix product, then the panels.  At bound-state sizes
that product runs on one CPU: process CPU time equals wall time in the
benchmark's states workload, and a CI step checks it.  The cut edge goes
through _refine, the one doubling refinement of the package: _LINE_NODES
nodes, doubled until two successive blocks agree to _TARGET_TOL relative to
1 + max|F|, with ConvergenceError after _MAX_ROUNDS evaluations.  A
tolerance below a row's round-off floor (machine epsilon times its absolute
sums at the first evaluation) raises ConvergenceError at once, as do series
terms that overflow.

interior_rows gives every interior sample of the package: one block of rows
on y plus y = 0, each checked against J(beta) = F(0) by its own F(0), and
returns the J(beta) it checked them against.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .special import _sin_cos_pi, reciprocal_gamma

_TWO_PI = 2.0 * math.pi
_CIRCLE_RADIUS = 1.0
_LINE_NODES = 120  # first node count of the cut-edge refinement
_TARGET_TOL = 1e-10
_JUNCTION_TOL = 1e-8  # relative F(0) - J(beta) that interior_rows allows
_MAX_ROUNDS = 6  # evaluations of an adaptive sum before _refine gives up
_SERIES_CHUNK = 8  # series terms between two checks of the stop rule
_EPS = float(np.finfo(float).eps)
_TABLE_CACHE_ENTRIES = 8  # Hermite tables _hermite_table keeps between calls
_TABLE_CACHE_BYTES = 4 << 20  # their total size, y keys included
_tables: OrderedDict = OrderedDict()  # key -> table, least recently used first
_tables_lock = threading.Lock()


_NODES_PER_PANEL = 20
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)


class _PanelRule(NamedTuple):
    """Composite Gauss-Legendre rule in the factors of its nodes.

    Node p * len(offsets) + q is nodes = centres[p] + offsets[q]: the
    equal-width panels share one half-width, hence their node offsets from
    the panel centre and their weights.
    """

    nodes: np.ndarray
    weights: np.ndarray
    centres: np.ndarray
    offsets: np.ndarray


def _panel_rule(a: float, b: float, n_nodes: int) -> _PanelRule:
    """Composite Gauss-Legendre rule on [a, b] with about n_nodes nodes."""
    n_panels = max(1, int(math.ceil(n_nodes / _NODES_PER_PANEL)))
    edges = np.linspace(a, b, n_panels + 1)
    centres = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (b - a) / n_panels
    offsets = half * _GL_NODES
    return _PanelRule(np.add.outer(centres, offsets).ravel(),
                      np.multiply.outer(np.full(n_panels, half), _GL_WEIGHTS).ravel(),
                      centres, offsets)


def _refine(evaluate, n_nodes: int, tol: float, what: str, nodes: str):
    """evaluate(n) at n = n_nodes, 2 n_nodes, ... until two successive values agree.

    Returns the first value v_n with max|v_n - v_{n/2}| < tol (1 + max|v_n|).
    After _MAX_ROUNDS evaluations raises ConvergenceError naming ``what``,
    the last change, the change allowed and the node count, written into
    ``nodes`` by str.format.
    """
    previous = evaluate(n_nodes)
    for _ in range(_MAX_ROUNDS - 1):
        n_nodes *= 2
        value = evaluate(n_nodes)
        allowed = tol * (1.0 + float(np.abs(value).max(initial=0.0)))
        change = float(np.abs(value - previous).max(initial=0.0))
        if change < allowed:
            return value
        previous = value
    raise ConvergenceError(
        f"{what} stalled: last change {change:.3g} against "
        f"target_tol*scale={allowed:.3g} ({nodes.format(n_nodes)})")


def _hermite_table(y: np.ndarray, radius: float, limit: float) -> np.ndarray:
    """Read-only (terms x y) rows h_n(y) of _hermite_rows, kept between calls.

    The key is the bytes of the float64 y and every number the rows depend
    on, so a later call on the same y gets the same bits without the
    recurrence.  The least recently used tables go first once there are more
    than _TABLE_CACHE_ENTRIES of them or more than _TABLE_CACHE_BYTES; a
    larger table is returned but not kept.
    """
    key = (y.tobytes(), radius, limit, _SERIES_CHUNK)
    with _tables_lock:
        h = _tables.get(key)
        if h is not None:
            _tables.move_to_end(key)
            return h
    h = _hermite_rows(y, radius, limit)
    h.flags.writeable = False
    if h.nbytes + len(key[0]) <= _TABLE_CACHE_BYTES:
        with _tables_lock:
            _tables[key] = h
            _tables.move_to_end(key)  # another thread may have stored it first
            while (len(_tables) > _TABLE_CACHE_ENTRIES
                   or sum(t.nbytes + len(k[0]) for k, t in _tables.items()) > _TABLE_CACHE_BYTES):
                _tables.popitem(last=False)
    return h


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
    h = _hermite_table(y, radius, tol / (400.0 * _TWO_PI * largest))
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


def _line_part(beta: np.ndarray, y: np.ndarray, radius: float, t_max: float,
               n_nodes: int) -> np.ndarray:
    # t^(-beta_i) = t^(-b) t^(b - beta_i), b the smallest beta, t^(b - beta_i) <= 1
    # for t >= 1; t = c_p + o_q gives e^{2ty} = e^{2 c_p y} e^{2 o_q y}.  The
    # y-free terms, log weights included, are taken relative to -c_p^2 - b log c_p,
    # their value at the panel centre; the (node) and (offset x y) factors then
    # multiply to about e^{2 o_q (y - c_p)}, near 1 in the panels of the largest
    # terms (c_p ~ y), so no factor overflows before the terms themselves do.
    rule = _panel_rule(radius, t_max, n_nodes)
    lowest = float(beta.min())
    t = rule.nodes.reshape(rule.centres.size, rule.offsets.size)
    centre = -rule.centres * rule.centres - lowest * np.log(rule.centres)
    g = t ** (lowest - beta)[:, None, None]
    g *= np.exp(np.log(rule.weights.reshape(t.shape)) - t * t - lowest * np.log(t)
                - centre[:, None])
    offset = np.multiply.outer(2.0 * rule.offsets, y)
    per_panel = g.reshape(-1, t.shape[1]) @ np.exp(offset, out=offset)
    panel = np.multiply.outer(2.0 * rule.centres, y) + centre[:, None]
    return np.einsum("bpy,py->by", per_panel.reshape(beta.size, -1, y.size), np.exp(panel))


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
    value = _refine(value_at, _LINE_NODES, tol, f"contour for {what}",
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

