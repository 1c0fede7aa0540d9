"""Composite Gauss-Legendre panels and the package's one doubling refinement.

refine evaluates a sum at n, 2n, 4n, ... nodes and returns the first value within
tol (1 + max|value|) of the one before, with ConvergenceError after MAX_ROUNDS.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

NODES_PER_PANEL = 20
MAX_ROUNDS = 6  # evaluations of an adaptive sum before refine gives up
# numpy.polynomial.legendre.leggauss(20) bit for bit, as literals so that no
# process loads numpy.polynomial: the positive nodes and their weights, mirrored
_HALF_NODES = (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
               0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
               0.9639719272779138, 0.993128599185095)
_HALF_WEIGHTS = (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
                 0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
                 0.040601429800386446, 0.017614007139150893)
_GL_NODES = np.array([-x for x in reversed(_HALF_NODES)] + list(_HALF_NODES))
_GL_WEIGHTS = np.array(list(reversed(_HALF_WEIGHTS)) + list(_HALF_WEIGHTS))


class PanelRule(NamedTuple):
    """Composite Gauss-Legendre rule in the factors of its nodes.

    Node p * len(offsets) + q is nodes = centres[p] + offsets[q]: the
    equal-width panels share one half-width, hence their node offsets from
    the panel centre and their weights.
    """

    nodes: np.ndarray
    weights: np.ndarray
    centres: np.ndarray
    offsets: np.ndarray


def panel_rule(a: float, b: float, n_nodes: int) -> PanelRule:
    """Composite Gauss-Legendre rule on [a, b] with about n_nodes nodes."""
    n_panels = max(1, int(math.ceil(n_nodes / NODES_PER_PANEL)))
    edges = np.linspace(a, b, n_panels + 1)
    centres = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (b - a) / n_panels
    offsets = half * _GL_NODES
    return PanelRule(np.add.outer(centres, offsets).ravel(),
                     np.multiply.outer(np.full(n_panels, half), _GL_WEIGHTS).ravel(),
                     centres, offsets)


def refine(evaluate, n_nodes: int, tol: float, what: str, nodes: str):
    """evaluate(n) at n = n_nodes, 2 n_nodes, ... until max|v_n - v_{n/2}| < tol (1 + max|v_n|).

    The ConvergenceError names ``what``, the last change, the change allowed
    and the node count, written into ``nodes`` by str.format.
    """
    previous = evaluate(n_nodes)
    for _ in range(MAX_ROUNDS - 1):
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
