"""Composite Gauss-Legendre panels and the doubling refinement."""

import json

import mpmath as mp
import numpy as np
import pytest

from stepharm import ConvergenceError, quadrature
from tests.conftest import fresh_interpreter


class TestPanelRule:
    @pytest.mark.parametrize("panels", [1, 2, 3, 4, 5])
    def test_each_panel_is_exact_to_degree_39(self, panels):
        # 20 Legendre nodes integrate every polynomial of degree 2 * 20 - 1, up to
        # rounding: numpy's leggauss weights are within 7e-14 of their 40-digit
        # values, and these sums within 2.5e-14 of the exact integral
        rule = quadrature.panel_rule(0.3, 2.1, panels * quadrature.NODES_PER_PANEL)
        assert rule.centres.size == panels
        exact = (2.1 ** 40 - 0.3 ** 40) / 40.0
        assert abs(rule.weights @ rule.nodes ** 39 - exact) <= 5e-14 * exact

    @pytest.mark.parametrize("n_nodes", [1, 20, 57, 400])
    def test_nodes_are_centre_plus_offset(self, n_nodes):
        rule = quadrature.panel_rule(-1.7, 4.2, n_nodes)
        assert np.array_equal(rule.nodes, np.add.outer(rule.centres, rule.offsets).ravel())
        assert rule.offsets.size == quadrature.NODES_PER_PANEL

    def test_legendre_table_is_numpys_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(quadrature.NODES_PER_PANEL)
        assert np.array_equal(quadrature._GL_NODES.view(np.uint64), nodes.view(np.uint64))
        assert np.array_equal(quadrature._GL_WEIGHTS.view(np.uint64), weights.view(np.uint64))

    def test_legendre_table_against_40_digits(self):
        # the roots of P_20, polished from the table's own nodes, and their weights
        # w = 2 / ((1 - x^2) P_20'(x)^2), within the 7e-14 by which numpy's
        # weights miss their 40-digit values
        with mp.workdps(40):
            exact = [mp.findroot(lambda x: mp.legendre(20, x), mp.mpf(float(x)))
                     for x in quadrature._GL_NODES]
            weights = [2 / ((1 - x * x) * mp.diff(lambda t: mp.legendre(20, t), x) ** 2)
                       for x in exact]
        assert len(set(exact)) == 20
        assert np.abs(quadrature._GL_NODES - np.array(exact, dtype=float)).max() <= 7e-14
        assert np.abs(quadrature._GL_WEIGHTS - np.array(weights, dtype=float)).max() <= 7e-14

    def test_count_rounds_up_to_whole_panels(self):
        rule = quadrature.panel_rule(0.0, 1.0, 21)
        assert rule.centres.size == 2
        assert rule.nodes.size == rule.weights.size == 40


class TestRefine:
    def test_doubles_until_two_values_agree(self):
        # v_n = (-(2 + 8/n), 0.5) changes by 8/n from n/2 to n; tol (1 + max|v_n|)
        # with tol = 0.15 is 0.6 at n = 8 (change 1) and 0.525 at n = 16 (change 0.5)
        counts = []

        def evaluate(n):
            counts.append(n)
            return np.array([-(2.0 + 8.0 / n), 0.5])

        value = quadrature.refine(evaluate, 1, 0.15, "sum", "{} nodes")
        assert counts == [1, 2, 4, 8, 16]
        assert np.array_equal(value, [-2.5, 0.5])

    def test_stall_names_the_last_count(self):
        counts = []

        def evaluate(n):
            counts.append(n)
            return np.array([float(n)])

        with pytest.raises(ConvergenceError, match=r"^toy sum stalled: last change 160 "
                                                   r"against target_tol\*scale=3.21 "
                                                   r"\(320 toy nodes\)$"):
            quadrature.refine(evaluate, 10, 0.01, "toy sum", "{} toy nodes")
        assert len(counts) == quadrature.MAX_ROUNDS
        assert counts == [10 * 2 ** i for i in range(quadrature.MAX_ROUNDS)]


def test_import_loads_errors_alone():
    code = "import json, sys, stepharm.quadrature; print(json.dumps(sorted(sys.modules)))"
    loaded = {m for m in json.loads(fresh_interpreter(code)) if m.split(".")[0] == "stepharm"}
    assert loaded == {"stepharm", "stepharm.quadrature", "stepharm.errors"}
