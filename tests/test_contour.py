"""Loop-integral solution F(y): boundary values, degeneracies, ODE residual."""

import math
import sys
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from stepharm import (ConvergenceError, DomainError, PotentialConfig, WavePacketSpec,
                      contour, f_epsilon, f_epsilon_derivative, hermite_poly, j_beta,
                      wavepacket)

EPS = np.finfo(float).eps

GAMMA_QUARTER = 3.6256099082219083


def j_literal(beta: float) -> complex:
    """Textbook form sin(pi b) Gamma((1-b)/2) / (i e^{i pi b}); poles at odd b."""
    return (math.sin(math.pi * beta) / (1j * np.exp(1j * math.pi * beta))
            * sps.gamma((1.0 - beta) / 2.0))


def f_parabolic_cylinder(beta: float, y: float) -> complex:
    """F(beta, y) = -2 pi i e^{-i pi beta} G / Gamma(beta) at 30 digits.

    G = 2^((beta-1)/2) e^{y^2/2} D_{beta-1}(-sqrt(2) y) solves the Hermite
    equation; at y = 0 this F is J(beta), by the duplication formula.
    """
    with mp.workdps(30):
        b, t = mp.mpf(beta), mp.mpf(y)
        g = 2 ** ((b - 1) / 2) * mp.exp(t * t / 2) * mp.pcfd(b - 1, -mp.sqrt(2) * t)
        return complex(-2j * mp.pi * mp.expjpi(-b) * g / mp.gamma(b))


class TestJBeta:
    def test_zero(self):
        assert j_beta(0.0) == 0.0

    def test_one_is_two_pi_i(self):
        assert j_beta(1.0) == pytest.approx(2j * np.pi, abs=1e-12)

    def test_half_is_minus_gamma_quarter(self):
        assert j_beta(0.5) == pytest.approx(-GAMMA_QUARTER, abs=1e-12)

    @pytest.mark.parametrize("beta", [-1.0, -3.0, -5.0])
    def test_negative_odd_zeros(self, beta):
        assert j_beta(beta) == 0.0

    @pytest.mark.parametrize("beta", [-1.5, -0.5, 0.3, 0.7, 0.9, 1.3, 2.6, 4.1, 5.7])
    def test_agrees_with_literal_gamma_form(self, beta):
        # the pole-free rearrangement must match the raw expression away
        # from integers before it is trusted anywhere else
        assert j_beta(beta) == pytest.approx(j_literal(beta), rel=1e-12)

    def test_array_matches_scalar_calls_bit_for_bit(self):
        # negative odd integers are the exact zeros of 1/Gamma, even
        # integers the zeros of sin(pi beta / 2)
        betas = np.concatenate([np.linspace(-7.3, 60.0, 1347), np.arange(-6.0, 41.0)])
        values = j_beta(betas)
        scalars = np.array([j_beta(float(beta)) for beta in betas])
        assert values.shape == betas.shape
        assert np.array_equal(values.view(np.uint64), scalars.view(np.uint64))
        assert np.all(values[np.isin(betas, [-1.0, -3.0, -5.0])] == 0.0)

    def test_exactly_zero_at_even_beta(self):
        evens = np.arange(-40.0, 41.0, 2.0)
        assert np.all(j_beta(evens) == 0.0)
        assert all(j_beta(b) == 0.0 for b in evens.tolist())

    def test_relative_accuracy_next_to_even_zeros(self):
        # sin(pi beta / 2) of an exactly reduced argument keeps J's relative
        # accuracy where it vanishes
        evens = np.arange(2.0, 41.0, 2.0)
        betas = np.concatenate([np.linspace(0.05, 60.0, 1200), evens + 1e-9, evens - 3e-12])
        with mp.workdps(40):
            exact = np.array([complex(2 * mp.pi * mp.sinpi(b / 2) * mp.expjpi(-b)
                                      * mp.rgamma((b + 1) / 2) / 1j)
                              for b in map(mp.mpf, betas.tolist())])
        assert np.all(np.abs(j_beta(betas) - exact) <= 1e-13 * np.abs(exact))

    def test_scalar_returns_python_complex(self):
        assert type(j_beta(2.5)) is complex
        assert type(j_beta(-3.0)) is complex

    def test_against_mpmath_through_the_reflection(self):
        # (beta + 1)/2 < 1/2 for beta < 0: 1/Gamma reflected, its sign from sin(pi x)
        betas = np.linspace(-9.5, 0.9, 521)
        with mp.workdps(40):
            exact = np.array([complex(2 * mp.pi * mp.sin(mp.pi * b / 2) * mp.exp(-1j * mp.pi * b)
                                      * mp.rgamma((b + 1) / 2) / 1j)
                              for b in map(mp.mpf, betas.tolist())])
        error = np.abs(j_beta(betas) - exact)
        assert np.all(error <= 1e-13 * np.maximum(1.0, np.abs(exact)))


class TestFEpsilon:
    def test_boundary_value_is_j(self):
        for beta in np.arange(0.2, 6.0, 0.4):
            value = f_epsilon(float(beta), 0.0)
            assert value == pytest.approx(j_beta(float(beta)),
                                          abs=1e-9 * (1 + abs(j_beta(float(beta)))))

    def test_hermite_case_beta2(self):
        # beta = 2 is the n = 1 polynomial: (2 pi i / 1!) H_1(1) = 4 pi i
        assert f_epsilon(2.0, 1.0) == pytest.approx(4j * np.pi, abs=1e-10)

    def test_hermite_degeneracy_grid(self):
        ys = np.linspace(-2.0, 2.0, 9)
        for n in range(6):
            reference = 2j * np.pi * hermite_poly(n, ys) / math.factorial(n)
            values = f_epsilon(float(n + 1), ys)
            scale = 1e-6 * (1.0 + np.abs(reference))
            assert np.all(np.abs(values - reference) < scale)

    def test_against_ode_oracle(self):
        from stepharm.oracle import integrate_hermite_ode

        beta = 1.3
        grid = np.linspace(-4.0, 1.0, 101)
        marched = integrate_hermite_ode(beta, grid, j_beta(beta),
                                        2.0 * j_beta(beta - 1.0))
        direct = f_epsilon(beta, grid)
        assert np.max(np.abs(marched - direct) / np.abs(direct)) < 1e-6

    @pytest.mark.parametrize("beta", [0.8, 1.3, 2.6])
    def test_satisfies_hermite_ode(self, beta):
        # five-point stencils; the finite-difference floor, not the
        # quadrature, limits the achievable residual here
        h = 1e-2
        eps = 2.0 * beta - 1.0
        for y0 in np.linspace(-4.0, 1.0, 11):
            ys = y0 + h * np.arange(-2.0, 3.0)
            f = f_epsilon(beta, ys)
            d1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * h)
            d2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * h * h)
            residual = d2 - 2.0 * y0 * d1 + (eps - 1.0) * f[2]
            scale = 1.0 + abs(f[2]) * (1.0 + abs(y0)) ** 2
            assert abs(residual) < 1e-6 * scale

    def test_physical_solution_decays_left(self):
        for beta in (1.3, 2.6):
            u6 = abs(f_epsilon(beta, -6.0)) * math.exp(-18.0)
            u3 = abs(f_epsilon(beta, -3.0)) * math.exp(-4.5)
            assert u6 / u3 < 1e-3

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_y_gives_empty_values(self, shape):
        values = f_epsilon(2.5, np.empty(shape))
        assert values.shape == shape
        assert values.dtype == complex

    def test_radius_invariance(self, monkeypatch):
        # the loop may be realized on any radius; values must not move
        reference = f_epsilon(1.7, -1.3)
        for radius in (0.6, 1.4):
            monkeypatch.setattr(contour, "_CIRCLE_RADIUS", radius)
            assert f_epsilon(1.7, -1.3) == pytest.approx(reference, rel=1e-9)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(contour, "_TARGET_TOL", 1e-18)
        with pytest.raises(ConvergenceError):
            f_epsilon(1.3, -2.0)

    @pytest.mark.parametrize("beta", [1.3, 2.6, 3.7, 5.2, 7.9, 11.4])
    def test_against_pbdv_route(self, beta):
        # F(y) = J(beta) D_{beta-1}(-sqrt(2) y) / D_{beta-1}(0) e^{y^2/2}
        # (DLMF 12.5), over the y range of normalised bound states
        ys = np.linspace(-8.0, 3.0, 89)
        order = beta - 1.0
        reference = (j_beta(beta) * sps.pbdv(order, -math.sqrt(2.0) * ys)[0]
                     / sps.pbdv(order, 0.0)[0] * np.exp(0.5 * ys * ys))
        values = f_epsilon(beta, ys)
        assert np.all(np.abs(values - reference) <= 1e-9 * (1.0 + np.abs(reference)))

    @pytest.mark.parametrize("y", [-400.0, [-400.0, 0.0]])
    def test_overflowing_series_raises(self, y):
        with pytest.raises(ConvergenceError, match="overflows"):
            f_epsilon(2.6, y)

    @pytest.mark.parametrize("beta,y", [(1.3, -2.0), (1.3, 0.5), (4.0, -1.0), (7.3, 2.0)])
    def test_tolerance_below_round_off_floor_raises(self, beta, y, monkeypatch):
        # decided from the absolute sums before any refinement, so it does
        # not hang on two rounds agreeing by chance
        monkeypatch.setattr(contour, "_TARGET_TOL", 1e-18)
        with pytest.raises(ConvergenceError, match="round-off floor"):
            f_epsilon(beta, y)

    def test_round_off_floor_names_the_first_row_of_a_block(self, monkeypatch):
        # every row is below its floor here; the first in order is named, not the smallest
        monkeypatch.setattr(contour, "_TARGET_TOL", 1e-18)
        with pytest.raises(ConvergenceError, match=r"contour for beta=7.3: .* round-off floor"):
            f_epsilon([7.3, 1.3], -2.0)

    @pytest.mark.parametrize("beta", [6.0, 12.3, 20.7])
    def test_value_moves_with_its_block_within_the_stop_rule(self, beta):
        # the refinement stops on the call's max|F| and every point shares one
        # node count, so F(0) alone and F(0) among the 60 points of [-6, 0]
        # need not be the same bits, but differ by no more than the stop rule
        ys = np.linspace(-6.0, 0.0, 60)
        grid = f_epsilon(beta, ys)
        alone = f_epsilon(beta, 0.0)
        assert abs(grid[-1] - alone) <= contour._TARGET_TOL * (1.0 + np.abs(grid).max())

    def test_stall_names_last_change_and_budget(self, monkeypatch):
        # a cut-edge sum that moves with every doubling never settles
        monkeypatch.setattr(contour, "_line_part", lambda beta, y, radius, t_max, n_nodes:
                            np.full((beta.size, y.size), n_nodes))
        with pytest.raises(ConvergenceError,
                           match=r"last change \S+ against target_tol\*scale=\S+ "
                                 r"\(\d+ series terms, 3840 line nodes\)"):
            f_epsilon(1.3, -1.0)


class TestFEpsilonBlock:
    """f_epsilon on an array of beta: one block of rows F(beta_i, y)."""

    @pytest.mark.parametrize("beta0,beta_center", [(1.2, 2.8), (1.5, 6.0), (2.7, 8.1),
                                                   (4.4, 9.5), (4.4, 10.0)])
    def test_rows_are_the_one_row_values(self, beta0, beta_center):
        # the k nodes of a default packet, over the y range of its interior rows
        config = PotentialConfig.from_beta0(beta0)
        spec = WavePacketSpec.for_beta(config, beta_center)
        betas = config.beta_from_k(wavepacket._k_rule(spec, 128).nodes)
        ys = np.linspace(-6.0, 0.0, 41)
        block = f_epsilon(betas, ys)
        assert block.shape == (betas.size, ys.size)
        for beta, row in zip(betas, block):
            reference = f_epsilon(float(beta), ys)
            assert np.abs(row - reference).max() <= 1e-12 * (1.0 + np.abs(reference).max())

    def test_integer_and_even_rows(self):
        # residue rows (every weight but one vanishes) next to generic ones
        betas = np.array([1.0, 1.7, 2.0, 3.0, 3.4, 4.0, 6.0, 7.5])
        ys = np.linspace(-6.0, 1.0, 36)
        block = f_epsilon(betas, ys)
        for beta, row in zip(betas, block):
            reference = f_epsilon(float(beta), ys)
            assert np.abs(row - reference).max() <= 1e-12 * (1.0 + np.abs(reference).max())
        for m in (0, 1, 2, 3, 5):
            residue = 2j * np.pi * hermite_poly(m, ys) / math.factorial(m)
            row = block[np.flatnonzero(betas == m + 1.0)[0]]
            assert np.all(np.abs(row - residue) <= 1e-9 * (1.0 + np.abs(residue)))

    def test_shapes(self):
        assert np.ndim(f_epsilon(2.5, 0.0)) == 0 and isinstance(f_epsilon(2.5, 0.0), complex)
        assert f_epsilon(2.5, [0.0]).shape == (1,)
        assert f_epsilon([2.5, 3.5], 0.0).shape == (2,)
        assert f_epsilon(np.array([2.5]), np.zeros((3, 2))).shape == (1, 3, 2)
        assert f_epsilon(np.empty(0), [0.0, 1.0]).shape == (0, 2)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, [1.3, math.nan],
                                      [math.inf, 2.5], [2.5, -math.inf]])
    def test_non_finite_beta_rejected(self, beta):
        # -inf used to hang in the cut-off search, nan and inf to raise ValueError
        with pytest.raises(DomainError, match="beta must be finite"):
            f_epsilon(beta, 0.0)

    def test_failing_beta_raises_from_the_one_block_call(self, monkeypatch):
        # only the third beta misses J(beta) at the junction; the one block on
        # the 200 points plus y = 0 names it, and no rows are returned
        exact = contour.f_epsilon
        sizes = []

        def counted(beta, y):
            sizes.append((np.size(beta), np.size(y)))
            return exact(beta, y)

        monkeypatch.setattr(contour, "f_epsilon", counted)
        rows = None
        with pytest.raises(ConvergenceError, match=r"beta=28.2 misses J\(beta\) at the junction"):
            rows = contour.interior_rows([3.3, 6.1, 28.2, 40.3],
                                         np.linspace(-4.0, 0.0, 200, endpoint=False))
        assert sizes == [(4, 201)] and rows is None


class TestFactoredCutEdge:
    """Every block: the cut edge from panel and offset factors of e^{2ty}."""

    YS = np.linspace(-14.0, 3.0, 561)

    @pytest.mark.parametrize("beta", [1.0, 1.2, 1.55, 2.0, 2.5, 3.0, 3.3, 4.0, 4.71, 5.0,
                                      6.0, 6.9, 9.2, 12.45, 17.6, 23.8, 27.15, 30.0])
    def test_one_row_is_its_row_in_a_block(self, beta):
        # beta is the smallest of the 20 rows, so both calls cut the edge off
        # at the same t; the block's own max|F| decides when its refinement
        # stops.  Below beta = 4 the block's rows reach their round-off floor
        # before y = -14.
        ys = self.YS[self.YS >= -12.0] if beta < 4.0 else self.YS
        block = f_epsilon(beta + np.linspace(0.0, 0.019, 20), ys)
        row = f_epsilon(beta, ys)
        assert np.abs(row - block[0]).max() <= 1e-13 * (1.0 + np.abs(block[0]).max())

    @pytest.mark.parametrize("centre", [-40.0, -25.0, 8.0, 12.0])
    @pytest.mark.parametrize("beta", [1.5, 3.0, 7.7, 20.3])
    def test_far_from_the_junction_as_the_node_form(self, beta, centre, monkeypatch):
        # the same value or the same error as a cut edge summed directly as
        # one (y x node) table of exponentials, at y where a term's panel and
        # offset factors are far apart in size; one row and a 20-row block
        ys = np.linspace(centre - 0.5, centre + 0.5, 201)

        def node_form(beta, y, radius, t_max, n_nodes):
            rule = contour._panel_rule(radius, t_max, n_nodes)
            t = rule.nodes
            lowest = float(beta.min())
            log_terms = np.multiply.outer(y, 2.0 * t) + (np.log(rule.weights) - t * t
                                                         - lowest * np.log(t))
            return np.einsum("bt,yt->by", t ** (lowest - beta)[:, None], np.exp(log_terms))

        def outcome(betas):
            try:
                return f_epsilon(betas, ys)
            except ConvergenceError as error:
                return str(error)

        for betas in (beta, beta + np.linspace(0.0, 0.95, 20)):
            with monkeypatch.context() as patch:
                patch.setattr(contour, "_line_part", node_form)
                by_node = outcome(betas)
            factored = outcome(betas)
            if isinstance(by_node, str) or isinstance(factored, str):
                assert factored == by_node
            else:
                assert np.abs(factored - by_node).max() <= 1e-13 * (1.0 + np.abs(by_node).max())

    def test_one_row_forms_no_y_by_node_exponentials(self, monkeypatch):
        # one row or 20: the largest exponential is (offsets x y), (panels x y)
        # or the (panels x offsets) y-free terms, never a (y x node) table
        sizes, panels = [], []
        panel_rule = contour._panel_rule

        def counted_rule(a, b, n_nodes):
            rule = panel_rule(a, b, n_nodes)
            panels.append(rule.centres.size)
            return rule

        class CountedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, *args, **kwargs):
                sizes.append(np.size(x))
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(contour, "np", CountedNumpy())
        monkeypatch.setattr(contour, "_panel_rule", counted_rule)
        for betas in (6.9, 6.9 + np.linspace(0.0, 1.0, 20)):
            sizes.clear()
            panels.clear()
            f_epsilon(betas, self.YS)
            most = max(panels)
            assert max(sizes) <= max(self.YS.size * contour._NODES_PER_PANEL,
                                     self.YS.size * most, most * contour._NODES_PER_PANEL)


def _circle_mpmath(beta: float, y: float, radius: float) -> complex:
    """Circle arc i r^{1-b} int_0^{2pi} e^{i(1-b)th - t^2 + 2ty} dth, t = r e^{ith}."""
    with mp.workdps(20):
        def integrand(theta):
            t = radius * mp.expj(theta)
            return mp.exp(1j * (1.0 - beta) * theta - t * t + 2.0 * t * y)
        value = mp.quad(integrand, [0, 2 * mp.pi], method="gauss-legendre")
        return complex(1j * mp.mpf(radius) ** (1.0 - beta) * value)


class TestCircleSeries:
    YS = np.array([-8.0, -3.5, 0.7, 3.0])

    @pytest.mark.parametrize("radius", [0.6, 1.0, 1.4, 2.0])
    @pytest.mark.parametrize("beta", [1.3, 2.6, 3.0, 7.3, 11.9, 20.5])
    def test_matches_mpmath_quadrature(self, beta, radius):
        values, abs_sum, terms = contour._circle_part(np.array([beta]), self.YS, radius, 1e-12)[:3]
        values, abs_sum = values[0], abs_sum[0]
        reference = np.array([_circle_mpmath(beta, float(y), radius) for y in self.YS])
        error = np.abs(values - reference)
        # truncation below 1e-14, plus the rounding of `terms` recurrence
        # steps and products on the absolute sum (cancellation at y < 0)
        assert np.all(error <= 1e-14 + terms * EPS * abs_sum)
        # without cancellation the series is exact to rounding
        assert np.all(error[2:] <= 1e-13 * (1.0 + np.abs(reference[2:])))

    @pytest.mark.parametrize("radius", [0.6, 1.0, 1.4, 2.0])
    def test_integer_beta_is_the_residue(self, radius):
        # every weight but n = m vanishes: I = 2 pi i H_m(y) / m!
        ys = np.linspace(-8.0, 3.0, 23)
        for m in range(9):
            values = contour._circle_part(np.array([m + 1.0]), ys, radius, 1e-10)[0][0]
            reference = 2j * np.pi * hermite_poly(m, ys) / math.factorial(m)
            assert np.all(np.abs(values - reference) <= 1e-13 * (1.0 + np.abs(reference)))


def _bits(value) -> bytes:
    """The exact bits of a value, an error message, or a tuple of them."""
    if isinstance(value, tuple):
        return b"|".join(_bits(v) for v in value)
    if isinstance(value, str):
        return value.encode()
    return np.asarray(value).tobytes()


class TestHermiteTableCache:
    """The circle's Hermite rows, built once per y grid and kept between calls."""

    YS = np.linspace(-7.0, 0.0, 561)

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        # each test starts cold, and what it stores is dropped after it
        monkeypatch.setattr(contour, "_tables", OrderedDict())

    @pytest.fixture
    def built(self, monkeypatch):
        """Sizes of the y grids the recurrence runs on, in call order."""
        sizes, exact = [], contour._hermite_rows

        def counted(y, radius, limit):
            sizes.append(y.size)
            return exact(y, radius, limit)

        monkeypatch.setattr(contour, "_hermite_rows", counted)
        return sizes

    @staticmethod
    def outcome(beta, y):
        try:
            return f_epsilon(beta, y)
        except ConvergenceError as error:
            return str(error)

    @staticmethod
    def held():
        return (len(contour._tables),
                sum(t.nbytes + len(k[0]) for k, t in contour._tables.items()))

    @pytest.mark.parametrize("beta,y", [(7.7, YS), (3.3 + np.linspace(0.0, 1.9, 20), YS),
                                        (7.7, 0.0), (np.array([2.5, 6.1]), 0.0)],
                             ids=["one-row", "twenty-rows", "scalar", "two-rows-at-zero"])
    def test_warm_call_is_the_cold_call_bit_for_bit(self, beta, y, built):
        cold = f_epsilon(beta, y)
        warm = f_epsilon(beta, y)
        assert len(built) == 1
        assert _bits(warm) == _bits(cold)

    def test_table_of_one_row_serves_a_block(self, built):
        block = 3.3 + np.linspace(0.0, 1.9, 20)
        cold = f_epsilon(block, self.YS)
        contour._tables.clear()
        f_epsilon(7.7, self.YS)
        assert _bits(f_epsilon(block, self.YS)) == _bits(cold)
        assert len(built) == 2

    @pytest.mark.parametrize("name,value", [("_TARGET_TOL", 1e-14), ("_TARGET_TOL", 1e-18),
                                            ("_CIRCLE_RADIUS", 1.4), ("_SERIES_CHUNK", 3)])
    def test_patched_constant_gives_the_cold_result(self, name, value, monkeypatch):
        # each constant changes the table, and the table of the default
        # constants, already cached, is never returned for the patched ones.
        # With beta = 1 in the block the largest r^(1-beta) is 1 at any
        # radius, so the radius changes the table but not the stop limit.
        ys, beta = np.linspace(-3.0, 1.0, 41), np.array([1.0, 2.6, 7.3])

        def results():
            circle = contour._circle_part(beta, ys, contour._CIRCLE_RADIUS, contour._TARGET_TOL)
            return circle, self.outcome(beta, ys)

        default = results()
        monkeypatch.setattr(contour, name, value)
        warm = results()
        contour._tables.clear()
        cold = results()
        assert _bits(warm) == _bits(cold)
        assert _bits(warm[0]) != _bits(default[0])

    def test_table_is_read_only(self):
        f_epsilon(7.7, self.YS)
        (table,) = contour._tables.values()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0

    def test_grid_changed_in_place_is_a_new_grid(self):
        ys = self.YS.copy()
        before = f_epsilon(7.7, ys)
        ys += 0.25
        after = f_epsilon(7.7, ys)
        contour._tables.clear()
        assert _bits(after) == _bits(f_epsilon(7.7, ys.copy())) != _bits(before)

    def test_overflowing_series_is_not_kept(self, built):
        first, second = (self.outcome(2.6, [-400.0, 0.0]) for _ in range(2))
        assert "Hermite series of the circle overflows" in first and second == first
        assert len(built) == 2 and not contour._tables

    def test_entry_bound_holds_over_more_grids(self):
        for i in range(contour._TABLE_CACHE_ENTRIES + 4):
            f_epsilon(2.5, np.linspace(-6.0 - 0.1 * i, 0.0, 201))
            entries, size = self.held()
            assert entries <= contour._TABLE_CACHE_ENTRIES
            assert size <= contour._TABLE_CACHE_BYTES
        assert entries == contour._TABLE_CACHE_ENTRIES

    def test_byte_bound_keeps_the_latest_tables(self, monkeypatch):
        # the same points in five orders: five keys, five tables of one size
        grids = [np.roll(np.linspace(-6.0, 0.0, 201), i) for i in range(5)]
        f_epsilon(2.5, grids[0])
        size = self.held()[1]
        monkeypatch.setattr(contour, "_TABLE_CACHE_BYTES", int(2.5 * size))
        for y in grids[1:]:
            f_epsilon(2.5, y)
            assert self.held()[1] <= contour._TABLE_CACHE_BYTES
        f_epsilon(2.5, grids[3])  # used last, so kept over grids[4]
        f_epsilon(2.5, grids[0])
        assert [key[0] for key in contour._tables] == [grids[3].tobytes(), grids[0].tobytes()]
        # a table above the whole budget is used once and not kept
        large = np.linspace(-6.0, 0.0, 2001)
        assert _bits(f_epsilon(2.5, large)) == _bits(f_epsilon(2.5, large))
        assert [key[0] for key in contour._tables] == [grids[3].tobytes(), grids[0].tobytes()]

    def test_threads_get_the_serial_values(self):
        # 12 grids against 8 entries, so tables are evicted while other threads read
        jobs = [(np.linspace(-6.0 + 0.25 * i, 1.0, 41), beta)
                for i in range(12) for beta in (2.3, 5.6)]
        serial = []
        for y, beta in jobs:
            contour._tables.clear()
            serial.append(_bits(f_epsilon(beta, y)))

        def run(thread):
            calls = [(7 * thread + c) % len(jobs) for c in range(50)]
            return [(j, _bits(f_epsilon(jobs[j][1], jobs[j][0]))) for j in calls]

        # threads switch every few microseconds instead of every 5 ms, so
        # a store or an eviction outside the lock meets another thread's
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = [r for rs in pool.map(run, range(4), timeout=60) for r in rs]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 200
        assert all(value == serial[j] for j, value in results)


class TestFEpsilonDerivative:
    def test_boundary_recurrence(self):
        for beta in (0.7, 1.3, 3.4):
            assert f_epsilon_derivative(beta, 0.0) == pytest.approx(
                2.0 * j_beta(beta - 1.0), abs=1e-9 * (1 + abs(j_beta(beta - 1.0))))

    def test_hermite_case(self):
        # at beta = 2 the derivative is 2 F_{beta=1}(y) = 4 pi i H_0 = const
        assert f_epsilon_derivative(2.0, 1.0) == pytest.approx(4j * np.pi, abs=1e-10)

    def test_finite_difference(self):
        beta, y0, h = 1.7, -1.0, 1e-4
        fd = (f_epsilon(beta, y0 + h) - f_epsilon(beta, y0 - h)) / (2.0 * h)
        value = f_epsilon_derivative(beta, y0)
        assert abs(fd - value) / abs(value) < 1e-5


class TestHermitePoly:
    def test_order_zero(self):
        assert hermite_poly(0, 3.7) == 1.0

    def test_order_three(self):
        # 8 y^3 - 12 y at y = 1
        assert hermite_poly(3, 1.0) == pytest.approx(-4.0)

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_odd_orders_vanish_at_origin(self, n):
        assert hermite_poly(n, 0.0) == 0.0

    @pytest.mark.parametrize("n", range(6))
    def test_against_scipy(self, n):
        ys = np.linspace(-2.5, 2.5, 11)
        assert np.allclose(hermite_poly(n, ys), sps.eval_hermite(n, ys),
                           rtol=1e-12, atol=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            hermite_poly(-1, 0.0)


def leading_large_y(beta: float, y: float) -> complex:
    """Leading large-y form -2i e^{-i pi beta} sqrt(pi) sin(pi beta) e^{y^2} / y^beta."""
    return (-2j * np.exp(-1j * math.pi * beta) * math.sqrt(math.pi)
            * math.sin(math.pi * beta) * math.exp(y * y) / y**beta)


class TestAsymptoticForm:
    def test_ten_percent_at_y4(self):
        ratio = f_epsilon(1.5, 4.0) / leading_large_y(1.5, 4.0)
        assert abs(ratio - 1.0) < 0.10

    def test_ratio_monotone_to_one(self):
        devs = [abs(abs(f_epsilon(1.5, y) / leading_large_y(1.5, y)) - 1.0)
                for y in (3.0, 4.0, 5.0, 6.0)]
        assert devs == sorted(devs, reverse=True)


class TestLargeY:
    @pytest.mark.parametrize("beta", [1.5, 2.6, 7.7])
    def test_matches_parabolic_cylinder_route(self, beta):
        # |F| grows like e^{y^2}, to 1e15 at y = 6, where the cut edge carries it
        for y in (3.0, 4.0, 5.0, 6.0):
            value = f_epsilon(beta, y)
            assert abs(value - f_parabolic_cylinder(beta, y)) <= 1e-12 * (1.0 + abs(value))
