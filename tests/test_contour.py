"""Loop-integral solution F(y): boundary values, degeneracies, ODE residual."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from stepharm import (ConvergenceError, DomainError, asymptotic_f2, contour,
                      f_epsilon, f_epsilon_derivative, hermite_poly, j_beta)

EPS = np.finfo(float).eps

GAMMA_QUARTER = 3.6256099082219083


def j_literal(beta: float) -> complex:
    """Textbook form sin(pi b) Gamma((1-b)/2) / (i e^{i pi b}); poles at odd b."""
    return (math.sin(math.pi * beta) / (1j * np.exp(1j * math.pi * beta))
            * sps.gamma((1.0 - beta) / 2.0))


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

    def test_scalar_returns_python_complex(self):
        assert type(j_beta(2.5)) is complex
        assert type(j_beta(-3.0)) is complex


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

    def test_stall_names_last_change_and_budget(self, monkeypatch):
        # a cut-edge sum that moves with every doubling never settles
        monkeypatch.setattr(contour, "_line_part",
                            lambda beta, y, radius, t_max, n_nodes: np.full(y.shape, n_nodes))
        with pytest.raises(ConvergenceError,
                           match=r"last change \S+ against target_tol\*scale=\S+ "
                                 r"\(\d+ series terms, 245760 line nodes\)"):
            f_epsilon(1.3, -1.0)


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
        values, abs_sum, terms = contour._circle_part(beta, self.YS, radius, 1e-12)
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
            values = contour._circle_part(m + 1.0, ys, radius, 1e-10)[0]
            reference = 2j * np.pi * hermite_poly(m, ys) / math.factorial(m)
            assert np.all(np.abs(values - reference) <= 1e-13 * (1.0 + np.abs(reference)))


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


class TestAsymptoticForm:
    def test_ten_percent_at_y4(self):
        ratio = f_epsilon(1.5, 4.0) / asymptotic_f2(1.5, 4.0)
        assert abs(ratio - 1.0) < 0.10

    def test_ratio_monotone_to_one(self):
        devs = [abs(abs(f_epsilon(1.5, y) / asymptotic_f2(1.5, y)) - 1.0)
                for y in (3.0, 4.0, 5.0, 6.0)]
        assert devs == sorted(devs, reverse=True)

    def test_rejected_at_degenerate_beta(self):
        with pytest.raises(DomainError):
            asymptotic_f2(3.0, 4.0)

    def test_rejected_at_nonpositive_y(self):
        with pytest.raises(DomainError):
            asymptotic_f2(1.5, -1.0)

