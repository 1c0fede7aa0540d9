"""Bound-state level structure and eigenfunctions."""

import functools
import math

import numpy as np
import pytest
import scipy.integrate as spi
import scipy.special as sps

from stepharm import (ConvergenceError, DomainError, PotentialConfig, j_beta,
                      bound_eigenfunction, level_count,
                      level_equation_residual, solve_levels)
from tests.conftest import make_config

# roots of the level equation computed independently at 30-digit precision
KNOWN_ROOTS = {
    1.5: [1.2880532262116895],
    2.0: [1.4138898872878442],
    2.5: [1.4889398802897632],
    3.5: [1.5784189236634712, 3.2024530323519928],
    4.5: [1.6321923056286810, 3.3569850518198874],
    200.0: [1.9444207305182342, 3.9160328428844909, 5.8946187471214127],
}


class TestLevelCount:
    @pytest.mark.parametrize("beta0,count", [
        (0.7, 0), (1.0, 1), (1.5, 1), (2.0, 1), (2.5, 1), (3.0, 1),
        (3.5, 2), (4.0, 2), (4.5, 2), (5.0, 2), (5.2, 3), (9.7, 5),
    ])
    def test_counts(self, beta0, count):
        assert level_count(make_config(beta0)) == count


class TestLevelEquation:
    def test_root_at_threshold_ground_state(self):
        # beta0 = 1: the cotangent zero and the vanishing square root meet
        assert abs(level_equation_residual(1.0, make_config(1.0))) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_positive_just_above_odd_integers(self, n):
        config = make_config(9.0)
        value = level_equation_residual(2 * n + 1 + 1e-9, config)
        assert value == pytest.approx(math.sqrt((9.0 - 2 * n - 1) / 2.0), rel=1e-4)

    def test_equivalent_to_gamma_ratio_form(self):
        # the cotangent form of the left-hand side equals the raw Gamma
        # ratio Gamma(1-b/2)/Gamma((1-b)/2) by the reflection identity, so
        # the two residual formulations share their zero set exactly
        config = make_config(4.5)
        betas = np.arange(0.1, 4.45, 0.07)
        cot_form = (level_equation_residual(betas, config)
                    - np.sqrt((4.5 - betas) / 2.0))
        raw_form = sps.gamma(1.0 - betas / 2.0) / sps.gamma((1.0 - betas) / 2.0)
        assert np.max(np.abs(cot_form - raw_form) / (1.0 + np.abs(raw_form))) < 1e-10

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 4.6, 10.0])
    def test_domain(self, beta):
        with pytest.raises(DomainError):
            level_equation_residual(beta, make_config(4.5))


class TestSolveLevels:
    @pytest.mark.parametrize("beta0", sorted(KNOWN_ROOTS))
    def test_roots_match_high_precision(self, beta0):
        levels = solve_levels(make_config(beta0))
        expected_count = level_count(make_config(beta0))
        assert len(levels) == expected_count
        for level, root in zip(levels, KNOWN_ROOTS[beta0]):
            assert level.beta_n == pytest.approx(root, abs=5e-11)

    def test_marginal_ground_state(self):
        config = make_config(1.0)
        levels = solve_levels(config)
        assert len(levels) == 1
        assert levels[0].marginal
        assert levels[0].beta_n == 1.0
        assert levels[0].energy == pytest.approx(0.5)  # hbar*omega/2
        assert levels[0].k_n == 0.0

    def test_bracketing_invariant(self):
        for beta0 in (1.2, 2.0, 3.0, 4.0, 6.0, 10.0):
            for level in solve_levels(make_config(beta0)):
                lo = 2 * level.n + 1
                hi = min(2 * level.n + 2, beta0)
                assert lo < level.beta_n < hi
                assert level.energy < make_config(beta0).u0
                assert level.k_n > 0

    def test_monotone_in_step_height(self):
        heights = [1.2, 2.0, 3.0, 4.0, 6.0, 10.0]
        tables = {b0: solve_levels(make_config(b0)) for b0 in heights}
        for lo, hi in zip(heights[:-1], heights[1:]):
            common = min(len(tables[lo]), len(tables[hi]))
            for n in range(common):
                assert tables[hi][n].beta_n > tables[lo][n].beta_n

    def test_energies_in_physical_units(self):
        config = PotentialConfig(hbar=2.0, mass=3.0, kappa=5.0,
                                 u0=2.0 * math.sqrt(5.0 / 3.0) * 4.0)
        assert config.beta0 == pytest.approx(4.5)
        levels = solve_levels(config)
        scale = config.hbar * config.omega
        for level, root in zip(levels, KNOWN_ROOTS[4.5]):
            assert level.energy / scale == pytest.approx(root - 0.5, rel=1e-10)

    def test_bad_tol_rejected(self):
        with pytest.raises(DomainError):
            solve_levels(make_config(2.0), tol=0.0)


def _pbdv_norm(level, config) -> float:
    """Integral of |u|^2 dx for u scaled to J(beta_n) at x = 0, by scipy.

    Interior u = J D_{beta-1}(-sqrt(2) alpha x) / D_{beta-1}(0), integrated
    by adaptive quadrature; exterior J e^{-k x} integrates to |J|^2 / (2k).
    """
    order = level.beta_n - 1.0
    d0 = sps.pbdv(order, 0.0)[0]
    inside, _ = spi.quad(lambda y: (sps.pbdv(order, -math.sqrt(2.0) * y)[0] / d0) ** 2,
                         -np.inf, 0.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return abs(j_beta(level.beta_n)) ** 2 * (inside / config.alpha + 0.5 / level.k_n)


def _closed_form_error(level, config) -> float:
    """Relative deviation of normalized/raw samples from 1/sqrt(scipy norm)."""
    xs = np.array([-2.5, -0.7, -1e-3, 0.0, 0.4, 3.0])
    ratio = (bound_eigenfunction(level, config, xs)
             / bound_eigenfunction(level, config, xs, normalized=False))
    expected = 1.0 / math.sqrt(_pbdv_norm(level, config))
    return float(np.max(np.abs(ratio - expected))) / expected


@functools.cache
def _levels(beta0: float):
    return solve_levels(make_config(beta0))


CLOSED_FORM_CASES = ([(b0, n) for b0 in (2.5, 12.0, 16.0) for n in range(len(_levels(b0)))]
                     + [(200.0, n) for n in range(7)])


class TestBoundEigenfunction:
    def test_continuous_at_junction(self, cfg45):
        for level in solve_levels(cfg45):
            left = bound_eigenfunction(level, cfg45, -1e-12, normalized=False)
            right = bound_eigenfunction(level, cfg45, 0.0, normalized=False)
            assert abs(left - right) < 1e-8 * abs(right)

    def test_derivative_junction_condition(self, cfg45):
        # -2 alpha J(beta-1) = k J(beta) at every root
        for level in solve_levels(cfg45):
            lhs = -2.0 * cfg45.alpha * j_beta(level.beta_n - 1.0)
            rhs = level.k_n * j_beta(level.beta_n)
            assert abs(lhs - rhs) < 1e-8 * abs(rhs)

    def test_unit_norm(self, cfg45):
        level = solve_levels(cfg45)[0]
        xs = np.linspace(-9.0, 9.0, 4001)
        values = bound_eigenfunction(level, cfg45, xs)
        assert np.trapezoid(np.abs(values) ** 2, xs) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("beta0,n", CLOSED_FORM_CASES)
    def test_closed_form_norm_against_quadrature(self, beta0, n):
        assert _closed_form_error(_levels(beta0)[n], make_config(beta0)) < 1e-10

    def test_closed_form_norm_in_physical_units(self):
        config = PotentialConfig(hbar=2.0, mass=3.0, kappa=5.0, u0=7.0)
        assert config.alpha != pytest.approx(1.0)
        for level in solve_levels(config):
            assert _closed_form_error(level, config) < 1e-10

    def test_contour_fault_raises_before_sampling(self):
        # beta_n ~ 31.5: the contour quadrature misses J(beta_n) by ~2e-3
        config = make_config(60.0)
        state = solve_levels(config)[15]
        with pytest.raises(ConvergenceError, match="beta_n=31.48"):
            bound_eigenfunction(state, config, np.linspace(-3.0, 3.0, 7))

    @pytest.mark.parametrize("n", [0, 1])
    def test_interior_node_count(self, cfg45, n):
        level = solve_levels(cfg45)[n]
        xs = np.linspace(-7.0, -1e-6, 3000)
        values = bound_eigenfunction(level, cfg45, xs).real
        scale = np.max(np.abs(values))
        signs = np.sign(values[np.abs(values) > 1e-6 * scale])
        assert int(np.count_nonzero(np.diff(signs))) == n

    def test_marginal_state_gaussian_and_flat(self):
        config = make_config(1.0)
        level = solve_levels(config)[0]
        xs = np.array([-2.0, -1.0, 1.0, 3.0])
        values = bound_eigenfunction(level, config, xs, normalized=False)
        # interior proportional to exp(-x^2/2)
        assert abs(values[1] / values[0]) == pytest.approx(
            math.exp(-0.5) / math.exp(-2.0), rel=1e-8)
        # exterior flat: zero decay constant
        assert values[2] == pytest.approx(values[3], rel=1e-12)

    def test_marginal_state_normalized_over_sampled_range(self):
        config = make_config(1.0)
        level = solve_levels(config)[0]
        xs = np.linspace(-3.0, 2.0, 20001)
        values = bound_eigenfunction(level, config, xs)
        assert np.trapezoid(np.abs(values) ** 2, xs) == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(DomainError):
            bound_eigenfunction(level, config, np.array([0.5, 0.5]))
