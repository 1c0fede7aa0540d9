"""Bound-state level structure and eigenfunctions."""

import functools
import math
import threading
from collections import OrderedDict

import mpmath
import numpy as np
import pytest
import scipy.integrate as spi
import scipy.special as sps

from stepharm import (BracketError, ConvergenceError, DomainError, PotentialConfig,
                      contour, j_beta, bound_eigenfunction, level_count,
                      level_equation_residual, solve_levels, spectrum)
from stepharm.special import digamma, gamma_half_ratio
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


@functools.cache
def _mpmath_levels(beta0: float) -> tuple[float, ...]:
    """Levels as 30-digit zeros of R cot(pi beta / 2) + sqrt((beta0 - beta)/2).

    Bisection of the paper's cotangent form in mpmath, midpoints only: the
    residual is positive just above 2n+1 and negative at min(2n+2, beta0),
    so the pole at 2n+2 is never evaluated.
    """
    roots = []
    with mpmath.workdps(30):
        b0 = mpmath.mpf(beta0)
        for n in range(level_count(make_config(beta0))):
            lo, hi = mpmath.mpf(2 * n + 1), min(mpmath.mpf(2 * n + 2), b0)
            for _ in range(100):
                mid = (lo + hi) / 2
                g = (mpmath.gamma((mid + 1) / 2) / mpmath.gamma(mid / 2)
                     * mpmath.cot(mpmath.pi * mid / 2) + mpmath.sqrt((b0 - mid) / 2))
                lo, hi = (mid, hi) if g > 0 else (lo, mid)
            roots.append(float((lo + hi) / 2))
    return tuple(roots)


# step heights just above an odd integer, where the root sits closer to
# beta0 than a bracket end pulled in by 1e-9 (or 1e-6 of the bracket width)
NEAR_ODD = [1.0 + 1e-7, 3.0 + 1e-7, 5.0 + 1e-9, 31.0 + 1e-8, 7.0 + 1e-8, 13.0 + 1e-9]


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


@pytest.fixture
def phase_calls(monkeypatch):
    """Sizes of the spectrum._level_phase evaluations made during the test."""
    calls = []
    original = spectrum._level_phase

    def counted(beta, odd, config):
        calls.append(np.size(beta))
        return original(beta, odd, config)

    monkeypatch.setattr(spectrum, "_level_phase", counted)
    return calls


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

    @pytest.mark.parametrize("beta0,tol", [
        (1.2, 1e-12), (2.0, 1e-12), (3.0, 1e-12), (4.5, 1e-12), (5.0 + 1e-7, 1e-12),
        (9.7, 1e-12), (30.0, 1e-12), (60.0, 1e-12), (200.0, 1e-12),
        (4.0 - 1e-9, 1e-12), (4.0 + 1e-9, 1e-12), (12.0, 1e-12),
        (12.3, 1e-6), (9.7, 1e-6), (200.0, 0.3), (5.0 + 1e-7, 0.3),
    ])
    def test_every_level_within_tol_of_mpmath(self, beta0, tol):
        levels = solve_levels(make_config(beta0), tol=tol)
        expected = _mpmath_levels(beta0)
        assert len(levels) == len(expected) == level_count(make_config(beta0))
        assert all(type(level.beta_n) is float for level in levels)
        for level, root in zip(levels, expected):
            assert abs(level.beta_n - root) <= tol

    @pytest.mark.parametrize("beta0", NEAR_ODD)
    def test_step_height_just_above_odd_integer(self, beta0):
        # the last root lies closer to beta0 than 1e-6 of its bracket width,
        # the end pull that shut it out and raised BracketError
        levels = solve_levels(make_config(beta0))
        expected = _mpmath_levels(beta0)
        assert len(levels) == level_count(make_config(beta0)) == len(expected)
        for level, root in zip(levels, expected):
            assert abs(level.beta_n - root) <= 1e-12
            assert level.beta_n <= beta0 and level.k_n >= 0.0

    def test_no_beta0_in_a_scan_raises(self):
        heights = np.concatenate([
            np.linspace(0.5, 200.0, 200),
            [k + e for k in range(1, 41) for e in (-1e-9, 1e-12, 1e-9, 1e-6)],
            [k + e for k in range(41, 200, 2) for e in (-1e-9, 1e-9)],
            [1e3, 1e4]])
        for beta0 in heights.tolist():
            levels = solve_levels(make_config(beta0))
            assert len(levels) == level_count(make_config(beta0))

    def test_phase_form_and_its_derivative_against_mpmath(self):
        # G = beta - odd - (2/pi) atan2(q, R) and G' at points of three brackets
        beta0 = 6.3
        betas = np.array([1.01, 1.5, 1.99, 3.2, 3.9, 5.05, 6.0, 6.29])
        odd = 2.0 * np.floor((betas - 1.0) / 2.0) + 1.0
        g, slope = spectrum._level_phase(betas, odd, make_config(beta0))
        with mpmath.workdps(30):
            def phase(b, o):
                q = mpmath.sqrt((mpmath.mpf(beta0) - b) / 2)
                ratio = mpmath.gamma((b + 1) / 2) / mpmath.gamma(b / 2)
                return b - o - 2 / mpmath.pi * mpmath.atan2(q, ratio)
            for b, o, value, d_value in zip(betas.tolist(), odd.tolist(), g, slope):
                assert value == pytest.approx(float(phase(mpmath.mpf(b), o)), abs=1e-14)
                exact = float(mpmath.diff(lambda t: phase(t, o), mpmath.mpf(b)))
                assert d_value == pytest.approx(exact, rel=1e-12)
                assert d_value >= 1.0

    def test_norm_bit_identical_to_two_digamma_calls(self):
        # _norm_over_j2 takes R and R' from the solver's helper; the values
        # equal the formula with two scalar digamma calls bit for bit
        for beta0 in (2.5, 9.7, 60.0, 200.0):
            config = make_config(beta0)
            xs = np.linspace(-1.0, 1.0, 5)
            for level in solve_levels(config):
                beta = level.beta_n
                sin, cos = math.sin(math.pi * beta / 2.0), math.cos(math.pi * beta / 2.0)
                ratio = gamma_half_ratio(beta / 2.0)
                d_ratio = 0.5 * ratio * (digamma((beta + 1.0) / 2.0) - digamma(beta / 2.0))
                d_slope = 2.0 * (d_ratio * cos / sin - 0.5 * math.pi * ratio / (sin * sin))
                expected = -d_slope / (2.0 * config.alpha) + 1.0 / (2.0 * level.k_n)
                assert spectrum._norm_over_j2(level, config, xs) == expected

    def test_slope_over_ratio_against_mpmath(self):
        # R'/R = [psi((beta+1)/2) - psi(beta/2)] / 2, a difference of two
        # digammas near log(beta/2): its error is theirs, eps-sized against |psi|
        betas = np.linspace(1.0, 200.0, 996)
        ratio, slope = spectrum._ratio_and_slope(betas)
        with mpmath.workdps(40):
            half = [mpmath.mpf(b) / 2 for b in betas.tolist()]
            exact = np.array([float((mpmath.digamma(h + 0.5) - mpmath.digamma(h)) / 2)
                              for h in half])
            psi = np.array([float(mpmath.digamma(h)) for h in half])
        error = np.abs(slope / ratio - exact)
        assert np.all(error <= 2e-15 * np.maximum(1.0, np.abs(psi)))
        assert np.all(error[betas <= 20.0] <= 1e-13 * exact[betas <= 20.0])

    def test_energies_and_decay_constants_as_per_level_calls(self):
        # the table's energies and k_n come from one array call each, with
        # the bits of the scalar config.energy and config.k_bound calls
        for config in (make_config(2.5), make_config(60.0),
                       PotentialConfig(hbar=1.3, mass=0.7, kappa=2.1, u0=17.0)):
            levels = solve_levels(config)
            assert levels
            for level in levels:
                assert level.energy == config.energy(level.beta_n)
                assert level.k_n == config.k_bound(level.beta_n)
                assert type(level.energy) is float and type(level.k_n) is float

    def test_no_sign_change_raises_bracket_error(self, monkeypatch):
        # the phase form is negative at 2n+1 and positive at the upper end by
        # construction; a residual without that sign change is refused
        monkeypatch.setattr(spectrum, "_level_phase",
                            lambda beta, odd, config: (np.ones_like(beta), np.ones_like(beta)))
        with pytest.raises(BracketError, match=r"no sign change on bracket \(1\.0, 2\.0\)"):
            solve_levels(make_config(4.5))

    def test_tol_below_float_spacing_returns(self):
        # no step can be shorter than tol = 1e-20 except a zero one; every
        # level must end, on a zero step or on a bracket of adjacent floats
        heights = [1.2, 3.0 + 1e-7, 4.5, 5.0 + 1e-7, 9.7, 31.0 + 1e-8, 60.0, 200.0]
        result = []
        worker = threading.Thread(target=lambda: result.append(
            [solve_levels(make_config(beta0), tol=1e-20) for beta0 in heights]), daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert result, "solve_levels(tol=1e-20) did not return within 10 s"
        for beta0, levels in zip(heights, result[0]):
            for level, root in zip(levels, _mpmath_levels(beta0), strict=True):
                assert abs(level.beta_n - root) <= 2.0 * np.spacing(root)

    def test_residual_calls_bounded(self, phase_calls):
        # one call on the ends and midpoints of every bracket, then one per
        # Newton step of the levels still open, however many levels there are
        for beta0 in (4.5, 12.0, 60.0, 200.0):
            phase_calls.clear()
            count = len(solve_levels(make_config(beta0)))
            assert count == level_count(make_config(beta0))
            assert phase_calls[0] == 3 * count
            assert len(phase_calls) <= 6, (beta0, phase_calls)

    @pytest.mark.parametrize("beta0", [1.0 + 1e-6, 3.0 + 1e-7, 3.0004, 5.011])
    def test_root_next_to_the_branch_point_takes_few_calls(self, beta0, phase_calls):
        # the last root sits just below beta0, where G' grows like 1/q: the
        # step in q = sqrt((beta0 - beta)/2) lands where halvings used to
        # take 6 to 19 calls
        levels = solve_levels(make_config(beta0))
        assert len(phase_calls) <= 6, phase_calls
        for level, root in zip(levels, _mpmath_levels(beta0), strict=True):
            assert abs(level.beta_n - root) <= 1e-12

    def test_calls_per_table_over_a_scan(self, phase_calls):
        worst = 0
        for beta0 in np.linspace(2.5, 12.0, 1000).tolist():
            phase_calls.clear()
            solve_levels(make_config(beta0))
            worst = max(worst, len(phase_calls))
        assert worst <= 5


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
        # beta_n ~ 31.5: the contour solution misses J(beta_n) by ~1e-4
        config = make_config(60.0)
        state = solve_levels(config)[15]
        with pytest.raises(ConvergenceError, match="beta=31.48"):
            bound_eigenfunction(state, config, np.linspace(-3.0, 3.0, 7))

    @pytest.mark.parametrize("n", [0, 1])
    def test_interior_node_count(self, cfg45, n):
        level = solve_levels(cfg45)[n]
        xs = np.linspace(-7.0, -1e-6, 3000)
        values = bound_eigenfunction(level, cfg45, xs).real
        scale = np.max(np.abs(values))
        signs = np.sign(values[np.abs(values) > 1e-6 * scale])
        assert int(np.count_nonzero(np.diff(signs))) == n

    def test_step_side_needs_no_contour_solution(self, monkeypatch):
        # beta_n ~ 31.5, where the contour solution misses J(beta_n); the
        # step side is J e^{-k_n x} and is returned without it
        config = make_config(60.0)
        level = solve_levels(config)[15]

        def unused(beta, y):
            raise AssertionError("contour solution evaluated")

        monkeypatch.setattr(contour, "f_epsilon", unused)
        xs = np.linspace(0.0, 3.0, 31)
        expected = j_beta(level.beta_n) * np.exp(-level.k_n * xs) / math.sqrt(
            _pbdv_norm(level, config))
        values = bound_eigenfunction(level, config, xs)
        assert np.all(np.abs(values - expected) <= 1e-9 * np.abs(expected))

    def test_interior_row_carries_its_junction_value(self, cfg45, monkeypatch):
        # one call: the x < 0 samples and their own junction value F(0)
        level = solve_levels(cfg45)[1]
        exact = contour.f_epsilon
        sizes = []

        def counted(beta, y):
            sizes.append(np.size(y))
            return exact(beta, y)

        monkeypatch.setattr(contour, "f_epsilon", counted)
        bound_eigenfunction(level, cfg45, np.linspace(-3.0, 3.0, 61))
        assert sizes == [30 + 1]

    def test_faulty_state_fails_at_its_junction(self, monkeypatch):
        # beta_n ~ 31.5 misses J(beta_n): the one call that forms its
        # 1,120-point row refuses it, and no samples are returned
        config = make_config(60.0)
        level = solve_levels(config)[15]
        exact = contour.f_epsilon
        sizes = []

        def counted(beta, y):
            sizes.append(np.size(y))
            return exact(beta, y)

        monkeypatch.setattr(contour, "f_epsilon", counted)
        values = None
        with pytest.raises(ConvergenceError, match=r"beta=31.48\S* misses J\(beta\)"):
            values = bound_eigenfunction(level, config, np.linspace(-14.0, 3.0, 1361))
        assert sizes == [1120 + 1] and values is None

    def test_two_levels_on_one_grid_build_one_hermite_table(self, monkeypatch):
        # the circle's Hermite rows depend on y alone: the second state of
        # the same grid reuses the first one's table, and gets the same bits
        config = make_config(6.5)
        levels = solve_levels(config)
        xs = np.linspace(-7.0, 3.0, 801)
        monkeypatch.setattr(contour, "_tables", OrderedDict())
        cold = bound_eigenfunction(levels[1], config, xs)
        contour._tables.clear()
        built, exact = [], contour._hermite_rows

        def counted(y, radius, limit):
            built.append(y.size)
            return exact(y, radius, limit)

        monkeypatch.setattr(contour, "_hermite_rows", counted)
        bound_eigenfunction(levels[0], config, xs)
        warm = bound_eigenfunction(levels[1], config, xs)
        assert built == [np.count_nonzero(xs < 0.0) + 1]
        assert warm.tobytes() == cold.tobytes()

    def test_junction_value_of_the_sampling_call_is_checked(self, cfg45, monkeypatch):
        # F(0) is spoiled only in a call that also samples y < 0, so only a
        # check on the row's own evaluation can see it
        level = solve_levels(cfg45)[1]
        exact = contour.f_epsilon

        def spoiled(beta, y):
            y = np.asarray(y)
            value = exact(beta, y)
            if y.size > 1:
                value = value + 1e-4 * (y == 0.0)
            return value

        monkeypatch.setattr(contour, "f_epsilon", spoiled)
        with pytest.raises(ConvergenceError, match=r"misses J\(beta\) at the junction"):
            bound_eigenfunction(level, cfg45, np.linspace(-3.0, 3.0, 61))

    def test_small_sine_ground_state_matches_pbdv(self):
        # beta0 = 200, beta_n ~ 1.944: |sin(pi beta_n / 2)| ~ 0.09, so the
        # junction check's scale 2 pi / Gamma((beta+1)/2) is about 11 |J|
        config = make_config(200.0)
        level = solve_levels(config)[0]
        assert abs(math.sin(math.pi * level.beta_n / 2.0)) < 0.1
        xs = np.linspace(-4.0, -0.05, 80)
        values = bound_eigenfunction(level, config, xs, normalized=False)
        order = level.beta_n - 1.0
        expected = j_beta(level.beta_n) * np.array(
            [sps.pbdv(order, -math.sqrt(2.0) * config.alpha * x)[0] for x in xs]
        ) / sps.pbdv(order, 0.0)[0]
        assert np.max(np.abs(values - expected)) < 1e-8 * np.max(np.abs(expected))

    def test_marginal_state_on_empty_positions_raises(self):
        config = make_config(1.0)
        level = solve_levels(config)[0]
        with pytest.raises(DomainError, match="positive length"):
            bound_eigenfunction(level, config, np.array([]))

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
