"""Reflection coefficient, phase shift, closed-form delay and resonances."""

import math
import threading

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from stepharm import (BracketError, DomainError, PotentialConfig, SingularityError,
                      delay_time, delta_prime, find_resonances, phase_shift,
                      pi_coefficient, zeta, j_beta)
from stepharm import scattering
from stepharm.special import _sin_cos_pi, digamma, gamma_half_ratio
from stepharm.verification import phase_derivative_residual
from tests.conftest import make_config

# spot values computed independently at 30-digit precision
DELTA_PRIME_KNOWN = {
    (400.0, 1.5): 3.13765705557706,
    (6.0, 1.5): 2.83592616144883,
    (3.0, 1.5): 4.09330683178595,
}
# true threshold behavior at beta0 + 1e-6: finite magnitudes set by
# sin(pi beta0) / (2 sqrt(x) D(beta0)), divergent only in the limit x -> 0
DELTA_PRIME_THRESHOLD = {
    1.5: -955.966480594005,
    2.5: 697.37214991441,
    3.0: 2506.61397738425,
}
ZETA_KNOWN = -0.70005475364018919 + 0.71408916943598439j  # beta=3.7, beta0=1.5


def delta_prime_two_digamma_calls(b, beta0):
    """delta' with one digamma call per argument, as a bit-level reference."""
    x = b - beta0
    ratio = gamma_half_ratio(b / 2.0)
    sin, cos = _sin_cos_pi(b / 2.0)
    num = 0.5 * np.sqrt(x) * (
        2.0 * sin * cos * (1.0 / x + digamma(b / 2.0) - digamma((b + 1.0) / 2.0))
        + 2.0 * np.pi)
    den = (x / (ratio * math.sqrt(2.0)) * sin ** 2
           + ratio * math.sqrt(2.0) * cos ** 2)
    return num / den


def mpmath_phase(beta: float, beta0: float) -> float:
    """delta = arg(zeta) at 50 digits, sin and cos of pi beta / 2 taken without rounding pi beta."""
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        ratio = mpmath.exp(mpmath.loggamma((b + 1) / 2) - mpmath.loggamma(b / 2))
        a = mpmath.sinpi(b / 2)
        c = mpmath.sqrt(2 / (b - beta0)) * ratio * mpmath.cospi(b / 2)
        return float(mpmath.arg((a - 1j * c) / (a + 1j * c)))


def mpmath_delta_prime(beta: float, beta0: float) -> float:
    """delta'(beta) of the closed form at 40 digits."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        x = b - beta0
        ratio = mpmath.gamma((b + 1) / 2) / mpmath.gamma(b / 2)
        num = mpmath.sqrt(x) / 2 * (mpmath.sinpi(b) * (1 / x + mpmath.digamma(b / 2)
                                                       - mpmath.digamma((b + 1) / 2))
                                    + 2 * mpmath.pi)
        den = (x / (ratio * mpmath.sqrt(2)) * mpmath.sinpi(b / 2) ** 2
               + ratio * mpmath.sqrt(2) * mpmath.cospi(b / 2) ** 2)
        return float(num / den)


def zeta_literal(beta, beta0):
    """Raw Gamma form of the reflection coefficient (poles cancel off-grid)."""
    a = sps.gamma((1.0 - beta) / 2.0)
    b = np.sqrt(2.0 / (beta - beta0)) * sps.gamma(1.0 - beta / 2.0)
    return (a - 1j * b) / (a + 1j * b)


class TestZeta:
    @pytest.mark.parametrize("offset", [0.01, 1.0, 10.0])
    def test_unit_modulus(self, cfg15, offset):
        assert abs(abs(zeta(1.5 + offset, cfg15)) - 1.0) < 1e-10

    def test_unitarity_dense(self):
        for beta0 in (1.5, 2.0, 2.5, 3.5, 4.0, 4.5):
            config = make_config(beta0)
            betas = np.linspace(beta0 + 1e-4, beta0 + 20.0, 1000)
            assert np.max(np.abs(np.abs(zeta(betas, config)) - 1.0)) < 1e-10

    def test_matches_literal_gamma_form(self, cfg15):
        betas = np.arange(1.6, 12.0, 0.037)  # avoids integer poles
        mine = zeta(betas, cfg15)
        ref = zeta_literal(betas, 1.5)
        assert np.max(np.abs(mine - ref)) < 1e-10

    def test_frozen_spot_value(self, cfg15):
        assert zeta(3.7, cfg15) == pytest.approx(ZETA_KNOWN, abs=1e-13)

    def test_real_crossings_at_integers(self, cfg15):
        # odd beta: the cosine term dies, zeta = +1; even beta: zeta = -1
        assert zeta(3.0, cfg15) == pytest.approx(1.0, abs=1e-12)
        assert zeta(5.0, cfg15) == pytest.approx(1.0, abs=1e-12)
        assert zeta(2.0, cfg15) == pytest.approx(-1.0, abs=1e-12)
        assert zeta(4.0, cfg15) == pytest.approx(-1.0, abs=1e-12)

    def test_exactly_one_at_odd_beta(self, cfg15):
        # cos(pi beta / 2) is exactly zero there
        odd = np.arange(3.0, 200.0, 2.0)
        assert np.all(zeta(odd, cfg15) == 1.0)
        assert zeta(1e6 + 1.0, cfg15) == 1.0

    @pytest.mark.parametrize("beta0", [0.5, 1.5, 2.5, 7.3, 60.0])
    def test_exact_at_integer_beta(self, beta0):
        # a = 0 at even beta and b = 0 at odd beta: zeta = (u - v)(u + v) - 2i u v
        # is exactly -1 + 0j and 1 there, in array and in one-point calls
        config = make_config(beta0)
        even = np.arange(2.0 * math.floor(config.beta0 / 2.0) + 2.0, config.beta0 + 300.0, 2.0)
        for betas, value in ((even, -1.0), (even + 1.0, 1.0)):
            values = zeta(betas, config)
            scalars = [zeta(beta, config) for beta in betas.tolist()]
            assert np.all(values == value) and all(z == value for z in scalars)
            assert not np.any(np.signbit(values.imag))
            assert not any(math.copysign(1.0, z.imag) < 0.0 for z in scalars)

    @pytest.mark.parametrize("beta0", [0.7, 1.5, 4.5])
    def test_array_and_one_point_calls_agree(self, beta0):
        config = make_config(beta0)
        betas = np.concatenate([config.beta0 + np.geomspace(1e-8, 150.0, 200),
                                np.arange(math.floor(config.beta0) + 1.0, config.beta0 + 150.0)])
        zetas, pis = zeta(betas, config), pi_coefficient(betas, config)
        for beta, z, p in zip(betas.tolist(), zetas.tolist(), pis.tolist()):
            assert zeta(beta, config) == z and pi_coefficient(beta, config) == p

    def test_domain(self, cfg15):
        with pytest.raises(DomainError):
            zeta(1.5, cfg15)
        with pytest.raises(DomainError):
            zeta(0.7, cfg15)


class TestPhaseShift:
    def test_principal_branch(self, cfg15):
        betas = np.linspace(1.6, 20.0, 500)
        deltas = phase_shift(betas, cfg15)
        assert np.all(deltas > -np.pi) and np.all(deltas <= np.pi)

    def test_pi_at_even_beta(self, cfg15):
        # zeta = -1 + 0j there: the principal value is pi, not -pi
        even = np.arange(2.0, 200.0, 2.0)
        assert np.all(phase_shift(even, cfg15) == np.pi)
        assert phase_shift(1e6, cfg15) == np.pi

    @pytest.mark.parametrize("beta0", [1.5, 60.0])
    def test_is_the_angle_of_zeta(self, beta0):
        # no branch of its own: the angle of zeta is already pi at even beta
        config = make_config(beta0)
        betas = np.concatenate([np.arange(62.0, 400.0, 2.0),
                                config.beta0 + np.geomspace(1e-6, 300.0, 200)])
        assert np.array_equal(phase_shift(betas, config), np.angle(zeta(betas, config)))
        assert all(phase_shift(beta, config) == np.angle(zeta(beta, config))
                   for beta in betas.tolist())

    @pytest.mark.parametrize("beta0", [1.5, 2.5, 4.5])
    def test_against_mpmath_up_to_1e8(self, beta0):
        # the argument of the sines is reduced exactly, so the error does
        # not grow like the ulp of pi beta
        rng = np.random.default_rng(7)
        betas = np.concatenate([beta0 + np.geomspace(1e-4, 10.0, 20),
                                10.0 ** rng.uniform(1.0, 8.0, 140)])
        exact = np.array([mpmath_phase(b, beta0) for b in betas.tolist()])
        error = np.abs(phase_shift(betas, make_config(beta0)) - exact)
        assert np.all(np.minimum(error, 2.0 * np.pi - error) <= 1e-14)

    def test_unwrapped_continuity(self, cfg15):
        betas = np.arange(1.6, 12.0, 1e-3)
        unwrapped = np.unwrap(phase_shift(betas, cfg15))
        assert np.max(np.abs(np.diff(unwrapped))) < np.pi / 2.0

    def test_asymptotic_slope_is_pi(self, cfg15):
        betas = np.arange(390.0, 410.0, 1e-3)
        unwrapped = np.unwrap(phase_shift(betas, cfg15))
        slope = (unwrapped[-1] - unwrapped[0]) / (betas[-1] - betas[0])
        assert slope == pytest.approx(np.pi, rel=1e-2)


class TestDeltaPrime:
    @pytest.mark.parametrize("key", sorted(DELTA_PRIME_KNOWN))
    def test_frozen_values(self, key):
        beta, beta0 = key
        assert delta_prime(beta, make_config(beta0)) == pytest.approx(
            DELTA_PRIME_KNOWN[key], rel=1e-12)

    @pytest.mark.parametrize("beta0", sorted(DELTA_PRIME_THRESHOLD))
    def test_frozen_threshold_values(self, beta0):
        value = delta_prime(beta0 + 1e-6, make_config(beta0))
        assert value == pytest.approx(DELTA_PRIME_THRESHOLD[beta0], rel=1e-9)

    def test_threshold_signs(self):
        # sin(pi beta0) fixes the sign of the near-threshold divergence:
        # + on (2k, 2k+1), - on (2k+1, 2k+2); even-integer step heights
        # stay finite and small.  Odd-integer heights host a bound state
        # exactly at threshold and diverge to +infinity as well.
        for beta0 in (2.5, 4.5):
            assert delta_prime(beta0 + 1e-6, make_config(beta0)) > 1e2
        for beta0 in (1.5, 3.5):
            assert delta_prime(beta0 + 1e-6, make_config(beta0)) < -1e2
        for beta0 in (2.0, 4.0):
            assert abs(delta_prime(beta0 + 1e-6, make_config(beta0))) < 0.1
        assert delta_prime(3.0 + 1e-6, make_config(3.0)) > 1e2

    def test_threshold_divergence_rate(self):
        # magnitude grows like 1/sqrt(beta - beta0)
        config = make_config(2.5)
        v1 = delta_prime(2.5 + 1e-6, config)
        v2 = delta_prime(2.5 + 4e-6, config)
        assert v1 / v2 == pytest.approx(2.0, rel=1e-3)

    def test_finite_at_integer_beta(self, cfg15):
        # the 2 pi / sin(pi beta) term must not poison integer beta
        for beta in (2.0, 3.0, 5.0, 8.0):
            assert np.isfinite(delta_prime(beta, cfg15))

    def test_matches_unwrapped_phase_derivative(self):
        for beta0 in (1.5, 4.5):
            assert phase_derivative_residual(make_config(beta0)) < 1e-5

    def test_domain(self, cfg15):
        with pytest.raises(DomainError):
            delta_prime(1.4, cfg15)

    @pytest.mark.parametrize("beta0", [1.5, 2.5, 4.5])
    def test_against_mpmath(self, beta0):
        rng = np.random.default_rng(5)
        betas = beta0 + np.concatenate([np.geomspace(1e-6, 1e3, 60),
                                        rng.uniform(1e-3, 200.0, 60)])
        exact = np.array([mpmath_delta_prime(b, beta0) for b in betas.tolist()])
        error = np.abs(delta_prime(betas, make_config(beta0)) - exact)
        assert np.all(error <= 2e-15 * np.maximum(1.0, np.abs(exact)))

    @pytest.mark.parametrize("beta0", [1.5, 4.5, 60.0])
    def test_bit_identical_to_two_digamma_calls(self, beta0):
        # the reference any regrouping of the digamma calls (one call on
        # the joined arguments, say) must reproduce bit for bit
        config = make_config(beta0)
        rng = np.random.default_rng(11)
        beta = beta0 + np.concatenate([np.geomspace(1e-6, 1e3, 5_000),
                                       rng.uniform(1e-3, 200.0, 5_000)])
        assert np.array_equal(delta_prime(beta, config),
                              delta_prime_two_digamma_calls(beta, beta0))
        for b in beta[::500]:
            assert delta_prime(float(b), config) == float(
                delta_prime_two_digamma_calls(np.float64(b), beta0))


class TestDelayTime:
    def test_is_delta_prime_over_omega(self):
        config = PotentialConfig(hbar=2.0, mass=3.0, kappa=5.0, u0=4.0)
        beta = config.beta0 + 2.3
        assert delay_time(beta, config) == pytest.approx(
            delta_prime(beta, config) / config.omega, rel=1e-14)

    def test_high_energy_limit_is_half_period(self, cfg15):
        tau = delay_time(400.0, cfg15)
        assert abs(tau * cfg15.omega / np.pi - 1.0) < 0.02

    def test_integer_step_nearly_zero_at_threshold(self):
        config = make_config(2.0)
        assert abs(delay_time(2.0 + 1e-6, config) * config.omega) < 0.1


def mpmath_pi(beta: float, beta0: float) -> complex:
    """Pi(beta) = 2 / [J(beta) + i sqrt(2/(beta-beta0)) J(beta-1)] at 40 digits."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)

        def j(x):
            return (2 * mpmath.pi * mpmath.sinpi(x / 2)
                    / (1j * mpmath.expjpi(x) * mpmath.gamma((x + 1) / 2)))

        return complex(2 / (j(b) + 1j * mpmath.sqrt(2 / (b - beta0)) * j(b - 1)))


class TestPiCoefficient:
    @pytest.mark.parametrize("beta0", [0.7, 1.5, 4.5])
    def test_against_mpmath(self, beta0):
        config = make_config(beta0)
        beta0 = config.beta0
        betas = np.concatenate([beta0 + np.geomspace(1e-8, 150.0, 300),
                                np.arange(math.floor(beta0) + 1.0, beta0 + 150.0)])
        exact = np.array([mpmath_pi(beta, beta0) for beta in betas.tolist()])
        error = np.abs(pi_coefficient(betas, config) - exact) / np.abs(exact)
        assert error.max() <= 2e-13

    def test_vanishing_denominator_names_first_beta(self, cfg15):
        # the denominator 2 pi hypot(a, b) / Gamma((beta+1)/2) is subnormal
        # at beta = 350, a real input rather than a patched J
        with pytest.raises(SingularityError, match=r"beta=350\.0$"):
            pi_coefficient(np.array([1.7, 2.5, 350.0, 360.0]), cfg15)
        with pytest.raises(SingularityError, match=r"beta=350\.0$"):
            pi_coefficient(350.0, cfg15)

    def test_reconstructs_zeta(self, cfg15):
        for beta in (1.7, 2.9, 5.3, 11.0):
            pi_c = pi_coefficient(beta, cfg15)
            rebuilt = pi_c * (j_beta(beta) - 1j * math.sqrt(2.0 / (beta - 1.5))
                              * j_beta(beta - 1.0)) / 2.0
            assert rebuilt == pytest.approx(zeta(beta, cfg15), abs=1e-10)

    def test_physical_amplitude_bounded_on_sweep(self, cfg15):
        # Pi itself grows like Gamma((beta+1)/2) because J(beta) decays
        # factorially; the quantity that must stay bounded is the interior
        # junction value Pi * J(beta) = 1 + zeta.
        betas = np.linspace(1.6, 50.0, 300)
        pis = pi_coefficient(betas, cfg15)
        assert np.all(np.isfinite(pis))
        junction = np.abs(pis * np.array([j_beta(b) for b in betas]))
        assert junction.max() <= 2.0 + 1e-9


class TestResonances:
    def test_first_three_peaks_near_odd_degeneracies(self, cfg15):
        found = find_resonances(cfg15, beta_max=10.0)
        peaks = [r.beta_peak for r in found]
        for target, peak in zip((3.0, 5.0, 7.0), peaks):
            assert abs(peak - target) < 0.2
        heights = [r.tau_peak for r in found]
        assert heights == sorted(heights, reverse=True)
        assert all(r.width > 0 for r in found)
        assert all(r.tau_peak > np.pi / cfg15.omega for r in found)

    def test_peak_disappears_above_new_bound_state(self):
        found = find_resonances(make_config(3.5), beta_max=10.0)
        assert all(abs(r.beta_peak - 3.0) > 0.2 for r in found)
        assert any(abs(r.beta_peak - 5.0) < 0.2 for r in found)

    def test_empty_scan_is_valid(self, cfg15):
        assert find_resonances(cfg15, beta_max=2.6) == []

    def test_peak_sharpens_as_it_becomes_bound(self):
        # approaching beta0 = 3 from below, the beta ~ 3 resonance grows and
        # narrows on its way to becoming the second bound state (closer to
        # the conversion point it merges into the threshold divergence and
        # stops being a resolvable local maximum)
        peaks = []
        for beta0 in (2.5, 2.6, 2.7):
            found = find_resonances(make_config(beta0), beta_max=4.4)
            near3 = [r for r in found if abs(r.beta_peak - 3.0) < 0.2]
            assert len(near3) == 1
            peaks.append(near3[0])
        heights = [p.tau_peak for p in peaks]
        assert heights == sorted(heights)

    def test_domain(self, cfg15):
        with pytest.raises(DomainError):
            find_resonances(cfg15, beta_max=2.4)

    @pytest.mark.parametrize("beta_max", [math.nan, math.inf])
    def test_non_finite_beta_max(self, cfg15, beta_max):
        with pytest.raises(DomainError, match="beta_max must be finite"):
            find_resonances(cfg15, beta_max=beta_max)

    @pytest.mark.parametrize("n", [3, 31, 99])
    @pytest.mark.parametrize("delta", [0.05, 1e-3])
    def test_just_below_odd_step_heights(self, n, delta):
        # the peak that becomes a bound state at beta0 = n sits just above
        # threshold, on the upward divergence of tau there
        beta0 = n - delta
        found = find_resonances(make_config(beta0), beta_max=beta0 + 10.0)
        assert found
        assert all(r.width > 0 for r in found)


def _mpmath_delay(beta, beta0):
    """tau at 30 digits from the phase of zeta = (a - i b)/(a + i b).

    delta = -2 atan2(b, a), so tau = delta' = -2 (a b' - b a')/(a^2 + b^2),
    with b' by mpmath.diff: a route apart from delta_prime's closed form.
    """
    def b_of(t):
        return (mpmath.sqrt(2 / (t - beta0)) * mpmath.gamma((t + 1) / 2)
                / mpmath.gamma(t / 2) * mpmath.cos(mpmath.pi * t / 2))

    a, d_a = mpmath.sin(mpmath.pi * beta / 2), mpmath.pi / 2 * mpmath.cos(mpmath.pi * beta / 2)
    b, d_b = b_of(beta), mpmath.diff(b_of, beta)
    return -2 * (a * d_b - b * d_a) / (a * a + b * b)


def _mpmath_crossing(beta0: float, level: float, inside: float, outside: float) -> float:
    """Root of tau(beta) = level between inside (above it) and outside, by 30-digit bisection."""
    with mpmath.workdps(30):
        lo, hi = mpmath.mpf(inside), mpmath.mpf(outside)
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _mpmath_delay(mid, beta0) > level else (lo, mid)
        return float((lo + hi) / 2)


class TestHalfCrossings:
    """The half-height crossings of all peaks come from one batched multisection."""

    def test_mpmath_delay_is_delay_time(self):
        with mpmath.workdps(30):
            for beta in (1.6, 3.0, 7.25, 60.5):
                exact = float(_mpmath_delay(mpmath.mpf(beta), mpmath.mpf(1.5)))
                assert delay_time(beta, make_config(1.5)) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("beta0", [1.5, 2.5, 4.5])
    def test_widths_match_mpmath(self, beta0, monkeypatch):
        # every crossing against a 30-digit root of tau = half on the grid
        # bracket of the coarse walk, and every width against those roots
        # (or the grid end a side runs into)
        crossings = []
        original = scattering._multisect

        def recorded(*args):
            roots = original(*args)
            crossings.extend(roots.tolist())
            return roots

        monkeypatch.setattr(scattering, "_multisect", recorded)
        config = make_config(beta0)
        baseline = math.pi / config.omega
        grid = np.arange(beta0 + scattering._RESONANCE_SCAN_STEP, 100.0,
                         scattering._RESONANCE_SCAN_STEP)
        taus = delay_time(grid, config)
        found = find_resonances(config, beta_max=100.0)
        maxima = [i for i in range(1, len(grid) - 1)
                  if taus[i - 1] < taus[i] >= taus[i + 1] and taus[i] > 1.05 * baseline]
        assert len(found) == len(maxima) >= 5
        computed = iter(crossings)
        for i, res in zip(maxima, found):
            half = baseline + 0.5 * (res.tau_peak - baseline)
            sides = []
            for step in (-1, 1):
                j = i
                while 0 < j < len(grid) - 1 and taus[j] > half:
                    j += step
                if taus[j] > half:
                    sides.append(float(grid[j]))
                    continue
                exact = _mpmath_crossing(beta0, half, grid[j - step], grid[j])
                assert abs(next(computed) - exact) <= 1e-10
                sides.append(exact)
            assert abs(res.width - (sides[1] - sides[0])) <= 1e-10
        assert next(computed, None) is None

    def test_half_crossings_take_few_delay_calls(self, monkeypatch, cfg15):
        # after the scan (one array call) and the scalar golden sections, the
        # crossings of 0.01-wide brackets to tol 1e-10 take one call on the
        # ends and seven 16-fold narrowings
        calls = []
        original = scattering.delay_time

        def counted(beta, config):
            calls.append(np.ndim(beta))
            return original(beta, config)

        monkeypatch.setattr(scattering, "delay_time", counted)
        assert len(find_resonances(cfg15, beta_max=100.0)) >= 5
        assert calls[0] == 1
        assert calls[1:].count(1) == 8


class TestMultisection:
    def test_reversed_brackets(self):
        # (inside, outside) in either order: the same root to tol
        levels = np.array([2.0, 2.0, 5.0, 5.0])
        inside = np.array([1.0, 2.0, 2.0, 3.0])
        outside = np.array([2.0, 1.0, 3.0, 2.0])
        roots = scattering._multisect(lambda b, k: b * b - levels[k], inside, outside, 1e-12)
        assert np.abs(roots - np.sqrt(levels)).max() <= 1e-12
        assert inside.tolist() == [1.0, 2.0, 2.0, 3.0]
        assert outside.tolist() == [2.0, 1.0, 3.0, 2.0]

    def test_takes_a_level_per_bracket(self):
        # brackets that share their ends but not their levels
        levels = np.array([2.0, 3.0, 5.0, 7.0])
        calls = []

        def residual(b, brackets):
            calls.append(brackets.tolist())
            return b * b - levels[brackets]

        roots = scattering._multisect(residual, np.array([1.0, 1.0, 2.0, 2.0]),
                                      np.array([2.0, 2.0, 3.0, 3.0]), 1e-12)
        assert np.abs(roots - np.sqrt(levels)).max() <= 1e-12
        assert calls[0] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert calls[1] == np.repeat([0, 1, 2, 3], 15).tolist()

    def test_exact_zeros_are_returned_as_they_are(self):
        # roots at the inside end, the outside end, a node of the first call
        # and a node of the second, on brackets of both orders
        roots = np.array([0.0, 1.0, 5.0 / 16.0, 1.0 - (3.0 + 7.0 / 16.0) / 16.0])
        inside = np.array([0.0, 0.0, 1.0, 1.0])
        outside = np.array([1.0, 1.0, 0.0, 0.0])
        calls = []

        def residual(b, k):
            calls.append(b.size)
            return roots[k] - b

        found = scattering._multisect(residual, inside, outside, 1e-12)
        assert found.tolist() == roots.tolist()
        assert calls == [8, 2 * 15, 15]

    def test_brackets_close_at_different_calls(self):
        # widths 1, 16 and 256 with tol = 1 need 0, 1 and 2 narrowings
        widths = 16.0 ** np.arange(3)
        targets = widths * (math.sqrt(2.0) - 1.0)
        calls = []

        def residual(b, k):
            calls.append(b.size)
            return targets[k] - b

        roots = scattering._multisect(residual, np.zeros(3), widths, 1.0)
        assert calls == [6, 2 * 15, 15]
        assert np.all(np.abs(roots - targets) <= 0.5)

    def test_tol_below_float_spacing_returns(self):
        # on (1, 1 + 4 eps) the nodes round onto four floats; the bracket
        # narrows to (1 + eps, 1 + 2 eps), which no call can narrow further
        eps = np.finfo(float).eps
        calls = []

        def residual(b, k):
            calls.append(b.size)
            return (b - 1.0) * 2.0 ** 52 - 1.5

        result = []
        worker = threading.Thread(target=lambda: result.append(scattering._multisect(
            residual, np.array([1.0]), np.array([1.0 + 4.0 * eps]), 1e-20)), daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert result, "_multisect(tol=1e-20) did not return within 10 s"
        assert result[0].tolist() == [1.0 + 2.0 * eps]
        assert calls == [2, 15, 15]

    def test_no_sign_change_raises_bracket_error(self):
        with pytest.raises(BracketError, match=r"no sign change on bracket \(3\.0, 2\.0\)"):
            scattering._multisect(lambda b, k: b * b - 2.0, np.array([1.0, 3.0]),
                                  np.array([2.0, 2.0]), 1e-12)

    def test_calls_per_bracket_width(self):
        # one call on the ends, then one per 16-fold narrowing: a 0.01-wide
        # bracket reaches tol = 1e-10 after seven (16^7 > 1e8)
        calls = []

        def residual(b, k):
            calls.append(b.size)
            return b - math.pi

        scattering._multisect(residual, np.array([3.14]), np.array([3.15]), 1e-10)
        assert calls == [2] + 7 * [15]
