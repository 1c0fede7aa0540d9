"""Reflection coefficient, phase shift, closed-form delay and resonances."""

import math

import numpy as np
import pytest
import scipy.special as sps

from stepharm import (DomainError, PotentialConfig, delay_time, delta_prime,
                      find_resonances, phase_shift, pi_coefficient, zeta,
                      j_beta)
from stepharm import scattering
from stepharm.scattering import sample
from stepharm.spectrum import _bisect_all
from stepharm.special import digamma, gamma_half_ratio
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
    num = 0.5 * np.sqrt(x) * (
        np.sin(np.pi * b) * (1.0 / x + digamma(b / 2.0) - digamma((b + 1.0) / 2.0))
        + 2.0 * np.pi)
    den = (x / (ratio * math.sqrt(2.0)) * np.sin(np.pi * b / 2.0) ** 2
           + ratio * math.sqrt(2.0) * np.cos(np.pi * b / 2.0) ** 2)
    return num / den


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

    def test_sample_record_consistent(self, cfg15):
        record = sample(4.2, cfg15)
        assert record.tau == pytest.approx(record.delta_prime / cfg15.omega)
        assert abs(record.zeta) == pytest.approx(1.0, abs=1e-12)
        assert record.delta == pytest.approx(np.angle(record.zeta))


class TestPiCoefficient:
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


def scalar_half_crossing(f, inside: float, outside: float, level: float,
                         tol: float = 1e-10) -> float:
    """Bisect f(beta) = level between a point above and a point below it, one call at a time."""
    lo, hi = inside, outside
    f_lo = f(lo) - level
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) - level) * f_lo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestHalfCrossings:
    """The half-height crossings of all peaks come from one batched bisection."""

    @pytest.mark.parametrize("beta0", [1.5, 2.5, 4.5])
    def test_widths_match_scalar_bisection(self, beta0):
        # the reference walks the coarse scan outward from each local maximum
        # and bisects each crossing on its own, one scalar call per step
        config = make_config(beta0)
        baseline = math.pi / config.omega
        grid = np.arange(beta0 + scattering._RESONANCE_SCAN_STEP, 100.0,
                         scattering._RESONANCE_SCAN_STEP)
        taus = delay_time(grid, config)
        tau_of = lambda b: delay_time(float(b), config)
        found = find_resonances(config, beta_max=100.0)
        maxima = [i for i in range(1, len(grid) - 1)
                  if taus[i - 1] < taus[i] >= taus[i + 1] and taus[i] > 1.05 * baseline]
        assert len(found) == len(maxima) >= 5
        for i, res in zip(maxima, found):
            half = baseline + 0.5 * (res.tau_peak - baseline)
            left = i
            while left > 0 and taus[left] > half:
                left -= 1
            right = i
            while right < len(grid) - 1 and taus[right] > half:
                right += 1
            b_left = (scalar_half_crossing(tau_of, grid[left + 1], grid[left], half)
                      if taus[left] <= half else grid[left])
            b_right = (scalar_half_crossing(tau_of, grid[right - 1], grid[right], half)
                       if taus[right] <= half else grid[right])
            assert res.width == float(b_right - b_left)

    def test_half_crossings_take_few_delay_calls(self, monkeypatch, cfg15):
        # after the scan (one array call) and the scalar golden sections, the
        # crossings of 0.01-wide brackets to tol 1e-10 (27 halvings) take one
        # call on the ends and seven of four levels each
        calls = []
        original = scattering.delay_time

        def counted(beta, config):
            calls.append(np.ndim(beta))
            return original(beta, config)

        monkeypatch.setattr(scattering, "delay_time", counted)
        assert len(find_resonances(cfg15, beta_max=100.0)) >= 5
        assert calls[0] == 1
        assert calls[1:].count(1) == 8

    def test_bisect_all_takes_a_level_per_bracket(self):
        # brackets that share their ends but not their levels
        levels = np.array([2.0, 3.0, 5.0, 7.0])
        calls = []

        def residual(b, brackets):
            calls.append(brackets.tolist())
            return b * b - levels[brackets]

        roots = _bisect_all(residual, np.array([1.0, 1.0, 2.0, 2.0]),
                            np.array([2.0, 2.0, 3.0, 3.0]), 1e-12)
        assert np.abs(roots - np.sqrt(levels)).max() <= 1e-12
        assert calls[0] == [0, 1, 2, 3, 0, 1, 2, 3]
