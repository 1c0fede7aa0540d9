"""Gamma-family kernel against scipy and against internal identities.

scipy.special is used here purely as an independent second route; the
package itself never imports it.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from stepharm import DomainError, GammaPoleError
from stepharm.special import digamma, gamma, gamma_half_ratio, log_gamma

EULER_GAMMA = 0.57721566490153286


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_at_half(self):
        assert log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)),
                                                    abs=1e-13)

    def test_at_five(self):
        assert log_gamma(5.0).real == pytest.approx(math.log(24.0), rel=1e-13)

    @pytest.mark.parametrize("z", [0.3, 1.7, 12.0, 200.5, 4000.0])
    def test_matches_scipy_loggamma_real(self, z):
        assert log_gamma(z).real == pytest.approx(sps.loggamma(z).real,
                                                  rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("z", [2.0 + 3.0j, 0.5 - 2.5j, -0.7 + 0.2j])
    def test_matches_scipy_loggamma_complex(self, z):
        mine = log_gamma(z)
        ref = sps.loggamma(z)
        assert abs(np.exp(mine) - np.exp(ref)) <= 1e-12 * abs(np.exp(ref))

    @pytest.mark.parametrize("z", [-0.5, -1.5, -3.3, -4.9])
    def test_negative_axis_via_reflection(self, z):
        assert np.exp(log_gamma(z)) == pytest.approx(sps.gamma(z), rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
    def test_pole_raises(self, z):
        with pytest.raises(GammaPoleError):
            log_gamma(z)

    def test_array_matches_scalars(self):
        zs = np.array([0.25, 1.0, 3.5, 17.2])
        vec = log_gamma(zs)
        assert np.allclose(vec, [log_gamma(z) for z in zs], rtol=0, atol=1e-14)

    def test_reflection_identity_grid(self):
        zs = np.array([z for z in np.arange(-4.9, 4.95, 0.1)
                       if abs(z - round(z)) > 1e-9])
        product = gamma(zs) * gamma(1.0 - zs)
        reference = np.pi / np.sin(np.pi * zs)
        assert np.max(np.abs(product - reference) / np.abs(reference)) < 1e-10


class TestDigamma:
    def test_at_one_is_minus_euler(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0),
                                             abs=1e-13)

    def test_against_scipy_grid(self):
        xs = np.concatenate([np.linspace(1e-3, 1.0, 200),
                             np.linspace(1.0, 200.0, 400)])
        assert np.max(np.abs(digamma(xs) - sps.digamma(xs))) < 1e-12

    def test_against_complex_step_of_log_gamma(self):
        # second route named alongside the series: differentiate log_gamma
        h = 1e-20
        for x in (0.3, 1.0, 2.7, 15.0, 80.0):
            derivative = log_gamma(x + 1j * h).imag / h
            assert digamma(x) == pytest.approx(derivative, rel=1e-12)

    def test_half_shift_difference_vanishes(self):
        gaps = [abs(digamma(z) - digamma(z + 0.5)) for z in (10.0, 100.0, 1000.0)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3

    def test_recurrence_identity(self):
        xs = np.linspace(0.1, 50.0, 999)
        assert np.max(np.abs(digamma(xs + 1.0) - digamma(xs) - 1.0 / xs)) < 1e-12

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            digamma(x)


class TestGammaHalfRatio:
    def test_at_one(self):
        # direct Gamma evaluation as the oracle
        assert gamma_half_ratio(1.0) == pytest.approx(
            sps.gamma(1.5) / sps.gamma(1.0), rel=1e-12)
        assert gamma_half_ratio(1.0) == pytest.approx(math.sqrt(math.pi) / 2.0,
                                                      rel=1e-12)

    def test_at_half(self):
        assert gamma_half_ratio(0.5) == pytest.approx(1.0 / math.sqrt(math.pi),
                                                      rel=1e-12)

    def test_large_argument_asymptote(self):
        z = 1e4
        assert abs(gamma_half_ratio(z) / math.sqrt(z) - 1.0) < 1e-4

    def test_no_overflow_for_huge_argument(self):
        assert np.isfinite(gamma_half_ratio(1e6))

    def test_duplication_consequence(self):
        zs = np.linspace(0.05, 80.0, 801)
        product = gamma_half_ratio(zs) * gamma_half_ratio(zs + 0.5)
        assert np.max(np.abs(product / zs - 1.0)) < 1e-10

    @pytest.mark.parametrize("z", [1e3, 1e5, 1e7])
    def test_large_argument_against_mpmath(self, z):
        with mpmath.workdps(40):
            exact = float(mpmath.gamma(mpmath.mpf(z) + 0.5) / mpmath.gamma(mpmath.mpf(z)))
        assert abs(gamma_half_ratio(z) / exact - 1.0) < 1e-14

    def test_continuous_across_series_crossover(self):
        below = gamma_half_ratio(np.nextafter(1e3, 0.0))
        assert abs(below / gamma_half_ratio(1e3) - 1.0) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gamma_half_ratio(-1.0)
