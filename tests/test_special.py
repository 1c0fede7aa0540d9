"""Gamma-family kernel against scipy and against internal identities.

scipy.special is used here purely as an independent second route; the
package itself never imports it.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from stepharm import DomainError, GammaPoleError
from stepharm import special
from stepharm.special import (digamma, gamma, gamma_half_ratio, log_gamma,
                              reciprocal_gamma)

EULER_GAMMA = 0.57721566490153286
EPS = np.finfo(float).eps


def lanczos_log_gamma_loop(z):
    """The Lanczos series for log Gamma term by term, Re z >= 1/2; a bit-level reference."""
    zz = z - 1.0
    acc = np.full_like(zz, special._LANCZOS_COEFFS[0])
    for i, c in enumerate(special._LANCZOS_COEFFS[1:], start=1):
        acc = acc + c / (zz + i)
    t = zz + special._LANCZOS_G + 0.5
    return special._LOG_SQRT_TWO_PI + (zz + 0.5) * np.log(t) - t + np.log(acc)


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

    def test_equals_the_term_by_term_series_bit_for_bit(self):
        # the one-pass kernel sums the partial fractions in the series' order
        zs = np.concatenate([np.geomspace(0.5, 1e6, 2000), np.linspace(0.5, 60.0, 500)])
        assert np.array_equal(log_gamma(zs), lanczos_log_gamma_loop(zs.astype(complex)))
        zc = zs[:500] + 1j * np.linspace(-8.0, 8.0, 500)
        assert np.array_equal(log_gamma(zc), lanczos_log_gamma_loop(zc))
        assert log_gamma(3.7) == complex(lanczos_log_gamma_loop(np.array([3.7 + 0j]))[0])

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

    @pytest.mark.parametrize("x", [1e-8, 0.5, 11.999999, 12.0, 12.000001, 40.0])
    def test_against_mpmath_around_the_shift(self, x):
        with mpmath.workdps(40):
            exact = float(mpmath.digamma(mpmath.mpf(x)))
        assert abs(digamma(x) - exact) <= 2e-15 * max(1.0, abs(exact))

    def test_array_matches_scalars(self):
        xs = np.concatenate([np.geomspace(1e-8, 30.0, 400),
                             np.linspace(11.999, 12.001, 101)])
        assert np.array_equal(digamma(xs), [digamma(float(x)) for x in xs])

    def test_long_array_matches_scalars(self):
        # past special._MATRIX_POINTS the fractions are formed term by term
        xs = np.geomspace(1e-3, 1e4, 3 * special._MATRIX_POINTS)
        assert np.array_equal(digamma(xs), [digamma(float(x)) for x in xs])

    def test_against_mpmath_geometric_grid(self):
        # below 1/2 the Lanczos pass runs on x + 1, at 1/2 and above on x
        xs = np.concatenate([np.geomspace(1e-8, 1e6, 400),
                             [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
                              1.4616321449683623]])  # the zero of psi
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.digamma(mpmath.mpf(float(x)))) for x in xs])
        assert np.all(np.abs(digamma(xs) - exact) <= 2e-15 * np.maximum(1.0, np.abs(exact)))


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
        assert np.max(np.abs(product / zs - 1.0)) < 1e-14

    @pytest.mark.parametrize("z", [1e3, 1e5, 1e7])
    def test_large_argument_against_mpmath(self, z):
        with mpmath.workdps(40):
            exact = float(mpmath.gamma(mpmath.mpf(z) + 0.5) / mpmath.gamma(mpmath.mpf(z)))
        assert abs(gamma_half_ratio(z) / exact - 1.0) < 1e-14

    def test_against_mpmath_below_series(self):
        # one route for every z: the shift below z = 16 and the series above
        zs = np.concatenate([np.geomspace(1e-6, 0.5, 50, endpoint=False),
                             np.linspace(0.5, 6.0, 50, endpoint=False),
                             np.geomspace(6.0, 1e6, 300),
                             np.nextafter(special._RATIO_SHIFT, [0.0, np.inf])])
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.exp(mpmath.loggamma(mpmath.mpf(z) + 0.5)
                                               - mpmath.loggamma(mpmath.mpf(z))))
                              for z in zs.tolist()])
        error = np.abs(gamma_half_ratio(zs) / exact - 1.0)
        assert error.max() <= 2e-15
        assert np.array_equal(gamma_half_ratio(zs), [gamma_half_ratio(float(z)) for z in zs])

    def test_continuous_across_series_crossover(self):
        # below z = 16 the series is summed at z + 16 and the shift undone
        below = gamma_half_ratio(np.nextafter(special._RATIO_SHIFT, 0.0))
        assert abs(below / gamma_half_ratio(special._RATIO_SHIFT) - 1.0) < 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gamma_half_ratio(-1.0)


class TestRatioKernel:
    """R = Gamma(z + 1/2)/Gamma(z) and D = psi(z + 1/2) - psi(z) from special._ratio_and_psi_gap."""

    ZS = np.concatenate([np.geomspace(1e-6, 1e6, 1200),
                         np.linspace(0.5, 40.0, 157),
                         np.nextafter(special._RATIO_SHIFT, [0.0, np.inf])])

    def test_psi_gap_against_mpmath(self):
        # R itself is checked through gamma_half_ratio above
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.digamma(z + 0.5) - mpmath.digamma(z))
                              for z in map(mpmath.mpf, self.ZS.tolist())])
        _, gap = special._ratio_and_psi_gap(self.ZS)
        assert np.max(np.abs(gap / exact - 1.0)) <= 2e-15

    def test_array_matches_scalars(self):
        ratio, gap = special._ratio_and_psi_gap(self.ZS)
        alone = [special._ratio_and_psi_gap(np.array([z])) for z in self.ZS]
        assert np.array_equal(ratio, [r[0] for r, _ in alone])
        assert np.array_equal(gap, [g[0] for _, g in alone])

    def test_series_coefficients_are_the_bernoulli_differences(self):
        # d_k = (-1)^(k+1) [B_{k+1}(1/2) - B_{k+1}(0)] / (k (k+1)), DLMF 5.11.8
        with mpmath.workdps(40):
            exact = [float((-1) ** (k + 1) * (mpmath.bernpoly(k + 1, mpmath.mpf(1) / 2)
                                              - mpmath.bernpoly(k + 1, 0)) / (k * (k + 1)))
                     for k in range(1, 2 * len(special._RATIO_SERIES), 2)]
        assert special._RATIO_SERIES == exact


class TestReciprocalGamma:
    def test_against_mpmath(self):
        # reflected below 1/2: the sign of sin(pi x) carries the sign of 1/Gamma
        xs = np.concatenate([np.linspace(-9.7, 0.45, 204), np.geomspace(0.5, 170.0, 200)])
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.rgamma(mpmath.mpf(float(x)))) for x in xs])
        error = np.abs(reciprocal_gamma(xs) - exact)
        assert np.all(error <= 1e-13 * np.maximum(1.0, np.abs(exact)))

    def test_exact_zeros_at_the_poles_of_gamma(self):
        poles = -np.arange(10.0)
        assert np.all(reciprocal_gamma(poles) == 0.0)
        assert reciprocal_gamma(-3.0) == 0.0

    def test_array_matches_scalars(self):
        xs = np.linspace(-7.3, 40.0, 731)
        assert np.array_equal(reciprocal_gamma(xs), [reciprocal_gamma(float(x)) for x in xs])
        assert type(reciprocal_gamma(2.5)) is float


class TestSinCosPi:
    """special._sin_cos_pi: sin(pi x) and cos(pi x) from an exactly reduced argument."""

    INTEGERS = np.concatenate([np.arange(-6.0, 7.0), [1001.0, 12345.0, 1e8 - 1.0, 1e8]])

    def test_exact_zeros_and_signs(self):
        n = self.INTEGERS
        sin, cos = special._sin_cos_pi(n)
        assert np.all(sin == 0.0)
        assert np.array_equal(cos, np.where(n % 2.0 == 0.0, 1.0, -1.0))
        sin, cos = special._sin_cos_pi(n + 0.5)
        assert np.all(cos == 0.0)
        assert np.array_equal(sin, np.where(n % 2.0 == 0.0, 1.0, -1.0))

    def test_against_mpmath_near_zeros_and_at_large_x(self):
        n = self.INTEGERS
        rng = np.random.default_rng(3)
        xs = np.concatenate([n + 1e-12, n - 1e-12, n + 0.5 + 1e-12, n + 0.5 - 1e-12,
                             rng.uniform(-5.0, 5.0, 500), rng.uniform(-1e8, 1e8, 500)])
        sin, cos = special._sin_cos_pi(xs)
        with mpmath.workdps(40):
            exact = np.array([(float(mpmath.sinpi(x)), float(mpmath.cospi(x)))
                              for x in map(mpmath.mpf, xs.tolist())])
        for value, ref in zip((sin, cos), exact.T):
            assert np.all(np.abs(value - ref) <= 1.5 * EPS * np.abs(ref))

    def test_array_matches_scalars(self):
        xs = np.concatenate([np.linspace(-7.3, 40.0, 731), self.INTEGERS + 0.5])
        sin, cos = special._sin_cos_pi(xs)
        scalars = np.array([special._sin_cos_pi(float(x)) for x in xs])
        assert np.array_equal(sin, scalars[:, 0]) and np.array_equal(cos, scalars[:, 1])


class TestHugeArguments:
    def test_finite_without_warning(self):
        # log Gamma overflows above z = 2.6e305: neither kernel forms it for these
        zs = np.array([0.3, 5.0, 2e3, 1e306, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio, gap = special._ratio_and_psi_gap(zs)
            results = [gamma_half_ratio(1e306), digamma(1e306), gamma_half_ratio(zs),
                       digamma(zs), ratio, gap]
            assert np.isinf(gamma_half_ratio(np.inf)) and np.isinf(digamma(np.inf))
            ratio_inf, gap_inf = special._ratio_and_psi_gap(np.array([np.inf]))
        assert all(np.all(np.isfinite(r)) for r in results)
        assert np.isinf(ratio_inf[0]) and gap_inf[0] == 0.0
        assert gamma_half_ratio(1e306) == pytest.approx(1e153, rel=1e-15)
        assert gap[3] == pytest.approx(0.5e-306, rel=1e-15)
        assert digamma(1e306) == pytest.approx(math.log(1e306), rel=1e-15)


class TestLanczosCoefficientsReadPerCall:
    def test_corrupted_coefficient_moves_every_function(self, monkeypatch):
        # the kernel must not hold a copy of the table made at import
        xs = np.array([0.3, 1.3, 2.7, 15.5])
        before = (log_gamma(xs), digamma(xs), reciprocal_gamma(-xs))
        corrupted = list(special._LANCZOS_COEFFS)
        corrupted[3] *= 1.000001
        monkeypatch.setattr(special, "_LANCZOS_COEFFS", corrupted)
        after = (log_gamma(xs), digamma(xs), reciprocal_gamma(-xs))
        for old, new in zip(before, after):
            assert np.all(np.abs(new - old) > 1e-9 * np.abs(old))
