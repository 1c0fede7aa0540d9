"""Unit conventions: derived constants and spectral-coordinate couplings."""

import math

import pytest

from stepharm import DomainError, PotentialConfig


class TestPotentialConfig:
    def test_derived_quantities(self):
        config = PotentialConfig(hbar=2.0, mass=3.0, kappa=5.0, u0=4.0)
        assert config.omega == pytest.approx(math.sqrt(5.0 / 3.0))
        assert config.alpha == pytest.approx((3.0 * 5.0 / 4.0) ** 0.25)
        assert config.beta0 == pytest.approx(4.0 / (2.0 * config.omega) + 0.5)
        assert config.period == pytest.approx(2.0 * math.pi / config.omega)

    def test_from_beta0_roundtrip(self):
        for beta0 in (0.5, 1.0, 3.7, 200.0):
            assert PotentialConfig.from_beta0(beta0).beta0 == pytest.approx(beta0)

    def test_from_beta0_below_half_rejected(self):
        with pytest.raises(DomainError):
            PotentialConfig.from_beta0(0.3)

    @pytest.mark.parametrize("beta0", [math.nan, math.inf])
    def test_from_beta0_non_finite_rejected(self, beta0):
        with pytest.raises(DomainError, match="beta0 must be finite"):
            PotentialConfig.from_beta0(beta0)

    @pytest.mark.parametrize("kwargs", [
        {"hbar": 0.0}, {"mass": -1.0}, {"kappa": 0.0}, {"u0": -0.1},
        {"u0": math.inf}, {"hbar": math.nan}, {"mass": math.inf}, {"kappa": math.nan},
    ])
    def test_invalid_constants_rejected(self, kwargs):
        with pytest.raises(DomainError):
            PotentialConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"hbar": 1e-300, "u0": 1e10},                  # beta0 = inf
        {"mass": 1e-300, "kappa": 1e300, "u0": 1.0},   # omega = inf
        {"mass": 1e300, "kappa": 1e-300, "u0": 1.0},   # omega underflows to 0
    ])
    def test_overflowing_derived_quantities_rejected(self, kwargs):
        with pytest.raises(DomainError, match="derived omega and alpha"):
            PotentialConfig(**kwargs)

    def test_wavenumber_couplings(self):
        config = PotentialConfig.from_beta0(2.5)
        beta = 4.0
        k = config.k_continuum(beta)
        # hbar k = sqrt(2 m (E - U0))
        assert config.hbar * k == pytest.approx(
            math.sqrt(2.0 * config.mass * (config.energy(beta) - config.u0)))
        assert config.beta_from_k(k) == pytest.approx(beta, rel=1e-14)
        kb = config.k_bound(1.3)
        assert config.hbar * kb == pytest.approx(
            math.sqrt(2.0 * config.mass * (config.u0 - config.energy(1.3))))

    def test_wavenumber_domains(self):
        config = PotentialConfig.from_beta0(2.5)
        with pytest.raises(DomainError):
            config.k_continuum(2.0)
        with pytest.raises(DomainError):
            config.k_bound(3.0)

    def test_energy_beta_roundtrip(self):
        config = PotentialConfig(hbar=1.5, mass=0.7, kappa=2.2, u0=3.0)
        for beta in (0.7, 1.0, 5.5):
            assert config.beta_from_energy(config.energy(beta)) == pytest.approx(beta)

