"""Physical configuration of the step-harmonic potential.

The potential is U(x) = U0 for x >= 0 and kappa x^2 / 2 for x < 0.
:class:`PotentialConfig` is the single source of unit conventions; every
derived quantity (omega, alpha, beta0, the period) is recomputed from the
four stored constants rather than cached, so the object can never become
internally inconsistent.

Dimensionless spectral coordinates used throughout the package:

* ``epsilon = 2 E / (hbar omega)``
* ``beta = (epsilon + 1) / 2``, so E = hbar omega (beta - 1/2)
* ``beta0 = U0 / (hbar omega) + 1/2`` marks the continuum threshold E = U0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PotentialConfig:
    """Physical constants of the step-harmonic problem."""

    hbar: float = 1.0
    mass: float = 1.0
    kappa: float = 1.0
    u0: float = 0.5

    def __post_init__(self):
        if not all(map(math.isfinite, (self.hbar, self.mass, self.kappa, self.u0))):
            raise DomainError("hbar, mass, kappa and u0 must be finite")
        if self.hbar <= 0 or self.mass <= 0 or self.kappa <= 0:
            raise DomainError("hbar, mass and kappa must be positive")
        if self.u0 < 0:
            raise DomainError("step height u0 must be non-negative")
        try:  # hbar**2 can overflow, and hbar**2 or hbar*omega underflow to 0
            derived = (0.0 < self.omega < math.inf and 0.0 < self.alpha < math.inf
                       and math.isfinite(self.beta0))
        except (OverflowError, ZeroDivisionError):
            derived = False
        if not derived:
            raise DomainError("derived omega and alpha must be positive and finite, "
                              "and beta0 finite")

    @classmethod
    def from_beta0(cls, beta0: float) -> "PotentialConfig":
        """Build a configuration with the given dimensionless step height.

        With hbar = mass = kappa = 1, hence omega = alpha = 1, this realizes
        the dimensionless bookkeeping in which all results depend only on
        beta and beta0.
        """
        if not math.isfinite(beta0):
            raise DomainError("beta0 must be finite")
        if beta0 < 0.5:
            raise DomainError("beta0 must be >= 1/2 (u0 >= 0)")
        return cls(u0=beta0 - 0.5)

    @property
    def omega(self) -> float:
        """Angular frequency sqrt(kappa/mass) of the harmonic branch."""
        return math.sqrt(self.kappa / self.mass)

    @property
    def alpha(self) -> float:
        """Inverse oscillator length (mass*kappa/hbar^2)^(1/4)."""
        return (self.mass * self.kappa / self.hbar**2) ** 0.25

    @property
    def beta0(self) -> float:
        """Dimensionless step height u0/(hbar*omega) + 1/2."""
        return self.u0 / (self.hbar * self.omega) + 0.5

    @property
    def period(self) -> float:
        """Classical oscillator period T = 2*pi/omega."""
        return 2.0 * math.pi / self.omega

    def energy(self, beta: float) -> float:
        """Absolute energy E = hbar*omega*(beta - 1/2)."""
        return self.hbar * self.omega * (beta - 0.5)

    def beta_from_energy(self, energy: float) -> float:
        return energy / (self.hbar * self.omega) + 0.5

    def k_continuum(self, beta) -> float | np.ndarray:
        """Exterior wavenumber, hbar*k = sqrt(2m(E - U0)); requires beta >= beta0."""
        b = np.asarray(beta, dtype=float)
        if np.any(b < self.beta0):
            raise DomainError("continuum wavenumber requires beta >= beta0")
        k = self.alpha * np.sqrt(2.0 * (b - self.beta0))
        return float(k) if np.ndim(beta) == 0 else k

    def k_bound(self, beta) -> float | np.ndarray:
        """Exterior decay constant, hbar*k = sqrt(2m(U0 - E)); requires beta <= beta0."""
        b = np.asarray(beta, dtype=float)
        if np.any(b > self.beta0):
            raise DomainError("bound decay constant requires beta <= beta0")
        k = self.alpha * np.sqrt(2.0 * (self.beta0 - b))
        return float(k) if np.ndim(beta) == 0 else k

    def beta_from_k(self, k) -> float | np.ndarray:
        """Continuum beta for a given exterior wavenumber."""
        return self.beta0 + 0.5 * (k / self.alpha) ** 2

