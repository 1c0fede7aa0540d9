"""Quantum mechanics of the step-harmonic potential.

The potential is a half-space harmonic barrier capped by a finite step:
U(x) = U0 for x >= 0, kappa x^2 / 2 for x < 0.  The package computes its
bound states, the exact reflection coefficient and phase-shift derivative
of the continuum, reflection delay times and resonances, and the dynamics
of reflected wave packets, with every analytic route paired against an
independent brute-force oracle.
"""

__version__ = "0.1.0"

from .contour import (asymptotic_f2, f_epsilon, f_epsilon_derivative,
                      hermite_poly, j_beta)
from .errors import (BracketError, ConvergenceError, DispersionError,
                     DomainError, GammaPoleError, SingularityError,
                     StepharmError)
from .potential import PotentialConfig
from .scattering import (PhaseShiftSample, Resonance, delay_time, delta_prime,
                         find_resonances, phase_shift, pi_coefficient, sample,
                         zeta)
from .spectrum import (EnergyLevel, bound_eigenfunction, level_count,
                       level_equation_residual, solve_levels)
from .wavepacket import (FrameSet, WavePacketSpec, evolve,
                         improper_eigenfunction, measure_delay)

__all__ = [
    "__version__",
    "PotentialConfig",
    "EnergyLevel", "PhaseShiftSample", "Resonance",
    "WavePacketSpec", "FrameSet",
    "StepharmError", "DomainError", "GammaPoleError", "ConvergenceError",
    "BracketError", "SingularityError", "DispersionError",
    "j_beta", "f_epsilon", "f_epsilon_derivative", "hermite_poly",
    "asymptotic_f2",
    "level_count", "level_equation_residual", "solve_levels",
    "bound_eigenfunction",
    "zeta", "phase_shift", "delta_prime", "delay_time", "pi_coefficient",
    "sample", "find_resonances",
    "improper_eigenfunction", "evolve", "measure_delay",
]
