"""Quantum mechanics of the step-harmonic potential.

The potential is a half-space harmonic barrier capped by a finite step:
U(x) = U0 for x >= 0, kappa x^2 / 2 for x < 0.  The package computes its
bound states, the exact reflection coefficient and phase-shift derivative
of the continuum, reflection delay times and resonances, and the dynamics
of reflected wave packets, with every analytic route paired against an
independent brute-force oracle.

``import stepharm`` loads no layer.  An exported name (``stepharm.f_epsilon``)
or a submodule (``stepharm.contour``) loads its module on first access
(PEP 562).  Every access is looked up in that module anew and nothing is
stored in the package, so a name rebound in its module, for instance by a
tracer, is what the package returns.
"""

import sys as _sys
from importlib import import_module as _import_module

__version__ = "0.1.0"

# every submodule, with the names the package exports from it
_EXPORTS = {
    "potential": ("PotentialConfig",),
    "errors": ("StepharmError", "DomainError", "GammaPoleError",
               "ConvergenceError", "BracketError", "SingularityError",
               "DispersionError"),
    "contour": ("j_beta", "f_epsilon", "f_epsilon_derivative", "hermite_poly"),
    "spectrum": ("EnergyLevel", "level_count", "level_equation_residual",
                 "solve_levels", "bound_eigenfunction"),
    "scattering": ("Resonance", "zeta", "phase_shift", "delta_prime",
                   "delay_time", "pi_coefficient", "find_resonances"),
    "wavepacket": ("WavePacketSpec", "FrameSet", "improper_eigenfunction",
                   "evolve", "measure_delay"),
    "quadrature": (), "special": (), "runtime": (), "oracle": (), "verification": (), "cli": (),
}

_ORIGIN = {name: f"{__name__}.{module}"
           for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name):
    origin = _ORIGIN.get(name)
    if origin is not None:
        module = _sys.modules.get(origin) or _import_module(origin)
        return getattr(module, name)
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)
