"""Exception types raised by the stepharm numerical routines."""


class StepharmError(Exception):
    """Base class for all stepharm-specific errors."""


class DomainError(StepharmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GammaPoleError(DomainError):
    """Gamma function evaluated at a non-positive integer."""


class ConvergenceError(StepharmError, RuntimeError):
    """An adaptive quadrature or refinement loop failed to converge."""


class BracketError(StepharmError, RuntimeError):
    """A root bracket did not contain a sign change.

    Both bracketed root searches build their brackets so that this cannot
    happen; it signals an internal inconsistency.  The level equation's
    pole-free phase form is negative at the lower end 2n+1 of every bracket
    and positive at the upper end min(2n+2, beta0), so the level solver
    takes the brackets as they are, with no endpoint pull.  Each half-height
    crossing of ``find_resonances`` is bracketed by two neighbours of the
    coarse delay scan that lie on either side of the half level.
    """


class SingularityError(StepharmError, ZeroDivisionError):
    """A denominator that should be nonzero vanished numerically."""


class DispersionError(StepharmError, RuntimeError):
    """A reflected wave packet is too broadened for its delay to be localized."""
