"""Exception types shared across the package."""

from __future__ import annotations


class LatticeError(Exception):
    """Base class for every error raised by this package."""


class CycleDetected(LatticeError):
    """The cover digraph contains a directed cycle."""


class NotBounded(LatticeError):
    """The order lacks a unique least or greatest element."""


class DuplicateCover(LatticeError):
    """A cover pair is listed more than once."""


class NotALattice(LatticeError):
    """Some pair of elements has no unique meet or join."""


class SpecTooSmall(LatticeError):
    """Both grid chain lengths must be at least 2."""


class NotRectangular(LatticeError):
    """No rectangular boundary profile; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NotACell(LatticeError):
    """The given quadruple is not a 4-cell of the diagram."""


class ValidatorFailed(LatticeError):
    """A mandatory structural validation failed after an edit."""


class TooLarge(LatticeError):
    """Input is beyond a documented size cap."""


class TooSmall(LatticeError):
    """Candidate lattice must have more than two elements."""


class NotAnIdeal(LatticeError):
    """Subset is not down-closed and join-closed."""


class NotPrime(LatticeError):
    """Ideal is not a prime ideal."""


class NotDistributive(LatticeError):
    """Candidate lattice contains a pentagon or diamond sublattice."""


class BudgetExceeded(LatticeError):
    """Enumeration exceeded its class budget."""


class ScriptError(LatticeError):
    """A fork script step could not be applied."""


class ParseError(LatticeError):
    """Input file is not well-formed."""


class ValidationError(LatticeError):
    """Input decoded but does not describe a valid diagram."""
