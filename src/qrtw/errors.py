"""Exception taxonomy shared across the package.

Three branches matter to callers: bad input (``ModelError``), a
computation that cannot proceed for numerical reasons
(``NumericalDegeneracy``), and an iteration that ran out of budget
(``NoConvergence``).  The CLI maps each branch to its own exit code.
"""

from __future__ import annotations

__all__ = [
    "DegenerateResonance",
    "DivergentSeries",
    "EdgeOutOfWindow",
    "FullReflector",
    "InvalidWaveNumber",
    "MarginViolation",
    "ModelError",
    "NoConvergence",
    "NotUnitary",
    "NumericalDegeneracy",
    "QrtwError",
    "SingularSystem",
    "TrivialBarrier",
    "UsageError",
    "WindowTooSmall",
]


class QrtwError(Exception):
    """Base class for every error raised by this package."""


class UsageError(QrtwError):
    """Command line arguments are malformed or inconsistent."""


class ModelError(QrtwError, ValueError):
    """The model described by the inputs is ill-posed."""


class NotUnitary(ModelError):
    """A 2x2 matrix fails the unitarity residual test."""


class InvalidWaveNumber(ModelError):
    """A wave number is zero, negative, or below the scan floor."""


class WindowTooSmall(ModelError):
    """A lattice window does not cover the barrier plus margins."""


class EdgeOutOfWindow(ModelError):
    """A requested graph edge has no sites inside the profile window."""


class MarginViolation(ModelError):
    """A flux interval needs sites outside the stored window."""


class NumericalDegeneracy(QrtwError, ArithmeticError):
    """A formula or solver hits a genuine singularity."""


class DegenerateResonance(NumericalDegeneracy):
    """The resonance denominator vanishes; amplitudes are undefined."""


class SingularSystem(NumericalDegeneracy):
    """The stationary system has a bounce denominator below 1e-12."""


class TrivialBarrier(NumericalDegeneracy):
    """The barrier does not couple the two directions (b*c is zero)."""


class FullReflector(NumericalDegeneracy):
    """The barrier blocks transmission entirely (|b*c| is one)."""


class DivergentSeries(NumericalDegeneracy):
    """The bounce expansion has ratio of modulus one or more."""


class NoConvergence(QrtwError, RuntimeError):
    """An iterative run exhausted its step budget before settling."""
