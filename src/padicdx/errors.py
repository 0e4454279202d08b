"""Exception types shared by the whole kernel.

Every domain failure raises a subclass of :class:`KernelError`, so callers
(and the command line driver) can distinguish domain errors from genuine
bugs with a single ``except`` clause.
"""


class KernelError(Exception):
    """Base class for all domain errors raised by this package."""


class NegativeValuation(KernelError):
    """Reduction mod the uniformizer applied to a non-integral scalar."""


class ZeroInput(KernelError):
    """An operation that is undefined for the zero element."""


class NormTooLarge(KernelError):
    """Reduction applied to a function of Gauss norm larger than one."""


class NotAUnit(KernelError):
    """Inversion requested for a function that is not a unit on the disc."""


class ZeroOperator(KernelError):
    """An operator computation that is undefined for the zero operator."""


class TruncatedOperand(KernelError):
    """Arithmetic or analysis applied to a truncated (non-finite) operator."""


class BadLevels(KernelError):
    """A level pair violating k >= r >= 1."""


class NotInvertibleHere(KernelError):
    """Inversion requested for an element that fails the unit criterion."""


class LevelTooSmall(KernelError):
    """Operator transport to a chart requested below the blow-up level."""


class NegativePowerOutsideMicroMode(KernelError):
    """A negative power of the derivation outside a Laurent context."""


class PrecisionNotReached(KernelError):
    """A certified inversion that missed its target on every attempt."""


class MixedVariables(KernelError, ValueError):
    """An expression mixing distinct coordinate symbols."""


class MixedPrimes(KernelError, ValueError):
    """Arithmetic combining values over different primes."""


class ParseError(KernelError):
    """Syntax error in the operator expression language.

    Carries the zero-based offset of the offending character in
    ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConfigError(KernelError):
    """Invalid session configuration (prime, levels, precision, flags)."""
