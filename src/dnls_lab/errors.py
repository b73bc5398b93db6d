"""Exception types shared across the package."""


class DnlsLabError(Exception):
    """Base class for all package-specific errors."""


class WrongDomainError(DnlsLabError):
    """Operation invoked on a domain kind it is not defined for."""


class DomainMismatchError(DnlsLabError):
    """Fields from different domains were combined."""


class InvalidDyadicIndexError(DnlsLabError, ValueError):
    """Dyadic index is not 1 or a positive power of two."""


class ExtensionError(DnlsLabError):
    """Time window support exceeds the trajectory span."""


class EdgeDecayError(DnlsLabError):
    """Line-approximation data does not vanish at the box edges."""


class BlowUpError(DnlsLabError):
    """Solution left the trust region during time stepping."""

    def __init__(self, time):
        self.time = time
        super().__init__(f"blow-up detected at t={time!r}")


class NonFiniteError(DnlsLabError, ValueError):
    """A computed constant overflowed or turned NaN."""


class ConservationError(DnlsLabError):
    """A conserved quantity drifted beyond tolerance along a trajectory."""


class ParameterError(DnlsLabError, ValueError):
    """Probe parameters outside the admissible region."""
