"""Exception and warning types shared across the package."""


class TpqsimError(Exception):
    """Base class for all package-specific errors."""


class ZeroProbability(TpqsimError):
    """Post-selection outcome has (numerically) zero probability."""


class EntryOutOfRange(TpqsimError):
    """Matrix entry outside [-1, 1]; cannot be encoded as a rotation angle."""


class SingularSystem(TpqsimError):
    """Regularized least-squares system could not be solved."""


class DimensionOverflow(TpqsimError):
    """Dense matrix whose diagonalization exceeds physical memory."""


class ConfigError(TpqsimError):
    """Invalid or inconsistent run configuration."""


class DomainTooSmallWarning(UserWarning):
    """QITE domain smaller than the support of some Hamiltonian term."""
