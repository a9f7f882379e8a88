"""Exception hierarchy for spdflow."""


class SpdflowError(Exception):
    """Base class for all spdflow errors."""


class NonFinite(SpdflowError):
    """A matrix contains NaN or infinite entries."""


class DimMismatch(SpdflowError):
    """Operand dimensions are incompatible."""


class NotSymmetric(SpdflowError):
    """A matrix required to be symmetric is not."""


class NotSpd(SpdflowError):
    """A matrix required to be symmetric positive definite is not."""


class UnsupportedOrder(SpdflowError):
    """Requested series truncation order is not supported."""


class Singular(SpdflowError):
    """A matrix required to be invertible is numerically singular."""


class NotSymplectic(SpdflowError):
    """A matrix fails the symplectic-group membership test."""


class ModelEvalFailure(SpdflowError):
    """A model right-hand side could not be evaluated."""


class ReferenceLeftManifold(SpdflowError):
    """A fine-step reference iterate left the SPD manifold."""


class ConfigError(SpdflowError):
    """Invalid experiment configuration."""
