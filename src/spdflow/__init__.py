"""spdflow: structure-preserving Lie group integrators for matrix ODEs on
the manifold of symmetric positive definite matrices."""

from . import actions, errors, integrators, manifold, matcore, models

__version__ = "0.1.0"

__all__ = [
    "actions",
    "errors",
    "integrators",
    "manifold",
    "matcore",
    "models",
    "__version__",
]
