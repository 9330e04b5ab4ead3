"""stormlet: a probabilistic model checker for DTMCs, CTMCs and MDPs."""

__version__ = "0.1.0"

from .errors import StormletError
from .models import Model, ModelKind, RewardModel, StateLabeling
from .solvers import SolverEnvironment
from .sparse import SparseMatrix, build_sparse

__all__ = [
    "Model",
    "ModelKind",
    "RewardModel",
    "SolverEnvironment",
    "SparseMatrix",
    "StateLabeling",
    "StormletError",
    "build_sparse",
    "__version__",
]
