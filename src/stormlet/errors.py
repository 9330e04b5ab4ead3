"""Exception hierarchy shared across the package.

Exit-code mapping for the CLI lives in stormlet.cli; library code only raises.
"""


class StormletError(Exception):
    """Base class for all errors raised by stormlet."""


class ParseError(StormletError):
    """Malformed textual input (model files, programs, properties, flags)."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class ModelError(StormletError):
    """Semantically invalid model (non-stochastic rows, deadlocks, bad rewards)."""


class DeadlockError(ModelError):
    def __init__(self, state, detail=""):
        self.state = state
        super().__init__(f"deadlock state {state}{(': ' + detail) if detail else ''}")


class PropertyError(StormletError):
    """Property cannot be resolved or checked against the given model."""


class UnsupportedCombination(PropertyError):
    pass


class SolverError(StormletError):
    pass


class NotConverged(SolverError):
    """Iteration cap hit before the convergence criterion; carries the best iterate."""

    def __init__(self, iterations, best=None):
        self.iterations = iterations
        self.best = best
        super().__init__(f"no convergence within {iterations} iterations")


class SingularMatrix(SolverError):
    pass


class LambdaTooLarge(SolverError):
    pass
