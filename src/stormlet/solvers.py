"""Solver layer: linear fixed-point systems, Bellman systems, Poisson windows.

All systems use the fixed-point form x = A.x + b. Iterative methods require
the spectral radius of A to be below one; the checkers guarantee this by
qualitative precomputation and the solvers do not re-verify it.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import graph, kernels, sparse
from .errors import DiagonalOne, LambdaTooLarge, NotConverged, SingularMatrix, SolverError


# Iterative methods stop once successive iterates differ by at most this
# fraction of the requested precision. The margin absorbs the usual gap
# between the iterate difference and the true error of a contracting
# iteration, so results are accurate to roughly the requested precision.
CONVERGENCE_SAFETY = 0.02


@dataclass
class SolverEnvironment:
    linear_method: str = "gauss_seidel"  # jacobi | gauss_seidel | exact
    minmax_method: str = "value_iteration"  # value_iteration | policy_iteration
    precision: float = 1e-6
    criterion: str = "relative"  # relative | absolute
    max_iterations: int = 1_000_000
    exact: bool = False  # unread: a rational matrix selects the exact methods

    def __post_init__(self):
        if self.linear_method not in ("jacobi", "gauss_seidel", "exact"):
            raise SolverError(f"unknown linear method {self.linear_method!r}")
        if self.minmax_method not in ("value_iteration", "policy_iteration"):
            raise SolverError(f"unknown min-max method {self.minmax_method!r}")
        if self.criterion not in ("relative", "absolute"):
            raise SolverError(f"unknown convergence criterion {self.criterion!r}")
        if not self.precision > 0:
            raise SolverError("precision must be positive")
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be at least 1")


@dataclass
class LinearSystem:
    A: object  # square SparseMatrix
    b: object  # vector, len = rows

    def __post_init__(self):
        self.b = sparse.as_vector(self.b, self.A.dtype)
        if self.A.rows != self.A.cols or len(self.b) != self.A.rows:
            raise SolverError("linear system dimensions are inconsistent")


@dataclass
class BellmanSystem:
    A: object  # SparseMatrix with one row per choice
    choice_offsets: object
    b: object  # len = choices
    direction: str  # minimize | maximize

    def __post_init__(self):
        self.b = sparse.as_vector(self.b, self.A.dtype)
        self.choice_offsets = np.asarray(self.choice_offsets, dtype=np.int64)
        if np.any(np.diff(self.choice_offsets) < 1):
            raise SolverError("every state needs at least one choice")
        if self.choice_offsets[-1] != self.A.rows or len(self.b) != self.A.rows:
            raise SolverError("Bellman system dimensions are inconsistent")
        if self.direction not in ("minimize", "maximize"):
            raise SolverError(f"unknown direction {self.direction!r}")

    @property
    def n_states(self):
        return len(self.choice_offsets) - 1


@dataclass
class SolveOutcome:
    x: object
    iterations: int
    converged: bool
    scheduler: object = None
    method: str = ""


def _max_diff(new, old, criterion):
    diff = np.abs(new - old)
    if criterion == "relative":
        scale = np.abs(new)
        big = scale >= 1e-30
        diff[big] /= scale[big]
    return float(diff.max(initial=0.0))


def solve_linear(system, env):
    """Solve x = A.x + b iteratively (or exactly when env selects it)."""
    if env.linear_method == "exact" or system.A.dtype == "rational":
        x = sparse.as_vector(solve_linear_exact(system.A.to_rational(), system.b), system.A.dtype)
        return SolveOutcome(x=x, iterations=0, converged=True, method="exact")
    if env.linear_method == "jacobi":
        return _jacobi(system, env)
    return _gauss_seidel(system, env)


def _jacobi(system, env):
    b = system.b
    x = np.zeros(len(b))
    tol = env.precision * CONVERGENCE_SAFETY
    for it in range(1, env.max_iterations + 1):
        y = kernels.matvec(system.A, x) + b
        diff = _max_diff(y, x, env.criterion)
        x = y
        if diff <= tol:
            return SolveOutcome(x=x, iterations=it, converged=True, method="jacobi")
    raise NotConverged(env.max_iterations, best=x)


def _gauss_seidel(system, env):
    m = system.A
    # the sequential sweep indexes single entries, which lists do far faster than arrays
    offsets, cols, values = m.row_offsets.tolist(), m.col_indices.tolist(), m.values.tolist()
    b = system.b.tolist()
    x = [0.0] * len(b)
    relative = env.criterion == "relative"
    tol = env.precision * CONVERGENCE_SAFETY
    for it in range(1, env.max_iterations + 1):
        diff, bad = kernels.gauss_seidel_sweep(offsets, cols, values, b, x, relative)
        if bad >= 0:
            raise DiagonalOne(bad)
        if diff <= tol:
            return SolveOutcome(x=np.array(x), iterations=it, converged=True, method="gauss_seidel")
    raise NotConverged(env.max_iterations, best=np.array(x))


def solve_linear_exact(A, b):
    """Exact rational solution of (I - A)x = b.

    Gaussian elimination with partial (magnitude) pivoting over rationals on
    the dense system; intended for the moderate system sizes of exact mode.
    """
    n = A.rows
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(1)
    for i, j, v in A.entries():
        m[i][j] -= Fraction(v)
    rhs = [Fraction(v) for v in b]

    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0:
            raise SingularMatrix("system matrix I - A is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        pv = m[col][col]
        for r in range(col + 1, n):
            f = m[r][col]
            if f == 0:
                continue
            f /= pv
            row_r, row_c = m[r], m[col]
            for c in range(col, n):
                row_r[c] -= row_c[c] * f
            rhs[r] -= rhs[col] * f

    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = rhs[r]
        row = m[r]
        for c in range(r + 1, n):
            s -= row[c] * x[c]
        x[r] = s / row[r]
    return x


def solve_minmax(system, env, initial_scheduler=None):
    """Solve the Bellman system x = opt_c (b_c + A_c.x).

    The system must be preprocessed so the sought optimum is the least fixed
    point reachable from zero. ``initial_scheduler`` seeds policy iteration
    (required to be proper for minimized expected-reward systems).
    """
    if system.A.dtype == "rational" or env.minmax_method == "policy_iteration":
        return _policy_iteration(system, env, initial_scheduler)
    return _value_iteration(system, env)


def _value_iteration(system, env):
    maximize = system.direction == "maximize"
    b = system.b
    x = np.zeros(system.n_states)
    arg = np.zeros(system.n_states, dtype=np.int64)
    tol = env.precision * CONVERGENCE_SAFETY
    for it in range(1, env.max_iterations + 1):
        y, arg = kernels.matvec_reduce(system.A, system.choice_offsets, x, maximize, b)
        if __debug__ and it % 1000 == 0:
            assert np.all(y >= x - 1e-12), "value iteration lost monotonicity"
        diff = _max_diff(y, x, env.criterion)
        x = y
        if diff <= tol:
            return SolveOutcome(x=x, iterations=it, converged=True, scheduler=arg, method="value_iteration")
    raise NotConverged(env.max_iterations, best=x)


def _induced_rows(system, scheduler):
    rows = system.choice_offsets[:-1] + scheduler
    keep = np.zeros(system.A.rows, dtype=bool)
    keep[rows] = True
    sub, _ = sparse.restrict(system.A, keep, np.ones(system.A.cols, dtype=bool))
    return sub, system.b[rows]


def _evaluate_scheduler(system, scheduler, env):
    """Value of the chain induced by a scheduler, as a least fixed point.

    States that cannot reach the support of b have value 0 and are excluded
    before solving, which keeps the restricted system nonsingular.
    """
    A, b = _induced_rows(system, scheduler)
    x = sparse.as_vector(np.zeros(A.rows), A.dtype)
    relevant = graph._backward_closure(A, b != 0, np.ones(A.rows, dtype=bool))
    if relevant.any():
        sub, _ = sparse.restrict(A, relevant, relevant)
        inner = SolverEnvironment(
            linear_method=env.linear_method,
            precision=min(env.precision, 1e-9),
            criterion=env.criterion,
            max_iterations=env.max_iterations,
        )
        x[relevant] = solve_linear(LinearSystem(sub, b[relevant]), inner).x
    return x


def _q_values(system, x):
    return kernels.matvec(system.A, x) + system.b


def _policy_iteration(system, env, initial_scheduler):
    maximize = system.direction == "maximize"
    # exact arithmetic needs no margin against round-off in the improvement test
    imp_eps = 0 if system.A.dtype == "rational" else 1e-12
    if initial_scheduler is None:
        scheduler = np.zeros(system.n_states, dtype=np.int64)
    else:
        scheduler = np.asarray(initial_scheduler, dtype=np.int64).copy()

    x = None
    cap = max(64, 4 * system.A.rows)
    for it in range(1, cap + 1):
        x = _evaluate_scheduler(system, scheduler, env)
        q = _q_values(system, x)
        best, first = kernels.first_optimum(q, system.choice_offsets, maximize)
        current = q[system.choice_offsets[:-1] + scheduler]
        # a state switches to its first optimal choice only if that beats its current one by the margin
        switch = (best > current + imp_eps) if maximize else (best < current - imp_eps)
        if not switch.any():
            return SolveOutcome(x=x, iterations=it, converged=True, scheduler=first, method="policy_iteration")
        scheduler[switch] = first[switch]
    raise NotConverged(cap, best=x)


def fox_glynn(lam, epsilon):
    """Truncated Poisson(lam) weight window for uniformization.

    Returns (L, R, weights, total_weight): unnormalized weights for
    k in [L, R] with total truncated tail mass at most epsilon;
    weights[k - L] / total_weight approximates the Poisson pmf at k.
    """
    if not lam > 0:
        raise SolverError("uniformization rate must be positive")
    if lam > 1e9:
        raise LambdaTooLarge(f"rate {lam} exceeds the supported bound 1e9")
    if not 0 < epsilon < 1:
        raise SolverError("epsilon must lie in (0, 1)")

    if lam < 25.0:
        # Direct pmf accumulation; the classic finder is fragile for small rates.
        weights = []
        p = math.exp(-lam)
        cum = 0.0
        k = 0
        limit = int(10 * lam) + 200
        while True:
            weights.append(p)
            cum += p
            if 1.0 - cum <= epsilon and k >= lam:
                break
            if k > limit:
                break
            k += 1
            p *= lam / (k if k else 1)
        w = np.array(weights)
        return 0, k, w, float(w.sum())

    m = int(lam)
    sqrt_lam = math.sqrt(lam)
    sqrt2 = math.sqrt(2.0)

    # Finder: Chernoff-style tail bounds on each side, half the budget apiece.
    a_lam = (1.0 + 1.0 / lam) * math.exp(1.0 / 16.0) * sqrt2
    k = 3
    while True:
        dkl = 1.0 / (1.0 - math.exp(-(2.0 / 9.0) * (k * sqrt2 * sqrt_lam + 1.5)))
        if a_lam * dkl * math.exp(-k * k / 2.0) / (k * math.sqrt(2.0 * math.pi)) <= epsilon / 2.0:
            break
        k += 1
    R = int(math.ceil(m + k * sqrt2 * sqrt_lam + 1.5))

    b_lam = (1.0 + 1.0 / lam) * math.exp(1.0 / (8.0 * lam))
    k = 1
    while True:
        if b_lam * math.exp(-k * k / 2.0) / (k * math.sqrt(2.0 * math.pi)) <= epsilon / 2.0:
            break
        k += 1
    L = max(0, int(math.floor(m - k * sqrt_lam - 1.5)))

    # Weighter: recurrence outward from the mode, overflow-scaled.
    w = np.zeros(R - L + 1)
    w[m - L] = 1e10
    for j in range(m, L, -1):
        w[j - 1 - L] = (j / lam) * w[j - L]
    for j in range(m, R):
        w[j + 1 - L] = (lam / (j + 1)) * w[j - L]

    # Sum smallest-first from both ends for accuracy.
    total = 0.0
    lo, hi = 0, R - L
    while lo < hi:
        if w[lo] <= w[hi]:
            total += w[lo]
            lo += 1
        else:
            total += w[hi]
            hi -= 1
    total += w[lo]
    return L, R, w, float(total)
