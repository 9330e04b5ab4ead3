"""Solver layer: linear fixed-point systems, Bellman systems, Poisson windows.

All systems use the fixed-point form x = A.x + b with A nonnegative and
substochastic. The checkers' qualitative precomputation makes I - A
nonsingular, so each system has one fixed point; the solvers do not
re-verify it.

Linear systems are solved by sparse LU of I - A in A's row order without
pivoting (``_factor``), one body for float64 and Fraction: I - A is a
nonsingular M-matrix, so every pivot is positive. Each row is scattered into
one dense accumulator, and L and U are kept in flat lists; the arithmetic,
in its order, is that of a row-by-row dict elimination (the tests' scalar
reference), so the factors, their multiply-add count and the solves are
bitwise the same.
Properties of one model often solve systems with one matrix (P and R on one
maybe set, or the first policy-iteration round of Pmax, Pmin and Rmin, all
seeded by choice 0), so a model keeps its last ``FACTOR_CACHE``
factorisations (``_shared_factor``). Exact mode eliminates all the way.
Float elimination gives up past ``ELIMINATION_BUDGET`` multiply-adds
per entry read, and its x must pass the verification step of optimistic value
iteration (Hartmanns & Kaminski, CAV 2020): with f(y) = A.y + b, one matvec
each shows f(x+d) <= x+d and f(x-d) >= x-d, which puts the one fixed point
between x-d and x+d. d is twice the solve of |f(x) - x| plus a rounding
margin, reported as ``error_bound`` (relative under the relative criterion).
When the budget runs out, a pivot is not positive, the check fails or the
bound exceeds the precision, the system goes to the certified iteration
below, as a Bellman system with one choice per state.

Bellman systems x = opt_c (b_c + A_c.x) are solved by policy iteration by
default, one body for float64 and Fraction. In floats each scheduler is
evaluated by certified elimination, so its value comes with the bound d
above, and a state switches choice only if another beats its current one by
more than the rounding margin of its row. Once no state switches, one backup
of the optimal operator F on the optimistic side (``kernels.matvec_reduce``)
proves the scheduler optimal within d: F(x+d) <= x+d for max, as a
pre-fixed point y >= 0 lies above every scheduler's value; F(y) >= y at
y = max(x-d, 0) for min, as a post-fixed point lies below the value of every
transient scheduler, and after prob0E (or, for expected rewards, among the
proper schedulers) the optimal one is transient. The evaluated scheduler's
own certificate gives the other side, so x-d <= opt <= x+d, and d is
reported as ``error_bound``. No end-component collapse is needed for the
proof, but an end component inside the maybe states can keep the backup from
holding; the result then carries no bound (see ``_policy_iteration``).
When elimination cannot certify a scheduler's value (the budget runs out, or
the check fails or misses the precision), every further round would pay the
same for no bound, so the certified iteration below takes over from what
policy iteration has proven (``_hand_over``), as ``--minmax vi`` starts it.

The certified iteration (``_iterate``) is interval iteration (Baier et al.,
CAV 2017) with an optimistic upper side (Hartmanns & Kaminski, CAV 2020).
Each backup is widened by its rounding margin m: lo <- F(lo) - m rises from
0, or from a value below the optimum, and hi <- F(hi) + m descends from a
value above it. Minimising, that is a scheduler's certified value, and from
a proper one a minimised expected reward stays at the optimum among the
proper schedulers. Otherwise hi is guessed as lo plus the precision (times
lo, relatively) once lo's step is small, and holds once F(hi) + m <= hi, as
a pre-fixed point y >= 0 lies above every scheduler's value; a guess that
stops descending or falls below lo is dropped, and the next waits for a
step ten times smaller. The result is the midpoint, with half the gap as
``error_bound``. Both iterates are monotone, so they repeat after finitely
many steps; if they do with the gap open (an end component inside the maybe
states of ``Pmax`` or ``Rmin``, values below the float range, or a precision
below the margins), the result, with no bound, is the upper side when
minimising and the lower side when maximising.

The Poisson window of uniformization (``fox_glynn``; Fox & Glynn, CACM 1988)
is one routine for every rate lam. Its weights run outward from the mode
m = floor(lam), relative to it: w(k-1) = w(k) * k/lam to the left and
w(k+1) = w(k) * lam/(k+1) to the right. Both ratios fall away from the mode,
so the weights beyond a weight w whose next ratio is r < 1 sum to at most
w * r/(1 - r), and times the mode's pmf, exp(m log lam - lam - lgamma(m+1)),
that bounds the Poisson mass beyond. The left side stops once its bound is
at most epsilon/2, or at k = 0; the right side stops once its bound is within
what the left side left of epsilon. So the mass outside the window is at
most epsilon. Against a 50-digit sum (``benchmarks/bench_poisson.py``), the
bound leaves over 1% of epsilon unused up to lam = 1e9 at epsilon >= 1e-18,
far more than the rounding of the mode's pmf (under 1e-5 relative at
lam = 1e9). At lam = 0 the window is the point mass at 0.
"""

import bisect
import math

import numpy as np

from . import graph, kernels, sparse
from .errors import LambdaTooLarge, NotConverged, SingularMatrix, SolverError


# Float elimination gives up once it has spent more than this many
# multiply-adds per entry of the rows it has read. benchmarks/bench_solve.py,
# against the certified iteration it falls back to: a chain takes 0.3 per
# entry; a k x k grid walk about k^2/4, at 45 x 45 (503) 0.31 s against
# 0.77 s and at 60 x 60 (895) 0.95 s against 2.3 s, so grids up to about
# 63 x 63 get through. The 3-D tandem of bench_explore.py iterates faster:
# 0.05 s against 0.03 s at c = 8 (285), and at c = 12 (1 322) the give-up
# alone takes 0.25 s, the iteration then 0.09 s. No budget wins on both.
ELIMINATION_BUDGET = 1000
FACTOR_CACHE = 2  # factorisations kept per model

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
_NORMAL = np.finfo(np.float64).tiny


class SolverEnvironment:
    # minmax_method: policy_iteration | value_iteration; criterion: relative |
    # absolute. The domain of a system's matrix alone selects the exact
    # methods; linear_method and exact are accepted and ignored only because
    # the benchmark's self-test still passes them, so they go with the next
    # benchmark change
    __slots__ = ("minmax_method", "precision", "criterion", "max_iterations")

    def __init__(self, linear_method=None, minmax_method="policy_iteration", precision=1e-6,
                 criterion="relative", max_iterations=1_000_000, exact=None):
        if minmax_method not in ("value_iteration", "policy_iteration"):
            raise SolverError(f"unknown min-max method {minmax_method!r}")
        if criterion not in ("relative", "absolute"):
            raise SolverError(f"unknown convergence criterion {criterion!r}")
        if not precision > 0:
            raise SolverError("precision must be positive")
        if max_iterations < 1:
            raise SolverError("max_iterations must be at least 1")
        self.minmax_method, self.precision = minmax_method, precision
        self.criterion, self.max_iterations = criterion, max_iterations


class LinearSystem:
    __slots__ = ("A", "b")  # A: square SparseMatrix; b: vector, len = rows

    def __init__(self, A, b):
        self.A, self.b = A, sparse.as_vector(b, A.dtype)
        if A.rows != A.cols or len(self.b) != A.rows:
            raise SolverError("linear system dimensions are inconsistent")


class BellmanSystem:
    # A: SparseMatrix with one row per choice; b: len = choices; direction: minimize | maximize
    __slots__ = ("A", "choice_offsets", "b", "direction")

    def __init__(self, A, choice_offsets, b, direction):
        self.A, self.b, self.direction = A, sparse.as_vector(b, A.dtype), direction
        self.choice_offsets = np.asarray(choice_offsets, dtype=np.int64)
        if np.any(np.diff(self.choice_offsets) < 1):
            raise SolverError("every state needs at least one choice")
        if self.choice_offsets[-1] != self.A.rows or len(self.b) != self.A.rows:
            raise SolverError("Bellman system dimensions are inconsistent")
        if self.direction not in ("minimize", "maximize"):
            raise SolverError(f"unknown direction {self.direction!r}")

    @property
    def n_states(self):
        return len(self.choice_offsets) - 1


class SolveOutcome:
    # error_bound: the proven bound on the error of x, if any;
    # error: the proven bound per entry of x, absolute, if any
    __slots__ = ("x", "iterations", "scheduler", "method", "error_bound", "error")

    def __init__(self, x, iterations, scheduler=None, method="", error_bound=None, error=None):
        self.x, self.iterations, self.scheduler = x, iterations, scheduler
        self.method, self.error_bound, self.error = method, error_bound, error


def _largest_error(diff, x, criterion):
    """The largest entry of diff (scaled in place), each relative to |x| under the relative criterion.

    Entries where |x| is below the normal range are measured absolutely.
    """
    if criterion == "relative":
        scale = np.abs(x)
        big = scale >= _NORMAL
        diff[big] /= scale[big]
    return float(diff.max(initial=0.0))


def solve_linear(system, env):
    """Solve x = A.x + b: exact or certified elimination, else the certified iteration."""
    if system.A.dtype == "rational":
        x = sparse.as_vector(solve_linear_exact(system.A, system.b), "rational")
        return SolveOutcome(x=x, iterations=0, method="exact")
    outcome = _certified_elimination(system, env.criterion)
    if outcome is not None and outcome.error_bound <= env.precision:
        return outcome
    return _iterate(BellmanSystem(system.A, np.arange(system.A.rows + 1), system.b, "maximize"), env)


class _LU:
    """LU factors of I - A in flat lists.

    ``lower`` is (rows, cols, values): L's off-diagonal entries in row order,
    each row's in the order eliminated. ``upper`` is (ptr, cols, values):
    row i of U's off-diagonal entries are at ptr[i] to ptr[i + 1] - 1, and
    ``pivots`` is its diagonal. ``work`` counts the multiply-adds the
    factorisation took.
    """

    __slots__ = ("lower", "upper", "pivots", "work")

    def __init__(self, lower, upper, pivots, work):
        self.lower, self.upper, self.pivots, self.work = lower, upper, pivots, work

    def solve(self, rhs):
        """The list x with (I - A) x = rhs, for a list rhs in the factors' domain."""
        y = list(rhs)
        for i, k, f in zip(*self.lower):  # y[k] is final: row k's entries all came before
            y[i] -= f * y[k]
        ptr, cols, values = self.upper
        for i in range(len(y) - 1, -1, -1):
            acc = y[i]
            for p in range(ptr[i], ptr[i + 1]):
                acc -= values[p] * y[cols[p]]
            y[i] = acc / self.pivots[i]
        return y


def _factor(A, budget=None):
    """The LU factors of I - A in A's row order, without pivoting.

    Returns None as soon as the multiply-adds exceed ``budget`` per entry of
    the rows read so far, so that a matrix that fills in badly is given up
    after a share of its rows, not all of them.

    Row i of I - A is scattered into the dense accumulator w, with mark[j] = i
    on each column j it holds (a sparse accumulator: Gilbert, Moler &
    Schreiber, SIAM J. Matrix Anal. Appl. 1992). Its entries left of the
    diagonal are eliminated in column order against the finished rows
    above; a fill-in left of the diagonal joins the sorted list being
    walked, one right of it follows A's entries in U's row. The columns of
    each row of A must ascend strictly, as ``build_sparse`` and ``restrict``
    keep them. The same body serves float64 and Fraction. Raises
    SingularMatrix on a pivot that is not positive, which for a
    substochastic A means I - A is singular.
    """
    offsets, cols, values = A.row_offsets.tolist(), A.col_indices.tolist(), A.values.tolist()
    negated = (0 - A.values).tolist()
    l_rows, l_cols, l_values, u_ptr, u_cols, u_values = [], [], [], [0], [], []
    pivots, w, mark = [], [0] * A.rows, [-1] * A.rows
    work = 0
    for i in range(A.rows):
        lo, hi = offsets[i], offsets[i + 1]
        limit = math.inf if budget is None else budget * hi
        for p in range(lo, hi):
            j = cols[p]
            w[j], mark[j] = negated[p], i
        mid = bisect.bisect_left(cols, i, lo, hi)
        if mid < hi and cols[mid] == i:
            w[i] = 1 - values[mid]
            left, right = cols[lo:mid], cols[mid + 1:hi]
        else:
            w[i], mark[i] = 1, i
            left, right = cols[lo:mid], cols[mid:hi]
        for k in left:
            f = w[k] / pivots[k]
            l_rows.append(i)
            l_values.append(f)
            start, end = u_ptr[k], u_ptr[k + 1]
            work += end - start
            if work > limit:
                return None
            for p in range(start, end):
                j = u_cols[p]
                if mark[j] == i:
                    w[j] -= f * u_values[p]
                else:
                    w[j], mark[j] = -(f * u_values[p]), i
                    if j < i:
                        bisect.insort(left, j)
                    else:
                        right.append(j)
        pivot = w[i]
        if not pivot > 0:
            raise SingularMatrix(f"system matrix I - A is singular (pivot {pivot} in row {i})")
        pivots.append(pivot)
        l_cols += left
        u_cols += right
        u_values += map(w.__getitem__, right)
        u_ptr.append(len(u_cols))
    return _LU((l_rows, l_cols, l_values), (u_ptr, u_cols, u_values), pivots, work)


def _shared_factor(A, budget=None):
    """``_factor(A, budget)``, kept for the other systems of A's model.

    The cache is the list ``A.factors``, which ``sparse.restrict`` hands from
    a matrix to its submatrices, so it dies with the model and holds its last
    ``FACTOR_CACHE`` results (None included). A result is reused for the same
    budget and equal content: the structure and float64 values by their
    bytes, rational values by value (an object array's bytes are addresses).
    """
    key = (budget, A.row_offsets.tobytes(), A.col_indices.tobytes(),
           A.values.tobytes() if A.dtype == "float" else A.values.tolist())
    for seen, lu in A.factors:
        if seen == key:
            return lu
    lu = _factor(A, budget)
    A.factors.append((key, lu))
    del A.factors[:-FACTOR_CACHE]
    return lu


def _rounding_margin(A, b, x):
    """Per row, a bound on the rounding in b + A.x less x.

    A row's sum of k products plus b, less x, is off by at most about (k + 2)
    eps of its magnitudes, and below the normal range by up to k + 2 smallest
    subnormals whatever the magnitudes.
    """
    terms = int(np.diff(A.row_offsets).max(initial=0)) + 2
    size = np.abs(x)
    return terms * (_EPS * (size + kernels.matvec(A, size) + np.abs(b)) + _TINY)


def _certified_elimination(system, criterion):
    """Float elimination's outcome with its proven error bound, or None.

    The outcome's ``error`` holds the bound d per entry, its ``error_bound``
    the largest, relative under the relative criterion. See the module
    docstring for the check that proves it.
    """
    A, b = system.A, system.b
    try:
        lu = _shared_factor(A, ELIMINATION_BUDGET)
    except SingularMatrix:
        lu = None
    if lu is None:
        return None
    x = np.array(lu.solve(b.tolist()))
    residual = np.abs(kernels.matvec(A, x) + b - x)
    d = 2.0 * np.array(lu.solve((residual + _rounding_margin(A, b, x)).tolist()))
    hi, lo = x + d, x - d
    if np.all(kernels.matvec(A, hi) + b <= hi) and np.all(kernels.matvec(A, lo) + b >= lo):
        bound = _largest_error(d.copy(), x, criterion)
        return SolveOutcome(x=x, iterations=0, method="elimination", error_bound=bound,
                            error=d)
    return None


def solve_linear_exact(A, b):
    """The exact solution of (I - A) x = b, a list of Fraction, for a rational A."""
    return _shared_factor(A).solve(sparse.as_vector(b, "rational").tolist())


def solve_minmax(system, env, initial_scheduler=None):
    """Solve the Bellman system x = opt_c (b_c + A_c.x).

    The system must be preprocessed so the sought optimum is the least fixed
    point reachable from zero. ``initial_scheduler`` (choice 0 by default)
    seeds policy iteration, or the chain that value iteration descends from
    when minimising; it must be proper for minimized expected rewards.
    """
    if initial_scheduler is None:
        initial_scheduler = np.zeros(system.n_states, dtype=np.int64)
    scheduler = np.array(initial_scheduler, dtype=np.int64)
    if system.A.dtype == "rational" or env.minmax_method == "policy_iteration":
        return _policy_iteration(system, env, scheduler)
    return _hand_over(system, env, scheduler)


def _iterate(system, env, lower=None, upper=None):
    """The certified iteration on a float Bellman system; see the module docstring.

    ``lower`` (0 by default) must lie below the optimum and ``upper``, if
    given, above it. The scheduler is the last backup's choice on the side
    returned.
    """
    maximize = system.direction == "maximize"
    terms = int(np.diff(system.A.row_offsets).max(initial=0)) + 2

    def backup(v):
        # F(v), its rounding margin as in _rounding_margin and its choices; a row that sums to 0 is
        # taken as exact, so a value of 0 is provable (only products below half a subnormal escape)
        w, arg = kernels.matvec_reduce(system.A, system.choice_offsets, v, maximize, system.b)
        return w, terms * (_EPS * w + _TINY * (w > 0)), arg

    lo = np.zeros(system.n_states) if lower is None else lower
    hi, proven, final = upper, upper is not None, False
    step = env.precision  # the largest step of lo at which hi is guessed
    for it in range(1, env.max_iterations + 1):
        w, margin, arg = backup(lo)
        y, z = np.maximum(lo, w - margin), None
        if hi is not None:
            w, margin, hi_arg = backup(hi)
            proven = proven or bool(np.all(w + margin <= hi))
            z = np.minimum(hi, w + margin)
            if not proven and (np.array_equal(z, hi) or np.any(z < y)):
                # the guess lies below the optimum somewhere
                if final:
                    return SolveOutcome(x=y, iterations=it, scheduler=arg, method="value_iteration")
                z, step = None, step / 10
        if proven:
            x, scheduler = y + (z - y) / 2, arg if maximize else hi_arg
            error = np.maximum(z - x, x - y)
            bound = _largest_error(error.copy(), x, env.criterion)
            if bound <= env.precision:
                return SolveOutcome(x=x, iterations=it, scheduler=scheduler, method="value_iteration",
                                    error_bound=bound, error=error)
            if np.array_equal(y, lo) and np.array_equal(z, hi):
                return SolveOutcome(x=y if maximize else z, iterations=it, scheduler=scheduler,
                                    method="value_iteration")
        elif z is None and _largest_error(y - lo, y, env.criterion) <= step:
            z = y + (env.precision * y if env.criterion == "relative" else env.precision)
            final = np.array_equal(y, lo)  # lo no longer moves, so no later guess differs
        lo, hi = y, z
    raise NotConverged(env.max_iterations, best=lo if maximize or hi is None else hi)


def _induced_rows(system, scheduler):
    """The chain a scheduler induces, (A, b), and the mask of its rows in the system."""
    rows = system.choice_offsets[:-1] + scheduler
    keep = np.zeros(system.A.rows, dtype=bool)
    keep[rows] = True
    sub, _ = sparse.restrict(system.A, keep, np.ones(system.A.cols, dtype=bool))
    return sub, system.b[rows], keep


def _evaluate_scheduler(system, scheduler, env):
    """The value of the chain a scheduler induces, as a least fixed point.

    Returns (x, d, margin): the value x, a bound d with the value within
    [x - d, x + d] (None when the solve was exact) and the rounding margin of
    each state's induced row (0 in exact arithmetic). In floats, returns None
    instead when elimination cannot certify the value within the precision.
    States that cannot reach the support of b have value 0 and are excluded
    before solving, which keeps the restricted system nonsingular.
    """
    A, b, chosen = _induced_rows(system, scheduler)
    x = sparse.as_vector(np.zeros(A.rows), A.dtype)
    certify = A.dtype == "float"
    d = np.zeros(A.rows) if certify else None
    index = graph._predecessors(system.A, system.choice_offsets)  # built once per system
    relevant = graph._closure(index, b != 0, np.ones(A.rows, dtype=bool), row_ok=chosen)
    if relevant.any():
        sub = A if relevant.all() else sparse.restrict(A, relevant, relevant)[0]
        linear = LinearSystem(sub, b[relevant])
        if certify:
            outcome = _certified_elimination(linear, env.criterion)
            if outcome is None or outcome.error_bound > env.precision:
                return None
            d[relevant] = outcome.error
        else:
            outcome = solve_linear(linear, env)
        x[relevant] = outcome.x
    if not certify:
        return x, None, 0
    return x, d, _rounding_margin(A, b, x)


def _hand_over(system, env, scheduler, x=None, d=None):
    """The certified iteration from the value x and bound d of the last scheduler evaluated, if any.

    Maximizing, the lower iterate rises from x - d (or 0). Minimizing, the
    upper one descends from x + d; without them, the chain of ``scheduler``
    (proper for expected rewards) is solved by the iteration first, and if
    that proves no bound, neither does the result.
    """
    if system.direction == "maximize":
        return _iterate(system, env, lower=None if x is None else np.maximum(x - d, 0.0))
    steps = 0
    if x is None:
        A, b, _ = _induced_rows(system, scheduler)
        chain = _iterate(BellmanSystem(A, np.arange(A.rows + 1), b, "minimize"), env)
        x, d, steps = chain.x, chain.error, chain.iterations
    outcome = _iterate(system, env, upper=x if d is None else x + d)
    outcome.iterations += steps
    if d is None:
        outcome.error_bound = outcome.error = None
    return outcome


def _backup_violations(system, x, d, maximize):
    """Where one backup of the optimal operator on the optimistic side fails, and each state's backup choice.

    See the module docstring for why the backup proves x - d <= opt <= x + d.
    """
    y = x + d if maximize else np.maximum(x - d, 0.0)
    backup, arg = kernels.matvec_reduce(system.A, system.choice_offsets, y, maximize, system.b)
    return (backup > y) if maximize else (backup < y), arg


def _policy_iteration(system, env, scheduler):
    """Policy iteration, certified in floats when every evaluation is.

    A state switches to its first optimal choice only if that beats its
    current one by more than the rounding margin of its row. Once no state
    switches, one backup must prove the bound (``_backup_violations``); where
    it fails, the violating states switch to their backup choice and the
    iteration goes on. The scheduler returned is the one evaluated last, a
    witness of the value. The result carries no bound when an evaluation
    proved none (it was exact), or when the backup's switches lead back to a
    scheduler already evaluated (an end component inside the maybe states can
    keep the backup from holding) or, minimizing, to one under which a state
    of positive value gets value 0 (it no longer reaches the target); the
    last settled outcome is then returned.
    """
    maximize = system.direction == "maximize"
    rows = system.choice_offsets[:-1]
    seen = set()
    settled = None  # the last outcome that no state could improve on
    x = d = None
    cap = max(64, 4 * system.A.rows)
    for it in range(1, cap + 1):
        seen.add(scheduler.tobytes())
        evaluated = _evaluate_scheduler(system, scheduler, env)
        if evaluated is None:
            outcome = _hand_over(system, env, scheduler, x, d)
            outcome.iterations += it - 1
            return outcome
        previous, (x, d, margin) = x, evaluated
        if settled is not None and not maximize and np.any((x == 0) & (previous > 0)):
            break
        q = kernels.matvec(system.A, x) + system.b
        best, first = kernels.first_optimum(q, system.choice_offsets, maximize)
        current = q[rows + scheduler]
        switch = (best > current + margin) if maximize else (best < current - margin)
        if not switch.any():
            settled = SolveOutcome(x=x, iterations=it, scheduler=scheduler.copy(),
                                   method="policy_iteration")
            if d is None:
                return settled
            switch, first = _backup_violations(system, x, d, maximize)
            if not switch.any():
                settled.error_bound = _largest_error(d.copy(), x, env.criterion)
                settled.error = d
                return settled
        scheduler[switch] = first[switch]
        if scheduler.tobytes() in seen:
            break
    if settled is None:
        raise NotConverged(it, best=x)
    settled.iterations = it
    return settled


def fox_glynn(lam, epsilon):
    """Truncated Poisson(lam) weight window for uniformization (see the module docstring).

    Returns (L, R, weights, total_weight): weights relative to the mode's
    for k in [L, R], whose Poisson mass outside the window is at most
    epsilon; weights[k - L] / total_weight approximates the Poisson pmf at k.
    """
    if not lam >= 0:
        raise SolverError("uniformization rate must be nonnegative")
    if lam > 1e9:
        raise LambdaTooLarge(f"rate {lam} exceeds the supported bound 1e9")
    if not 0 < epsilon < 1:
        raise SolverError("epsilon must lie in (0, 1)")

    m = int(lam)
    mode = math.exp((m * math.log(lam) if m else 0.0) - lam - math.lgamma(m + 1))
    # each bound w * r/(1 - r) * mode is compared multiplied out: the first left ratio is 1 at an integer lam
    left, w, L = [], 1.0, m
    while L > 0 and w * (L / lam) * mode > (1.0 - L / lam) * (epsilon / 2):
        w *= L / lam
        left.append(w)
        L -= 1
    budget = epsilon - (w * (L / lam) * mode / (1.0 - L / lam) if L else 0.0)
    right, w, R = [], 1.0, m
    while w * (lam / (R + 1)) * mode > (1.0 - lam / (R + 1)) * budget:
        R += 1
        w *= lam / R
        right.append(w)
    weights = np.array(left[::-1] + [1.0] + right)
    return L, R, weights, math.fsum(weights)
