"""Sparse verification engine: property dispatch, precomputation, solving."""

import functools
import math
import operator

import numpy as np

from . import graph, kernels, props, solvers, sparse
from .errors import PropertyError, SolverError, UnsupportedCombination
from .models import ModelKind
from .prism import syntax
from .prism.syntax import replace

UNIFORMIZATION_SLACK = 1.02  # diagonal slack factor on the uniformization rate
# Exact iterates on a cycle never repeat, and a step costs more the longer the
# numerators and denominators it computes. Their bit lengths, summed over the
# steps taken, reach 3.0e8 in die.pm's first 10 000 steps (0.7 s end to end)
# and 4.6e8 in the first 500 of a 201-state ruin chain (2.5 s), whose 1 000
# steps sum to 2.0e9 (11.5 s); past this budget an exact step-bounded check
# fails instead of running on towards an answer too long to read.
EXACT_BIT_BUDGET = 500_000_000
_DUAL = {None: None, "min": "max", "max": "min"}


class CheckResult:
    # values: a bool array for bounded operators, else the numeric vector;
    # numeric: the underlying per-state quantities
    __slots__ = ("values", "numeric", "metadata")

    def __init__(self, values, numeric, metadata=None):
        self.values, self.numeric, self.metadata = values, numeric, {} if metadata is None else metadata


def check(model, prop, env):
    """Check a resolved property; nested state operators are checked when
    first needed, and those equal up to their bound are solved once."""
    numeric, meta = _check_quantitative(model, _deferred(prop, {}).operator, env)
    values = _compare(model, numeric, prop.bound)
    return CheckResult(values=values, numeric=numeric, metadata=meta)


def _compare(model, numeric, bound):
    """The bitset where the numbers meet the bound, or the numbers for a query."""
    if bound is None:
        return numeric
    rel, threshold = bound
    if model.dtype == "float":
        threshold = float(threshold)
    compare = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}[rel]
    return np.asarray(compare(numeric, threshold), dtype=bool)


class _Nested:
    """An operator inside a formula, checked when ``_bits`` first needs it.

    ``solved`` is shared by all operators of one ``check`` and maps each
    operator solved so far, its bound left out, to its numbers.
    """

    __slots__ = ("operator", "solved")

    def __init__(self, operator, solved):
        self.operator, self.solved = operator, solved

    def bits(self, model, env):
        key = _key(replace(self.operator, bound=None))
        if key not in self.solved:
            self.solved[key] = _check_quantitative(model, self.operator, env)[0]
        return _compare(model, self.solved[key], self.operator.bound)


def _deferred(node, solved):
    """node with every operator in it, node itself included, wrapped in a
    ``_Nested`` that shares ``solved``."""
    if isinstance(node, tuple):
        return tuple(_deferred(part, solved) for part in node)
    if not hasattr(node, "_fields"):
        return node
    node = replace(node, **{f: _deferred(getattr(node, f), solved) for f in node._fields})
    return _Nested(node, solved) if isinstance(node, (props.ProbOperator, props.RewardOperator)) else node


def _key(node):
    """A hashable image of a resolved formula, bitsets by their bytes and
    source spans left out."""
    if isinstance(node, np.ndarray):
        return node.tobytes()
    if isinstance(node, _Nested):
        return _key(node.operator)
    if isinstance(node, tuple):
        return tuple(map(_key, node))
    if hasattr(node, "_fields"):
        return type(node).__name__, *(_key(getattr(node, f)) for f in node._fields if f != "span")
    return node


def _check_quantitative(model, prop, env):
    if isinstance(prop, props.RewardOperator):
        return _dispatch_reward(model, prop, env)
    if prop.condition is not None:
        if model.kind is not ModelKind.DTMC:
            raise UnsupportedCombination("conditional probabilities are supported on DTMCs only")
        return check_conditional(model, prop.path, prop.condition, env)
    return _dispatch_path(model, prop.path, prop.optimum, env)


def _dispatch_path(model, path, optimum, env):
    if isinstance(path, props.Next):
        target = _bits(model, path.target, env)
        return check_next(model, target, optimum), {"method": "matvec"}
    if isinstance(path, props.Globally):
        return _check_globally(model, path, optimum, env)
    left = _bits(model, path.left, env)
    right = _bits(model, path.right, env)
    if path.bound is not None:
        q = path.bound
        if model.kind is ModelKind.CTMC:
            if q < 0:
                raise PropertyError("time bound must be nonnegative")
            return check_timebounded_until_ctmc(model, left, right, q, env)
        if q.denominator != 1:
            raise UnsupportedCombination(
                "fractional (time) bounds require a continuous-time model"
            )
        k = int(q)
        if k < 0:
            raise PropertyError("step bound must be nonnegative")
        return check_bounded_until(model, left, right, k, optimum), {"method": "stepping"}
    return check_until(model, left, right, optimum, env)


def _check_globally(model, path, optimum, env):
    """G f is checked as one minus reaching the complement of f, optimised the other way."""
    violation = syntax.Unary(op="!", operand=path.target)
    reach_violation = props.Until(np.ones(model.n_states, dtype=bool), violation, path.bound)
    values, meta = _dispatch_path(model, reach_violation, _DUAL[optimum], env)
    if env.criterion == "relative":
        meta.pop("error_bound", None)  # it is relative to the values, not to their complements
    return 1 - values, meta


def _bits(model, state_formula, env):
    """Evaluate a resolved state formula into a bitset (checking nested operators)."""
    if isinstance(state_formula, np.ndarray):
        return state_formula
    if isinstance(state_formula, syntax.Unary):  # !
        return ~_bits(model, state_formula.operand, env)
    if isinstance(state_formula, syntax.Binary):  # & or |
        left = _bits(model, state_formula.left, env)
        right = _bits(model, state_formula.right, env)
        return left & right if state_formula.op == "&" else left | right
    if isinstance(state_formula, _Nested):
        return state_formula.bits(model, env)
    raise PropertyError(f"cannot evaluate state formula {type(state_formula).__name__}")


# --- probability operators ------------------------------------------------


def check_next(model, target, optimum=None):
    everywhere = np.ones(model.n_states, dtype=bool)
    return _steps(model, everywhere, sparse.as_vector(target, model.dtype), 1, optimum)


def check_bounded_until(model, left, right, k, optimum=None):
    """k synchronized backward steps; right states pinned to one."""
    return _steps(model, left & ~right, sparse.as_vector(right, model.dtype), k, optimum)


def _steps(model, active, x, k, optimum, b=None):
    """k backward steps x <- b + P.x on the active states, optimised over the
    choices of an MDP; every other state keeps its entry of x.

    ``b`` has one entry per matrix row. The active states step through their
    own choice rows; the matrix is restricted to those only when some state
    is inactive, so a full step keeps the model matrix's cached kernel plan.
    The step depends only on x, so stepping stops once an iterate equals its
    predecessor exactly: every later iterate would be the same. Float
    iterates often get there (die.pm after 56 steps); exact ones on a cyclic
    chain never do, so an exact model whose stepped entries have summed to
    more than EXACT_BIT_BUDGET bits without reaching one raises SolverError.
    """
    matrix, offsets = model.matrix, model.choice_offsets
    if not active.all():
        counts = np.diff(offsets)
        rows = np.repeat(active, counts)
        matrix, _ = sparse.restrict(matrix, rows, np.ones(model.n_states, dtype=bool))
        offsets = np.concatenate(([0], np.cumsum(counts[active])))
        b = None if b is None else b[rows]
    bits = 0
    for _ in range(k if active.any() else 0):
        if bits > EXACT_BIT_BUDGET:
            raise SolverError(f"exact stepping reached no fixed point within its budget of {EXACT_BIT_BUDGET} "
                              "numerator and denominator bits; use float mode for a larger step bound")
        if model.kind is ModelKind.MDP:
            y = kernels.matvec_reduce(matrix, offsets, x, optimum == "max", b)[0]
        else:
            y = kernels.matvec(matrix, x) if b is None else kernels.matvec(matrix, x) + b
        x, previous = x.copy(), x
        x[active] = y
        if np.array_equal(x, previous):
            break
        if model.dtype == "rational":
            bits += sum(v.numerator.bit_length() + v.denominator.bit_length() for v in y)
    return x


def _prob01(model, left, right, optimum):
    """States where left U right holds with probability 0 and with probability 1.

    On an MDP these are prob0A/prob1E for the max and prob0E/prob1A for the
    min scheduler; a CTMC answers with its embedded chain.
    """
    if model.kind is not ModelKind.MDP:
        p0 = graph.prob0(model.matrix, left, right)
        return p0, graph.prob1(model.matrix, left, right, p0)
    prob01 = graph.prob01_max if optimum == "max" else graph.prob01_min
    return prob01(model.matrix, model.choice_offsets, left, right)


def check_until(model, left, right, optimum, env):
    """Unbounded until on any model kind; a CTMC is checked on its embedded chain."""
    p0, p1 = _prob01(model, left, right, optimum)
    meta = {"prob0": int(p0.sum()), "prob1": int(p1.sum())}
    values = sparse.as_vector(p1, model.dtype)
    # b is the one-step mass into p1; adding v * 0 is exact, so CSR order is kept
    one_step = functools.partial(kernels.matvec, model.matrix, values)
    meta.update(_solve_maybe(model, values, ~(p0 | p1), one_step, optimum, env))
    return values, meta


def _solve_maybe(model, values, maybe, rhs, optimum, env, choice_ok=None, seed=None):
    """Solve x = b + P.x on the maybe states into values[maybe]; return its metadata.

    ``rhs()`` gives b, one entry per matrix row; it is called only when some
    state is maybe. A chain solves one linear system. An MDP optimises over
    its choice_ok rows (all by default), with policy iteration started from
    ``seed``; its metadata adds the direction and each state's optimal choice
    (0 where precomputation settled the state). A solve that proved a bound
    on its error adds it as ``error_bound``.
    """
    meta = {"iterations": 0, "method": "precomputation"}
    mdp = model.kind is ModelKind.MDP
    if mdp:
        meta["direction"] = optimum
        meta["scheduler"] = np.zeros(model.n_states, dtype=np.int64)
    if not maybe.any():
        return meta
    if mdp:
        if choice_ok is None:
            choice_ok = np.ones(model.n_choices, dtype=bool)
        outcome, chosen = _solve_maybe_mdp(model, maybe, choice_ok, rhs(), optimum, env, seed)
        meta["scheduler"][maybe] = chosen
    else:
        sub, _ = sparse.restrict(model.matrix, maybe, maybe)
        outcome = solvers.solve_linear(solvers.LinearSystem(sub, rhs()[maybe]), env)
    values[maybe] = outcome.x
    meta["iterations"] = outcome.iterations
    meta["method"] = outcome.method
    if outcome.error_bound is not None:
        meta["error_bound"] = outcome.error_bound
    return meta


def _solve_maybe_mdp(model, maybe, choice_ok, b, direction, env, seed=None):
    """Solve the Bellman system of the maybe states over their choice_ok rows.

    ``b`` holds the one-step value of every row of the model and ``seed`` a
    per-state choice index that starts policy iteration. Returns the outcome
    and each maybe state's optimal choice as an index among all its choices.
    """
    offsets = model.choice_offsets
    counts = np.diff(offsets)
    rows_keep = np.repeat(maybe, counts) & choice_ok
    kept_before = np.concatenate(([0], np.cumsum(rows_keep)))  # kept rows ahead of each row
    first_rows = offsets[:-1][maybe]
    sub_offsets = np.append(kept_before[first_rows], kept_before[-1])
    choice_index = np.arange(model.n_choices) - np.repeat(offsets[:-1], counts)
    if seed is not None:
        rows = first_rows + seed[maybe]
        seed = np.where(rows_keep[rows], kept_before[rows] - sub_offsets[:-1], 0)
    sub, _ = sparse.restrict(model.matrix, rows_keep, maybe)
    system = solvers.BellmanSystem(
        sub, sub_offsets, b[rows_keep], "maximize" if direction == "max" else "minimize"
    )
    outcome = solvers.solve_minmax(system, env, initial_scheduler=seed)
    return outcome, choice_index[rows_keep][sub_offsets[:-1] + outcome.scheduler]


# --- reward operators -----------------------------------------------------


def _dispatch_reward(model, prop, env):
    rm = model.reward_model(prop.reward_name)
    kind, arg = prop.target
    if kind == "cumulative":
        if model.kind is ModelKind.CTMC:
            raise UnsupportedCombination("cumulative rewards are supported on discrete-time models only")
        k = arg
        if k.denominator != 1 or k < 0:
            raise PropertyError("cumulative bound must be a nonnegative integer")
        return check_cumulative_reward(model, rm, int(k), prop.optimum), {"method": "stepping"}
    return check_reach_reward(model, rm, _bits(model, arg, env), prop.optimum, env)


def _choice_rewards(model, rm):
    """Reward collected when taking each choice row (state plus action part).

    A CTMC's state reward is a rate: a visit earns it for the expected
    sojourn time 1/E(s). Action rewards are earned once per transition.
    """
    zeros = sparse.as_vector(np.zeros(model.n_choices), model.dtype)
    state_part = action_part = zeros
    if rm.state_rewards is not None:
        state_part = sparse.as_vector(rm.state_rewards, model.dtype)
        if model.kind is ModelKind.CTMC:
            state_part = state_part / model.exit_rates
        state_part = np.repeat(state_part, np.diff(model.choice_offsets))
    if rm.action_rewards is not None:
        action_part = sparse.as_vector(rm.action_rewards, model.dtype)
    return state_part + action_part


def check_reach_reward(model, rm, target, optimum, env):
    """Expected reward accumulated until reaching target, on any model kind.

    The reward is finite where even the scheduler of the opposite optimum
    reaches target almost surely: prob1A for Rmax, prob1E for Rmin.
    """
    everywhere = np.ones(model.n_states, dtype=bool)
    _, finite = _prob01(model, everywhere, target, _DUAL[optimum])
    choice_ok = seed = None
    if optimum == "min":
        # choices leaving the almost-sure region would have infinite value
        choice_ok = graph._per_row_all(model.matrix, finite)
        seed = graph.prob1e_witness(model.matrix, model.choice_offsets, everywhere, target, finite)
    meta = {"infinite": int((~finite).sum())}
    values = sparse.as_vector(np.zeros(model.n_states), model.dtype)
    values[~finite] = math.inf
    rewards = functools.partial(_choice_rewards, model, rm)
    meta.update(_solve_maybe(model, values, finite & ~target, rewards, optimum, env, choice_ok, seed))
    return values, meta


def check_cumulative_reward(model, rm, k, optimum=None):
    """Expected reward accumulated over the first k steps (one collection per step)."""
    everywhere = np.ones(model.n_states, dtype=bool)
    zeros = sparse.as_vector(np.zeros(model.n_states), model.dtype)
    return _steps(model, everywhere, zeros, k, optimum, _choice_rewards(model, rm))


# --- continuous time ------------------------------------------------------


def _uniformized(model, active):
    """The rows of the active states in the uniformized jump matrix, and its rate q.

    Row i, of the i-th active state s, is the embedded row of s scaled by
    ratio = rate(s)/q, with the self-loop folded into the diagonal
    (1 - ratio) + ratio * p(s,s), which is kept only when positive. Entries
    that round to zero are dropped. The matrix has a column per state; the
    rows it leaves out would be identity rows, so a step keeps those entries.
    """
    n = model.n_states
    states = np.flatnonzero(active)
    rates = sparse.as_vector(model.exit_rates, "float")[states]
    top = float(rates.max())
    # any q at or above the largest rate uniformizes; the slack is left out
    # where it would take q past the float range
    q = UNIFORMIZATION_SLACK * top if top <= np.finfo(np.float64).max / UNIFORMIZATION_SLACK else top
    embedded = sparse.restrict(model.matrix, active, np.ones(n, dtype=bool))[0].to_float()
    ratio = rates / q
    row_of = np.repeat(np.arange(len(states)), np.diff(embedded.row_offsets))
    scaled = ratio[row_of] * embedded.values
    loop = embedded.col_indices == states[row_of]
    diag = 1.0 - ratio
    diag[row_of[loop]] += scaled[loop]
    off = ~loop & (scaled != 0.0)
    on = np.flatnonzero(diag > 0.0)
    rows = np.concatenate((row_of[off], on))
    cols = np.concatenate((embedded.col_indices[off], states[on]))
    order = np.argsort(rows * n + cols, kind="stable")  # the pairs are distinct: lexsort's order
    row_offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(states)))))
    values = np.concatenate((scaled[off], diag[on]))[order]
    return sparse.SparseMatrix(len(states), n, row_offsets, cols[order], values, "float"), q


def check_timebounded_until_ctmc(model, left, right, t, env):
    """CSL time-bounded until via uniformization with a truncated Poisson window."""
    n = model.n_states
    active = left & ~right
    meta = {"method": "uniformization"}
    if not active.any():
        return right.astype(np.float64), meta

    p_unif, q = _uniformized(model, active)
    L, R, w, total = solvers.fox_glynn(q * float(t), env.precision * 0.1)
    meta["poisson_window"] = (L, R)
    v = right.astype(np.float64)
    result = np.zeros(n)
    for step in range(R + 1):
        if step >= L:
            result += (w[step - L] / total) * v
        if step < R:
            v[active] = kernels.matvec(p_unif, v)
    # target states are absorbing successes: pin them to exactly one instead
    # of accumulating truncation noise from the normalized Poisson window
    result[right] = 1.0
    return result, meta


# --- conditional probabilities --------------------------------------------


def check_conditional(model, objective, condition, env):
    """P(objective | condition) on a DTMC, as P(objective and condition) over P(condition).

    The joint probability g is reachability on the model's own states (Baier,
    Klein, Klueppelholz & Maercker, TACAS 2014): once one path formula holds,
    g is the probability of the other; where either has failed, g is 0; where
    both are pending, g = P.g. States with zero condition probability get NaN
    and are reported in metadata["condition_zero"].
    """
    for path in (objective, condition):
        if not isinstance(path, props.Until) or path.bound is not None:
            raise UnsupportedCombination(
                "conditional probabilities support unbounded reachability/until formulas only"
            )
    obj_l, obj_r, con_l, con_r = (_bits(model, f, env) for f in
                                  (objective.left, objective.right, condition.left, condition.right))
    num, num_meta = check_until(model, obj_l, obj_r, None, env)
    den, den_meta = check_until(model, con_l, con_r, None, env)
    joint = sparse.as_vector(np.zeros(model.n_states), model.dtype)
    joint[con_r] = num[con_r]
    joint[obj_r] = den[obj_r]
    pending = obj_l & ~obj_r & con_l & ~con_r
    maybe = pending & ~graph.prob0(model.matrix, pending, joint != 0)
    one_step = functools.partial(kernels.matvec, model.matrix, joint)
    joint_meta = _solve_maybe(model, joint, maybe, one_step, None, env)

    zero = den == 0
    values = sparse.as_vector(np.zeros(model.n_states), model.dtype)
    values[~zero] = joint[~zero] / den[~zero]
    values[zero] = math.nan
    meta = {"method": "conditional",
            "iterations": num_meta["iterations"] + den_meta["iterations"] + joint_meta["iterations"]}
    if zero.any():
        meta["condition_zero"] = np.flatnonzero(zero).tolist()
    return values, meta
