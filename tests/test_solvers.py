"""Linear and Bellman solvers, cross-validated and oracle-checked."""

import bisect
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_solve_exact,
    enumerate_schedulers,
    induced_rows,
    oracle_mdp_reach,
    oracle_mdp_reach_reward,
    oracle_reach_probability,
    random_stochastic_rows,
    rows_to_matrix,
)
from stormlet import checkers, cli, kernels, solvers, sparse
from stormlet.errors import LambdaTooLarge, NotConverged, SingularMatrix, SolverError, StormletError
from stormlet.models import Model, ModelKind, RewardModel, StateLabeling
from stormlet.prism import ExploreOptions, explore, parse_program, typecheck
from stormlet.props import parse_property, resolve_atoms
from stormlet.solvers import BellmanSystem, LinearSystem, SolverEnvironment


def substochastic_system(rng, n, rational=False, scale=Fraction(3, 4)):
    """Random A with row sums <= 3/4 plus a nonnegative b."""
    rows = random_stochastic_rows(rng, n, n)
    shrink = [Fraction(rng.randint(1, 3), 4) for _ in range(n)]
    rows = [{c: v * s for c, v in row.items()} for row, s in zip(rows, shrink)]
    matrix = rows_to_matrix(rows, n, rational)
    b = [Fraction(rng.randint(0, 5), 4) for _ in range(n)]
    if not rational:
        b = [float(v) for v in b]
    return matrix, b, rows


def iterate(m, b, env=None):
    """The certified iteration on x = A.x + b, as the linear solve falls back to it."""
    system = BellmanSystem(m, np.arange(m.rows + 1), b, "maximize")
    return solvers._iterate(system, env or SolverEnvironment())


# --- environments ---------------------------------------------------------


def test_environment_validation():
    with pytest.raises(SolverError):
        SolverEnvironment(minmax_method="simplex")
    with pytest.raises(SolverError):
        SolverEnvironment(criterion="mixed")
    with pytest.raises(SolverError):
        SolverEnvironment(precision=0)
    with pytest.raises(SolverError):
        SolverEnvironment(max_iterations=0)


def test_system_validation():
    m = sparse.build_sparse([(0, 0, 0.5)], 1, 1)
    with pytest.raises(SolverError):
        LinearSystem(m, [1.0, 2.0])
    with pytest.raises(SolverError):
        BellmanSystem(m, [0, 0], [1.0], "maximize")
    with pytest.raises(SolverError):
        BellmanSystem(m, [0, 1], [1.0], "sideways")


# --- linear solving -------------------------------------------------------


def test_zero_matrix_returns_b_immediately():
    m = sparse.build_sparse([], 3, 3)
    b = [1.0, 2.0, 3.0]
    out = iterate(m, b)
    # one step reaches b, one shows it repeats, one proves the guess above it;
    # the bound is the rounding allowance of the one addition
    assert np.array_equal(out.x, b) and out.error_bound < 1e-15
    assert out.iterations == 3


def test_geometric_fixed_point():
    # x = 0.5 x + 0.5 has the fixed point 1
    m = sparse.build_sparse([(0, 0, 0.5)], 1, 1)
    for out in (solvers.solve_linear(LinearSystem(m, [0.5]), SolverEnvironment()), iterate(m, [0.5])):
        assert abs(out.x[0] - 1.0) <= out.error_bound <= 1e-6
    exact = solvers.solve_linear(LinearSystem(m.to_rational(), [0.5]), SolverEnvironment())
    assert exact.x[0] == 1 and exact.method == "exact"


def test_iteration_returns_the_least_fixed_point_of_a_unit_diagonal():
    # x = x has every fixed point; the iteration rises from 0 and proves 0 at once
    m = sparse.build_sparse([(0, 0, 1.0)], 1, 1)
    out = iterate(m, [0.0])
    assert out.x[0] == 0.0 and out.error_bound == 0


def test_not_converged_carries_best_iterate():
    rng = random.Random(5)
    m, b, _ = substochastic_system(rng, 6)
    with pytest.raises(NotConverged) as exc:
        iterate(m, b, SolverEnvironment(max_iterations=1))
    assert exc.value.iterations == 1
    assert len(exc.value.best) == 6


def test_exact_solver_singular_matrix():
    m = sparse.build_sparse([(0, 0, Fraction(1))], 1, 1, "rational")
    with pytest.raises(SingularMatrix):
        solvers.solve_linear_exact(m, [Fraction(1)])


def test_rational_systems_always_solve_exactly():
    m = sparse.build_sparse([(0, 0, Fraction(1, 3))], 1, 1, "rational")
    out = solvers.solve_linear(LinearSystem(m, [Fraction(2, 3)]), SolverEnvironment())
    assert out.method == "exact" and out.x[0] == Fraction(1)


@pytest.mark.parametrize("seed", range(25))
def test_solvers_agree_with_dense_oracle(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(2, 10)
    m, b, rows = substochastic_system(rng, n)
    expected = dense_solve_exact(rows, [Fraction(v).limit_denominator(10**9) for v in b])
    env = SolverEnvironment(precision=1e-10)
    for out in (solvers.solve_linear(LinearSystem(m, b), env), iterate(m, b, env)):
        for i in range(n):
            assert out.x[i] == pytest.approx(float(expected[i]), abs=1e-8)
    exact = solvers.solve_linear_exact(m.to_rational(), [Fraction(v) for v in b])
    approx = [Fraction(v).limit_denominator(10**9) for v in b]
    # same system with exactly-representable data gives the oracle answer
    mr = rows_to_matrix(rows, n, True)
    exact2 = solvers.solve_linear_exact(mr, approx)
    assert exact2 == expected
    assert all(float(a) == pytest.approx(float(e), abs=1e-9) for a, e in zip(exact, expected))


def test_absolute_vs_relative_criterion():
    # two states that feed each other, with the fixed point 0.1 each
    m = sparse.build_sparse([(0, 1, 0.9), (1, 0, 0.9)], 2, 2)
    loose = SolverEnvironment(criterion="absolute", precision=1e-3)
    tight = SolverEnvironment(criterion="relative", precision=1e-3)
    out_a = iterate(m, [0.01, 0.01], loose)
    out_r = iterate(m, [0.01, 0.01], tight)
    # a relative 1e-3 of 0.1 is an absolute 1e-4, so it needs more steps
    assert out_r.iterations > out_a.iterations
    assert abs(out_a.x[0] - 0.1) <= out_a.error_bound <= 1e-3
    assert abs(out_r.x[0] - 0.1) <= out_r.error_bound * out_r.x[0] and out_r.error_bound <= 1e-3


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 14), st.integers(0, 2**32), st.sampled_from(["relative", "absolute"]))
def test_linear_error_bounds_hold(n, seed, criterion):
    rng = random.Random(seed)
    m, b, rows = substochastic_system(rng, n)
    # the oracle solves the float system itself: its entries are the exact values of the stored floats
    float_rows = [{c: Fraction(float(v)) for c, v in row.items()} for row in rows]
    expected = dense_solve_exact(float_rows, [Fraction(v) for v in b])
    env = SolverEnvironment(criterion=criterion)
    out = solvers.solve_linear(LinearSystem(m, b), env)
    assert out.method == "elimination" and out.iterations == 0
    # elimination and the iteration it falls back to each prove their bound
    for out in (out, iterate(m, b, env)):
        assert 0 <= out.error_bound <= 1e-6
        scale = np.abs(out.x) if criterion == "relative" else np.ones(n)
        scale[scale < np.finfo(float).tiny] = 1.0
        for i in range(n):
            assert abs(Fraction(out.x[i]) - expected[i]) <= Fraction(out.error_bound * scale[i])
    exact = solvers.solve_linear_exact(rows_to_matrix(float_rows, n, True), [Fraction(v) for v in b])
    assert exact == expected


def test_unmet_certificate_falls_back_to_the_iteration():
    m = sparse.build_sparse([(0, 0, 0.5)], 1, 1)
    # the rounding margin alone makes the bound a few ulps, more than 1e-15 allows
    bound = solvers._certified_elimination(LinearSystem(m, [0.5]), "relative").error_bound
    assert 1e-15 < bound < 1e-13
    out = solvers.solve_linear(LinearSystem(m, [0.5]), SolverEnvironment(precision=1e-15))
    # the iteration's rounding allowance is as wide, so it returns its lower side unproven
    assert out.method == "value_iteration" and out.error_bound is None
    assert 1 - 1e-14 < out.x[0] < 1
    out = iterate(m, [0.5], SolverEnvironment(precision=1e-14))
    assert out.error_bound <= 1e-14
    assert abs(Fraction(out.x[0]) - 1) <= Fraction(out.error[0])


def test_zero_pivot_falls_back_to_the_iteration():
    # state 1 loops with probability one, so I - A has a zero second pivot
    m = sparse.build_sparse([(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)], 2, 2)
    with pytest.raises(SingularMatrix):
        solvers._factor(m)
    out = solvers.solve_linear(LinearSystem(m, [0.5, 0.0]), SolverEnvironment())
    # the iteration rises from 0 to the least fixed point, (1, 0)
    assert out.method == "value_iteration" and out.error_bound <= 1e-6
    assert out.x[1] == 0.0 and abs(Fraction(out.x[0]) - 1) <= Fraction(out.error[0])


def test_elimination_budget_falls_back():
    # a dense 6x6 block needs more multiply-adds than a budget of one per entry allows
    m = sparse.build_sparse([(i, j, 0.15) for i in range(6) for j in range(6)], 6, 6)
    with mock.patch.object(solvers, "ELIMINATION_BUDGET", 1):
        out = solvers.solve_linear(LinearSystem(m, [0.1] * 6), SolverEnvironment())
    assert out.method == "value_iteration" and out.error_bound <= 1e-6
    assert np.all(np.abs(out.x - 1.0) <= out.error)
    assert solvers._factor(m).work > m.nnz


def test_certificate_covers_subnormal_values():
    # gambler's ruin on 0..1500 stepping up with 3/8: P(reach 1500) is subnormal
    # below about state 110 and below the smallest subnormal below about 40
    n, p = 1500, Fraction(3, 8)
    triples = [(i, i + 1, float(p)) for i in range(n - 2)] + [(i, i - 1, float(1 - p)) for i in range(1, n - 1)]
    b = np.zeros(n - 1)
    b[-1] = float(p)
    out = solvers.solve_linear(LinearSystem(sparse.build_sparse(triples, n - 1, n - 1), b), SolverEnvironment())
    assert out.method == "elimination" and out.error_bound <= 1e-6
    assert np.count_nonzero(out.x == 0) > 0 and np.count_nonzero((out.x > 0) & (out.x < 2.3e-308)) > 50
    # the closed form (r^i - 1) / (r^n - 1) with r = 5/3 is (5^i - 3^i) 3^(n-i) / (5^n - 3^n)
    denominator = 5**n - 3**n
    for i in range(1, n):
        value = (5**i - 3**i) * 3 ** (n - i)
        xp, xq = out.x[i - 1].as_integer_ratio()
        dp, dq = out.error[i - 1].as_integer_ratio()
        assert abs(xp * denominator - value * xq) * dq <= dp * denominator * xq


# --- the flat LU against the dict LU it replaced ----------------------------


def reference_factor(A, budget=None):
    """The LU of I - A with one dict per row: per row L's and U's (columns,
    values), U's pivots and the multiply-adds, or None past the budget."""
    offsets, cols, values = A.row_offsets.tolist(), A.col_indices.tolist(), A.values.tolist()
    lower, upper, pivots, work = [], [], [], 0
    for i in range(A.rows):
        limit = math.inf if budget is None else budget * offsets[i + 1]
        row = {i: 1}
        for k in range(offsets[i], offsets[i + 1]):
            row[cols[k]] = row.get(cols[k], 0) - values[k]
        left = sorted(j for j in row if j < i)
        lower_cols, lower_values = [], []
        for k in left:
            f = row.pop(k) / pivots[k]
            lower_cols.append(k)
            lower_values.append(f)
            u_cols, u_values = upper[k]
            work += len(u_cols)
            if work > limit:
                return None
            for j, u in zip(u_cols, u_values):
                if j in row:
                    row[j] -= f * u
                else:
                    row[j] = -(f * u)
                    if j < i:
                        bisect.insort(left, j)
        pivot = row.pop(i)
        if not pivot > 0:
            raise SingularMatrix(f"system matrix I - A is singular (pivot {pivot} in row {i})")
        pivots.append(pivot)
        lower.append((lower_cols, lower_values))
        upper.append((list(row), list(row.values())))
    return lower, upper, pivots, work


def reference_solve(lower, upper, pivots, rhs):
    y = list(rhs)
    for i, (cols, values) in enumerate(lower):
        acc = y[i]
        for k, f in zip(cols, values):
            acc -= f * y[k]
        y[i] = acc
    for i in range(len(y) - 1, -1, -1):
        cols, values = upper[i]
        acc = y[i]
        for j, u in zip(cols, values):
            acc -= u * y[j]
        y[i] = acc / pivots[i]
    return y


def factor_rows(lu, n):
    """A flat ``_LU`` per row, as ``reference_factor`` returns it."""
    lower = [([], []) for _ in range(n)]
    rows, cols, values = lu.lower
    assert rows == sorted(rows)
    for i, k, f in zip(rows, cols, values):
        lower[i][0].append(k)
        lower[i][1].append(f)
    ptr, cols, values = lu.upper
    upper = [(cols[ptr[i]:ptr[i + 1]], values[ptr[i]:ptr[i + 1]]) for i in range(n)]
    return lower, upper, lu.pivots, lu.work


@st.composite
def elimination_systems(draw):
    """A substochastic A in either domain with fill-in, self-loops and empty
    rows (some rows stochastic, so some I - A are singular), and a rhs."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    rational = draw(st.booleans())
    n = draw(st.integers(1, 14))
    triples = []
    for i in range(n):
        succ = rnd.sample(range(n), min(n, rnd.choice([0, 1, 2, 3, 6])))
        if succ and rnd.random() < 0.3:
            succ[0] = i  # a self-loop
        weights = [rnd.randint(1, 9) for _ in succ]
        mass = rnd.choice([Fraction(1), Fraction(9, 10), Fraction(2, 7)])
        triples += [(i, j, w * mass / sum(weights)) for j, w in zip(succ, weights)]
    if not rational:
        triples = [(i, j, float(v)) for i, j, v in triples]
    A = sparse.build_sparse(triples, n, n, "rational" if rational else "float")
    rhs = [Fraction(rnd.randint(0, 9), rnd.randint(1, 7)) for _ in range(n)]
    return A, rhs if rational else [float(v) for v in rhs]


@settings(deadline=None, max_examples=400)
@given(elimination_systems(), st.sampled_from([None, 0, 1, 2, 5]))
def test_flat_lu_matches_the_dict_lu(problem, budget):
    # the same pivots, entries in the same order, work and solves, bit for bit (repr tells -0.0 and 1 from 1.0)
    A, rhs = problem
    try:
        expected = reference_factor(A, budget)
    except SingularMatrix as exc:
        with pytest.raises(SingularMatrix) as got:
            solvers._factor(A, budget)
        assert str(got.value) == str(exc)
        return
    lu = solvers._factor(A, budget)
    if expected is None:
        assert lu is None
        return
    assert repr(factor_rows(lu, A.rows)) == repr(expected)
    assert repr(lu.solve(rhs)) == repr(reference_solve(*expected[:3], rhs))


# --- one factorisation per shared system ------------------------------------


RUIN_MDP = """mdp
module walk
  x : [0..20] init 10;
  [] x>0 & x<20 -> 0.401 : (x'=x+1) + 0.599 : (x'=x-1);
  [] x>0 & x<20 -> 0.441 : (x'=x+1) + 0.559 : (x'=x-1);
  [] x=0 | x=20 -> (x'=x);
endmodule
label "top" = x=20;
label "end" = x=0 | x=20;
rewards "steps"
  x>0 & x<20 : 1;
endrewards
"""
RUIN_PROPS = ["--prop", 'Pmax=? [ F "top" ]', "--prop", 'Pmin=? [ F "top" ]', "--prop", 'Rmin=? [ F "end" ]']


def content(A):
    return A.row_offsets.tobytes(), A.col_indices.tobytes(), A.values.tobytes()


@pytest.fixture
def ruin_argv(tmp_path):
    program = tmp_path / "ruin.nm"
    program.write_text(RUIN_MDP)
    return ["--prism", str(program), "--json", *RUIN_PROPS]


@pytest.fixture
def factored():
    """The content of every matrix ``solvers._factor`` factors while the fixture is in use."""
    seen, real = [], solvers._factor

    def spy(A, budget=None):
        seen.append(content(A))
        return real(A, budget)

    with mock.patch.object(solvers, "_factor", spy):
        yield seen


def test_properties_of_one_model_share_a_factorisation(ruin_argv, factored, capsys):
    evaluated, real = [], solvers._certified_elimination

    def spy(system, criterion):
        evaluated.append(content(system.A))
        return real(system, criterion)

    with mock.patch.object(solvers, "_certified_elimination", spy):
        assert cli.main(ruin_argv) == 0
    out = capsys.readouterr().out
    # Pmax, Pmin and Rmin all start policy iteration from choice 0, whose chain is factored once
    assert evaluated.count(evaluated[0]) == 3 and factored.count(evaluated[0]) == 1
    assert len(set(factored)) == len(factored) < len(evaluated)
    with mock.patch.object(solvers, "_shared_factor", lambda A, budget=None: solvers._factor(A, budget)):
        assert cli.main(ruin_argv) == 0
    assert capsys.readouterr().out == out


def test_cli_calls_share_no_factorisation(ruin_argv, factored, capsys):
    assert cli.main(ruin_argv) == 0
    first = len(factored)
    assert cli.main(ruin_argv) == 0
    assert first > 0 and factored[first:] == factored[:first]


def test_the_cache_lives_on_the_model_matrix():
    model, state_map = explore(typecheck(parse_program(RUIN_MDP)), ExploreOptions())
    sub, _ = sparse.restrict(model.matrix, np.ones(model.n_choices, dtype=bool), np.ones(model.n_states, dtype=bool))
    assert sub.factors is model.matrix.factors == []
    for prop in RUIN_PROPS[1::2]:
        checkers.check(model, resolve_atoms(parse_property(prop), model, state_map), SolverEnvironment())
    assert len(model.matrix.factors) == solvers.FACTOR_CACHE
    assert model.matrix.to_rational().factors == []


def test_the_cache_tells_rational_systems_apart():
    # an object array's bytes are the addresses of its Fractions, which a freed
    # matrix hands on to the next one: equal bytes, different systems
    shared = []
    for k in range(2, 60):
        A = sparse.build_sparse([(0, 0, Fraction(1, k))], 1, 1, "rational")
        A.factors = shared
        assert solvers.solve_linear_exact(A, [Fraction(1)]) == [Fraction(k, k - 1)]
    assert len(shared) == solvers.FACTOR_CACHE


# --- kernels --------------------------------------------------------------


def test_matvec_matches_left_to_right_dense_oracle():
    rng = random.Random(7)
    rows = random_stochastic_rows(rng, 8, 8)
    m = rows_to_matrix(rows, 8, False)
    x = np.array([rng.uniform(-1, 1) for _ in range(8)])
    got = kernels.matvec(m, x)
    for i in range(8):
        acc = 0.0
        lo, hi = m.row_offsets[i], m.row_offsets[i + 1]
        for k in range(lo, hi):
            acc += m.values[k] * x[m.col_indices[k]]
        assert got[i] == acc  # bit-identical accumulation order


def test_matvec_reduce_lowest_index_tie_breaking():
    # two identical choices for the single state: the first must win
    m = sparse.build_sparse([(0, 0, 1.0), (1, 0, 1.0)], 2, 1)
    values, arg = kernels.matvec_reduce(m, np.array([0, 2]), np.array([0.5]), True)
    assert values[0] == 0.5 and arg[0] == 0
    # -0.0 == 0.0 is a tie too, and the first choice keeps its sign
    empty = sparse.SparseMatrix(2, 1, [0, 0, 0], [], [], "float")
    for maximize in (True, False):
        for b in ([-0.0, 0.0], [0.0, -0.0]):
            values, arg = kernels.matvec_reduce(empty, np.array([0, 2]), np.array([1.0]), maximize, np.array(b))
            assert np.signbit(values[0]) == np.signbit(b[0]) and arg[0] == 0


def test_matvec_reduce_with_offset_vector():
    m = sparse.build_sparse([(0, 0, 1.0), (1, 1, 1.0), (2, 0, 1.0)], 3, 2)
    offsets = np.array([0, 2, 3])
    x = np.array([0.25, 0.75])
    b = np.array([0.0, 0.1, 0.0])
    vmax, amax = kernels.matvec_reduce(m, offsets, x, True, b)
    vmin, amin = kernels.matvec_reduce(m, offsets, x, False, b)
    assert vmax[0] == 0.85 and amax[0] == 1
    assert vmin[0] == 0.25 and amin[0] == 0
    assert vmax[1] == vmin[1] == 0.25


def test_matvec_dimension_mismatch():
    m = sparse.build_sparse([(0, 0, 1.0)], 1, 1)
    with pytest.raises(StormletError):
        kernels.matvec(m, np.zeros(2))


def test_matvec_rational_is_exact():
    m = sparse.build_sparse([(0, 0, Fraction(1, 3)), (0, 1, Fraction(2, 3))], 1, 2, "rational")
    out = kernels.matvec_rational(m, [Fraction(1, 7), Fraction(1, 5)])
    assert list(out) == [Fraction(1, 21) + Fraction(2, 15)]


# --- Bellman systems ------------------------------------------------------


def bellman_from_mdp(rng, n, target, direction):
    rows = random_stochastic_rows(rng, 3 * n, n)
    counts = [3] * n
    offsets = np.cumsum([0] + counts)
    return rows, offsets


@pytest.mark.parametrize("direction", ["maximize", "minimize"])
@pytest.mark.parametrize("method", ["value_iteration", "policy_iteration"])
@pytest.mark.parametrize("seed", range(8))
def test_minmax_reachability_matches_scheduler_enumeration(seed, method, direction):
    rng = random.Random(500 + seed)
    n = 4
    rows, offsets, counts = _mdp_rows(rng, n)
    target = [False] * n
    target[rng.randrange(n)] = True
    maximize = direction == "maximize"
    expected = oracle_mdp_reach(rows, offsets, target, maximize)

    # the solver contract requires zero-probability states to be removed first
    # (the checker's qualitative precomputation guarantees this)
    zero = frozenset(s for s in range(n) if expected[s] == 0)
    if len(zero) + sum(target) == n:
        return  # nothing left to solve numerically
    system, kept = _reach_bellman(rows, offsets, target, direction, zero)
    env = SolverEnvironment(minmax_method=method, precision=1e-10)
    out = solvers.solve_minmax(system, env)
    for i, s in enumerate(kept):
        assert out.x[i] == pytest.approx(float(expected[s]), abs=1e-6)


def _mdp_rows(rng, n, max_choices=2):
    counts = [rng.randint(1, max_choices) for _ in range(n)]
    rows = random_stochastic_rows(rng, sum(counts), n)
    return rows, np.cumsum([0] + counts), counts


def _reach_bellman(rows, offsets, target, direction, zero_states=frozenset()):
    """Bellman system over the remaining states for plain reachability.

    Target states contribute to b; zero_states are dropped entirely (their
    value is pinned to 0, mirroring qualitative precomputation).
    """
    n = len(target)
    keep = [s for s in range(n) if not target[s] and s not in zero_states]
    pos = {s: i for i, s in enumerate(keep)}
    triples = []
    b = []
    sub_offsets = [0]
    row_i = 0
    for s in keep:
        for c in range(offsets[s], offsets[s + 1]):
            mass = 0.0
            for t, p in rows[c].items():
                if target[t]:
                    mass += float(p)
                elif t in pos:
                    triples.append((row_i, pos[t], float(p)))
            b.append(mass)
            row_i += 1
        sub_offsets.append(row_i)
    matrix = sparse.build_sparse(triples, row_i, len(keep), "float")
    return BellmanSystem(matrix, np.asarray(sub_offsets), b, direction), keep


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32), st.sampled_from(["max", "min"]), st.booleans(),
       st.sampled_from(["relative", "absolute"]), st.sampled_from(["policy_iteration", "value_iteration"]))
def test_minmax_error_bound_holds(seed, optimum, reward, criterion, method):
    # Pmax, Pmin, Rmax and Rmin on random MDPs; zero rewards allow zero-reward end components
    rng = random.Random(seed)
    n = 5
    rows, offsets, _ = _mdp_rows(rng, n, max_choices=3)
    target = [rng.random() < 0.3 for _ in range(n)]
    target[rng.randrange(n)] = True
    choice_rewards = [Fraction(rng.randint(0, 3)) for _ in rows]
    rm = RewardModel("r", action_rewards=np.array([float(v) for v in choice_rewards]))
    model = Model(ModelKind.MDP, rows_to_matrix(rows, n, False), StateLabeling(n), choice_offsets=offsets)
    env = SolverEnvironment(criterion=criterion, minmax_method=method)
    goal = np.array(target)
    if reward:
        values, meta = checkers.check_reach_reward(model, rm, goal, optimum, env)
        expected = oracle_mdp_reach_reward(rows, offsets, target, choice_rewards, optimum == "max")
    else:
        values, meta = checkers.check_until(model, np.ones(n, dtype=bool), goal, optimum, env)
        expected = oracle_mdp_reach(rows, offsets, target, optimum == "max")
    if meta["method"] == "precomputation":
        return
    assert meta["method"] == method
    # Rmax's and Pmin's maybe states hold no end component, so both methods prove a bound
    if optimum == "max" and reward or optimum == "min" and not reward:
        assert "error_bound" in meta
    bound = meta.get("error_bound", 1e-6)
    for s in range(n):
        if expected[s] is None:
            assert values[s] == math.inf
            continue
        scale = abs(values[s]) if criterion == "relative" and abs(values[s]) >= np.finfo(float).tiny else 1.0
        assert abs(Fraction(values[s]) - expected[s]) <= Fraction(bound * scale)


def test_policy_iteration_certifies_a_slow_evaluation():
    # inner states 1..199 of a lazy walk on 0..200: choice 0 drifts down, choice 1 moves
    # each way with 1/100, so Pmax of reaching 200 is i/200 under choice 1. Its elimination
    # bound, about 3e-9, is within the precision 1e-6, so it is the bound reported; value
    # iteration would need far more than 20 000 steps
    n = 200
    triples, b = [], []
    for i in range(n - 1):
        for c, (up, down) in enumerate(((0.01, 0.012), (0.01, 0.01))):
            row = 2 * i + c
            if i > 0:
                triples.append((row, i - 1, down))
            triples.append((row, i, 1 - up - down))
            if i < n - 2:
                triples.append((row, i + 1, up))
            b.append(up if i == n - 2 else 0.0)
    system = BellmanSystem(sparse.build_sparse(triples, 2 * (n - 1), n - 1), np.arange(0, 2 * n - 1, 2), b,
                           "maximize")
    out = solvers.solve_minmax(system, SolverEnvironment(max_iterations=20_000))
    assert out.method == "policy_iteration" and 1e-9 < out.error_bound <= 1e-6
    assert list(out.scheduler) == [1] * (n - 1)
    for i, v in enumerate(out.x, start=1):
        assert abs(Fraction(v) - Fraction(i, n)) <= Fraction(out.error_bound * v)


def test_policy_iteration_exact_rational():
    # state 0 has two choices: go to target with 1/3 vs 1/2 per step
    m = sparse.build_sparse(
        [(0, 0, Fraction(2, 3)), (1, 0, Fraction(1, 2))], 2, 1, "rational"
    )
    system = BellmanSystem(m, [0, 2], [Fraction(1, 3), Fraction(1, 2)], "maximize")
    out = solvers.solve_minmax(system, SolverEnvironment())
    assert out.x[0] == Fraction(1)
    system_min = BellmanSystem(m, [0, 2], [Fraction(1, 3), Fraction(1, 2)], "minimize")
    out_min = solvers.solve_minmax(system_min, SolverEnvironment())
    assert out_min.x[0] == Fraction(1)


def test_value_iteration_not_converged():
    m = sparse.build_sparse([(0, 0, 0.999)], 1, 1)
    system = BellmanSystem(m, [0, 1], [0.001], "maximize")
    with pytest.raises(NotConverged):
        solvers.solve_minmax(system, SolverEnvironment(minmax_method="value_iteration", max_iterations=3))


def test_scheduler_extraction_lowest_index():
    # both choices are optimal; the reported scheduler must pick choice 0
    m = sparse.build_sparse([(0, 0, 0.5), (1, 0, 0.5)], 2, 1)
    system = BellmanSystem(m, [0, 2], [0.5, 0.5], "maximize")
    for method in ("value_iteration", "policy_iteration"):
        out = solvers.solve_minmax(system, SolverEnvironment(minmax_method=method))
        assert out.scheduler[0] == 0


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("direction", ["maximize", "minimize"])
def test_policy_improvement_margin(direction, rational):
    # one state whose choices stop at once with value b; choice 1 is better
    # than the current choice 0 by one ulp of 1/2, within the rounding margin of the row
    gain = Fraction(1, 2**53)
    b = [Fraction(1, 2), Fraction(1, 2) + gain]
    if direction == "minimize":
        b = [b[1], b[0]]
    dtype = "rational" if rational else "float"
    system = BellmanSystem(sparse.build_sparse([], 2, 1, dtype), [0, 2], sparse.as_vector(b, dtype), direction)
    out = solvers.solve_minmax(system, SolverEnvironment(minmax_method="policy_iteration"), initial_scheduler=[0])
    # float keeps the current choice; exact switches on any strict gain
    assert out.x[0] == (b[1] if rational else float(b[0]))
    assert out.iterations == (2 if rational else 1)


@pytest.mark.parametrize("direction", ["maximize", "minimize"])
def test_policy_improvement_margin_is_relative(direction):
    # values near 1e-20 still improve by a relative 1e-7, far below any absolute margin
    b = [1e-20, 1.0000001e-20]
    if direction == "minimize":
        b.reverse()
    system = BellmanSystem(sparse.build_sparse([], 2, 1), [0, 2], b, direction)
    out = solvers.solve_minmax(system, SolverEnvironment(), initial_scheduler=[0])
    assert out.method == "policy_iteration" and out.iterations == 2
    assert out.x[0] == b[1] and out.scheduler[0] == 1


def test_policy_improvement_takes_first_optimal_choice():
    # choice 2 is optimal; choice 1 beats the current choice 0 by more than the margin too
    b = [0.5, 0.5 + 2e-12, 0.5 + 2.5e-12]
    system = BellmanSystem(sparse.build_sparse([], 3, 1), [0, 3], b, "maximize")
    out = solvers.solve_minmax(system, SolverEnvironment(minmax_method="policy_iteration"), initial_scheduler=[0])
    assert out.x[0] == b[2] and out.scheduler[0] == 2


# --- Fox-Glynn windows ----------------------------------------------------


def poisson_pmf_highprec(lam, k):
    import mpmath

    mpmath.mp.dps = 60
    return mpmath.exp(-lam) * mpmath.power(lam, k) / mpmath.factorial(k)


@pytest.mark.parametrize("lam", [0.5, 1.0, 10.0, 100.0, 1000.0])
def test_fox_glynn_window_covers_poisson_mass(lam):
    import mpmath

    eps = 1e-10
    L, R, w, total = solvers.fox_glynn(lam, eps)
    assert 0 <= L <= lam + 1
    assert R >= lam - 1
    assert len(w) == R - L + 1
    # normalized weights match the true pmf closely inside the window
    probs = [poisson_pmf_highprec(lam, k) for k in range(L, R + 1)]
    for k in range(L, R + 1):
        assert abs(w[k - L] / total - float(probs[k - L])) < 1e-8
    # truncated tail mass is within budget
    tail = 1 - mpmath.fsum(probs)
    assert tail <= eps
    assert abs(float(mpmath.fsum(probs)) - 1.0) <= eps


def test_fox_glynn_weights_are_unimodal():
    L, R, w, _ = solvers.fox_glynn(100.0, 1e-10)
    mode = int(np.argmax(w))
    assert all(w[i] <= w[i + 1] for i in range(mode))
    assert all(w[i] >= w[i + 1] for i in range(mode, len(w) - 1))


def poisson_window_tail(lam, L, R):
    """1 - the Poisson(lam) mass of [L, R], summed at 50 digits by the pmf recurrence."""
    import mpmath

    with mpmath.workdps(50):
        lam = mpmath.mpf(lam)
        p = mpmath.exp(L * mpmath.log(lam) - lam - mpmath.loggamma(L + 1))
        mass = p
        for k in range(L + 1, R + 1):
            p = p * lam / k
            mass += p
        return 1 - mass


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda u: 10.0 ** u)


@given(log_uniform(1e-3, 1e6), log_uniform(1e-18, 1e-2))
@example(0.5, 1e-18)  # the step limit of a fixed-length window left a tail of 1.46e-17 here
@settings(deadline=None, max_examples=100)
def test_fox_glynn_tail_is_within_epsilon(lam, eps):
    L, R, w, total = solvers.fox_glynn(lam, eps)
    assert len(w) == R - L + 1 and total == math.fsum(w)
    assert poisson_window_tail(lam, L, R) <= eps


def test_fox_glynn_input_validation():
    L, R, w, total = solvers.fox_glynn(0.0, 1e-10)
    assert (L, R, list(w), total) == (0, 0, [1.0], 1.0)
    for lam in (-1.0, -5e-324, math.nan):
        with pytest.raises(SolverError):
            solvers.fox_glynn(lam, 1e-10)
    with pytest.raises(SolverError):
        solvers.fox_glynn(1.0, 0.0)
    with pytest.raises(LambdaTooLarge):
        solvers.fox_glynn(2e9, 1e-10)


# --- kernels against the scalar reference loops ---------------------------


def reference_matvec_reduce(offsets, cols, values, choice_offsets, b, x, maximize):
    """Per state: each choice row adds its products to b[c] left to right; the first best wins."""
    out, arg = [], []
    for s in range(len(choice_offsets) - 1):
        best, best_c = None, -1
        for c in range(choice_offsets[s], choice_offsets[s + 1]):
            acc = b[c]
            for k in range(offsets[c], offsets[c + 1]):
                acc += values[k] * x[cols[k]]
            if best_c < 0 or (acc > best if maximize else acc < best):
                best, best_c = acc, c
        out.append(best)
        arg.append(best_c - choice_offsets[s])
    return out, arg


def reference_matvec(offsets, cols, values, x, zero):
    n = len(offsets) - 1
    return reference_matvec_reduce(offsets, cols, values, range(n + 1), [zero] * n, x, True)[0]


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 1e16, -1e16, 2.0**-1074]


def random_scalar(rnd, rational):
    if rational:
        return Fraction(rnd.randint(-20, 20), rnd.randint(1, 40))
    return rnd.choice(SPECIAL_FLOATS) if rnd.random() < 0.5 else rnd.uniform(-1e3, 1e3)


@st.composite
def choice_offset_arrays(draw, n):
    """Choice offsets that give each state at least one of n >= 1 choice rows."""
    cuts = sorted(c for c in draw(st.sets(st.integers(1, n))) if c < n)
    return np.array([0, *cuts, n], dtype=np.int64)


@st.composite
def choice_matrices(draw):
    """(matrix, choice offsets, b, x): empty rows, rows of 1-200 entries, repeated rows for ties."""
    rational = draw(st.booleans())
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n_cols = draw(st.integers(1, 6))
    rows = []  # (columns, values, b) per choice row
    for _ in range(draw(st.integers(1, 10))):
        if rows and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
            continue
        length = draw(st.one_of(st.just(0), st.integers(1, 4), st.integers(1, 200)))
        # a row of one signed zero sums to -0.0 when x >= 0, but only if no addition loses the sign
        z = rnd.choice([0.0, -0.0])
        scalar = (lambda: z) if draw(st.booleans()) else (lambda: random_scalar(rnd, rational))
        rows.append(([rnd.randrange(n_cols) for _ in range(length)], [scalar() for _ in range(length)], scalar()))
    choice_offsets = draw(choice_offset_arrays(len(rows)))
    offsets = np.cumsum([0] + [len(c) for c, _, _ in rows])
    dtype = "rational" if rational else "float"
    matrix = sparse.SparseMatrix(
        len(rows), n_cols, offsets,
        [j for c, _, _ in rows for j in c], [v for _, vs, _ in rows for v in vs], dtype,
    )
    b = sparse.as_vector([r[2] for r in rows], dtype)
    x = [random_scalar(rnd, rational) for _ in range(n_cols)]
    x = sparse.as_vector([abs(v) for v in x] if draw(st.booleans()) else x, dtype)
    return matrix, choice_offsets, b, x


def assert_same_vector(got, expected, dtype):
    if dtype == "float":
        assert got.dtype == np.float64 and got.tobytes() == np.array(expected, dtype=np.float64).tobytes()
    else:
        assert list(got) == expected and all(type(v) is Fraction for v in got)


@settings(deadline=None, max_examples=300)
@given(choice_matrices(), st.booleans())
def test_kernels_match_scalar_reference_loops(problem, maximize):
    m, choice_offsets, b, x = problem
    offsets, cols, values = m.row_offsets.tolist(), m.col_indices.tolist(), m.values.tolist()
    zero = sparse.as_vector([0], m.dtype)[0]

    got = kernels.matvec(m, x)
    out, arg = kernels.matvec_reduce(m, choice_offsets, x, maximize, b)
    assert_same_vector(got, reference_matvec(offsets, cols, values, x.tolist(), zero), m.dtype)

    ref_out, ref_arg = reference_matvec_reduce(
        offsets, cols, values, choice_offsets.tolist(), b.tolist(), x.tolist(), maximize
    )
    assert_same_vector(out, ref_out, m.dtype)
    assert arg.tolist() == ref_arg


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_kernel_plans_are_reused_across_calls(data):
    # each matrix caches its entry rows and choice index at its first calls
    m, first_offsets, _, _ = data.draw(choice_matrices())
    twin = m.to_rational() if m.dtype == "float" else m.to_float()
    choices = [first_offsets, data.draw(choice_offset_arrays(m.rows))]
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(data.draw(st.integers(2, 5))):
        x = [random_scalar(rnd, m.dtype == "rational") for _ in range(m.cols)]
        b = [random_scalar(rnd, m.dtype == "rational") for _ in range(m.rows)]
        maximize, choice_offsets = data.draw(st.booleans()), choices[data.draw(st.integers(0, 1))]
        for matrix in (m, twin):
            xs, bs = sparse.as_vector(x, matrix.dtype), sparse.as_vector(b, matrix.dtype)
            offsets, cols, values = matrix.row_offsets.tolist(), matrix.col_indices.tolist(), matrix.values.tolist()
            zero = sparse.as_vector([0], matrix.dtype)[0]
            assert_same_vector(kernels.matvec(matrix, xs),
                               reference_matvec(offsets, cols, values, xs.tolist(), zero), matrix.dtype)
            out, arg = kernels.matvec_reduce(matrix, choice_offsets, xs, maximize, bs)
            ref_out, ref_arg = reference_matvec_reduce(
                offsets, cols, values, choice_offsets.tolist(), bs.tolist(), xs.tolist(), maximize
            )
            assert_same_vector(out, ref_out, matrix.dtype)
            assert arg.tolist() == ref_arg


@pytest.mark.parametrize("dtype", ["float", "rational"])
def test_every_row_length_adds_left_to_right(dtype):
    """Rows of 0 to 70 entries and one of 10^4, over terms whose float sum depends on the order of addition.

    ``matvec``, ``matvec_reduce`` and ``coalesce`` (on the entries in CSR
    order and shuffled) equal the scalar loops byte for byte in float mode
    and exactly in exact mode.
    """
    rnd = random.Random(25)
    terms = [0.1, 1e16, -1e16, 3e-17, -0.0]
    lengths = [*range(71), 10_000]
    n_cols = 7
    cols = [rnd.randrange(n_cols) for _ in range(sum(lengths))]
    m = sparse.SparseMatrix(len(lengths), n_cols, np.cumsum([0, *lengths]), cols,
                            [rnd.choice(terms) for _ in cols], dtype)
    x = sparse.as_vector([rnd.choice([1.0, *terms]) for _ in range(n_cols)], dtype)
    b = sparse.as_vector([rnd.choice(terms) for _ in lengths], dtype)
    choice_offsets = np.arange(0, len(lengths) + 1, 3)
    offsets, values = m.row_offsets.tolist(), m.values.tolist()
    zero = sparse.as_vector([0], dtype)[0]

    assert_same_vector(kernels.matvec(m, x), reference_matvec(offsets, cols, values, x.tolist(), zero), dtype)
    out, arg = kernels.matvec_reduce(m, choice_offsets, x, False, b)
    ref_out, ref_arg = reference_matvec_reduce(
        offsets, cols, values, choice_offsets.tolist(), b.tolist(), x.tolist(), False
    )
    assert_same_vector(out, ref_out, dtype)
    assert arg.tolist() == ref_arg

    entry_rows = np.repeat(np.arange(len(lengths)), lengths)
    for order in (np.arange(len(cols)), np.random.default_rng(25).permutation(len(cols))):
        sums = {}
        for row, value in zip(entry_rows[order].tolist(), m.values[order].tolist()):
            sums[row] = sums[row] + value if row in sums else value
        position, got, _ = sparse.coalesce(entry_rows[order], m.values[order])
        assert position.tolist() == sorted(sums)
        assert_same_vector(got, [sums[row] for row in sorted(sums)], dtype)


def test_matvec_reduce_sees_choice_offsets_changed_in_place():
    m = sparse.build_sparse([(0, 0, 1.0), (1, 1, 1.0), (2, 0, 0.5)], 3, 2)
    x = np.array([0.25, 0.75])
    offsets = np.array([0, 1, 3])
    values, arg = kernels.matvec_reduce(m, offsets, x, True)
    assert values.tolist() == [0.25, 0.75] and arg.tolist() == [0, 0]
    offsets[1] = 2
    values, arg = kernels.matvec_reduce(m, offsets, x, True)
    assert values.tolist() == [0.75, 0.125] and arg.tolist() == [1, 0]


@pytest.mark.parametrize("bad", [[0, 0, 3], [0, 2, 2], [0, 1, 2], [0, 2, 4]])
def test_choice_offsets_are_validated_on_every_call(bad):
    # a state without a choice, or offsets that do not end at the last row
    m = sparse.build_sparse([(0, 0, 1.0), (1, 1, 1.0), (2, 0, 0.5)], 3, 2)
    x = np.array([0.25, 0.75])
    with pytest.raises(StormletError, match="every state a choice"):
        kernels.first_optimum(np.array([1.0, 2.0, 3.0]), np.array(bad), True)
    kernels.matvec_reduce(m, np.array([0, 1, 3]), x, True)
    with pytest.raises(StormletError, match="every state a choice"):
        kernels.matvec_reduce(m, np.array(bad), x, True)


@pytest.mark.parametrize("dtype", ["float", "rational"])
def test_kernels_on_matrices_without_entries(dtype):
    x = sparse.as_vector([1, 2, 3], dtype)
    no_rows = sparse.SparseMatrix(0, 3, [0], [], [], dtype)
    assert len(kernels.matvec(no_rows, x)) == 0
    out, arg = kernels.matvec_reduce(no_rows, np.array([0]), x, True)
    assert len(out) == 0 and len(arg) == 0
    empty_rows = sparse.SparseMatrix(3, 3, [0, 0, 0, 0], [], [], dtype)
    assert_same_vector(kernels.matvec(empty_rows, x), [sparse.as_vector([0], dtype)[0]] * 3, dtype)
    b = sparse.as_vector([5, 4, 6], dtype)
    out, arg = kernels.matvec_reduce(empty_rows, np.array([0, 2, 3]), x, False, b)
    assert_same_vector(out, list(b[[1, 2]]), dtype)
    assert arg.tolist() == [1, 0]


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 30), st.booleans(), st.integers(0, 2**32))
def test_gauss_seidel_sweep_on_lists_matches_arrays(n, relative, seed):
    rnd = random.Random(seed)
    lengths = [rnd.choice([0, 1, 2, 3, n]) for _ in range(n)]
    offsets = np.cumsum([0] + lengths)
    cols = np.array([rnd.randrange(n) for _ in range(offsets[-1])], dtype=np.int64)
    values = np.array([rnd.choice([0.0, -0.0, 0.5, float(n), rnd.uniform(-1.0, 1.0)]) / n for _ in cols])
    b = np.array([rnd.uniform(-1.0, 1.0) for _ in range(n)])
    x0 = np.array([rnd.choice([0.0, -0.0, rnd.uniform(-1.0, 1.0)]) for _ in range(n)])

    x_array = x0.copy()
    from_arrays = kernels.gauss_seidel_sweep(offsets, cols, values, b, x_array, relative)
    x_list = x0.tolist()
    from_lists = kernels.gauss_seidel_sweep(
        offsets.tolist(), cols.tolist(), values.tolist(), b.tolist(), x_list, relative
    )
    assert np.float64(from_lists[0]).tobytes() == np.float64(from_arrays[0]).tobytes()
    assert from_lists[1] == from_arrays[1]
    assert np.array(x_list).tobytes() == x_array.tobytes()
