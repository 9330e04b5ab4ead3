"""Linear and Bellman solvers, cross-validated and oracle-checked."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    dense_solve_exact,
    enumerate_schedulers,
    induced_rows,
    oracle_mdp_reach,
    oracle_reach_probability,
    random_stochastic_rows,
    rows_to_matrix,
)
from stormlet import kernels, solvers, sparse
from stormlet.errors import DiagonalOne, LambdaTooLarge, NotConverged, SingularMatrix, SolverError
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


# --- environments ---------------------------------------------------------


def test_environment_validation():
    with pytest.raises(SolverError):
        SolverEnvironment(linear_method="sor")
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
    out = solvers.solve_linear(LinearSystem(m, b), SolverEnvironment(linear_method="jacobi"))
    assert np.array_equal(out.x, b)
    assert out.converged and out.iterations <= 2


def test_geometric_fixed_point():
    # x = 0.5 x + 0.5 has the fixed point 1
    m = sparse.build_sparse([(0, 0, 0.5)], 1, 1)
    for method in ("jacobi", "gauss_seidel"):
        out = solvers.solve_linear(LinearSystem(m, [0.5]), SolverEnvironment(linear_method=method))
        assert out.x[0] == pytest.approx(1.0, abs=1e-6)
    exact = solvers.solve_linear(LinearSystem(m, [0.5]), SolverEnvironment(linear_method="exact"))
    assert exact.x[0] == 1.0 and exact.method == "exact"


def test_gauss_seidel_rejects_unit_diagonal():
    m = sparse.build_sparse([(0, 0, 1.0)], 1, 1)
    with pytest.raises(DiagonalOne) as exc:
        solvers.solve_linear(LinearSystem(m, [0.0]), SolverEnvironment(linear_method="gauss_seidel"))
    assert exc.value.state == 0


def test_not_converged_carries_best_iterate():
    rng = random.Random(5)
    m, b, _ = substochastic_system(rng, 6)
    env = SolverEnvironment(linear_method="jacobi", max_iterations=1)
    with pytest.raises(NotConverged) as exc:
        solvers.solve_linear(LinearSystem(m, b), env)
    assert exc.value.iterations == 1
    assert len(exc.value.best) == 6


def test_exact_solver_singular_matrix():
    m = sparse.build_sparse([(0, 0, Fraction(1))], 1, 1, "rational")
    with pytest.raises(SingularMatrix):
        solvers.solve_linear_exact(m, [Fraction(1)])


def test_rational_systems_always_solve_exactly():
    m = sparse.build_sparse([(0, 0, Fraction(1, 3))], 1, 1, "rational")
    out = solvers.solve_linear(LinearSystem(m, [Fraction(2, 3)]), SolverEnvironment(linear_method="jacobi"))
    assert out.method == "exact" and out.x[0] == Fraction(1)


@pytest.mark.parametrize("seed", range(25))
def test_solvers_agree_with_dense_oracle(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(2, 10)
    m, b, rows = substochastic_system(rng, n)
    expected = dense_solve_exact(rows, [Fraction(v).limit_denominator(10**9) for v in b])
    for method in ("jacobi", "gauss_seidel"):
        out = solvers.solve_linear(
            LinearSystem(m, b), SolverEnvironment(linear_method=method, precision=1e-10)
        )
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
    m = sparse.build_sparse([(0, 0, 0.9)], 1, 1)
    loose = SolverEnvironment(linear_method="jacobi", criterion="absolute", precision=1e-3)
    tight = SolverEnvironment(linear_method="jacobi", criterion="relative", precision=1e-3)
    out_a = solvers.solve_linear(LinearSystem(m, [0.1]), loose)
    out_r = solvers.solve_linear(LinearSystem(m, [0.1]), tight)
    # fixed point is 1.0; the relative criterion needs at least as many sweeps
    assert out_r.iterations >= out_a.iterations
    assert out_r.x[0] == pytest.approx(1.0, abs=1e-2)


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
    from stormlet.errors import StormletError

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


def test_policy_iteration_exact_rational():
    # state 0 has two choices: go to target with 1/3 vs 1/2 per step
    m = sparse.build_sparse(
        [(0, 0, Fraction(2, 3)), (1, 0, Fraction(1, 2))], 2, 1, "rational"
    )
    system = BellmanSystem(m, [0, 2], [Fraction(1, 3), Fraction(1, 2)], "maximize")
    out = solvers.solve_minmax(system, SolverEnvironment(exact=True))
    assert out.x[0] == Fraction(1)
    system_min = BellmanSystem(m, [0, 2], [Fraction(1, 3), Fraction(1, 2)], "minimize")
    out_min = solvers.solve_minmax(system_min, SolverEnvironment(exact=True))
    assert out_min.x[0] == Fraction(1)


def test_value_iteration_not_converged():
    m = sparse.build_sparse([(0, 0, 0.999)], 1, 1)
    system = BellmanSystem(m, [0, 1], [0.001], "maximize")
    with pytest.raises(NotConverged):
        solvers.solve_minmax(system, SolverEnvironment(max_iterations=3))


def test_scheduler_extraction_lowest_index():
    # both choices are optimal; the reported scheduler must pick choice 0
    m = sparse.build_sparse([(0, 0, 0.5), (1, 0, 0.5)], 2, 1)
    system = BellmanSystem(m, [0, 2], [0.5, 0.5], "maximize")
    for method in ("value_iteration", "policy_iteration"):
        out = solvers.solve_minmax(system, SolverEnvironment(minmax_method=method))
        assert out.scheduler[0] == 0


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


def test_fox_glynn_input_validation():
    with pytest.raises(SolverError):
        solvers.fox_glynn(0.0, 1e-10)
    with pytest.raises(SolverError):
        solvers.fox_glynn(1.0, 0.0)
    with pytest.raises(LambdaTooLarge):
        solvers.fox_glynn(2e9, 1e-10)


# --- backend parity -------------------------------------------------------


def test_pure_python_backend_is_bit_identical():
    rng = random.Random(42)
    rows = random_stochastic_rows(rng, 12, 6)
    m = rows_to_matrix(rows, 6, False)
    x = np.array([rng.uniform(0, 1) for _ in range(6)])
    b = np.array([rng.uniform(0, 1) for _ in range(12)])
    offsets = np.array([0, 2, 4, 6, 8, 10, 12])

    out_a = np.empty(12)
    kernels.csr_matvec(m.row_offsets, m.col_indices, m.values, x, out_a)
    out_b = np.empty(12)
    kernels._py_csr_matvec(m.row_offsets, m.col_indices, m.values, x, out_b)
    assert np.array_equal(out_a, out_b)

    v_a = np.empty(6)
    a_a = np.empty(6, dtype=np.int64)
    kernels.csr_matvec_reduce(m.row_offsets, m.col_indices, m.values, offsets, b, x, True, v_a, a_a)
    v_b = np.empty(6)
    a_b = np.empty(6, dtype=np.int64)
    kernels._py_csr_matvec_reduce(m.row_offsets, m.col_indices, m.values, offsets, b, x, True, v_b, a_b)
    assert np.array_equal(v_a, v_b) and np.array_equal(a_a, a_b)

    sub = rows_to_matrix(random_stochastic_rows(rng, 6, 6), 6, False)
    scaled = sparse.build_sparse(((i, j, 0.5 * v) for i, j, v in sub.entries()), 6, 6)
    bb = np.array([rng.uniform(0, 1) for _ in range(6)])
    x1 = np.zeros(6)
    x2 = np.zeros(6)
    d1 = kernels.gauss_seidel_sweep(scaled.row_offsets, scaled.col_indices, scaled.values, bb, x1, True)
    d2 = kernels._py_gauss_seidel_sweep(scaled.row_offsets, scaled.col_indices, scaled.values, bb, x2, True)
    assert d1 == d2 and np.array_equal(x1, x2)
