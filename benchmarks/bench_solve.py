#!/usr/bin/env python3
"""Benchmark the float linear solve: sparse elimination against Gauss-Seidel.

Two families of maybe-state systems x = A.x + b, both slow for an
iterative method:
- ``chain N``: the lazy walk on 0..N that moves each way with probability
  1/100, solved for P(reach N before 0) on its inner states; elimination
  makes no fill-in;
- ``grid k``: a walk on a k x k grid that moves to each of its four
  neighbours with probability 1/4 and is absorbed when it leaves the grid,
  solved for P(leave through the right edge); elimination in row order fills
  in the band of k columns left and right of the diagonal.

For each system the script prints the best time of the factorisation, the
multiply-adds it took per stored entry of A (against the budget
``solvers.ELIMINATION_BUDGET``), the certified relative ``error_bound`` and
whether the default solve falls back to Gauss-Seidel (the budget runs out,
or the bound is missing or above the precision 1e-6), and, at the sizes up
to ``--gs-states``, the time Gauss-Seidel takes on its own.

Usage: python3 benchmarks/bench_solve.py [--chains 100,1000,10000]
       [--grids 10,30,60] [--gs-states 1000] [--repeats 3]
"""

import argparse
import time

import numpy as np

from stormlet import solvers, sparse
from stormlet.errors import NotConverged
from stormlet.solvers import LinearSystem, SolverEnvironment

PRECISION = 1e-6
# Gauss-Seidel gives up after this many sweeps; the longer chains need millions
GS_SWEEPS = 20_000


def chain(n, move=0.01):
    """The inner states 1..n-1 of the lazy walk, as (A, b)."""
    triples = []
    for i in range(n - 1):
        if i > 0:
            triples.append((i, i - 1, move))
        triples.append((i, i, 1 - 2 * move))
        if i < n - 2:
            triples.append((i, i + 1, move))
    b = np.zeros(n - 1)
    b[-1] = move
    return sparse.build_sparse(triples, n - 1, n - 1), b


def grid(k):
    """The k x k grid walk, state r*k + c, as (A, b)."""
    triples = []
    b = np.zeros(k * k)
    for r in range(k):
        for c in range(k):
            for dr, dc in ((-1, 0), (0, -1), (0, 1), (1, 0)):
                if 0 <= r + dr < k and 0 <= c + dc < k:
                    triples.append((r * k + c, (r + dr) * k + c + dc, 0.25))
            if c == k - 1:
                b[r * k + c] = 0.25
    return sparse.build_sparse(triples, k * k, k * k), b


def best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench(name, A, b, repeats, gs_states):
    system = LinearSystem(A, b)
    factor_s, lu = best_of(lambda: solvers._factor(A), repeats)
    _, bound = solvers._certified_elimination(system, "relative")
    fell_back = not bound <= PRECISION  # the bound is inf when the budget ran out
    gs = "-"
    if A.rows <= gs_states:
        env = SolverEnvironment(linear_method="gauss_seidel", precision=PRECISION, max_iterations=GS_SWEEPS)
        try:
            gs_s, outcome = best_of(lambda: solvers.solve_linear(system, env), repeats)
            gs = f"{gs_s * 1e3:.1f} ({outcome.iterations} sweeps)"
        except NotConverged:
            gs = f"no convergence in {GS_SWEEPS} sweeps"
    shown = "-" if bound == float("inf") else f"{bound:.2e}"
    print(f"{name:<12} {A.rows:>8} {A.nnz:>8} {factor_s * 1e3:>10.1f} {lu.work / A.nnz:>9.1f} "
          f"{shown:>11} {'yes' if fell_back else 'no':>9}  {gs}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", default="100,1000,10000", help="comma-separated chain lengths N")
    parser.add_argument("--grids", default="10,30,60", help="comma-separated grid sides k")
    parser.add_argument("--gs-states", type=int, default=1000,
                        help="time Gauss-Seidel only on systems of at most this many states")
    parser.add_argument("--repeats", type=int, default=3, help="timing repetitions (best kept)")
    args = parser.parse_args()
    print(f"budget {solvers.ELIMINATION_BUDGET} multiply-adds per entry, precision {PRECISION:g}")
    print(f"{'system':<12} {'states':>8} {'nnz':>8} {'factor ms':>10} {'madd/nnz':>9} "
          f"{'error_bound':>11} {'fallback':>9}  gauss-seidel ms")
    for n in (int(v) for v in args.chains.split(",") if v):
        bench(f"chain {n}", *chain(n), args.repeats, args.gs_states)
    for k in (int(v) for v in args.grids.split(",") if v):
        bench(f"grid {k}", *grid(k), args.repeats, args.gs_states)


if __name__ == "__main__":
    main()
