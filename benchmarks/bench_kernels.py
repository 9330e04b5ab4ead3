#!/usr/bin/env python3
"""Benchmark the CSR kernels against the scalar reference loops.

Times ``matvec`` and ``matvec_reduce`` (two choices per state) against the
left-to-right scalar loops kept in ``tests/test_solvers.py``, run on the
matrix's numpy arrays, on random row-stochastic matrices of growing size and
on a 10^4-state skewed matrix: one 10^4-entry row among two-entry rows.
``gauss_seidel_sweep`` is timed on the Python lists the solver hands it
against the same sweep on numpy arrays. Each line prints, in ms, the first
call on a fresh matrix (which builds the matrix's entry-row index), the best
warm call and the best reference run, and the reference/warm ratio. A last line
runs 10^3 back-to-back ``matvec_reduce`` calls on a 120-row matrix with two
choices per state, the size value iteration repeats on in the perfbench
``solve_iter`` chains, and prints the time per call in µs. Every output is
asserted bit-identical to its reference.

Usage: python3 benchmarks/bench_kernels.py [--sizes 1000,10000,100000]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_solvers import reference_matvec, reference_matvec_reduce  # noqa: E402

from stormlet import kernels  # noqa: E402
from stormlet.sparse import SparseMatrix  # noqa: E402


def random_matrix(rng, n, nnz_per_row):
    """Row-stochastic n x n matrix with `nnz_per_row` sorted entries per row."""
    cols = np.sort(rng.integers(0, n, size=(n, nnz_per_row)), axis=1)
    probs = rng.random((n, nnz_per_row))
    probs /= probs.sum(axis=1, keepdims=True)
    offsets = np.arange(0, (n + 1) * nnz_per_row, nnz_per_row)
    return SparseMatrix(n, n, offsets, cols.ravel(), probs.ravel(), "float")


def skewed_matrix(rng, n):
    """n x n matrix whose row n // 2 has n entries and every other row two."""
    lengths = np.full(n, 2)
    lengths[n // 2] = n
    cols = np.concatenate([np.sort(rng.choice(n, size=k, replace=False)) for k in lengths])
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    return SparseMatrix(n, n, offsets, cols, rng.random(len(cols)) / 2, "float")


def small_choice_matrix(rng, states):
    """2·states x states matrix of one- and two-entry rows, two choice rows per state."""
    lengths = rng.integers(1, 3, 2 * states)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    return SparseMatrix(2 * states, states, offsets, rng.integers(0, states, offsets[-1]),
                        rng.random(offsets[-1]) / 2, "float")


def two_choices(m):
    return np.arange(0, m.rows + 1, 2) if m.rows % 2 == 0 else np.arange(m.rows + 1)


def fresh(m):
    """The same matrix without its kernel caches, so that the next kernel call builds them."""
    return SparseMatrix(m.rows, m.cols, m.row_offsets, m.col_indices, m.values, m.dtype)


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_reduce(m, offsets, x, b):
    values, arg = kernels.matvec_reduce(m, offsets, x, True, b)
    expected, expected_arg = reference_matvec_reduce(m.row_offsets, m.col_indices, m.values, offsets, b, x, True)
    assert values.tobytes() == np.array(expected).tobytes(), "matvec_reduce differs"
    assert arg.tolist() == expected_arg, "matvec_reduce picks other choices"


def bench_matrix(m, rng, repeats):
    """(kernel, first call s, warm s, reference s) for each kernel on m."""
    x = rng.random(m.cols)
    b = rng.random(m.rows)
    offsets = two_choices(m)
    args = (m.row_offsets, m.col_indices, m.values)
    scaled = m.values * 0.5
    lists = (m.row_offsets.tolist(), m.col_indices.tolist(), scaled.tolist(), b.tolist())

    def check_matvec(a):
        expected = reference_matvec(*args, x, 0.0)
        assert kernels.matvec(a, x).tobytes() == np.array(expected).tobytes(), "matvec differs"

    def check_sweep(a):
        x_list, x_array = [0.0] * m.rows, np.zeros(m.rows)
        d_list = kernels.gauss_seidel_sweep(*lists, x_list, True)
        d_array = kernels.gauss_seidel_sweep(m.row_offsets, m.col_indices, scaled, b, x_array, True)
        assert d_list == d_array and np.array(x_list).tobytes() == x_array.tobytes(), "sweeps differ"

    cases = (
        ("matvec", lambda a: kernels.matvec(a, x), check_matvec,
         lambda: reference_matvec(*args, x, 0.0)),
        ("matvec_reduce", lambda a: kernels.matvec_reduce(a, offsets, x, True, b),
         lambda a: check_reduce(a, offsets, x, b),
         lambda: reference_matvec_reduce(*args, offsets, b, x, True)),
        ("gauss_seidel_sweep", lambda a: kernels.gauss_seidel_sweep(*lists, [0.0] * m.rows, True), check_sweep,
         lambda: kernels.gauss_seidel_sweep(m.row_offsets, m.col_indices, scaled, b, np.zeros(m.rows), True)),
    )
    rows = []
    for name, run, check, reference in cases:
        a = fresh(m)
        first = best_of(lambda: run(a), 1)
        check(a)
        rows.append((name, first, best_of(lambda: run(a), repeats), best_of(reference, repeats)))
    return rows


def bench_small_reduce(rng, calls):
    """(first call s, s per call of the next `calls`) of matvec_reduce on a 120-row matrix."""
    m = small_choice_matrix(rng, 60)
    offsets = two_choices(m)
    x, b = rng.random(m.cols), rng.random(m.rows)
    first = best_of(lambda: kernels.matvec_reduce(m, offsets, x, True, b), 1)
    start = time.perf_counter()
    for _ in range(calls):
        kernels.matvec_reduce(m, offsets, x, True, b)
    per_call = (time.perf_counter() - start) / calls
    check_reduce(m, offsets, x, b)
    return first, per_call


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,10000,100000", help="comma-separated state counts")
    parser.add_argument("--nnz", type=int, default=4, help="entries per row of the random matrices")
    parser.add_argument("--repeats", type=int, default=5, help="timing repetitions (best kept)")
    args = parser.parse_args()

    rng = np.random.default_rng(12345)
    cases = [(f"{n}", random_matrix(rng, n, args.nnz)) for n in (int(s) for s in args.sizes.split(","))]
    cases.append(("10000 skewed", skewed_matrix(rng, 10000)))
    print(f"{'matrix':>14}  {'kernel':<20} {'first (ms)':>11} {'warm (ms)':>10} {'reference (ms)':>15} {'ratio':>8}")
    for label, m in cases:
        for name, t_first, t_warm, t_ref in bench_matrix(m, rng, args.repeats):
            print(f"{label:>14}  {name:<20} {t_first * 1e3:>11.3f} {t_warm * 1e3:>10.3f} {t_ref * 1e3:>15.3f}"
                  f" {t_ref / t_warm:>7.1f}x")
    calls = 1000
    first, per_call = bench_small_reduce(rng, calls)
    print(f"{'120 x 60':>14}  {'matvec_reduce':<20} {first * 1e3:>11.3f}"
          f"   then {per_call * 1e6:.1f} us per call over {calls} back-to-back calls")
    print("(every kernel output is bit-identical to its reference)")


if __name__ == "__main__":
    main()
