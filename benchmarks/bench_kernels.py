#!/usr/bin/env python3
"""Benchmark the CSR kernels against the scalar reference loops.

Times ``matvec`` and ``matvec_reduce`` (two choices per state) against the
left-to-right scalar loops kept in ``tests/test_solvers.py``, run on the
matrix's numpy arrays, on random row-stochastic matrices of growing size and
on a 10^4-state skewed matrix: one 10^4-entry row among two-entry rows.
``gauss_seidel_sweep`` is timed on the Python lists the solver hands it
against the same sweep on numpy arrays. Every output is asserted
bit-identical to its reference; each line prints the best time of both in ms
and the ratio.

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


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_matrix(m, rng, repeats):
    """(kernel, kernel s, reference s) for each kernel on m."""
    x = rng.random(m.cols)
    b = rng.random(m.rows)
    offsets = np.arange(0, m.rows + 1, 2) if m.rows % 2 == 0 else np.arange(m.rows + 1)
    args = (m.row_offsets, m.col_indices, m.values)
    rows = []

    def check_matvec():
        expected = reference_matvec(*args, x, 0.0)
        assert kernels.matvec(m, x).tobytes() == np.array(expected).tobytes(), "matvec differs"
        return lambda: kernels.matvec(m, x), lambda: reference_matvec(*args, x, 0.0)

    def check_reduce():
        values, arg = kernels.matvec_reduce(m, offsets, x, True, b)
        expected, expected_arg = reference_matvec_reduce(*args, offsets, b, x, True)
        assert values.tobytes() == np.array(expected).tobytes(), "matvec_reduce differs"
        assert arg.tolist() == expected_arg, "matvec_reduce picks other choices"
        return (lambda: kernels.matvec_reduce(m, offsets, x, True, b),
                lambda: reference_matvec_reduce(*args, offsets, b, x, True))

    def check_sweep():
        scaled = m.values * 0.5
        lists = (m.row_offsets.tolist(), m.col_indices.tolist(), scaled.tolist(), b.tolist())
        x_list, x_array = [0.0] * m.rows, np.zeros(m.rows)
        d_list = kernels.gauss_seidel_sweep(*lists, x_list, True)
        d_array = kernels.gauss_seidel_sweep(m.row_offsets, m.col_indices, scaled, b, x_array, True)
        assert d_list == d_array and np.array(x_list).tobytes() == x_array.tobytes(), "sweeps differ"
        return (lambda: kernels.gauss_seidel_sweep(*lists, [0.0] * m.rows, True),
                lambda: kernels.gauss_seidel_sweep(m.row_offsets, m.col_indices, scaled, b, np.zeros(m.rows), True))

    for name, check in (("matvec", check_matvec), ("matvec_reduce", check_reduce),
                        ("gauss_seidel_sweep", check_sweep)):
        fast, reference = check()
        rows.append((name, best_of(fast, repeats), best_of(reference, repeats)))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,10000,100000", help="comma-separated state counts")
    parser.add_argument("--nnz", type=int, default=4, help="entries per row of the random matrices")
    parser.add_argument("--repeats", type=int, default=5, help="timing repetitions (best kept)")
    args = parser.parse_args()

    rng = np.random.default_rng(12345)
    cases = [(f"{n}", random_matrix(rng, n, args.nnz)) for n in (int(s) for s in args.sizes.split(","))]
    cases.append(("10000 skewed", skewed_matrix(rng, 10000)))
    print(f"{'matrix':>14}  {'kernel':<20} {'kernel (ms)':>12} {'reference (ms)':>15} {'ratio':>8}")
    for label, m in cases:
        for name, t_fast, t_ref in bench_matrix(m, rng, args.repeats):
            print(f"{label:>14}  {name:<20} {t_fast * 1e3:>12.3f} {t_ref * 1e3:>15.3f} {t_ref / t_fast:>7.1f}x")
    print("(every kernel output is bit-identical to its reference)")


if __name__ == "__main__":
    main()
