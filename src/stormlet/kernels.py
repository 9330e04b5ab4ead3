"""CSR kernels over either scalar domain.

``matvec`` and ``matvec_reduce`` have one numpy body for float64 and for
object arrays of Fraction. Each row's sum follows ``sparse``'s one summation
rule: it starts from its accumulator (0, or ``b[c]`` for a choice row) and
``np.add.at`` adds the row's products in CSR order, so float results are
bitwise those of the plain scalar loop. Among the choices of a state, the
first that reaches the optimum wins.

The first kernel call on a matrix caches the row of each stored entry in
``SparseMatrix.entry_rows``, and a matrix's ``to_rational()``/``to_float()``
twin caches its own. ``matvec_reduce`` caches its choice index (each state's
first row, each row's state) in ``SparseMatrix.choices`` together with the
choice offsets it was built for, and builds it again when a call passes
offsets that differ.

``gauss_seidel_sweep`` is the one sequential kernel; it is float-only and
runs fastest on Python lists.
"""

import numpy as np

from . import sparse
from .errors import StormletError

# every kernel runs in the interpreter; perfbench stamps each result with this
BACKEND = "pure-python"


def _checked_vector(m, x):
    x = sparse.as_vector(x, m.dtype)
    if len(x) != m.cols:
        raise StormletError(f"dimension mismatch: matrix has {m.cols} columns, vector length {len(x)}")
    return x


def _add_rows(m, x, start):
    """start[r] + sum_k values[k] * x[cols[k]] over row r, added left to right."""
    if m.entry_rows is None:
        m.entry_rows = np.repeat(np.arange(m.rows), np.diff(m.row_offsets))
    out = start.copy()
    np.add.at(out, m.entry_rows, m.values * x[m.col_indices])
    return out


def _choice_index(offsets, n):
    """(offsets, first row of each state, state of each row, 0..n-1) for n choice rows."""
    counts = np.diff(offsets)
    if np.any(counts < 1) or offsets[-1] != n:
        raise StormletError("choice offsets must give every state a choice and cover every row")
    return offsets, offsets[:-1], np.repeat(np.arange(len(counts)), counts), np.arange(n)


def _first_optimum(values, index, maximize):
    _, starts, state, ramp = index
    best = (np.maximum if maximize else np.minimum).reduceat(values, starts)
    hit = np.where(values == best[state], ramp, len(values))
    first = np.minimum.reduceat(hit, starts)
    return values[first], first - starts


def first_optimum(values, offsets, maximize):
    """Per state, the value and offset of its first choice that reaches the optimum.

    ``offsets`` maps state -> first choice; every state needs a choice.
    """
    return _first_optimum(values, _choice_index(np.asarray(offsets, dtype=np.int64), len(values)), maximize)


def matvec(m, x):
    """y = m . x in the matrix's domain; fixed left-to-right accumulation."""
    x = _checked_vector(m, x)
    return _add_rows(m, x, np.repeat(sparse.as_vector([0], m.dtype), m.rows))


def matvec_reduce(m, choice_offsets, x, maximize, b=None):
    """Per-state opt over choice rows of b + A.x; returns (values, argopt)."""
    x = _checked_vector(m, x)
    choice_offsets = np.asarray(choice_offsets, dtype=np.int64)
    b = sparse.as_vector(np.zeros(m.rows) if b is None else b, m.dtype)
    if m.choices is None or not np.array_equal(m.choices[0], choice_offsets):
        m.choices = _choice_index(choice_offsets.copy(), m.rows)
    return _first_optimum(_add_rows(m, x, b), m.choices, maximize)


def matvec_rational(m, x):
    """Exact-rational mat-vec over Fraction vectors."""
    return matvec(m.to_rational(), x)


def gauss_seidel_sweep(row_offsets, col_indices, values, b, x, relative):
    """One in-place Gauss-Seidel sweep of x = A.x + b over float sequences.

    Returns (largest change, -1), or (0.0, i) when row i has a diagonal of
    at least one. It runs two to four times faster on Python lists than on
    numpy arrays. No solver calls it; the benchmark tracer looks it up by name.
    """
    n = len(row_offsets) - 1
    max_diff = 0.0
    for i in range(n):
        acc = b[i]
        diag = 0.0
        for k in range(row_offsets[i], row_offsets[i + 1]):
            if col_indices[k] == i:
                diag = values[k]
            else:
                acc += values[k] * x[col_indices[k]]
        if diag >= 1.0:
            return 0.0, i
        new = acc / (1.0 - diag)
        diff = abs(new - x[i])
        if relative and abs(new) >= 1e-30:
            diff /= abs(new)
        if diff > max_diff:
            max_diff = diff
        x[i] = new
    return max_diff, -1
