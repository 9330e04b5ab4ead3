"""CSR kernels over either scalar domain.

``matvec`` and ``matvec_reduce`` have one numpy body for float64 and for
object arrays of Fraction. Each row's sum starts from its accumulator (0, or
``b[c]`` for a choice row) and adds the row's products strictly left to right
in CSR order, so float results are bitwise those of the plain scalar loop:
rows are grouped by length (1, 2, 3-4, 5-8, ...), a row of group j gets a
table row of 1 + 2^j cells, the accumulator and then its products padded with
the additive identity (-0.0, or Fraction(0)), and ``np.add.accumulate`` adds
along each table row in order. The table is filled and added in blocks of
about 2^16 cells, so the temporaries do not grow with the matrix. Among the
choices of a state, the first that reaches the optimum wins.

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


# the table is filled and added in blocks of about this many cells, so the
# temporaries stay the same size however large the matrix is
_BLOCK_CELLS = 1 << 16


def _add_rows(m, x, start):
    """start[r] + sum_k values[k] * x[cols[k]] over row r, added left to right."""
    out = start.copy()
    lengths = np.diff(m.row_offsets)
    rows = np.flatnonzero(lengths)
    # bucket j holds the rows of 2^(j-1) < length <= 2^j; each has a table row of 1 + 2^j cells
    bucket = np.frexp(lengths[rows] - 1)[1].astype(np.int8)
    order = np.argsort(bucket, kind="stable")
    rows, bucket = rows[order], bucket[order]
    cell = np.concatenate(([0], np.cumsum((1 << bucket.astype(np.int64)) + 1)))
    lo = 0
    while lo < len(rows):
        hi = max(lo + 1, int(np.searchsorted(cell, cell[lo] + _BLOCK_CELLS, side="right")) - 1)
        block = rows[lo:hi]
        out[block] = _left_sums(m, x, start[block], block, bucket[lo:hi], cell[lo:hi + 1] - cell[lo])
        lo = hi
    return out


def _left_sums(m, x, start, rows, bucket, cell):
    """start[i] + the products of row rows[i], added left to right in cells cell[i]:cell[i + 1]."""
    first = m.row_offsets[rows]
    lengths = m.row_offsets[rows + 1] - first
    starts = np.cumsum(lengths) - lengths
    ramp = np.arange(starts[-1] + lengths[-1])
    entry = np.repeat(first - starts, lengths) + ramp
    table = np.full(cell[-1], sparse.as_vector([-0.0], m.dtype)[0], dtype=start.dtype)
    table[cell[:-1]] = start
    table[np.repeat(cell[:-1] + 1 - starts, lengths) + ramp] = m.values[entry] * x[m.col_indices[entry]]
    sums = np.empty_like(start)
    bounds = np.flatnonzero(np.diff(bucket)) + 1
    for lo, hi in zip([0, *bounds], [*bounds, len(rows)]):
        sums[lo:hi] = np.add.accumulate(table[cell[lo]:cell[hi]].reshape(hi - lo, -1), axis=1)[:, -1]
    return sums


def first_optimum(values, offsets, maximize):
    """Per state, the value and offset of its first choice that reaches the optimum.

    ``offsets`` maps state -> first choice; every state needs a choice.
    """
    starts = offsets[:-1]
    counts = np.diff(offsets)
    if np.any(counts < 1) or offsets[-1] != len(values):
        raise StormletError("choice offsets must give every state a choice and cover every row")
    best = (np.maximum if maximize else np.minimum).reduceat(values, starts)
    hit = np.where(values == np.repeat(best, counts), np.arange(len(values)), len(values))
    first = np.minimum.reduceat(hit, starts)
    return values[first], first - starts


def matvec(m, x):
    """y = m . x in the matrix's domain; fixed left-to-right accumulation."""
    x = _checked_vector(m, x)
    return _add_rows(m, x, np.repeat(sparse.as_vector([0], m.dtype), m.rows))


def matvec_reduce(m, choice_offsets, x, maximize, b=None):
    """Per-state opt over choice rows of b + A.x; returns (values, argopt)."""
    x = _checked_vector(m, x)
    choice_offsets = np.asarray(choice_offsets, dtype=np.int64)
    b = sparse.as_vector(np.zeros(m.rows) if b is None else b, m.dtype)
    return first_optimum(_add_rows(m, x, b), choice_offsets, maximize)


def matvec_rational(m, x):
    """Exact-rational mat-vec over Fraction vectors."""
    return matvec(m.to_rational(), x)


def gauss_seidel_sweep(row_offsets, col_indices, values, b, x, relative):
    """One in-place Gauss-Seidel sweep of x = A.x + b over float sequences.

    Returns (largest change, -1), or (0.0, i) when row i has a diagonal of
    at least one. It runs two to four times faster on Python lists than on
    numpy arrays.
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
