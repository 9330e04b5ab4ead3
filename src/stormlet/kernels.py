"""CSR kernels over either scalar domain.

``matvec`` and ``matvec_reduce`` have one numpy body for float64 and for
object arrays of Fraction. Each row's sum starts from its accumulator (0, or
``b[c]`` for a choice row) and adds the row's products strictly left to right
in CSR order, so float results are bitwise those of the plain scalar loop:
rows are grouped by length (1, 2, 3-4, 5-8, ...), a row of group j gets a
table row of 1 + 2^j cells, the accumulator and then its products padded with
the additive identity (-0.0, or Fraction(0)), and ``np.add.accumulate`` adds
along each table row in order. The table is filled and added in blocks of
consecutive rows of about 2^16 cells, so the temporaries do not grow with the
matrix. Among the choices of a state, the first that reaches the optimum wins.

The grouping depends on the row offsets alone, so it is worked out once per
matrix: the first kernel call on a matrix builds its plan and caches it in
``SparseMatrix.plan``. Per block, the plan holds the block's non-empty rows in
group order, its range of CSR entries, the table cell of each accumulator and
of each product, and where each group starts. A call then multiplies the
range's values by the gathered ``x``, scatters the products and accumulators
into a fresh table, accumulates each group and scatters the sums out. The
padding is taken from the matrix's domain on every call, and a matrix's
``to_rational()``/``to_float()`` twin builds a plan of its own. The plan also
keeps ``matvec_reduce``'s choice index (each state's first row, each row's
state) together with the choice offsets it was built for, and builds it again
when a call passes offsets that differ.

``gauss_seidel_sweep`` is the one sequential kernel; it is float-only and
runs fastest on Python lists.
"""

from fractions import Fraction

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


class _Plan:
    """The row grouping of one matrix, built from its row offsets alone.

    ``blocks`` holds, per block of consecutive rows, ``(rows, acc, lo, hi,
    slots, size, segments)``: the block's non-empty rows in bucket order,
    the table cell of each row's accumulator, the block's CSR entry range,
    the table cell of each entry's product, the table size, and per bucket
    ``(first, end, first cell, end cell)`` in the order of ``rows``.
    ``choices`` caches the choice index of the last choice offsets seen.
    """

    __slots__ = ("blocks", "choices")

    def __init__(self, row_offsets):
        self.blocks = []
        self.choices = None
        lengths = np.diff(row_offsets)
        rows = np.flatnonzero(lengths)
        # bucket j holds the rows of 2^(j-1) < length <= 2^j; each has a table row of 1 + 2^j cells
        bucket = np.frexp(lengths[rows] - 1)[1].astype(np.int8)
        cell = np.concatenate(([0], np.cumsum((1 << bucket.astype(np.int64)) + 1)))
        lo = 0
        while lo < len(rows):
            hi = max(lo + 1, int(np.searchsorted(cell, cell[lo] + _BLOCK_CELLS, side="right")) - 1)
            self.blocks.append(_block(row_offsets, rows[lo:hi], bucket[lo:hi]))
            lo = hi


def _block(row_offsets, rows, bucket):
    """The plan of one block of non-empty rows, given in CSR order."""
    order = np.argsort(bucket, kind="stable")
    cell = np.concatenate(([0], np.cumsum((1 << bucket[order].astype(np.int64)) + 1)))
    acc = cell[:-1]
    first = row_offsets[rows]
    lengths = row_offsets[rows + 1] - first
    # the block's entries are one CSR range; the k-th entry of a row goes k + 1 cells after its accumulator
    row_cell = np.empty_like(acc)
    row_cell[order] = acc
    lo, hi = int(first[0]), int(first[-1] + lengths[-1])
    slots = np.repeat(row_cell + 1 - (first - lo), lengths) + np.arange(hi - lo)
    bucket = bucket[order]
    bounds = [0, *(np.flatnonzero(np.diff(bucket)) + 1).tolist(), len(rows)]
    segments = [(i, j, int(cell[i]), int(cell[j])) for i, j in zip(bounds, bounds[1:])]
    return rows[order], acc, lo, hi, slots, int(cell[-1]), segments


def _plan(m):
    if m.plan is None:
        m.plan = _Plan(m.row_offsets)
    return m.plan


def _add_rows(m, x, start):
    """start[r] + sum_k values[k] * x[cols[k]] over row r, added left to right."""
    out = start.copy()
    pad = -0.0 if m.dtype == "float" else Fraction(0)
    for rows, acc, lo, hi, slots, size, segments in _plan(m).blocks:
        table = np.full(size, pad, dtype=out.dtype)
        table[acc] = start[rows]
        table[slots] = m.values[lo:hi] * x[m.col_indices[lo:hi]]
        sums = np.empty(len(rows), dtype=out.dtype)
        for i, j, ci, cj in segments:
            sums[i:j] = np.add.accumulate(table[ci:cj].reshape(j - i, -1), axis=1)[:, -1]
        out[rows] = sums
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
    plan = _plan(m)
    if plan.choices is None or not np.array_equal(plan.choices[0], choice_offsets):
        plan.choices = _choice_index(choice_offsets.copy(), m.rows)
    return _first_optimum(_add_rows(m, x, b), plan.choices, maximize)


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
