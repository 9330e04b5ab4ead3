"""Compressed-sparse-row matrices over float64 or exact rationals.

A matrix is entirely one scalar domain: ``dtype == "float"`` stores a float64
value array, ``dtype == "rational"`` an object array of fractions.Fraction.
Every numeric vector of the engine uses the same representation, made by
``as_vector``. Structural zeros are never stored.

A matrix is immutable once built: no code writes to its arrays, and the
kernels cache a plan of its rows in ``plan`` on first use (see
``kernels``), which stays valid only while the arrays stay as they are.
"""

from fractions import Fraction

import numpy as np

from .errors import StormletError


class SparseMatrix:
    __slots__ = ("rows", "cols", "row_offsets", "col_indices", "values", "dtype", "plan")

    def __init__(self, rows, cols, row_offsets, col_indices, values, dtype):
        self.rows = int(rows)
        self.cols = int(cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = as_vector(values, dtype)
        self.dtype = dtype
        self.plan = None  # the kernels' row grouping, built by the first kernel call
        if len(self.row_offsets) != self.rows + 1:
            raise ValueError("row_offsets must have length rows+1")
        if self.row_offsets[-1] != len(self.col_indices) or len(self.col_indices) != len(self.values):
            raise ValueError("inconsistent entry counts")

    @property
    def nnz(self):
        return len(self.col_indices)

    def row(self, i):
        """(col_indices, values) of row i as a pair of sequences."""
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    def to_float(self):
        """Same structure with float64 values (identity for float matrices)."""
        if self.dtype == "float":
            return self
        return SparseMatrix(self.rows, self.cols, self.row_offsets, self.col_indices, self.values, "float")

    def to_rational(self):
        """Same structure with values converted exactly to rationals."""
        if self.dtype == "rational":
            return self
        return SparseMatrix(self.rows, self.cols, self.row_offsets, self.col_indices, self.values, "rational")

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.dtype == other.dtype
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
            and all(a == b for a, b in zip(self.values, other.values))
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz}, dtype={self.dtype})"


def as_vector(values, dtype):
    """The 1-D vector of ``values`` in a scalar domain.

    ``"float"`` gives a contiguous float64 array, ``"rational"`` an object
    array of Fraction (floats convert exactly). A bool mask becomes the
    domain's 0/1.
    """
    if dtype == "float":
        return np.ascontiguousarray(values, dtype=np.float64)
    if dtype == "rational":
        if isinstance(values, np.ndarray):
            values = values.tolist()
        out = np.empty(len(values), dtype=object)
        out[:] = [v if type(v) is Fraction else Fraction(v) for v in values]
        return out
    raise ValueError(f"unknown dtype {dtype!r}")


def build_sparse(triples, rows, cols, dtype="float"):
    """Assemble a CSR matrix from (row, col, value) triples.

    ``triples`` is an iterable of triples, or a record array whose ``row``,
    ``col`` and ``value`` fields are the three columns. Duplicate positions
    are coalesced by addition, strictly left to right in input order,
    columns are sorted within each row, and entries that end up exactly zero
    are dropped. Of several bad triples (index out of range, or a non-finite
    float), the first in input order is reported.
    """
    if rows * cols > np.iinfo(np.int64).max:
        raise StormletError(f"a {rows}x{cols} matrix has more positions than int64 can index")
    if isinstance(triples, np.ndarray):
        entries = triples
    else:
        entries = np.fromiter(triples, dtype=[
            ("row", np.int64), ("col", np.int64), ("value", np.float64 if dtype == "float" else object),
        ])
    row_of, col_of, values = entries["row"], entries["col"], entries["value"]
    bad = (row_of < 0) | (row_of >= rows) | (col_of < 0) | (col_of >= cols)
    if dtype == "float":
        bad |= ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        row, col = int(row_of[k]), int(col_of[k])
        if 0 <= row < rows and 0 <= col < cols:
            raise StormletError(f"non-finite value at ({row},{col})")
        raise StormletError(f"index ({row},{col}) out of range for {rows}x{cols} matrix")

    position, summed, _ = coalesce(row_of * cols + col_of, as_vector(values, dtype))
    keep = summed != 0
    row_of, col_of = np.divmod(position[keep], cols)
    row_offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=rows), out=row_offsets[1:])
    return SparseMatrix(rows, cols, row_offsets, col_of, summed[keep], dtype)


def coalesce(position, values):
    """Add up the values of equal positions, strictly left to right in input order.

    ``values`` is a vector of either domain. Returns the distinct positions
    in ascending order, the sum of each, and the input index of the first
    entry of each.
    """
    # a stable sort by position keeps the entries of one position in input order
    order = np.argsort(position, kind="stable")
    position = position[order]
    first = np.ones(len(position), dtype=bool)
    first[1:] = position[1:] != position[:-1]
    starts = np.flatnonzero(first)
    lengths = np.diff(np.append(starts, len(position)))
    return position[starts], _add_runs(values[order], starts, lengths), order[starts]


def _add_runs(values, starts, lengths):
    """The sum of each run ``values[s:s + n]``, added strictly left to right.

    Runs of 2^(j-1) < n <= 2^j entries go into one table with rows of 2^j
    cells, padded with the additive identity (-0.0, or Fraction(0)), and
    ``np.add.accumulate`` adds along each row in order; a table holds at most
    twice its runs' entries.
    """
    sums = values[starts]
    long = np.flatnonzero(lengths > 1)
    group = np.frexp(lengths[long] - 1)[1]
    pad = -0.0 if values.dtype == np.float64 else Fraction(0)
    for j in np.unique(group).tolist():
        runs = long[group == j]
        n = lengths[runs]
        before = np.cumsum(n) - n  # entries of the group's earlier runs
        k = np.arange(int(n.sum()))
        table = np.full((len(runs), 1 << j), pad, dtype=values.dtype)
        cells = np.repeat((np.arange(len(runs)) << j) - before, n) + k
        table.flat[cells] = values[np.repeat(starts[runs] - before, n) + k]
        sums[runs] = np.add.accumulate(table, axis=1)[:, -1]
    return sums


def row_sums(m):
    """Vector of per-row entry sums; an empty row sums to 0.

    Rational rows add exactly left to right; float rows use numpy's
    reduction, so a long row may round differently from a left-to-right sum.
    """
    out = as_vector(np.zeros(m.rows), m.dtype)
    nonempty = np.diff(m.row_offsets) > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(m.values, m.row_offsets[:-1][nonempty])
    return out


def transpose(m):
    """The transposed matrix; each row keeps its columns in ascending order."""
    order = np.argsort(m.col_indices, kind="stable")
    row_of = np.repeat(np.arange(m.rows), np.diff(m.row_offsets))
    counts = np.bincount(m.col_indices, minlength=m.cols)
    row_offsets = np.concatenate(([0], np.cumsum(counts)))
    return SparseMatrix(m.cols, m.rows, row_offsets, row_of[order], m.values[order], m.dtype)


def restrict(m, keep_rows, keep_cols):
    """Submatrix of the kept rows/columns with dense reindexing.

    Returns (submatrix, old-to-new column map); dropped positions map to -1.
    Mass in dropped columns is simply removed.
    """
    keep_rows = np.asarray(keep_rows, dtype=bool)
    keep_cols = np.asarray(keep_cols, dtype=bool)
    if len(keep_rows) != m.rows or len(keep_cols) != m.cols:
        raise StormletError("restriction bitsets must match matrix dimensions")
    col_map = np.full(m.cols, -1, dtype=np.int64)
    col_map[keep_cols] = np.arange(int(keep_cols.sum()))
    row_of = np.repeat(np.arange(m.rows), np.diff(m.row_offsets))
    keep = keep_rows[row_of] & keep_cols[m.col_indices]
    counts = np.bincount(row_of[keep], minlength=m.rows)[keep_rows]
    row_offsets = np.concatenate(([0], np.cumsum(counts)))
    sub = SparseMatrix(
        int(keep_rows.sum()), int(keep_cols.sum()), row_offsets,
        col_map[m.col_indices[keep]], m.values[keep], m.dtype,
    )
    return sub, col_map
