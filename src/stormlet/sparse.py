"""Compressed-sparse-row matrices over float64 or exact rationals.

A matrix is entirely one scalar domain: ``dtype == "float"`` stores a float64
value array, ``dtype == "rational"`` an object array of fractions.Fraction.
Every numeric vector of the engine uses the same representation, made by
``as_vector``. Structural zeros are never stored.

A matrix is immutable once built: no code writes to its arrays, and two
layers cache what they derive from its structure on first use, valid only
while the arrays stay as they are: the kernels the row of each stored entry
in ``entry_rows`` (8 bytes per entry) and ``matvec_reduce``'s choice index in
``choices`` (see ``kernels``), and the qualitative layer a predecessor index
in ``predecessors``, Python objects of about 70-85 bytes per entry (see
``graph``).

Sums that must be bitwise those of a plain scalar loop follow one rule: the
sum starts from its accumulator and ``np.add.at``, which is unbuffered and
goes in index order, adds the terms in entry order. ``coalesce`` skips its
sort when the positions already ascend, as the rows of a sorted file do: a
stable sort of sorted positions changes nothing. Strictly ascending
positions skip the sums as well.
"""

from fractions import Fraction

import numpy as np

from .errors import StormletError


class SparseMatrix:
    __slots__ = ("rows", "cols", "row_offsets", "col_indices", "values", "dtype",
                 "entry_rows", "choices", "predecessors")

    def __init__(self, rows, cols, row_offsets, col_indices, values, dtype):
        self.rows = int(rows)
        self.cols = int(cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = as_vector(values, dtype)
        self.dtype = dtype
        self.entry_rows = None  # the kernels' row of each entry, built by the first kernel call
        self.choices = None  # matvec_reduce's choice index, built by its first call
        self.predecessors = None  # the graph layer's backward index, built by its first call
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
    step = np.diff(position)
    if np.all(step > 0):
        return position, values.copy(), np.arange(len(position))
    # a stable sort by position keeps the entries of one position in input order
    order = None if np.all(step >= 0) else np.argsort(position, kind="stable")
    if order is not None:
        position, values = position[order], values[order]
    first = np.ones(len(position), dtype=bool)
    first[1:] = position[1:] != position[:-1]
    starts = np.flatnonzero(first)
    # a run's first value starts its sum, and np.add.at adds the rest in order
    sums = values[starts]
    np.add.at(sums, np.cumsum(first)[~first] - 1, values[~first])
    return position[starts], sums, starts if order is None else order[starts]


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


def spans(starts, counts):
    """Each range starts[i] .. starts[i] + counts[i] - 1, in turn, as one index
    array; ``starts`` and ``counts`` are integer arrays."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + counts).repeat(counts)


def restrict(m, keep_rows, keep_cols):
    """Submatrix of the kept rows/columns with dense reindexing.

    Returns (submatrix, old-to-new column map); dropped positions map to -1.
    Mass in dropped columns is simply removed. Only the kept rows' entries
    are read: past the O(rows + cols) masks, the cost grows with those
    entries, not with ``nnz``.
    """
    keep_rows = np.asarray(keep_rows, dtype=bool)
    keep_cols = np.asarray(keep_cols, dtype=bool)
    if len(keep_rows) != m.rows or len(keep_cols) != m.cols:
        raise StormletError("restriction bitsets must match matrix dimensions")
    n_cols = int(keep_cols.sum())
    col_map = np.full(m.cols, -1, dtype=np.int64)
    col_map[keep_cols] = np.arange(n_cols)
    rows = np.flatnonzero(keep_rows)
    counts = m.row_offsets[rows + 1] - m.row_offsets[rows]
    entries = spans(m.row_offsets[rows], counts)
    cols = col_map[m.col_indices[entries]]
    kept = cols >= 0
    if not kept.all():
        counts = np.bincount(np.repeat(np.arange(len(rows)), counts)[kept], minlength=len(rows))
        entries, cols = entries[kept], cols[kept]
    row_offsets = np.concatenate(([0], np.cumsum(counts)))
    return SparseMatrix(len(rows), n_cols, row_offsets, cols, m.values[entries], m.dtype), col_map
