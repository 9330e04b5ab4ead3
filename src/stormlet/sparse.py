"""Compressed-sparse-row matrices over float64 or exact rationals.

A matrix is entirely one scalar domain: ``dtype == "float"`` stores a float64
value array, ``dtype == "rational"`` an object array of fractions.Fraction.
Every numeric vector of the engine uses the same representation, made by
``as_vector``. Structural zeros are never stored.

A matrix is immutable once built: no code writes to its arrays, and two
layers cache what they derive from its structure on first use, valid only
while the arrays stay as they are: the kernels a plan of its rows in
``plan`` (see ``kernels``), and the qualitative layer a predecessor index
in ``predecessors``, Python objects of about 70-85 bytes per entry (see
``graph``).

``coalesce`` skips its sort when the positions already ascend, as the
rows of a sorted file do: a stable sort of sorted positions changes nothing.
Strictly ascending positions skip the sums as well.

Sums that must be bitwise those of a plain scalar loop go through one table
sum, ``sum_runs``. A run is an accumulator followed by terms, added strictly
left to right; a run with no terms sums to its accumulator. Runs are grouped
by their number of terms (1, 2, 3-4, 5-8, ...), a run of group j gets a table
row of 1 + 2^j cells, the accumulator and then its terms padded with the
additive identity (-0.0, or Fraction(0)), and ``np.add.accumulate`` adds along
each table row in order. The table is filled and added in blocks of
consecutive runs of about 2^16 cells, so the temporaries do not grow with the
input. The grouping depends on the term offsets alone, so it is worked out
once into a ``_Plan``: per block, the block's runs in group order, its range
of terms, the table cell of each accumulator and of each term, and where each
group starts. A sum then scatters the accumulators and the range's terms into
a fresh table, accumulates each group and scatters the sums out.
"""

from fractions import Fraction

import numpy as np

from .errors import StormletError


class SparseMatrix:
    __slots__ = ("rows", "cols", "row_offsets", "col_indices", "values", "dtype", "plan", "predecessors")

    def __init__(self, rows, cols, row_offsets, col_indices, values, dtype):
        self.rows = int(rows)
        self.cols = int(cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = as_vector(values, dtype)
        self.dtype = dtype
        self.plan = None  # the kernels' row grouping, built by the first kernel call
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
    # a run's first value is its accumulator and the rest are its terms
    rest = values[~first]
    plan = _Plan(np.append(starts, len(position)) - np.arange(len(starts) + 1))
    sums = sum_runs(plan, values[starts], lambda lo, hi: rest[lo:hi])
    return position[starts], sums, starts if order is None else order[starts]


# the table is filled and added in blocks of about this many cells, so the
# temporaries stay the same size however large the input is
_BLOCK_CELLS = 1 << 16


class _Plan:
    """The table layout of a sequence of runs, built from their term offsets alone.

    ``blocks`` holds, per block of consecutive runs, ``(runs, cells, lo, hi,
    slots, size, segments)``: the block's runs with terms in group order, the
    table cell of each run's accumulator, the block's range of terms, the
    table cell of each term, the table size, and per group ``(first, end,
    first cell, end cell)`` in the order of ``runs``. ``choices`` is left to
    the kernels, which cache a choice index there.
    """

    __slots__ = ("blocks", "choices")

    def __init__(self, offsets):
        self.blocks = []
        self.choices = None
        lengths = np.diff(offsets)
        runs = np.flatnonzero(lengths)
        # group j holds the runs of 2^(j-1) < terms <= 2^j; each has a table row of 1 + 2^j cells
        group = np.frexp(lengths[runs] - 1)[1].astype(np.int8)
        cell = np.concatenate(([0], np.cumsum((1 << group.astype(np.int64)) + 1)))
        lo = 0
        while lo < len(runs):
            hi = max(lo + 1, int(np.searchsorted(cell, cell[lo] + _BLOCK_CELLS, side="right")) - 1)
            self.blocks.append(_block(offsets, runs[lo:hi], group[lo:hi]))
            lo = hi


def _block(offsets, runs, group):
    """The plan of one block of runs with terms, given in order."""
    order = np.argsort(group, kind="stable")
    cell = np.concatenate(([0], np.cumsum((1 << group[order].astype(np.int64)) + 1)))
    cells = cell[:-1]
    first = offsets[runs]
    lengths = offsets[runs + 1] - first
    # the block's terms are one range; the k-th term of a run goes k + 1 cells after its accumulator
    run_cell = np.empty_like(cells)
    run_cell[order] = cells
    lo, hi = int(first[0]), int(first[-1] + lengths[-1])
    slots = np.repeat(run_cell + 1 - (first - lo), lengths) + np.arange(hi - lo)
    group = group[order]
    bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(runs)]
    segments = [(i, j, int(cell[i]), int(cell[j])) for i, j in zip(bounds, bounds[1:])]
    return runs[order], cells, lo, hi, slots, int(cell[-1]), segments


def sum_runs(plan, acc, terms):
    """Per run r, acc[r] and then its terms, added strictly left to right.

    ``terms(lo, hi)`` gives the terms lo..hi-1 of the offsets ``plan`` was
    built from, in the domain of ``acc``.
    """
    out = acc.copy()
    pad = -0.0 if out.dtype == np.float64 else Fraction(0)
    for runs, cells, lo, hi, slots, size, segments in plan.blocks:
        table = np.full(size, pad, dtype=out.dtype)
        table[cells] = acc[runs]
        table[slots] = terms(lo, hi)
        sums = np.empty(len(runs), dtype=out.dtype)
        for i, j, ci, cj in segments:
            sums[i:j] = np.add.accumulate(table[ci:cj].reshape(j - i, -1), axis=1)[:, -1]
        out[runs] = sums
    return out


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
