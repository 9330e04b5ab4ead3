"""CSR matrix assembly, conversion, and restriction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same
from stormlet import sparse
from stormlet.errors import StormletError


def to_dense(m):
    out = np.zeros((m.rows, m.cols))
    rows = np.repeat(np.arange(m.rows), np.diff(m.row_offsets))
    out[rows, m.col_indices] = m.values
    return out


def test_build_simple_rows():
    m = sparse.build_sparse([(0, 1, 0.5), (0, 0, 0.5), (1, 1, 1.0)], 2, 2)
    assert m.rows == 2 and m.cols == 2 and m.nnz == 3
    assert list(m.row_offsets) == [0, 2, 3]
    assert list(m.col_indices) == [0, 1, 1]
    assert list(m.values) == [0.5, 0.5, 1.0]


def test_build_coalesces_duplicates_additively():
    m = sparse.build_sparse([(0, 0, 0.25), (0, 0, 0.75)], 1, 1)
    assert m.nnz == 1
    assert m.values[0] == 1.0


def test_build_drops_exact_zeros():
    m = sparse.build_sparse([(0, 0, 0.5), (0, 0, -0.5), (0, 1, 1.0)], 1, 2)
    assert m.nnz == 1
    assert list(m.col_indices) == [1]


def test_build_rejects_out_of_range():
    with pytest.raises(StormletError):
        sparse.build_sparse([(0, 2, 1.0)], 1, 2)
    with pytest.raises(StormletError):
        sparse.build_sparse([(-1, 0, 1.0)], 1, 2)


def test_build_rejects_non_finite():
    with pytest.raises(StormletError):
        sparse.build_sparse([(0, 0, float("nan"))], 1, 1)
    with pytest.raises(StormletError):
        sparse.build_sparse([(0, 0, float("inf"))], 1, 1)


@pytest.mark.parametrize("values, expected", [
    ([1e16, -1e16, 1.0], [1.0]),
    ([1e16, 1.0, -1e16], []),  # 1e16 + 1.0 rounds back to 1e16
    # np.add.reduceat adds a run of 8 or more pairwise and returns 4.1 here
    ([0.1, 0.1, 0.1, 1e16] + [1.0] * 5 + [-1e16], []),
])
def test_build_adds_float_duplicates_left_to_right(values, expected):
    m = sparse.build_sparse([(0, 0, v) for v in values], 1, 1)
    assert list(m.values) == expected
    assert list(m.row_offsets) == [0, len(expected)]


def _left_to_right(triples, rows):
    """Reference assembly: one dict cell per position, added in input order."""
    cells = {}
    for r, c, v in triples:
        cells[r, c] = cells[r, c] + v if (r, c) in cells else v
    kept = sorted((key, v) for key, v in cells.items() if v != 0)
    offsets = np.cumsum([0] + [sum(1 for (r, _), _ in kept if r == i) for i in range(rows)])
    return offsets.tolist(), [c for (_, c), _ in kept], [v for _, v in kept]


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                          st.sampled_from([0.1, 1.0, -1.0, 1e16, -1e16, 3e-17, 0.0, -0.0])), max_size=40))
def test_build_float_matches_left_to_right_reference(triples):
    m = sparse.build_sparse(triples, 4, 3)
    offsets, cols, values = _left_to_right(triples, 4)
    assert m.row_offsets.tolist() == offsets
    assert m.col_indices.tolist() == cols
    assert m.values.tolist() == values


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([0.1, 1.0, -1.0, 1e16, -1e16, 3e-17, -0.0])),
                max_size=120),
       st.booleans(), st.sampled_from(["any", "sorted", "strict"]))
def test_coalesce_matches_left_to_right_loop(entries, rational, order):
    """Runs of up to 120 entries; a run of -0.0 sums to -0.0.

    Positions come in any order, non-decreasing (sorted stably, so that the
    entries of one position keep their order), or strictly ascending.
    """
    if order == "sorted":
        entries = sorted(entries, key=lambda entry: entry[0])
    elif order == "strict":
        entries = list({p: (p, v) for p, v in sorted(entries, key=lambda entry: entry[0])}.values())
    position = np.array([p for p, _ in entries], dtype=np.int64)
    domain = "rational" if rational else "float"
    values = sparse.as_vector([v for _, v in entries], domain)
    sums, first = {}, {}
    for i, (p, v) in enumerate(zip(position.tolist(), values.tolist())):
        sums[p] = sums[p] + v if p in sums else v
        first.setdefault(p, i)
    got_position, got_sums, got_first = sparse.coalesce(position, values)
    assert got_position.tolist() == sorted(sums)
    assert got_first.tolist() == [first[p] for p in sorted(sums)]
    expected = sparse.as_vector([sums[p] for p in sorted(sums)], domain)
    if rational:
        assert got_sums.tolist() == expected.tolist() and all(type(v) is Fraction for v in got_sums)
    else:
        assert got_sums.tobytes() == expected.tobytes()


def test_build_takes_columns_as_a_record_array():
    triples = [(1, 0, 0.5), (0, 1, 0.25), (1, 0, 0.25), (0, 0, 1.0)]
    columns = np.rec.fromarrays([np.array(c) for c in zip(*triples)], names="row,col,value")
    assert_same(sparse.build_sparse(columns, 2, 2), sparse.build_sparse(triples, 2, 2))


@pytest.mark.parametrize("triples, message", [
    ([(0, 0, 1.0), (0, 1, float("nan")), (2, 0, 1.0)], r"non-finite value at \(0,1\)"),
    ([(0, 0, 1.0), (2, 0, 1.0), (0, 1, float("inf"))], r"index \(2,0\) out of range for 1x2 matrix"),
    ([(0, 5, float("nan")), (0, 0, float("inf"))], r"index \(0,5\) out of range"),
])
def test_build_reports_the_first_bad_triple(triples, message):
    with pytest.raises(StormletError, match=message):
        sparse.build_sparse(triples, 1, 2)


def test_build_rejects_positions_beyond_int64():
    with pytest.raises(StormletError, match="more positions than int64"):
        sparse.build_sparse([(0, 2**62, 1.0)], 2, 2**62 + 1)


@pytest.mark.parametrize("dtype", ["float", "rational"])
def test_build_from_no_triples_is_all_empty(dtype):
    m = sparse.build_sparse([], 3, 2, dtype)
    assert (m.rows, m.cols, m.nnz, m.dtype) == (3, 2, 0, dtype)
    assert m.row_offsets.tolist() == [0, 0, 0, 0]
    assert len(m.values) == 0


def test_rational_values_stay_exact():
    m = sparse.build_sparse([(0, 0, Fraction(1, 3)), (0, 1, Fraction(2, 3))], 1, 2, "rational")
    assert list(m.values) == [Fraction(1, 3), Fraction(2, 3)]
    assert list(sparse.row_sums(m)) == [Fraction(1)]


def test_row_and_entries_iteration():
    m = sparse.build_sparse([(1, 0, 2.0), (0, 1, 3.0)], 2, 2)
    cols, vals = m.row(0)
    assert list(cols) == [1] and list(vals) == [3.0]
    assert m.row_offsets.tolist() == [0, 1, 2]
    assert m.col_indices.tolist() == [1, 0] and m.values.tolist() == [3.0, 2.0]


def test_to_float_and_to_rational_round_trip():
    m = sparse.build_sparse([(0, 0, 0.5), (0, 1, 0.5)], 1, 2)
    r = m.to_rational()
    assert r.dtype == "rational" and list(r.values) == [Fraction(1, 2), Fraction(1, 2)]
    back = r.to_float()
    assert_same(back, m)


def test_restrict_dense_oracle():
    triples = [(i, j, float(1 + 4 * i + j)) for i in range(4) for j in range(4) if (i + j) % 2]
    m = sparse.build_sparse(triples, 4, 4)
    keep = np.array([False, True, False, True])
    sub, col_map = sparse.restrict(m, keep, keep)
    assert np.array_equal(to_dense(sub), to_dense(m)[np.ix_(keep, keep)])
    assert list(col_map) == [-1, 0, -1, 1]


def test_restrict_dimension_mismatch():
    m = sparse.build_sparse([(0, 0, 1.0)], 1, 1)
    with pytest.raises(StormletError):
        sparse.restrict(m, np.array([True, True]), np.array([True]))


triple_lists = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
    ),
    max_size=20,
)


@settings(deadline=None)
@given(triple_lists, st.randoms(use_true_random=False))
def test_build_is_order_insensitive(triples, rnd):
    shuffled = list(triples)
    rnd.shuffle(shuffled)
    a = sparse.build_sparse(triples, 5, 5, "rational")
    b = sparse.build_sparse(shuffled, 5, 5, "rational")
    assert_same(a, b)


@settings(deadline=None)
@given(triple_lists)
def test_restrict_to_everything_is_identity(triples):
    m = sparse.build_sparse(triples, 5, 5, "rational")
    sub, col_map = sparse.restrict(m, np.ones(5, dtype=bool), np.ones(5, dtype=bool))
    assert_same(sub, m)
    assert list(col_map) == [0, 1, 2, 3, 4]


@settings(deadline=None)
@given(triple_lists, st.lists(st.booleans(), min_size=5, max_size=5), st.lists(st.booleans(), min_size=5, max_size=5))
def test_restrict_matches_dense_oracle(triples, keep_rows, keep_cols):
    m = sparse.build_sparse(triples, 5, 5, "rational")
    sub, _ = sparse.restrict(m, keep_rows, keep_cols)
    assert sub.dtype == "rational" and all(type(v) is Fraction for v in sub.values)
    assert np.array_equal(to_dense(sub), to_dense(m)[np.ix_(keep_rows, keep_cols)])
