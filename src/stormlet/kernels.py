"""CSR kernel backend selection.

The compiled extension (stormlet._ckernels) is preferred; the pure-Python
fallbacks below are the reference semantics. Both accumulate strictly
left-to-right in CSR order, so results are bit-identical across backends.
Set STORMLET_PURE=1 to force the fallback (used by the benchmark and tests).
``matvec`` and ``matvec_reduce`` dispatch on the matrix's domain: float
matrices go to the selected backend, rational ones to pure-Python loops over
Fraction values.
"""

import os
from fractions import Fraction

import numpy as np

from . import sparse
from .errors import StormletError


def _py_csr_matvec(row_offsets, col_indices, values, x, out):
    n = len(row_offsets) - 1
    for i in range(n):
        acc = 0.0
        for k in range(row_offsets[i], row_offsets[i + 1]):
            acc += values[k] * x[col_indices[k]]
        out[i] = acc


def _py_csr_matvec_reduce(row_offsets, col_indices, values, choice_offsets, b, x, maximize, out, arg_out):
    n = len(choice_offsets) - 1
    for s in range(n):
        best = 0.0
        best_c = -1
        for c in range(choice_offsets[s], choice_offsets[s + 1]):
            acc = b[c]
            for k in range(row_offsets[c], row_offsets[c + 1]):
                acc += values[k] * x[col_indices[k]]
            if best_c < 0 or (acc > best if maximize else acc < best):
                best = acc
                best_c = c
        out[s] = best
        arg_out[s] = best_c - choice_offsets[s]


def _py_gauss_seidel_sweep(row_offsets, col_indices, values, b, x, relative):
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


if os.environ.get("STORMLET_PURE") == "1":
    _backend = None
else:
    try:
        from . import _ckernels as _backend
    except ImportError:
        _backend = None

if _backend is not None:
    csr_matvec = _backend.csr_matvec
    csr_matvec_reduce = _backend.csr_matvec_reduce
    gauss_seidel_sweep = _backend.gauss_seidel_sweep
    BACKEND = "compiled"
else:
    csr_matvec = _py_csr_matvec
    csr_matvec_reduce = _py_csr_matvec_reduce
    gauss_seidel_sweep = _py_gauss_seidel_sweep
    BACKEND = "pure-python"


def _checked_vector(m, x):
    x = sparse.as_vector(x, m.dtype)
    if len(x) != m.cols:
        raise StormletError(f"dimension mismatch: matrix has {m.cols} columns, vector length {len(x)}")
    return x


def matvec(m, x):
    """y = m . x in the matrix's domain; fixed left-to-right accumulation."""
    x = _checked_vector(m, x)
    if m.dtype == "rational":
        return matvec_rational(m, x)
    out = np.empty(m.rows)
    csr_matvec(m.row_offsets, m.col_indices, m.values, x, out)
    return out


def matvec_reduce(m, choice_offsets, x, maximize, b=None):
    """Per-state opt over choice rows of b + A.x; returns (values, argopt)."""
    x = _checked_vector(m, x)
    choice_offsets = np.ascontiguousarray(choice_offsets, dtype=np.int64)
    b = sparse.as_vector(np.zeros(m.rows) if b is None else b, m.dtype)
    n = len(choice_offsets) - 1
    arg_out = np.empty(n, dtype=np.int64)
    if m.dtype == "rational":
        out = np.empty(n, dtype=object)
        _py_csr_matvec_reduce(
            m.row_offsets.tolist(), m.col_indices.tolist(), m.values.tolist(),
            choice_offsets.tolist(), b.tolist(), x.tolist(), maximize, out, arg_out,
        )
    else:
        out = np.empty(n)
        csr_matvec_reduce(
            m.row_offsets, m.col_indices, m.values, choice_offsets, b, x, maximize, out, arg_out
        )
    return out, arg_out


def matvec_rational(m, x):
    """Exact-rational mat-vec over Fraction vectors (always pure Python)."""
    offsets, cols, values, x = m.row_offsets.tolist(), m.col_indices.tolist(), m.values.tolist(), list(x)
    out = np.empty(m.rows, dtype=object)
    for i in range(m.rows):
        acc = Fraction(0)
        for k in range(offsets[i], offsets[i + 1]):
            acc += values[k] * x[cols[k]]
        out[i] = acc
    return out
