"""Per-column vector kernels on block spinor fields.

All kernels treat the b columns independently and return per-column results.
``block_dot`` has two strategies:

* ``naive``: one reduction per column over the logical view.
* ``deferred``: lane-parallel partial sums over the flat storage stream with
  the per-column separation done once at the end.  For component-major data
  (Layout 2) consecutive stream positions cycle through the columns, so a
  lane accumulator of width L = ceil(8/b)*b (or b itself once b >= 8) keeps
  every lane pinned to a single column without any shuffling; lane j feeds
  column j mod b.  In Layout 1 each site's columns are already separated,
  and in Layout 3 each column is one contiguous stream, so there the
  deferred strategy runs 8 lanes inside each column's stream.

A short zero pad brings the stream up to a whole number of lane groups; the
pad contributes exact zeros.

Every kernel also has a multi-vector form on arrays whose rows are the
storage of Layout-3 fields (see :mod:`lqcdlab.fields`), the "multi inner
product" of a Krylov solver: a (k, b, n) stack ``q`` of k vectors and one
(b, n) vector ``w``, where ``q[p]`` and ``w`` are the data of Layout-3
fields and ``q[:, i]`` is rhs i's k vectors as one matrix with leading
dimension b*n.
``block_dot(q, w)`` returns the (b, k) products conj(q[p, i]) . w[i] and
``block_axpy(a, q, w)`` adds a[i] @ q[:, i] to w[i], one BLAS gemv per
column each; ``block_norms`` and ``block_scale`` take one (b, n) array.
The kernels dispatch on the argument type, so a caller holds one name per
kernel for both forms.  The conjugated product is formed as
conj(conj(w) @ q^T), which keeps it in numpy's gemv.

The kernels run at the precision of their data: coefficients are cast to
the dtype of the stack (or field) they combine, and ``block_dot`` returns
the stack's dtype, so a complex64 Krylov basis is never upcast.  A
complex128 coefficient against a complex64 stack would make numpy copy
every column to complex128 before the gemv, at twice the stack's bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import BlockSpinorField, check_matching

ACC_LANES = 8  # complex accumulator lanes in the deferred dot

DOT_STRATEGIES = ("naive", "deferred")


def _as_coeffs(alpha, b: int, dtype) -> np.ndarray:
    a = np.asarray(alpha, dtype=dtype)
    if a.ndim == 0:
        a = np.full(b, a)
    if a.shape != (b,):
        raise ValueError(f"expected {b} coefficients, got shape {a.shape}")
    return a


def _check_stack(q: np.ndarray, w: np.ndarray) -> None:
    if not isinstance(w, np.ndarray) or q.ndim != 3 or q.shape[1:] != w.shape:
        raise ValueError(
            f"expected a (k, b, n) stack and a (b, n) vector, got "
            f"{q.shape} and {getattr(w, 'shape', type(w).__name__)}"
        )
    if q.dtype != w.dtype:
        raise ValueError(f"stack of dtype {q.dtype} and vector of dtype {w.dtype} differ in precision")


def block_axpy(alpha, x, y) -> None:
    """y[:, i] += alpha[i] * x[:, i], in place.

    Multi-vector form: y[i] += alpha[i] @ x[:, i] for a (k, b, n) stack x,
    a (b, n) vector y and (b, k) coefficients alpha.
    """
    if isinstance(x, np.ndarray):
        _check_stack(x, y)
        if np.shape(alpha) != x.shape[1::-1]:
            raise ValueError(f"expected {x.shape[1::-1]} coefficients, got shape {np.shape(alpha)}")
        alpha = np.asarray(alpha, dtype=x.dtype)
        for i in range(y.shape[0]):
            y[i] += alpha[i] @ x[:, i]
        return
    check_matching(x, y, "x", "y")
    a = _as_coeffs(alpha, x.b, y.dtype)
    yv = y.ksi()
    yv += a * x.ksi()


def block_scale(alpha, x) -> None:
    """x[:, i] *= alpha[i], in place; x a field or a (b, n) array, one rhs per row."""
    if isinstance(x, np.ndarray):
        x *= _as_coeffs(alpha, x.shape[0], x.dtype)[:, None]
        return
    a = _as_coeffs(alpha, x.b, x.dtype)
    xv = x.ksi()
    xv *= a


def block_norms(x) -> np.ndarray:
    """(b,) Euclidean norms, one per column; x a field or a (b, n) array, one rhs per row."""
    if isinstance(x, np.ndarray):
        return np.sqrt(np.array([np.vdot(row, row).real for row in x]))
    # squared moduli as a real self-dot on the storage: no field-sized temporary
    f = x.storage_view().view(np.finfo(x.dtype).dtype)
    axes = x.layout.axes
    if axes[-1] == "i":  # (n_sites, s, 2b): each column's re and im side by side
        return np.sqrt(np.einsum("xki,xki->i", f, f).reshape(x.b, 2).sum(axis=1))
    return np.sqrt(np.einsum(f"{axes},{axes}->i", f, f))  # 2s floats per site and column


def _lane_width(b: int) -> int:
    return max(1, math.ceil(ACC_LANES / b)) * b


def _pad_to(stream: np.ndarray, width: int) -> np.ndarray:
    short = (-stream.shape[-1]) % width
    if short == 0:
        return stream
    pad = [(0, 0)] * (stream.ndim - 1) + [(0, short)]
    return np.pad(stream, pad)


def _dot_naive(w: BlockSpinorField, e: BlockSpinorField) -> np.ndarray:
    wv, ev = w.ksi(), e.ksi()
    out = np.empty(w.b, dtype=np.complex128)
    for i in range(w.b):
        out[i] = np.einsum("xk,xk->", wv[..., i].conj(), ev[..., i])
    return out


def _dot_deferred(w: BlockSpinorField, e: BlockSpinorField) -> np.ndarray:
    prod = w.data.conj() * e.data
    if w.layout.axes[-1] == "i":  # the columns cycle fastest (Layout 2)
        width = _lane_width(w.b)
        lanes = _pad_to(prod, width).reshape(-1, width).sum(axis=0)
        return lanes.reshape(-1, w.b).sum(axis=0)
    # per-column storage: the stream of one column is contiguous per site
    # (Layout 1) or over the whole field (Layout 3)
    per_col = np.moveaxis(prod.reshape(w.storage_view().shape), w.layout.axes.index("i"), 0).reshape(w.b, -1)
    lanes = _pad_to(per_col, ACC_LANES).reshape(w.b, -1, ACC_LANES).sum(axis=1)
    return lanes.sum(axis=1)


def block_dot(w, e, strategy: str = "deferred") -> np.ndarray:
    """(b,) inner products conj(w[:, i]) . e[:, i].

    Multi-vector form: the (b, k) products conj(w[p, i]) . e[i] of a (k, b, n)
    stack w with a (b, n) vector e; ``strategy`` applies to fields only.
    """
    if isinstance(w, np.ndarray):
        _check_stack(w, e)
        out = np.empty(w.shape[1::-1], dtype=w.dtype)
        for i in range(e.shape[0]):
            out[i] = (e[i].conj() @ w[:, i].T).conj()
        return out
    check_matching(w, e, "w", "e")
    if strategy == "naive":
        return _dot_naive(w, e)
    if strategy == "deferred":
        return _dot_deferred(w, e)
    raise ValueError(f"unknown dot strategy {strategy!r}; expected one of {DOT_STRATEGIES}")
