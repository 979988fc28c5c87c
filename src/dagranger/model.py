"""Lagged message-passing history encoders and the layout of the models they feed.

One candidate pair (x possibly driving y) has two models, each stored as one
column of scalar parameters (``train`` computes their predictions):

    full column (4L+1,):  [w_y, b_y, w_x, b_x, c]
        y_hat = link(enc(y; w_y, b_y) + c * enc(x; w_x, b_x))
    reduced column (2L,): [w_y, b_y]
        y_hat = link(enc(y; w_y, b_y))

An encoder's parameters, like the reduced column, are [w, b]: one weight and
one bias per layer. ``enc`` runs L propagation layers over the DAG. Layer 1
(and every layer up to ``lag_hops``) uses the strict-lag operator so a node's
own current value never reaches its prediction; later layers use the
self-retaining variant so information accumulated at a node persists while
its parents' past keeps arriving. The encoder output is the mean of the L
layer outputs.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError
from .graph import LaggedOperators, transpose_apply_batch

__all__ = [
    "encode_history_batch",
    "strict_lag",
    "layer_output",
    "apply_link",
    "LINKS",
]

LINKS = ("identity", "exponential")


def apply_link(s: np.ndarray, link: str, out=None) -> np.ndarray:
    """link(s): ``s`` itself for the identity link, else written into ``out`` when given."""
    if link == "identity":
        return s
    if link == "exponential":
        return np.exp(s, out=out)
    raise ValueError(f"unknown link {link!r}")


def _layer_op(ops: LaggedOperators, layer: int, lag_hops: int):
    # Layers 1..lag_hops propagate with the strict-lag matrix; the rest retain self-state.
    return ops.a if layer <= lag_hops else ops.a_plus


def strict_lag(values: np.ndarray, ops: LaggedOperators, out=None) -> np.ndarray:
    """``a.T @ values``: the sparse product of layer 1, for an n-by-m batch.

    It does not depend on the parameters, so a caller may compute it
    itself, into ``out`` when given, and pass it to
    ``encode_history_batch(..., lagged=True)``. Each column has the bits of
    its own product, whatever columns share the batch.
    """
    return transpose_apply_batch(ops.a, values, out=out)


def layer_output(u: np.ndarray, w: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """``tanh(u * w + b)`` for a layer input u (n, m) and parameter rows w, b (m,)."""
    out = np.multiply(u, w[None, :], out=out)
    np.add(out, b[None, :], out=out)
    return np.tanh(out, out=out)


def encode_history_batch(
    values: np.ndarray,
    ops: LaggedOperators,
    w: np.ndarray,
    b: np.ndarray,
    lag_hops: int,
    keep_inputs: bool = False,
    lagged: bool = False,
    buffers=None,
    out=None,
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Run the L-layer lagged recurrence on each column of an n-by-m batch.

    ``w`` and ``b`` are (L, m): column j of the batch is encoded with the
    j-th parameter column. h(1) = tanh(w1 * A.T v + b1); later layers apply
    tanh(w * M.T h + b) with M the strict-lag operator up to ``lag_hops``
    and the self-retaining operator beyond, and h_tilde is the mean of the L
    layer outputs. One shared sparse product per layer feeds a per-column
    affine + tanh. With ``lagged`` the batch already holds
    ``strict_lag(values, ops)`` and layer 1 does no product. Returns
    (h_tilde, inputs): with ``keep_inputs``, ``inputs[l]`` is the (n, m)
    input ``M.T h`` of layer l + 1, from which ``layer_output`` gives back
    that layer's output; the first entry is ``values`` itself when lagged.
    ``buffers``, C-ordered (n, m) arrays, are written instead of new arrays:
    the first holds each layer's output in turn, the next L - 1 the inputs
    of layers 2..L with ``keep_inputs``, else the second holds each in turn.
    h_tilde is written into ``out``, an (n, m) array, when given, else into
    a new array.
    """
    values = np.asarray(values, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != ops.n:
        raise DataError(f"expected (n={ops.n}, m) batch, got shape {values.shape}")
    if w.shape != b.shape or w.ndim != 2 or w.shape[1] != values.shape[1]:
        raise DataError("parameter arrays must be (L, m) matching the batch width")
    L = w.shape[0]
    if not 1 <= lag_hops <= L:
        raise DataError(f"lag_hops must be in [1, {L}], got {lag_hops}")

    u = values if lagged else strict_lag(values, ops)
    h = np.empty_like(values) if buffers is None else buffers[0]
    acc = np.empty_like(values) if out is None else out
    acc.fill(0.0)
    inputs = [] if keep_inputs else None
    for ell in range(1, L + 1):
        if ell > 1:
            out = None if buffers is None else buffers[ell - 1 if keep_inputs else 1]
            u = transpose_apply_batch(_layer_op(ops, ell, lag_hops), h, out=out)
        if inputs is not None:
            inputs.append(u)
        layer_output(u, w[ell - 1], b[ell - 1], out=h)
        acc += h
    return np.divide(acc, L, out=acc), inputs

