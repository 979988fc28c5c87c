"""Lagged message-passing history encoders and the full/reduced predictors.

One candidate pair (x possibly driving y) has two models, each stored as one
column of scalar parameters:

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

from .errors import DimensionMismatch, NonFiniteParameter
from .graph import LaggedOperators, transpose_apply_batch

__all__ = [
    "check_column",
    "encode_history",
    "encode_history_batch",
    "strict_lag",
    "layer_output",
    "predict_full",
    "predict_reduced",
    "apply_link",
    "LINKS",
]

LINKS = ("identity", "exponential")


def apply_link(s: np.ndarray, link: str) -> np.ndarray:
    if link == "identity":
        return s
    if link == "exponential":
        return np.exp(s)
    raise ValueError(f"unknown link {link!r}")


def _layer_op(ops: LaggedOperators, layer: int, lag_hops: int):
    # Layers 1..lag_hops propagate with the strict-lag matrix; the rest retain self-state.
    return ops.a if layer <= lag_hops else ops.a_plus


def _as_column(v: np.ndarray, ops: LaggedOperators) -> np.ndarray:
    """One node-value vector as an (n, 1) batch."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != ops.n:
        raise DimensionMismatch(f"expected vector of length {ops.n}, got shape {v.shape}")
    return v[:, None]


def check_column(theta: np.ndarray, *, with_x: bool) -> tuple[np.ndarray, int]:
    """One parameter column as floats, with its layer count L.

    With ``with_x`` it is a full column [w_y, b_y, w_x, b_x, c] of 4L+1
    values, else an encoder's (or reduced) column [w, b] of 2L values.
    Raises DimensionMismatch unless it is 1-D of that length for some
    L >= 1, and NonFiniteParameter unless every value is finite.
    """
    theta = np.asarray(theta, dtype=np.float64)
    per_layer, extra = (4, 1) if with_x else (2, 0)
    L, rest = divmod(theta.shape[0] - extra, per_layer) if theta.ndim == 1 else (0, 0)
    if L < 1 or rest:
        raise DimensionMismatch(f"expected a column of {per_layer}L{'+1' if with_x else ''} "
                                f"values with L >= 1, got shape {theta.shape}")
    if not np.isfinite(theta).all():
        raise NonFiniteParameter("parameters must be finite")
    return theta, L


def encode_history(
    v: np.ndarray,
    ops: LaggedOperators,
    theta: np.ndarray,
    *,
    lag_hops: int,
    keep_layers: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run the L-layer lagged recurrence on one node-value vector.

    ``theta`` is the encoder's column [w, b]. h(1) = tanh(w1 * A.T v + b1);
    subsequent layers apply tanh(w * M.T h + b) with M the strict-lag
    operator up to ``lag_hops`` and the self-retaining operator beyond.
    Returns (h_tilde, layers): the mean of the L layer outputs and, with
    ``keep_layers``, the (L, n) layer outputs (else None). This is
    ``encode_history_batch`` on a batch of width one; the layer outputs are
    recomputed from its kept layer inputs, with the same arithmetic.
    """
    theta, L = check_column(theta, with_x=False)
    w, b = theta[:L, None], theta[L:, None]
    h_tilde, inputs = encode_history_batch(
        _as_column(v, ops), ops, w, b, lag_hops, keep_inputs=keep_layers)
    layers = None
    if inputs is not None:
        layers = np.stack([layer_output(u, w[i], b[i])[:, 0] for i, u in enumerate(inputs)])
    return h_tilde[:, 0], layers


def strict_lag(values: np.ndarray, ops: LaggedOperators) -> np.ndarray:
    """``a.T @ values``: the sparse product of layer 1, for an n-by-m batch.

    It does not depend on the parameters, so a caller that encodes the same
    columns many times computes it once and passes (columns of) it to
    ``encode_history_batch(..., lagged=True)``.
    """
    return transpose_apply_batch(ops.a, values)


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
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """The lagged recurrence of ``encode_history`` over an n-by-m batch.

    ``w`` and ``b`` are (L, m): column j of the batch is encoded with the
    j-th parameter column. One shared sparse product per layer feeds a
    per-column affine + tanh. With ``lagged`` the batch already holds
    ``strict_lag(values, ops)`` and layer 1 does no product. Returns
    (h_tilde, inputs): with ``keep_inputs``, ``inputs[l]`` is the (n, m)
    input ``M.T h`` of layer l + 1, from which ``layer_output`` gives back
    that layer's output; the first entry is ``values`` itself when lagged.
    """
    values = np.asarray(values, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != ops.n:
        raise DimensionMismatch(f"expected (n={ops.n}, m) batch, got shape {values.shape}")
    if w.shape != b.shape or w.ndim != 2 or w.shape[1] != values.shape[1]:
        raise DimensionMismatch("parameter arrays must be (L, m) matching the batch width")
    L = w.shape[0]
    if not 1 <= lag_hops <= L:
        raise DimensionMismatch(f"lag_hops must be in [1, {L}], got {lag_hops}")

    u = values if lagged else strict_lag(values, ops)
    h = np.empty_like(values)
    acc = np.zeros_like(values)
    inputs = [] if keep_inputs else None
    for ell in range(1, L + 1):
        if ell > 1:
            u = transpose_apply_batch(_layer_op(ops, ell, lag_hops), h)
        if inputs is not None:
            inputs.append(u)
        layer_output(u, w[ell - 1], b[ell - 1], out=h)
        acc += h
    return np.divide(acc, L, out=acc), inputs


def predict_full(
    x: np.ndarray, y: np.ndarray, ops: LaggedOperators, full: np.ndarray, *,
    lag_hops: int, link: str,
) -> np.ndarray:
    """Full-model prediction link(enc(y) + c * enc(x)) from a full column."""
    full, L = check_column(full, with_x=True)
    h_y = encode_history(y, ops, full[: 2 * L], lag_hops=lag_hops)[0]
    h_x = encode_history(x, ops, full[2 * L : 4 * L], lag_hops=lag_hops)[0]
    return apply_link(h_y + full[4 * L] * h_x, link)


def predict_reduced(
    y: np.ndarray, ops: LaggedOperators, reduced: np.ndarray, *, lag_hops: int, link: str,
) -> np.ndarray:
    """Reduced-model prediction link(enc(y)) from y's own history only."""
    return apply_link(encode_history(y, ops, reduced, lag_hops=lag_hops)[0], link)
