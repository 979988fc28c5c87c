"""Lagged message-passing history encoders and the full/reduced predictors.

One candidate pair (x possibly driving y) is modeled by three scalar-per-layer
encoders plus one interaction coefficient:

    full model:    y_hat = link(enc(y; theta_y_full) + c * enc(x; theta_x_full))
    reduced model: y_hat = link(enc(y; theta_y_reduced))

``enc`` runs L propagation layers over the DAG. Layer 1 (and every layer up
to ``lag_hops``) uses the strict-lag operator so a node's own current value
never reaches its prediction; later layers use the self-retaining variant so
information accumulated at a node persists while its parents' past keeps
arriving. The encoder output is the mean of the L layer outputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteParameter
from .graph import LaggedOperators, transpose_apply_batch

__all__ = [
    "EncoderParams",
    "PairModel",
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


@dataclass(frozen=True)
class EncoderParams:
    """Per-layer scalar weight and bias of one history encoder."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        if w.ndim != 1 or b.shape != w.shape or w.shape[0] < 1:
            raise DimensionMismatch("w and b must be equal-length vectors, length >= 1")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NonFiniteParameter("encoder parameters must be finite")

    @property
    def n_layers(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class PairModel:
    """All 6L+1 scalar parameters of one candidate pair's full+reduced models."""

    theta_y_full: EncoderParams
    theta_x_full: EncoderParams
    c: float
    theta_y_reduced: EncoderParams
    lag_hops: int = 1
    link: str = "identity"

    def __post_init__(self):
        L = self.theta_y_full.n_layers
        if self.theta_x_full.n_layers != L or self.theta_y_reduced.n_layers != L:
            raise DimensionMismatch("all three encoders must share the same layer count")
        if not 1 <= self.lag_hops <= L:
            raise DimensionMismatch(f"lag_hops must be in [1, {L}], got {self.lag_hops}")
        if self.link not in LINKS:
            raise ValueError(f"link must be one of {LINKS}, got {self.link!r}")
        if not np.isfinite(self.c):
            raise NonFiniteParameter("interaction coefficient must be finite")

    @property
    def n_layers(self) -> int:
        return self.theta_y_full.n_layers


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


def encode_history(
    v: np.ndarray,
    ops: LaggedOperators,
    p: EncoderParams,
    lag_hops: int = 1,
    keep_layers: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run the L-layer lagged recurrence on one node-value vector.

    h(1) = tanh(w1 * A.T v + b1); subsequent layers apply tanh(w * M.T h + b)
    with M the strict-lag operator up to ``lag_hops`` and the self-retaining
    operator beyond. Returns (h_tilde, layers): the mean of the L layer
    outputs and, with ``keep_layers``, the (L, n) layer outputs (else None).
    This is ``encode_history_batch`` on a batch of width one; the layer
    outputs are recomputed from its kept layer inputs, with the same
    arithmetic.
    """
    h_tilde, inputs = encode_history_batch(
        _as_column(v, ops), ops, p.w[:, None], p.b[:, None], lag_hops, keep_inputs=keep_layers)
    layers = None
    if inputs is not None:
        layers = np.stack([layer_output(u, p.w[i : i + 1], p.b[i : i + 1])[:, 0]
                           for i, u in enumerate(inputs)])
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
    lag_hops: int = 1,
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
    x: np.ndarray, y: np.ndarray, ops: LaggedOperators, m: PairModel
) -> np.ndarray:
    """Full-model prediction: link(enc(y) + c * enc(x))."""
    h_y = encode_history(y, ops, m.theta_y_full, m.lag_hops)[0]
    h_x = encode_history(x, ops, m.theta_x_full, m.lag_hops)[0]
    return apply_link(h_y + m.c * h_x, m.link)


def predict_reduced(y: np.ndarray, ops: LaggedOperators, m: PairModel) -> np.ndarray:
    """Reduced-model prediction: link(enc(y)) from y's own history only."""
    h_y = encode_history(y, ops, m.theta_y_reduced, m.lag_hops)[0]
    return apply_link(h_y, m.link)
