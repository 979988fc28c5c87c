"""Fitting the full and reduced models of every candidate pair.

A pair's full model is a (4L+1,) column [w_y, b_y, w_x, b_x, c] and its
reduced model a (2L,) column [w_y, b_y] (``model``), so the total objective
(the sum of full and reduced squared-error losses over all pairs) decomposes
per pair and per model. The reduced model sees only y's own history, so it
depends on y and not on x: ``train_all`` keeps one reduced column per y
variable (the reduced bank) and one full column per pair (the full bank).
Every epoch the reduced bank takes one Adam step per y, then the pairs, in
pair-id order, are evaluated in chunks as one batched forward/backward of the
full model over shared sparse operators, and each pair takes one Adam step on
its own gradient. No parameter is shared between pairs, so the protocol's
minibatch of 1,024 pairs has nothing to act on and the pairs are not
shuffled; ``_CHUNK`` bounds a pass's memory. The pairs of one y start from
one draw and take the same steps on the same gradients, so the bank gives
each pair the bits that a copy of its own would have. Gradients are exact
reverse accumulation through the tanh layers: tanh' = 1 - h^2, and the
adjoint of each M.T product is the corresponding non-transposed M product.

Epoch 1 needs no pass over the pairs. Every full column starts from one
Glorot draw with c = 0 and the reduced model's y-encoder, so there the full
model is the reduced one: a pair's loss, y-encoder gradient and d(loss)/d(y_hat)
are its y's from the reduced pass, its x-encoder gradient is 0, and its c
gradient sum(d * enc(x)) needs only one forward encoding of each x. Each of
these is the kernel's own arithmetic, so every bit is the same.

The final evaluation needs no pass over the pairs either while every pair
still holds those shared encoders: its y-encoder is its y's reduced model and
its x-encoder the start's, compared bit for bit. That holds after 0 epochs,
and after 1 when both banks train. enc(y) then comes from the final reduced
pass, enc(x) from one encoding of each x, and each pair chunk forms only
link(enc(y) + c * enc(x)) and its losses, with the kernel's own code.

Epoch 2 runs no forward pass per pair when it starts at the shared encoders
(after epoch 1 with both banks trained): its bank pass computes enc(y) and
every layer input of each y at exactly the pairs' y-encoders, one encoding of
each x at the start gives enc(x) and its layer inputs, and each pair chunk
runs the kernel's backward pass on gathers of them. The per-variable arrays
live one tile at a time, the y of one bank chunk (``_CHUNK``) by one block of
x (``_X_BLOCK``), in (L + 1) * n * 48 floats plus one workspace, a buffer at
least as large as a per-pair chunk's workspace, which later epochs reuse.
Later epochs run the per-pair kernel.

The kernel does each sparse product once. Layer 1's product ``a.T @ v`` does
not depend on the parameters, so ``train_all`` computes it once per variable
and gathers it per chunk; the forward pass keeps each later layer's input
``M.T h`` and the backward pass recomputes the layer output from it rather
than repeating the product.

The kernel allocates no (n, m) array per layer. The full model's two
encoders run as one batch, y's columns then x's, and every per-layer array
(the layer inputs, the layer output, and dz, t and g of the backward pass)
is a row of a workspace (``_rows``) that ``train_all`` makes once for each
chunk running at a time, sized for its pass, and reuses for every later chunk
that fits, until a pass runs no encoder; the sparse products write into it
(``graph.transpose_apply_batch``, ``apply_batch``). A chunk that runs an
encoder holds ``_CHUNK`` = 32 pairs, so its kept layer inputs take
2L * n * 32 floats; the pair chunks of epoch 1 and of the shared final
evaluation run no encoder and hold ``_WIDE_CHUNK`` = 64.

Numerics are independent of chunk width and worker count: pairs are
processed in fixed-size column chunks, every operation in the kernel treats
each column on its own, and every sum over nodes adds rows in sequence at any
chunk width (``_column_sums``), so a column's bits do not depend on which
columns share its chunk and a thread pool over chunks changes wall time only.
The epoch's total loss, which the convergence rule compares, is the exactly
rounded sum (``math.fsum``) of each kept pair's losses, so the epoch at which
training stops does not depend on the chunks either.
"""
from __future__ import annotations

import logging
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, DataError, DimensionMismatch, NonFiniteGradient, NonFinitePrediction)
from .graph import LaggedOperators, apply_batch
from .model import (
    LINKS,
    _as_column,
    _layer_op,
    apply_link,
    check_column,
    encode_history_batch,
    layer_output,
    strict_lag,
)

__all__ = [
    "TrainConfig",
    "Dataset",
    "LossReport",
    "AdamState",
    "TrainResult",
    "glorot_init",
    "adam_step",
    "pair_loss",
    "pair_gradients",
    "train_all",
]

logger = logging.getLogger(__name__)

# Columns in flight at once, split among the workers. Neither worker count
# nor chunk width changes any floating-point result, only scheduling and
# memory. A chunk of m pairs keeps the inputs of layers 1..L of both
# encoders, 2L * n * m floats: 41 MB at m = 32, n = 8,000 and L = 10. A
# chunk that runs no encoder keeps none and is wider, which halves
# the per-chunk overhead. An epoch from per-variable encodings holds the
# layer inputs of ``_CHUNK`` y and ``_X_BLOCK`` x at a time, which at L = 10
# fits with its workspaces in one per-pair chunk's workspace.
_CHUNK = 32
_WIDE_CHUNK = 64
_X_BLOCK = 16

_GLOROT_BOUND = math.sqrt(3.0)  # sqrt(6 / (fan_in + fan_out)) with both fans 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 20
    n_layers: int = 10
    lag_hops: int = 1
    convergence_numerator: float = 0.1
    seed: int = 0
    link: str = "identity"

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if not 1 <= self.lag_hops <= self.n_layers:
            raise ConfigError("lag_hops must be in [1, n_layers]")
        if not self.convergence_numerator >= 0:
            raise ConfigError("convergence_numerator must be >= 0, "
                              f"got {self.convergence_numerator}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.link not in LINKS:
            raise ConfigError(f"link must be one of {LINKS}")


@dataclass(frozen=True)
class Dataset:
    """Node-by-variable observations plus the candidate pair set.

    ``pairs`` becomes a read-only (P, 2) int64 array: row k = (xi, yi) means column
    xi of x_values putatively drives column yi of y_values; k is the pair id.
    """

    x_values: np.ndarray
    y_values: np.ndarray
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]
    pairs: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_values, dtype=np.float64)
        y = np.asarray(self.y_values, dtype=np.float64)
        object.__setattr__(self, "x_values", x)
        object.__setattr__(self, "y_values", y)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise DataError("x and y matrices must be 2-D with equal node counts")
        if len(self.x_names) != x.shape[1] or len(self.y_names) != y.shape[1]:
            raise DataError("variable name counts must match matrix widths")
        try:
            pairs = np.array(self.pairs, dtype=np.int64).reshape(len(self.pairs), 2)
        except (TypeError, ValueError):
            k = next((k for k, p in enumerate(self.pairs) if np.shape(p) != (2,)), 0)
            raise DataError(f"pair {k} {self.pairs[k]!r} is not (x index, y index)") from None
        bad = ((pairs < 0) | (pairs >= (x.shape[1], y.shape[1]))).any(axis=1)
        if bad.any():
            k = int(bad.argmax())
            raise DataError(f"pair {k} {tuple(pairs[k].tolist())} references a missing column")
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    @property
    def n_nodes(self) -> int:
        return self.x_values.shape[0]


@dataclass(frozen=True)
class LossReport:
    """Per-node squared errors of both models with their totals."""

    per_node_full: np.ndarray
    per_node_reduced: np.ndarray
    rss_full: float
    rss_reduced: float

    @classmethod
    def from_per_node(cls, per_node_full, per_node_reduced) -> "LossReport":
        pf = np.asarray(per_node_full, dtype=np.float64)
        pr = np.asarray(per_node_reduced, dtype=np.float64)
        return cls(
            per_node_full=pf,
            per_node_reduced=pr,
            rss_full=float(pf.sum()),
            rss_reduced=float(pr.sum()),
        )


@dataclass(frozen=True)
class TrainResult:
    """What ``train_all`` returns: the two parameter banks and per-pair statistics.

    Pair arrays are indexed by pair id; bank arrays by column of the reduced
    bank, one column per y some pair uses (``y_index[k]`` is pair k's).
    ``full`` is ``(4L+1, n_pairs)`` and ``reduced`` is ``(2L, n_y)``: pair
    k's models are the columns ``full[:, k]`` and ``reduced[:, y_index[k]]``
    in the layouts of ``model``. ``rss``,
    ``mean`` and ``var`` (ddof=1) are the sum, mean and sample variance of
    each model's per-node squared errors; they are NaN for a pair that went
    non-finite, and only the ids in ``pair_ids`` (ascending) survived.
    ``len()`` is the number of surviving pairs.
    """

    pair_ids: np.ndarray
    y_index: np.ndarray
    full: np.ndarray
    reduced: np.ndarray
    rss_full: np.ndarray
    mean_full: np.ndarray
    var_full: np.ndarray
    rss_reduced: np.ndarray
    mean_reduced: np.ndarray
    var_reduced: np.ndarray

    def __len__(self) -> int:
        return self.pair_ids.size


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; ``t`` is the 1-based step count."""
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, AdamState(m=m, v=v)


def glorot_init(L: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Glorot-uniform weights on scalar layers (both fans 1, bound sqrt(3)).

    Returns the initial (full, reduced) columns. Biases and the interaction
    coefficient start at zero, and the two y-encoders share one weight draw,
    so the full and reduced models start out exactly equal: every residual
    difference that develops during training is attributable to the
    interaction term rather than to initialization luck. Draw order is the
    shared y weights, then x.
    """
    w_y = rng.uniform(-_GLOROT_BOUND, _GLOROT_BOUND, size=L)
    w_x = rng.uniform(-_GLOROT_BOUND, _GLOROT_BOUND, size=L)
    zeros = np.zeros(L)
    return np.concatenate([w_y, zeros, w_x, zeros, [0.0]]), np.concatenate([w_y, zeros])


# --- the forward/backward kernel ----------------------------------------------


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sum a C-ordered (n, m) array over axis 0, adding rows in sequence at any width.

    ``np.sum(axis=0)`` adds the rows of a C-ordered array in sequence when
    m >= 2 but sums a single column pairwise, so a pair's result would
    depend on whether it ends up alone in a chunk. ``cumsum`` adds in
    sequence at every width; its last row is what ``np.sum`` returns for
    m >= 2.
    """
    if a.shape[1] == 1:
        return np.cumsum(a[:, 0])[-1:]
    return np.sum(a, axis=0)


def _loss_stats(per_node: np.ndarray) -> np.ndarray:
    """(sum, mean, var(ddof=1)) rows, (3, m), of an (n, m) array of per-node losses.

    Each column is reduced as one contiguous row, which gives the bits of
    the 1-D ``sum``, ``mean`` and ``var`` of that column alone; reducing
    ``per_node`` over axis 0 would not. A variance that overflows is inf,
    without a numpy warning.
    """
    rows = np.ascontiguousarray(per_node.T)
    with np.errstate(invalid="ignore", over="ignore"):
        return np.stack([rows.sum(axis=1), rows.mean(axis=1), rows.var(axis=1, ddof=1)])


def _workspace(size: int) -> np.ndarray:
    """A flat buffer of ``size`` floats, viewed as a pass's rows by ``_buffers``."""
    return np.empty(size)


def _rows(L: int, want_grads: bool) -> int:
    """Workspace rows of one kernel call (``_chunk_forward_backward``).

    The layer inputs come first: layer 1's (the caller's gather target),
    then with ``want_grads`` the kept inputs of layers 2..L and the backward
    pass's dh / L, dz (each layer's output h in the forward pass), t and g;
    without, one row for each later layer's input in turn and one for its
    output. A backward pass that gathers each layer's input into one row
    takes the rows of L = 1: that row and the four.
    """
    return L + 4 if want_grads else 3


def _buffers(workspace: np.ndarray, n: int, k: int, rows: int) -> list[np.ndarray]:
    """The first ``rows`` consecutive (n, k) C-ordered arrays of a flat workspace."""
    return [workspace[i * n * k : (i + 1) * n * k].reshape(n, k) for i in range(rows)]


def _encoder_params(theta: np.ndarray, full: bool):
    """(w, b, L) of a chunk's encoders, (L, k) each: y's columns then x's for the full model."""
    if not full:
        L = theta.shape[0] // 2
        return theta[:L], theta[L:], L
    L = (theta.shape[0] - 1) // 4
    return (np.concatenate((theta[:L], theta[2 * L : 3 * L]), axis=1),
            np.concatenate((theta[L : 2 * L], theta[3 * L : 4 * L]), axis=1), L)


def _encoder_backward_batch(dh, inputs, ops, w, b, lag_hops, buffers):
    """Reverse pass of a batch of encoders given d(loss)/d(h_tilde), all (n, m).

    ``inputs(i)`` returns the input u = M.T h_prev of layer i + 1 that the
    forward pass computed; it is called once per layer, from L down to 1,
    and its array is read only until the next call. Each layer output is
    recomputed from it as tanh(w * u + b), so no sparse product is
    repeated. Every layer output feeds both the mean (weight 1/L) and the
    next layer; the adjoint of z = w * u + b sends M @ (w * dz) back to h.
    The four ``buffers`` (dh / L, dz, t, g) are written instead of new
    arrays; ``dh`` may be the first of them.
    """
    L = w.shape[0]
    dw = np.empty_like(w)
    db = np.empty_like(w)
    dh_mean, dz, t, g_out = buffers
    np.divide(dh, L, out=dh_mean)
    g = dh_mean
    for ell in range(L, 0, -1):
        u = inputs(ell - 1)
        h = layer_output(u, w[ell - 1], b[ell - 1], out=t)
        np.multiply(h, h, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(g, t, out=dz)
        dw[ell - 1] = _column_sums(np.multiply(dz, u, out=t))
        db[ell - 1] = _column_sums(dz)
        if ell > 1:
            np.multiply(dz, w[ell - 1][None, :], out=dz)
            g = apply_batch(_layer_op(ops, ell, lag_hops), dz, out=g_out)
            np.add(dh_mean, g, out=g)
    return dw, db


def _output_losses(h_y, h_x, c, Y, link):
    """The kernel's forward pass from the encodings on: y_hat, residual and losses.

    y_hat = link(h_y + c * h_x), or link(h_y) with ``h_x`` None; ``h_y``,
    ``h_x`` and Y are (n, m) and c is (m,). Returns (yhat, res, per_node,
    rss, ok), ok flagging columns with a finite y_hat and rss. Call it
    under ``np.errstate``, as the kernel does.
    """
    s = h_y if h_x is None else h_y + c[None, :] * h_x
    yhat = apply_link(s, link)
    res = yhat - Y
    per_node = res * res
    rss = _column_sums(per_node)
    return yhat, res, per_node, rss, np.isfinite(yhat).all(axis=0) & np.isfinite(rss)


def _gradients(theta, yhat, res, h_x, inputs, ops, lag_hops, link, buffers):
    """The kernel's backward pass: (grads, d) for a chunk of m columns.

    ``theta`` is the chunk's (4L+1, m) full columns when ``h_x`` (enc(x),
    (n, m)) is given, else its (2L, m) reduced ones; ``yhat`` and ``res``
    come from ``_output_losses``. ``inputs`` and ``buffers`` are those of
    ``_encoder_backward_batch``, y's columns then x's for the full model.
    grads has ``theta``'s shape and d is d(loss)/d(y_hat), (n, m).
    """
    m = res.shape[1]
    full = h_x is not None
    w, b, L = _encoder_params(theta, full)
    grads = np.empty_like(theta)
    d = 2.0 * res
    if link == "exponential":
        d = d * yhat
    dh = d
    if full:
        grads[4 * L] = _column_sums(d * h_x)
        dh = buffers[0]
        dh[:, :m] = d
        np.multiply(theta[4 * L][None, :], d, out=dh[:, m:])
    dw, db = _encoder_backward_batch(dh, inputs, ops, w, b, lag_hops, buffers)
    grads[:L], grads[L : 2 * L] = dw[:, :m], db[:, :m]
    if full:
        grads[2 * L : 3 * L], grads[3 * L : 4 * L] = dw[:, m:], db[:, m:]
    return grads, d


def _chunk_forward_backward(lagged, Y, theta, ops, lag_hops, link, want_grads, workspace=None):
    """Losses (and optionally gradients) of one model for a chunk of m columns.

    ``lagged`` is ``strict_lag`` of the encoders' columns and Y the chunk's
    y columns, (n, m). With ``lagged`` (n, 2m), y's columns then x's, the
    model is the full one, link(enc(y) + c * enc(x)), and ``theta`` is
    (4L+1, m), one full column per pair. With ``lagged`` (n, m) it is the
    reduced one, link(enc(y)), and ``theta`` is (2L, m), one reduced column
    per y. Returns (rss, per_node, grads, ok, h_y, d): grads has ``theta``'s
    shape and d is d(loss)/d(y_hat), (n, m) (both None without
    ``want_grads``); ok flags columns whose loss and forward and backward
    passes stayed finite; h_y is enc(y), (n, m). A column that overflows or
    meets an inf is reported through ok alone; numpy's floating-point
    warnings are silenced for it. The full model's two encoders run as one
    batch of 2m columns, since every operation treats each column on its
    own. Every per-layer array is a row of ``workspace`` (``_rows`` rows,
    made for this call when None), and with ``want_grads`` the inputs of
    layers 1..L are its first L rows when the call returns; ``lagged`` may
    be the first row. The returned arrays are new.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        n, m = Y.shape
        k = lagged.shape[1]
        full = k == 2 * m
        w, b, L = _encoder_params(theta, full)
        if workspace is None:
            workspace = _workspace(_rows(L, want_grads) * n * k)
        rows = _buffers(workspace, n, k, _rows(L, want_grads))
        if want_grads:
            later, scratch = rows[1:L], rows[L:]  # dh / L, dz, t, g
            out = scratch[1]
        else:
            later, out = rows[1:2], rows[2]
        h, inputs = encode_history_batch(lagged, ops, w, b, lag_hops, want_grads, lagged=True,
                                         buffers=[out, *later])
        h_y, h_x = (h[:, :m], h[:, m:]) if full else (h, None)
        yhat, res, per_node, rss, ok = _output_losses(
            h_y, h_x, theta[4 * L] if full else None, Y, link)
        grads = d = None
        if want_grads:
            grads, d = _gradients(theta, yhat, res, h_x, inputs.__getitem__, ops, lag_hops, link,
                                  scratch)
            ok &= np.isfinite(grads).all(axis=0)
    return rss, per_node, grads, ok, h_y, d


# --- single-pair loss and gradients: the kernel at width one -------------------


def _single_pair(x, y, ops, full, reduced, lag_hops, link, want_grads: bool):
    """The kernel's (full, reduced) results for one pair's two columns."""
    full, L = check_column(full, with_x=True)
    reduced, L_reduced = check_column(reduced, with_x=False)
    if L_reduced != L:
        raise DimensionMismatch(f"full column has L={L}, reduced column L={L_reduced}")
    Y = _as_column(y, ops)
    lagged = strict_lag(np.concatenate((Y, _as_column(x, ops)), axis=1), ops)
    return (
        _chunk_forward_backward(lagged, Y, full[:, None], ops, lag_hops, link, want_grads),
        _chunk_forward_backward(lagged[:, :1], Y, reduced[:, None], ops, lag_hops, link,
                                want_grads),
    )


def pair_loss(x: np.ndarray, y: np.ndarray, ops: LaggedOperators, full: np.ndarray,
              reduced: np.ndarray, *, lag_hops: int, link: str) -> LossReport:
    """Per-node squared errors of the full and reduced predictions of one pair."""
    (_, per_node_full, _, ok_full, _, _), (_, per_node_reduced, _, ok_reduced, _, _) = (
        _single_pair(x, y, ops, full, reduced, lag_hops, link, want_grads=False))
    if not (ok_full[0] and ok_reduced[0]):
        raise NonFinitePrediction("prediction overflowed (exponential link?)")
    return LossReport.from_per_node(per_node_full[:, 0], per_node_reduced[:, 0])


def pair_gradients(x: np.ndarray, y: np.ndarray, ops: LaggedOperators, full: np.ndarray,
                   reduced: np.ndarray, *, lag_hops: int,
                   link: str) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (g_full, g_reduced) of rss_full + rss_reduced w.r.t. one pair's two columns."""
    (_, _, g_full, ok_full, _, _), (_, _, g_reduced, ok_reduced, _, _) = _single_pair(
        x, y, ops, full, reduced, lag_hops, link, want_grads=True)
    if not (ok_full[0] and ok_reduced[0]):
        raise NonFiniteGradient("gradient contains NaN or infinity")
    return g_full[:, 0], g_reduced[:, 0]


# --- batched training ---------------------------------------------------------


def train_all(
    dataset: Dataset,
    ops: LaggedOperators,
    config: TrainConfig,
    workers: int = 1,
    component: str = "both",
) -> TrainResult:
    """Fit every candidate pair; return both parameter banks and each model's loss statistics.

    Every pass runs the pairs in pair-id order, unshuffled, in chunks of at
    most ``_CHUNK`` pairs (``_WIDE_CHUNK`` without an encoder) that bound its
    memory; every pair takes one Adam step per epoch. The seed draws only
    the shared Glorot start. Training stops after ``max_epochs`` epochs or
    when the relative change of the epoch-total loss (each pair's full and
    reduced loss) drops below ``convergence_numerator / n_pairs``.
    ``component`` restricts which model's parameters are updated ("both",
    "full", "reduced"); because the models share no parameters the
    restricted runs reproduce the joint run exactly. A pair whose full model
    goes non-finite, or whose y's reduced model does, is dropped from the
    results with a logged diagnostic (once per pass, in pair-id order). The
    final evaluation returns no per-node losses, only their sum, mean and
    variance: per pair for the full model and per y for the reduced one
    (``TrainResult``).
    """
    if component not in ("both", "full", "reduced"):
        raise ConfigError(f"component must be both/full/reduced, got {component!r}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if dataset.n_nodes != ops.n:
        raise DataError("dataset and operators disagree on the node count")

    n_pairs = len(dataset.pairs)
    L = config.n_layers
    train_full = component in ("both", "full")
    train_reduced = component in ("both", "reduced")
    x_cols, y_cols = dataset.pairs[:, 0], dataset.pairs[:, 1]
    active = np.ones(n_pairs, dtype=bool)
    # Layer 1's product does not depend on the parameters: compute it once for
    # each variable some pair uses, y's then x's (column n_y + i is the i-th
    # used x), and gather its columns per chunk.
    x_used, x_at = np.unique(x_cols, return_inverse=True)
    y_used, y_at = np.unique(y_cols, return_inverse=True)
    n_y = y_used.size
    lagged = strict_lag(np.concatenate(
        (dataset.y_values[:, y_used], dataset.x_values[:, x_used]), axis=1), ops)
    # Two parameter banks, each with its own Adam state: the full model of
    # every pair, one column per pair, and the reduced model of every y some
    # pair uses, one column per y. The reduced model sees y alone, so the
    # pairs of one y would train identical copies of it. One Glorot draw is
    # shared by every column (common random numbers): pairs are compared
    # against each other downstream, so giving each its own draw would only
    # inject between-pair variance into the ranking.
    init_full, init_reduced = glorot_init(L, np.random.default_rng(config.seed))
    full = np.repeat(init_full[:, None], n_pairs, axis=1)
    reduced = np.repeat(init_reduced[:, None], n_y, axis=1)
    full_adam = AdamState.zeros_like(full)
    reduced_adam = AdamState.zeros_like(reduced)

    def gather(cols, out):
        """Columns ``cols`` of ``lagged`` written into ``out``, (n, cols.size) C-ordered.

        The indices are valid, so ``mode="clip"`` changes nothing but lets
        ``np.take`` write straight into ``out`` instead of through a copy.
        """
        return np.take(lagged, cols, axis=1, out=out, mode="clip")

    def pair_chunk(cols, want_grads, workspace):
        k = 2 * cols.size
        return _chunk_forward_backward(
            gather(np.concatenate((y_at[cols], n_y + x_at[cols])),
                   _buffers(workspace, ops.n, k, 1)[0]),
            np.take(dataset.y_values, y_cols[cols], axis=1), np.take(full, cols, axis=1),
            ops, config.lag_hops, config.link, want_grads, workspace)

    def bank_chunk(cols, want_grads, workspace):
        return _chunk_forward_backward(
            gather(cols, _buffers(workspace, ops.n, cols.size, 1)[0]),
            np.take(dataset.y_values, y_used[cols], axis=1), np.take(reduced, cols, axis=1),
            ops, config.lag_hops, config.link, want_grads, workspace)

    # Workspaces not in use. A running chunk takes one, so there are never
    # more than ``workers``; each is reused by every later chunk that fits in
    # it, until a pass needs more room or runs no encoder.
    spare = []

    def run_chunks(kernel, ids, want_grads, rows=0, per_id=1):
        """(cols, kernel result) for each fixed-size chunk of ``ids``, in order.

        Chunks run lazily as the caller consumes them. A kernel that takes a
        workspace of ``rows`` rows gets chunks of ``_CHUNK`` ids and a
        workspace with room for ``per_id`` columns per id of its widest
        chunk; spare workspaces with less room are freed first. With
        ``rows`` 0 the kernel gets chunks of ``_WIDE_CHUNK`` ids and None,
        and every spare is freed for the arrays such passes hold. One worker
        runs the chunks one at a time; a pool of ``workers`` threads keeps at most
        ``workers`` chunks, each ``workers`` times narrower, in flight, so the
        state held by running chunks does not grow with the worker count.
        """
        width = max(1, (_CHUNK if rows else _WIDE_CHUNK) // workers)
        size = rows * ops.n * per_id * min(width, ids.size)
        spare[:] = [w for w in spare if rows and w.size >= size]

        def task(cols):
            if not rows:
                return cols, kernel(cols, want_grads, None)
            try:
                workspace = spare.pop()
            except IndexError:
                workspace = _workspace(size)
            try:
                return cols, kernel(cols, want_grads, workspace)
            finally:
                spare.append(workspace)

        chunks = [ids[i : i + width] for i in range(0, ids.size, width)]
        if workers <= 1 or len(chunks) <= 1:
            yield from map(task, chunks)
            return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for cols in chunks:
                if len(pending) == workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(task, cols))
            while pending:
                yield pending.popleft().result()

    def step(params, state, cols, grads, t):
        new_p, new_s = adam_step(
            params[:, cols], grads, AdamState(m=state.m[:, cols], v=state.v[:, cols]), t,
            config.learning_rate)
        params[:, cols] = new_p
        state.m[:, cols] = new_s.m
        state.v[:, cols] = new_s.v

    def encode_x(cols, rows, keep):
        """(enc(x), layer inputs) of the used x ``cols`` under the shared start's x-encoder.

        Every full column starts from the x-encoder of ``init_full`` and
        keeps it while its x-encoder gradient is 0, so while it holds that
        encoder each x needs one encoding, whichever pairs use it. ``rows``
        are (n, cols.size) arrays laid out as a kernel's (``_rows``): the
        layer inputs, all L kept with ``keep`` and two without, then the
        layer output. The inputs are returned with ``keep`` only.
        """
        w, b = (np.repeat(init_full[i * L : (i + 1) * L, None], cols.size, axis=1)
                for i in (2, 3))
        with np.errstate(invalid="ignore", over="ignore"):
            return encode_history_batch(gather(n_y + cols, rows[0]), ops, w, b,
                                        config.lag_hops, keep, lagged=True,
                                        buffers=[rows[-1], *rows[1:-1]])

    def encode_x_at_start(out):
        """enc(x) of every used x under the shared start's x-encoder, into ``out``, (n, n_x)."""
        def encode(cols, _, workspace):
            return encode_x(cols, _buffers(workspace, ops.n, cols.size, _rows(L, False)), False)

        for cols, (h, _) in run_chunks(encode, np.arange(x_used.size), False, _rows(L, False)):
            out[:, cols] = h
        return out

    def start_chunk(rss_y, ok_y, d_y, grads_y):
        """Epoch 1's pair kernel, built from per-variable work.

        Every full column still holds the shared start, where c = 0 and the
        y-encoder is the reduced model's: y_hat = enc(y) + 0 * enc(x) is the
        reduced y_hat bit for bit (enc(y), a mean started from +0, is never
        -0.0). A pair's loss, y-encoder gradient and d(loss)/d(y_hat) are
        therefore its y's from the reduced pass (``rss_y``, ``grads_y``,
        ``d_y``); its x-encoder gradient, c times finite sums in the kernel,
        is +-0 there and 0 here, which give Adam the same parameters and
        moments; and its c gradient needs enc(x), computed once per x.
        ``ok`` is the kernel's: a finite y and enc(x) and, with gradients, a
        finite lagged x (else 0 * inf in the x backward) and c gradient.
        """
        h_x = encode_x_at_start(np.empty((ops.n, x_used.size)))
        ok_x = np.isfinite(h_x).all(axis=0)
        if train_full:
            ok_x &= np.isfinite(lagged[:, n_y:]).all(axis=0)

        def kernel(cols, want_grads, _):
            yk, xk = y_at[cols], x_at[cols]
            ok = ok_y[yk] & ok_x[xk]
            grads = None
            if want_grads:
                grads = np.zeros((4 * L + 1, cols.size))
                grads[: 2 * L] = np.take(grads_y, yk, axis=1)
                with np.errstate(invalid="ignore", over="ignore"):
                    grads[4 * L] = _column_sums(
                        np.take(d_y, yk, axis=1) * np.take(h_x, xk, axis=1))
                ok &= np.isfinite(grads[4 * L])
            return rss_y[yk], None, grads, ok, None, None

        return kernel

    def holds_shared_encoders(ids):
        """Whether every pair in ``ids`` still holds the shared encoders, bit for bit.

        Its y-encoder must be its y's reduced column and its x-encoder the
        start's. The int64 views compare bit patterns, so -0.0 and +0.0
        differ. This holds after 0 epochs, and after 1 when both banks train.
        """
        bits = full.view(np.int64)
        return (np.array_equal(bits[: 2 * L, ids], reduced.view(np.int64)[:, y_at[ids]])
                and (bits[2 * L : 4 * L, ids]
                     == init_full.view(np.int64)[2 * L : 4 * L, None]).all())

    def stored_chunk(store, y_slot, x_slot):
        """The pair kernel from per-variable encodings, while ``holds_shared_encoders``.

        A pair's enc(y) is then its y's from a reduced-bank pass at the same
        parameters and its enc(x) the shared start's, each computed by the
        kernel's arithmetic on the same bits. ``store`` holds them, one
        (n, ·) array per layer input and then one of encodings, with pair
        k's y in column ``y_slot[k]`` and its x in ``x_slot[k]``; the
        backward pass needs the layer inputs, a forward pass the encodings
        alone. A chunk gathers its encodings, y's columns then x's as in the
        kernel, forms link(enc(y) + c * enc(x)) and its losses with the
        kernel's output end and, with gradients, runs the kernel's backward
        pass, gathering each layer's input into the workspace's first row
        when the pass reaches it. Only c and the gradients are the pair's
        own. Losses, gradients and ``ok`` are the kernel's, bit for bit.
        """
        def kernel(cols, want_grads, workspace):
            m = cols.size
            at = np.concatenate((y_slot[cols], x_slot[cols]))
            theta = np.take(full, cols, axis=1)
            h = np.take(store[-1], at, axis=1)
            grads = None
            with np.errstate(invalid="ignore", over="ignore"):
                yhat, res, per_node, rss, ok = _output_losses(
                    h[:, :m], h[:, m:], theta[4 * L],
                    np.take(dataset.y_values, y_cols[cols], axis=1), config.link)
                if want_grads:
                    u, *scratch = _buffers(workspace, ops.n, 2 * m, _rows(1, True))

                    def layer_input(i):
                        return np.take(store[i], at, axis=1, out=u, mode="clip")

                    grads, _ = _gradients(theta, yhat, res, h[:, m:], layer_input, ops,
                                          config.lag_hops, config.link, scratch)
                    ok &= np.isfinite(grads).all(axis=0)
            return rss, per_node, grads, ok, None, None

        return kernel

    def stored_pass(ids, t, rss_y, ok_y):
        """An epoch's reduced-bank steps and pair results while ``ids`` hold the shared encoders.

        Each pair's y-encoder is then its y's reduced column before this
        epoch's step, so the bank pass, which runs at those parameters,
        computes enc(y) and the layer inputs of each y; one encoding of each
        x at the shared start gives enc(x) and its layer inputs; and only the
        backward pass runs per pair (``stored_chunk``). These per-variable
        arrays live one tile at a time, the y of one bank chunk (``_CHUNK``)
        by one block of the x their pairs use (``_X_BLOCK``): each is copied
        from its pass's workspace into a store of one array per layer, so
        that a pair chunk gathers a layer's input with one ``np.take``, and
        the tile's pairs run in chunks. Yields (cols, kernel result) of each
        pair chunk; ``rss_y`` and ``ok_y`` are set for a bank chunk's y
        before its first.
        """
        n = ops.n
        ys = np.unique(y_at[ids])
        y_pos = np.searchsorted(ys, y_at[ids])
        y_slot, x_slot = np.empty(n_pairs, np.intp), np.empty(n_pairs, np.intp)
        # The store: layer inputs 1..L and encodings, one (n, width) array
        # each, a bank chunk's y in its first ``offset`` columns and an x
        # block's after them. One buffer holds it and then the workspace of
        # the bank passes (run here in chunks of half width), the x passes
        # and the pair chunks on one worker. It is at least as large as one
        # per-pair chunk's workspace, which later epochs then reuse.
        offset = min(_CHUNK, ys.size)
        width = offset + min(_X_BLOCK, x_used.size)
        half = max(1, _CHUNK // 2)
        pairs = min(_CHUNK, ids.size)
        size = (L + 1) * n * width
        rest = n * max(_rows(L, True) * min(half, ys.size), (L + 1) * (width - offset),
                       _rows(1, True) * 2 * pairs)
        arena = _workspace(max(size + rest, _rows(L, True) * n * 2 * pairs))
        store = _buffers(arena, n, width, L + 1)
        workspace = arena[size:]
        spare[:] = [workspace]

        def keep(start, enc):
            """Copy a pass's layer inputs and encodings to the store from column ``start``."""
            at = slice(start, start + enc.shape[1])
            for column, row in zip(store, _buffers(workspace, n, enc.shape[1], L)):
                column[:, at] = row
            store[L][:, at] = enc

        for c0 in range(0, ys.size, _CHUNK):
            bank = ys[c0 : c0 + _CHUNK]
            for p0 in range(0, bank.size, half):
                cols = bank[p0 : p0 + half]
                rss, _, grads, ok, enc_y, _ = bank_chunk(cols, True, workspace)
                keep(p0, enc_y)
                rss_y[cols], ok_y[cols] = rss, ok
                if train_reduced and ok.any():
                    step(reduced, reduced_adam, cols[ok], grads[:, ok], t)
            in_bank = (y_pos >= c0) & (y_pos < c0 + bank.size)
            mine = ids[in_bank]
            y_slot[mine] = y_pos[in_bank] - c0
            xs = np.unique(x_at[mine])
            x_pos = np.searchsorted(xs, x_at[mine])
            for b0 in range(0, xs.size, _X_BLOCK):
                block = xs[b0 : b0 + _X_BLOCK]
                keep(offset, encode_x(block, _buffers(workspace, n, block.size, L + 1), True)[0])
                in_block = (x_pos >= b0) & (x_pos < b0 + block.size)
                tile = mine[in_block]
                x_slot[tile] = offset + x_pos[in_block] - b0
                yield from run_chunks(stored_chunk(store, y_slot, x_slot), tile, train_full,
                                      _rows(1, True) if train_full else 0, 2)
        spare[:] = [arena]

    prev_loss = None
    for epoch in range(config.max_epochs):
        t = epoch + 1
        at_start = epoch == 0
        ids = np.flatnonzero(active)
        # The reduced bank first, over the y of the active pairs. Each pair's
        # reduced loss is its y's loss before this step, as if it trained its
        # own copy; a y that goes non-finite drops every pair of it below.
        # In epoch 1 it also keeps what start_chunk needs of each y; while
        # the pairs hold the shared encoders, stored_pass runs it per tile.
        rss_y = np.zeros(n_y)
        ok_y = np.zeros(n_y, dtype=bool)
        if not at_start and holds_shared_encoders(ids):
            results = stored_pass(ids, t, rss_y, ok_y)
        else:
            want_grads = train_reduced or at_start
            if at_start:
                d_y, grads_y = np.empty((ops.n, n_y)), np.empty((2 * L, n_y))
            for cols, (rss, _, grads, ok, _, d) in run_chunks(
                    bank_chunk, np.unique(y_at[ids]), want_grads, _rows(L, want_grads)):
                rss_y[cols], ok_y[cols] = rss, ok
                if at_start:
                    d_y[:, cols], grads_y[:, cols] = d, grads
                if train_reduced and ok.any():
                    step(reduced, reduced_adam, cols[ok], grads[:, ok], t)
            if at_start:
                kernel, rows = start_chunk(rss_y, ok_y, d_y, grads_y), 0
            else:
                kernel, rows = pair_chunk, _rows(L, train_full)
            results = run_chunks(kernel, ids, train_full, rows, 2)

        # Each kept pair's full and reduced loss, by pair id; the epoch's
        # total is their exactly rounded sum, whatever the chunks were.
        losses = np.zeros((2, n_pairs))
        for cols, (rss_f, _, grads, ok, _, _) in results:
            ok &= ok_y[y_at[cols]]
            active[cols[~ok]] = False
            good = cols[ok]
            if good.size == 0:
                continue
            if train_full:
                losses[0, good] = rss_f[ok]
                step(full, full_adam, good, grads[:, ok], t)
            if train_reduced:
                losses[1, good] = rss_y[y_at[good]]
        for k in ids[~active[ids]]:  # once per pass, by pair id
            logger.warning("pair %d went non-finite; excluded from results", k)
        epoch_loss = math.fsum(memoryview(losses.ravel()))  # floats one by one, no list
        results = kernel = d_y = grads_y = losses = None  # this epoch's arrays go first
        logger.debug("epoch %d: loss %r", t, epoch_loss)

        if prev_loss is not None and prev_loss > 0 and n_pairs > 0:
            rel = abs(epoch_loss - prev_loss) / prev_loss
            if rel < config.convergence_numerator / n_pairs:
                logger.info("converged after %d epochs (relative change %.3g)", epoch + 1, rel)
                break
        prev_loss = epoch_loss
    else:
        logger.info("stopped after %d epochs (max_epochs)", config.max_epochs)

    # Final evaluation over all surviving pairs, fixed chunking again. Each
    # chunk's per-node losses are reduced to the statistics scoring needs,
    # once per y for the reduced bank; a statistic that overflows drops its
    # model as a non-finite loss does. While every full column holds the
    # shared encoders the pairs need no encoder pass: enc(y) is kept from the
    # bank pass and each x is encoded once.
    ids = np.flatnonzero(active)
    shared = holds_shared_encoders(ids)
    enc = np.empty((ops.n, lagged.shape[1])) if shared else None  # columns as in lagged
    stats_reduced = np.full((3, n_y), np.nan)
    for cols, (_, per_node, _, ok, enc_y, _) in run_chunks(
            bank_chunk, np.unique(y_at[ids]), False, _rows(L, False)):
        stats = _loss_stats(per_node)
        ok &= np.isfinite(stats).all(axis=0)
        stats_reduced[:, cols[ok]] = stats[:, ok]
        if shared:
            enc[:, cols] = enc_y
    if shared:
        encode_x_at_start(enc[:, n_y:])
        kernel, rows = stored_chunk([enc], y_at, n_y + x_at), 0
    else:
        kernel, rows = pair_chunk, _rows(L, False)
    stats_full = np.full((3, n_pairs), np.nan)
    for cols, (_, per_node, _, ok, _, _) in run_chunks(kernel, ids, False, rows, 2):
        stats = _loss_stats(per_node)
        ok &= np.isfinite(stats).all(axis=0) & ~np.isnan(stats_reduced[0, y_at[cols]])
        active[cols[~ok]] = False
        stats_full[:, cols[ok]] = stats[:, ok]
    for k in ids[~active[ids]]:
        logger.warning("pair %d non-finite at final evaluation; excluded", k)
    return TrainResult(
        pair_ids=np.flatnonzero(active), y_index=y_at, full=full, reduced=reduced,
        rss_full=stats_full[0], mean_full=stats_full[1], var_full=stats_full[2],
        rss_reduced=stats_reduced[0], mean_reduced=stats_reduced[1],
        var_reduced=stats_reduced[2])
