"""Fitting the full and reduced models of every candidate pair.

A pair's full model is a (4L+1,) column [w_y, b_y, w_x, b_x, c] and its
reduced model a (2L,) column [w_y, b_y] (``model``), so the total objective
(the sum of full and reduced squared-error losses over all pairs) decomposes
per pair and per model. The reduced model sees only y's own history, so it
depends on y and not on x: ``train_all`` keeps one reduced column per y
variable (the reduced bank) and one full column per pair (the full bank).
Every epoch the reduced bank takes one Adam step per y, then the pairs are
evaluated in chunks, in pair-id order or tile by tile, as one batched
forward/backward of the full model over shared sparse operators, and each
pair takes one Adam step on its own gradient. No parameter is shared between
pairs, so the protocol's minibatch of 1,024 pairs has nothing to act on and
the pairs are not shuffled; ``_CHUNK`` bounds a pass's memory. The pairs of one y start from
one draw and take the same steps on the same gradients, so the bank gives
each pair the bits that a copy of its own would have. Gradients are exact
reverse accumulation through the tanh layers: tanh' = 1 - h^2, and the
adjoint of each M.T product is the corresponding non-transposed M product.

Three passes run the encoders per variable while every pair still holds the
shared encoders: its y-encoder is its y's reduced model and its x-encoder the
start's, compared bit for bit. A pair's enc(y) is then its y's from the bank
pass and its enc(x) one encoding of its x. Epoch 1 starts there: every full
column starts from one Glorot draw with c = 0 and the reduced model's
y-encoder, so the full model is the reduced one, a pair's loss, y-encoder
gradient and d(loss)/d(y_hat) are its y's, its x-encoder gradient is 0, and
its c gradient sum(d * enc(x)) is the only sum of its own. Epoch 2 starts
there when both banks trained in epoch 1, and the final evaluation after 0
epochs, or 1 when both banks train: their pair chunks gather the encodings
(and, in epoch 2, each layer's input for the backward pass) and run the
kernel's own end on them, ``_loss_and_gradients``, as a per-pair chunk does
once its encoders have run. So every bit is the same. The three share one
loop (``shared_pass``) over tiles of one bank of y by one block of the x
their pairs use, whose per-variable arrays live in a store at the start of
the workspace, one tile at a time; as many variables as fit, a third of them
x. Any other epoch, and the final evaluation after it, runs the kernel per
pair; ``run_pass`` chooses the pass.

The kernel does each sparse product once. A chunk gathers its y columns
and, for the full model, its x columns beside them into a workspace row and
computes layer 1's product ``a.T @ [y | x]`` from it; each product column
has the bits of its variable's own product. From there ``_encode`` runs
the encoders, y's columns then x's in one batch for the full model; it
keeps each later layer's input ``M.T h``, and the backward pass recomputes
the layer output from it rather than repeating the product.

A chunk allocates no (n, ·) array: each of its arrays is a row, or part of
a row, of one workspace that ``train_all`` makes once, placed by
``_layout``, and the sparse products write into it. A segment per worker
fits the per-pair kernel with gradients on ``_CHUNK`` = 32 pairs and a
chunk of ``_WIDE_CHUNK`` = 64 pairs that runs no encoder; a shared pass
takes the workspace from its start, which grows past the segments only
where a tile of ``_CHUNK`` y by ``_X_BLOCK`` x needs it. So the memory
bound is the workspace, whose size depends on the variable counts only up
to one tile.

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

from .errors import ConfigError, DataError
from .graph import LaggedOperators, apply_batch
from .model import (
    LINKS,
    _layer_op,
    apply_link,
    encode_history_batch,
    layer_output,
    strict_lag,
)

__all__ = [
    "TrainConfig",
    "Dataset",
    "AdamState",
    "TrainResult",
    "glorot_init",
    "adam_step",
    "train_all",
]

logger = logging.getLogger(__name__)

# Columns in flight at once, split among the workers. Neither worker count
# nor chunk width changes any floating-point result, only scheduling and
# memory. A chunk of m pairs keeps the inputs of layers 1..L of both
# encoders, 2L * n * m floats: 41 MB at m = 32, n = 8,000 and L = 10. A
# chunk that runs no encoder keeps none and is wider, which halves
# the per-chunk overhead. An epoch from per-variable layer inputs holds
# those of a tile of at least ``_CHUNK`` y by ``_X_BLOCK`` x, which at
# L = 10 fits with its pair chunks in the workspace of the per-pair epochs.
_CHUNK = 32
_WIDE_CHUNK = 64
_X_BLOCK = 16
_MAX_WORKERS = _CHUNK  # beyond it every chunk is one pair wide

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
    The matrices are kept C-ordered (copied only if they are not), so that
    ``np.take`` gathers a chunk's columns from them without a copy.
    """

    x_values: np.ndarray
    y_values: np.ndarray
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]
    pairs: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(self.x_values, dtype=np.float64)
        y = np.ascontiguousarray(self.y_values, dtype=np.float64)
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


def _loss_stats(per_node: np.ndarray, rows=None) -> np.ndarray:
    """(sum, mean, var(ddof=1)) rows, (3, m), of an (n, m) array of per-node losses.

    Each column is copied to a contiguous row of ``rows`` (a C-ordered
    buffer of n * m floats, made when None) and summed once; its mean is
    sum / n, and its variance the sum of its squared deviations from that
    mean over n - 1. These are the operations of numpy's 1-D ``mean`` and
    ``var(ddof=1)`` of that column alone, so they give its bits; reducing
    ``per_node`` over axis 0 would not. A variance that overflows is inf,
    without a numpy warning.
    """
    n, m = per_node.shape
    rows = np.empty((m, n)) if rows is None else rows.reshape(m, n)
    np.copyto(rows, per_node.T)
    with np.errstate(invalid="ignore", over="ignore"):
        sums = rows.sum(axis=1)
        means = sums / n
        np.subtract(rows, means[:, None], out=rows)
        np.multiply(rows, rows, out=rows)
        return np.stack([sums, means, rows.sum(axis=1) / (n - 1)])


def _workspace(size: int) -> np.ndarray:
    """A flat buffer of ``size`` floats, laid out by ``_layout``."""
    return np.empty(size)


def _buffers(workspace: np.ndarray, n: int, k: int, count: int, start: int = 0):
    """``count`` consecutive (n, k) C-ordered arrays of a flat workspace, from float ``start``."""
    return [workspace[start + i * n * k : start + (i + 1) * n * k].reshape(n, k)
            for i in range(count)]


def _n_inputs(L: int, keep: bool) -> int:
    """Layer-input rows of an encoder pass: all L kept, else layer 1's and each later one in turn."""
    return L if keep else min(L, 2)


def _layout(workspace, n: int, k: int, m: int, n_in: int, want_grads: bool):
    """Where a kernel call on k encoder columns and m outputs keeps its arrays.

    Returns (inputs, acc, (dh, dz, g), temps), views of the flat
    ``workspace``, or with ``workspace`` None the floats they take. Rows of
    n * k floats follow each other: the ``n_in`` layer inputs, the
    encodings ``acc``, dz (each layer output in the forward pass) and with
    ``want_grads`` g. ``temps`` are the three (n, m) arrays of
    ``_loss_and_gradients``, one after the other from the end of ``acc``;
    the backward pass overwrites those in the dz and g rows. With
    ``want_grads``, dh / L of the backward pass is ``acc`` for the full
    model (k = 2m), whose encodings are spent once dh is formed; for the
    reduced model it is a last row past the temporaries, so that the third
    of them, d, and the encodings outlive the call. dh and g are None
    without ``want_grads``.
    """
    acc_end = (n_in + 1) * n * k
    own_dh = want_grads and k != 2 * m
    if workspace is None:
        return acc_end + (3 * n * m + n * k if own_dh
                          else max((1 + int(want_grads)) * n * k, 3 * n * m))
    rows = _buffers(workspace, n, k, n_in + 2 + int(want_grads))
    temps = _buffers(workspace, n, m, 3, acc_end)
    dh = None
    if want_grads:
        dh = _buffers(workspace, n, k, 1, acc_end + 3 * n * m)[0] if own_dh else rows[n_in]
    return (rows[:n_in], rows[n_in],
            (dh, rows[n_in + 1], rows[n_in + 2] if want_grads else None), temps)


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
    The three ``buffers`` (dh / L, dz, g) are written instead of new
    arrays; ``dh`` may be the first of them. dz holds tanh' = 1 - h^2
    before it becomes dz, and dz * u goes into g's row before the product
    overwrites it.
    """
    L = w.shape[0]
    dw = np.empty_like(w)
    db = np.empty_like(w)
    dh_mean, dz, g_out = buffers
    np.divide(dh, L, out=dh_mean)
    g = dh_mean
    for ell in range(L, 0, -1):
        u = inputs(ell - 1)
        h = layer_output(u, w[ell - 1], b[ell - 1], out=dz)
        np.multiply(h, h, out=dz)
        np.subtract(1.0, dz, out=dz)
        np.multiply(g, dz, out=dz)
        dw[ell - 1] = _column_sums(np.multiply(dz, u, out=g_out))
        db[ell - 1] = _column_sums(dz)
        if ell > 1:
            np.multiply(dz, w[ell - 1][None, :], out=dz)
            g = apply_batch(_layer_op(ops, ell, lag_hops), dz, out=g_out)
            np.add(dh_mean, g, out=g)
    return dw, db


def _loss_and_gradients(h, Y, theta, inputs, ops, lag_hops, link, backward, temps):
    """The kernel from a chunk's encodings on: (rss, per_node, grads, ok) of m columns.

    ``h`` is enc(y), (n, m), for the reduced model with its (2L, m)
    ``theta``, or enc(y) then enc(x), (n, 2m), for the full model with its
    (4L+1, m) ``theta``: y_hat = link(enc(y)) or link(enc(y) + c * enc(x)).
    ``temps`` are three (n, m) arrays for the per-node losses, y_hat (unless
    it is enc(y)) and the residual, which may be Y. With ``inputs`` (those of
    ``_encoder_backward_batch``, which takes the three ``backward`` buffers)
    the backward pass runs: grads has ``theta``'s shape, d = d(loss)/d(y_hat)
    overwrites the residual and the full model's d * enc(x) y_hat, and
    per_node is None; without, grads is None. ok flags columns whose loss
    (non-finite with any y_hat) and grads are finite; numpy's floating-point
    warnings are silenced for the others.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        m = Y.shape[1]
        full = h.shape[1] == 2 * m
        losses, s, res = temps  # Y may be res
        if full:
            np.multiply(theta[-1][None, :], h[:, m:], out=s)
            np.add(h[:, :m], s, out=s)
        else:
            s = h
        yhat = apply_link(s, link, out=temps[1])
        np.subtract(yhat, Y, out=res)
        per_node = np.multiply(res, res, out=losses)
        rss = _column_sums(per_node)
        ok = np.isfinite(rss)
        if inputs is None:
            return rss, per_node, None, ok
        w, b, L = _encoder_params(theta, full)
        grads = np.empty_like(theta)
        d = np.multiply(2.0, res, out=res)
        if link == "exponential":
            np.multiply(d, yhat, out=d)
        dh = d
        if full:
            grads[-1] = _column_sums(np.multiply(d, h[:, m:], out=yhat))
            dh = backward[0]
            dh[:, :m] = d
            np.multiply(theta[-1][None, :], d, out=dh[:, m:])
        dw, db = _encoder_backward_batch(dh, inputs, ops, w, b, lag_hops, backward)
        grads[:L], grads[L : 2 * L] = dw[:, :m], db[:, :m]
        if full:
            grads[2 * L : 3 * L], grads[3 * L : 4 * L] = dw[:, m:], db[:, m:]
        ok &= np.isfinite(grads).all(axis=0)
    return rss, None, grads, ok


def _encode(lagged, theta, ops, lag_hops, keep, layout):
    """``encode_history_batch`` of ``lagged`` (lagged=True) in the rows of a ``_layout``.

    ``lagged`` is (n, 2m), y's columns then x's, for the full model's
    (4L+1, m) ``theta``, else (n, m) for one encoder's [w, b] per column,
    (2L, m). The encodings go into ``acc``, each layer output into dz and
    the later layer inputs into the layer-input rows.
    """
    inputs, acc, (_, dz, _), _ = layout
    w, b, _ = _encoder_params(theta, lagged.shape[1] == 2 * theta.shape[1])
    with np.errstate(invalid="ignore", over="ignore"):
        return encode_history_batch(lagged, ops, w, b, lag_hops, keep, lagged=True,
                                    buffers=[dz, *inputs[1:]], out=acc)


def _chunk_forward_backward(lagged, Y, theta, ops, lag_hops, link, want_grads, workspace=None):
    """Losses (and optionally gradients) of one model for a chunk of m columns.

    ``lagged`` is ``strict_lag`` of the encoders' columns and Y the chunk's
    y columns, (n, m). With ``lagged`` (n, 2m), y's columns then x's, the
    model is the full one and ``theta`` (4L+1, m), one full column per
    pair; with ``lagged`` (n, m) it is the reduced one and ``theta`` (2L, m),
    one reduced column per y. ``_encode`` runs the encoders as one batch,
    and ``_loss_and_gradients`` turns their encodings into (rss, per_node,
    grads, ok). Every (n, ·) array of the call is in ``workspace``
    (``_layout``, made for this call when None): ``lagged`` may be its first
    layer input and Y its last temporary, and per_node is its view.
    """
    n, m = Y.shape
    k = lagged.shape[1]
    L = theta.shape[0] // (4 if k == 2 * m else 2)  # of 4L+1 or 2L rows
    shape = n, k, m, _n_inputs(L, want_grads), want_grads
    if workspace is None:
        workspace = _workspace(_layout(None, *shape))
    layout = _layout(workspace, *shape)
    h, kept = _encode(lagged, theta, ops, lag_hops, want_grads, layout)
    return _loss_and_gradients(h, Y, theta, kept.__getitem__ if want_grads else None, ops,
                               lag_hops, link, *layout[2:])


# --- batched training ---------------------------------------------------------


def train_all(
    dataset: Dataset,
    ops: LaggedOperators,
    config: TrainConfig,
    workers: int = 1,
    component: str = "both",
) -> TrainResult:
    """Fit every candidate pair; return both parameter banks and each model's loss statistics.

    Every pass runs the pairs unshuffled, in chunks of at most ``_CHUNK``
    pairs (``_WIDE_CHUNK`` without an encoder) that bound its memory; every
    pair takes one Adam step per epoch. The seed draws only the shared
    Glorot start. Training stops after ``max_epochs`` epochs or when the
    relative change of the epoch-total loss (each pair's full and reduced
    loss) drops below ``convergence_numerator / n_pairs``. ``component``
    restricts which model's parameters are updated ("both", "full",
    "reduced"); because the models share no parameters the restricted runs
    reproduce the joint run exactly. A pair whose full model goes
    non-finite, or whose y's reduced model does, is dropped from the
    results with a logged diagnostic (once per pass, in pair-id order). The
    final evaluation returns no per-node losses, only their sum, mean and
    variance: per pair for the full model and per y for the reduced one
    (``TrainResult``).
    """
    if component not in ("both", "full", "reduced"):
        raise ConfigError(f"component must be both/full/reduced, got {component!r}")
    if not 1 <= workers <= _MAX_WORKERS:
        raise ConfigError(f"workers must be in [1, {_MAX_WORKERS}], got {workers}")
    if dataset.n_nodes != ops.n:
        raise DataError("dataset and operators disagree on the node count")

    n_pairs = len(dataset.pairs)
    n, L = ops.n, config.n_layers
    train_full = component in ("both", "full")
    train_reduced = component in ("both", "reduced")
    x_cols, y_cols = dataset.pairs[:, 0], dataset.pairs[:, 1]
    active = np.ones(n_pairs, dtype=bool)
    y_used, y_at = np.unique(y_cols, return_inverse=True)
    n_y = y_used.size
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

    # One workspace holds every (n, ·) array of every pass, one segment per
    # worker. A segment fits the per-pair kernel with gradients on ``width``
    # pairs and a chunk of ``wide`` pairs that runs no encoder, and with them
    # every other chunk (``_layout`` states their sizes). A pass from the
    # shared encoders (``shared_pass``) takes the workspace from its start:
    # the store of its tile, then its bank passes of ``half`` y and x passes
    # of ``_X_BLOCK`` x or the pair chunks of every worker. The workspace
    # fits a tile of at least ``_CHUNK`` y by ``_X_BLOCK`` x in each pass.
    width = max(1, _CHUNK // workers)
    wide = max(1, _WIDE_CHUNK // workers)
    half = max(1, _CHUNK // 2)
    n_x = np.unique(x_cols).size
    bank_width, x_width = min(half, n_y), min(_X_BLOCK, n_x)
    segment = max(_layout(None, n, 2 * width, width, L, True),
                  _layout(None, n, 2 * wide, wide, 0, False))

    def past_store(stored):
        """Floats a tile's bank and x passes or its pair chunks need after its store."""
        pairs = (_layout(None, n, 2 * width, width, 1, True) if stored
                 else _layout(None, n, 2 * wide, wide, 0, False))
        return max(_layout(None, n, bank_width, bank_width, L, True),
                   _layout(None, n, x_width, x_width, L, False), workers * pairs)

    least = min(_CHUNK, n_y) + x_width
    arena = _workspace(max(workers * segment, (L + 1) * n * least + past_store(True),
                           n * least + past_store(False)))
    segments = [arena[i * segment : (i + 1) * segment] for i in range(workers)]

    def take(values, cols, out):
        """Columns ``cols`` of ``values`` written into ``out``, (n, cols.size) C-ordered.

        The indices are valid, so ``mode="clip"`` changes nothing but lets
        ``np.take`` write straight into ``out`` instead of through a copy.
        """
        return np.take(values, cols, axis=1, out=out, mode="clip")

    def kernel_chunk(ys, xs, theta, want_grads, workspace):
        """The kernel on y matrix columns ``ys`` and, for the full model, x matrix columns ``xs``.

        Y goes into the residual's array and, for the full model, the x
        columns into the per-node losses', from which y's then x's are
        copied side by side into the encodings' row; layer 1's product of
        Y or of that row, the kernel's first layer input, has the bits of
        each column's own product. Without gradients the per-node losses
        come back as their ``_loss_stats``, made in y_hat's array.
        """
        m = ys.size
        inputs, acc, _, temps = _layout(workspace, n, m if xs is None else 2 * m, m,
                                        _n_inputs(L, want_grads), want_grads)
        Y = take(dataset.y_values, ys, temps[2])
        values = Y if xs is None else np.concatenate(
            (Y, take(dataset.x_values, xs, temps[0])), axis=1, out=acc)
        rss, per_node, grads, ok = _chunk_forward_backward(
            strict_lag(values, ops, out=inputs[0]), Y, theta, ops, config.lag_hops,
            config.link, want_grads, workspace)
        if not want_grads:
            per_node = _loss_stats(per_node, temps[1])
        return rss, per_node, grads, ok

    def pair_chunk(cols, want_grads, workspace):
        return kernel_chunk(y_cols[cols], x_cols[cols], np.take(full, cols, axis=1), want_grads,
                            workspace)

    def bank_chunk(cols, want_grads, workspace):
        return kernel_chunk(y_used[cols], None, np.take(reduced, cols, axis=1), want_grads,
                            workspace)

    def run_chunks(kernel, ids, want_grads, wide_chunks=False, spaces=segments):
        """(cols, kernel result) for each fixed-size chunk of ``ids``, in order.

        Chunks of ``_CHUNK`` ids (``_WIDE_CHUNK`` with ``wide_chunks``) run
        lazily as the caller consumes them; chunk i runs in ``spaces[i %
        workers]``, and its result may be views of it until the caller asks
        for the next chunk. One worker runs the chunks one at a time; a pool
        of ``workers`` threads keeps at most ``workers`` chunks, each
        ``workers`` times narrower, running or held by the caller, so a
        chunk starts only when the one before it in its space is done with.
        """
        size = wide if wide_chunks else width
        chunks = [ids[i : i + size] for i in range(0, ids.size, size)]

        def task(i):
            return chunks[i], kernel(chunks[i], want_grads, spaces[i % workers])

        if workers <= 1 or len(chunks) <= 1:
            yield from map(task, range(len(chunks)))
            return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for i in range(len(chunks)):
                if len(pending) == workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(task, i))
            while pending:
                yield pending.popleft().result()

    def step(params, state, cols, grads, t):
        new_p, new_s = adam_step(
            params[:, cols], grads, AdamState(m=state.m[:, cols], v=state.v[:, cols]), t,
            config.learning_rate)
        params[:, cols] = new_p
        state.m[:, cols] = new_s.m
        state.v[:, cols] = new_s.v

    def encode_x(cols, workspace, keep):
        """(enc(x), layer inputs) of x matrix columns ``cols`` under the shared start's x-encoder.

        Every full column starts from the x-encoder of ``init_full`` and
        keeps it while its x-encoder gradient is 0, so while it holds that
        encoder each x needs one encoding, whichever pairs use it. It runs in
        ``workspace`` as a kernel's forward pass (``_encode``), from layer
        1's product of the x columns, which the first layer input holds
        after the call; the inputs of all L layers are kept with ``keep``
        only.
        """
        inputs, acc, _, _ = layout = _layout(workspace, n, cols.size, cols.size,
                                             _n_inputs(L, keep), False)
        lagged = strict_lag(take(dataset.x_values, cols, acc), ops, out=inputs[0])
        theta = np.repeat(init_full[2 * L : 4 * L, None], cols.size, axis=1)
        return _encode(lagged, theta, ops, config.lag_hops, keep, layout)[0], inputs

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

    def shared_pass(ids, kind, on_bank):
        """(cols, kernel result) of each pair chunk of a pass from the shared encoders.

        ``kind`` is the pass (see the module docstring): "start" (epoch 1,
        ``start_chunk``), "stored" (a later epoch, ``stored_chunk`` with
        gradients) or "final" (the final evaluation, ``stored_chunk``
        without). It runs one tile at a time: a bank of the y of ``ids`` by
        a block of the x their pairs use, as many as the store at the start
        of the workspace fits, a third of them x unless the y run out first.
        The store holds one (n, ·) array per row kept, y's columns and then
        x's: d of each y and enc(x) in epoch 1, the L layer inputs and the
        encodings in a later epoch, the encodings in the final evaluation.
        Bank passes of ``half`` y and x passes of ``_X_BLOCK`` x fill it
        from their rows, each bank pass's result going to ``on_bank``
        first, and the tile's pairs run in chunks in the workspace after it.
        """
        stored = kind == "stored"
        rows = L + 1 if stored else 1
        room = (arena.size - past_store(stored)) // max(1, rows * n)  # columns of the store
        banked = min(n_y, room - min(n_x, room // 3))
        blocked = min(n_x, room - banked)
        store = _buffers(arena, n, banked + blocked, rows)
        rest = arena[rows * n * (banked + blocked) :]
        share = rest.size // workers
        spaces = [rest[i * share : (i + 1) * share] for i in range(workers)]
        slot = np.empty((2, n_pairs), np.intp)  # store columns of each pair's y and x
        rss_bank, grads_bank = np.empty(banked), np.empty((2 * L, banked))
        ok_block = np.empty(blocked, dtype=bool)

        def keep(start, arrays):
            """Copy (n, m) ``arrays`` to the last rows of the store, from column ``start``."""
            at = slice(start, start + arrays[0].shape[1])
            for row, array in zip(store[rows - len(arrays) :], arrays):
                row[:, at] = array

        def start_chunk(cols, want_grads, workspace):
            """Epoch 1's pair kernel, built from per-variable work.

            A pair's loss, y-encoder gradient and d(loss)/d(y_hat) are its
            y's from the bank pass. Its x-encoder gradient, c times finite
            sums in the kernel, is +-0 there and 0 here, which give Adam the
            same parameters and moments; its c gradient is sum(d * enc(x)).
            ``ok`` is the kernel's: a finite enc(x) and, with gradients, a
            finite layer-1 product of x (else 0 * inf in the x backward) and
            c gradient; a finite y is ``on_bank``'s.
            """
            y_slot, x_slot = slot[:, cols]
            ok = ok_block[x_slot - banked]
            grads = None
            if want_grads:
                d, h = _buffers(workspace, n, cols.size, 2)
                grads = np.zeros((4 * L + 1, cols.size))
                grads[: 2 * L] = grads_bank[:, y_slot]
                with np.errstate(invalid="ignore", over="ignore"):
                    grads[4 * L] = _column_sums(np.multiply(
                        take(store[0], y_slot, d), take(store[0], x_slot, h), out=d))
                ok &= np.isfinite(grads[4 * L])
            return rss_bank[y_slot], None, grads, ok

        def stored_chunk(cols, want_grads, workspace):
            """The pair kernel from the tile's encodings and, with gradients, its layer inputs.

            A chunk gathers its encodings, y's columns then x's as in the
            kernel, into its ``acc`` row and runs the kernel from there
            (``_loss_and_gradients``); the backward pass gathers each
            layer's input into its one layer-input row when it reaches it.
            Without gradients the losses come back as their ``_loss_stats``.
            """
            m = cols.size
            at = slot[:, cols].ravel()
            inputs, acc, backward, temps = _layout(workspace, n, 2 * m, m, int(want_grads),
                                                   want_grads)
            rss, per_node, grads, ok = _loss_and_gradients(
                take(store[-1], at, acc), take(dataset.y_values, y_cols[cols], temps[2]),
                np.take(full, cols, axis=1),
                (lambda i: take(store[i], at, inputs[0])) if want_grads else None, ops,
                config.lag_hops, config.link, backward, temps)
            if not want_grads:
                per_node = _loss_stats(per_node, temps[1])
            return rss, per_node, grads, ok

        if ids.size == 0:
            return
        kernel = start_chunk if kind == "start" else stored_chunk
        bank_grads = kind != "final"
        ys = np.unique(y_at[ids])
        y_pos = np.searchsorted(ys, y_at[ids])
        for c0 in range(0, ys.size, banked):
            bank = ys[c0 : c0 + banked]
            for p0 in range(0, bank.size, half):
                cols = bank[p0 : p0 + half]
                rss, _, grads, _ = result = bank_chunk(cols, bank_grads, rest)
                on_bank(cols, result)
                # the chunk's layer inputs, encodings and d stay in its layout
                inputs, enc, _, (_, _, d) = _layout(rest, n, cols.size, cols.size,
                                                    _n_inputs(L, bank_grads), bank_grads)
                keep(p0, [*inputs, enc] if stored else [d if kind == "start" else enc])
                if kind == "start":
                    rss_bank[p0 : p0 + cols.size], grads_bank[:, p0 : p0 + cols.size] = rss, grads
            in_bank = (y_pos >= c0) & (y_pos < c0 + bank.size)
            mine = ids[in_bank]
            slot[0, mine] = y_pos[in_bank] - c0
            xs = np.unique(x_cols[mine])
            x_pos = np.searchsorted(xs, x_cols[mine])
            for b0 in range(0, xs.size, blocked):
                block = xs[b0 : b0 + blocked]
                for q0 in range(0, block.size, _X_BLOCK):
                    cols = block[q0 : q0 + _X_BLOCK]
                    enc, inputs = encode_x(cols, rest, stored)
                    keep(banked + q0, [*inputs, enc] if stored else [enc])
                    if kind == "start":
                        ok = ok_block[q0 : q0 + cols.size]
                        np.isfinite(enc).all(axis=0, out=ok)
                        if train_full:
                            ok &= np.isfinite(inputs[0]).all(axis=0)
                in_block = (x_pos >= b0) & (x_pos < b0 + block.size)
                pairs = mine[in_block]
                slot[1, pairs] = banked + x_pos[in_block] - b0
                yield from run_chunks(kernel, pairs, train_full and kind != "final",
                                      wide_chunks=not stored, spaces=spaces)

    def run_pass(ids, epoch, on_bank):
        """(cols, kernel result) of each pair chunk of 0-based ``epoch`` or the final evaluation.

        The final evaluation (``epoch`` None) trains nothing. Each bank
        chunk's result goes to ``on_bank`` before the pairs of its y.
        """
        if epoch == 0 or holds_shared_encoders(ids):
            kind = "start" if epoch == 0 else "final" if epoch is None else "stored"
            yield from shared_pass(ids, kind, on_bank)
            return
        trains = epoch is not None
        for cols, result in run_chunks(bank_chunk, np.unique(y_at[ids]), trains and train_reduced):
            on_bank(cols, result)
        yield from run_chunks(pair_chunk, ids, trains and train_full)

    prev_loss = None
    for epoch in range(config.max_epochs):
        t = epoch + 1
        ids = np.flatnonzero(active)
        # The reduced bank first, over the y of the active pairs. Each pair's
        # reduced loss is its y's loss before this step, as if it trained its
        # own copy; a y that goes non-finite drops every pair of it below.
        rss_y = np.zeros(n_y)
        ok_y = np.zeros(n_y, dtype=bool)

        def train_bank(cols, result):
            rss, _, grads, ok = result
            rss_y[cols], ok_y[cols] = rss, ok
            if train_reduced and ok.any():
                step(reduced, reduced_adam, cols[ok], grads[:, ok], t)

        results = run_pass(ids, epoch, train_bank)
        # Each kept pair's full and reduced loss, by pair id; the epoch's
        # total is their exactly rounded sum, whatever the chunks were.
        losses = np.zeros((2, n_pairs))
        for cols, (rss_f, _, grads, ok) in results:
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
        results = losses = None  # this epoch's arrays go first
        logger.debug("epoch %d: loss %r", t, epoch_loss)

        if prev_loss is not None and prev_loss > 0 and n_pairs > 0:
            rel = (epoch_loss - prev_loss) / prev_loss
            if abs(rel) < config.convergence_numerator / n_pairs:
                logger.info("converged after %d epochs (relative change %+.3g)", epoch + 1, rel)
                break
        prev_loss = epoch_loss
    else:
        logger.info("stopped after %d epochs (max_epochs)", config.max_epochs)

    # Final evaluation over all surviving pairs. Each chunk's per-node
    # losses are reduced to the statistics scoring needs, once per y for the
    # reduced bank; a statistic that overflows drops its model as a
    # non-finite loss does.
    ids = np.flatnonzero(active)
    stats_reduced = np.full((3, n_y), np.nan)

    def evaluate_bank(cols, result):
        stats, ok = result[1], result[3]
        ok &= np.isfinite(stats).all(axis=0)
        stats_reduced[:, cols[ok]] = stats[:, ok]

    results = run_pass(ids, None, evaluate_bank)
    stats_full = np.full((3, n_pairs), np.nan)
    for cols, (_, stats, _, ok) in results:
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
