"""Fitting the full and reduced models of every candidate pair.

A pair's full model is a (4L+1,) column [w_y, b_y, w_x, b_x, c] and its
reduced model a (2L,) column [w_y, b_y] (``model``), so the total objective
(the sum of full and reduced squared-error losses over all pairs) decomposes
per pair and per model. The reduced model sees only y's own history, so it
depends on y and not on x: ``train_all`` keeps one reduced column per y
variable (the reduced bank) and one full column per pair (the full bank).
Every epoch the reduced bank takes one Adam step per y, then the pairs,
shuffled into minibatches (seeded), are evaluated in chunks as one batched
forward/backward of the full model over shared sparse operators, and each pair
takes one Adam step on its own gradient. The pairs of one y start from one
draw and take the same steps on the same gradients, so the bank gives each
pair the bits that a copy of its own would have. Gradients are exact reverse
accumulation through the tanh layers: tanh' = 1 - h^2, and the adjoint of each
M.T product is the corresponding non-transposed M product.

The kernel does each sparse product once. Layer 1's product ``a.T @ v`` does
not depend on the parameters, so ``train_all`` computes it once per variable
and gathers it per chunk; the forward pass keeps each later layer's input
``M.T h`` and the backward pass recomputes the layer output from it rather
than repeating the product.

Numerics are independent of minibatch size and worker count: batches are
processed in fixed-size column chunks, every operation in the kernel treats
each column on its own, and every sum over nodes adds rows in sequence at any
chunk width (``_column_sums``), so a column's bits do not depend on which
columns share its chunk and a thread pool over chunks changes wall time only.
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
from .graph import LaggedOperators
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

# Columns in flight at once, split among the workers. Neither minibatch size
# nor worker count changes any floating-point result, only scheduling. At 64
# columns an (n, m) block of 2,000 nodes is 1 MB and fits a core's L2 cache.
_CHUNK = 64

_GLOROT_BOUND = math.sqrt(3.0)  # sqrt(6 / (fan_in + fan_out)) with both fans 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 20
    minibatch_pairs: int = 1024
    n_layers: int = 10
    lag_hops: int = 1
    convergence_numerator: float = 0.1
    seed: int = 0
    link: str = "identity"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.minibatch_pairs < 1:
            raise ConfigError("minibatch_pairs must be >= 1")
        if not 1 <= self.lag_hops <= self.n_layers:
            raise ConfigError("lag_hops must be in [1, n_layers]")
        if self.link not in LINKS:
            raise ConfigError(f"link must be one of {LINKS}")


@dataclass(frozen=True)
class Dataset:
    """Node-by-variable observations plus the candidate pair set.

    ``pairs[k] = (xi, yi)`` means column xi of x_values putatively drives
    column yi of y_values; k is the pair id used everywhere downstream.
    """

    x_values: np.ndarray
    y_values: np.ndarray
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        x = np.asarray(self.x_values, dtype=np.float64)
        y = np.asarray(self.y_values, dtype=np.float64)
        object.__setattr__(self, "x_values", x)
        object.__setattr__(self, "y_values", y)
        object.__setattr__(self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs))
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise DataError("x and y matrices must be 2-D with equal node counts")
        if len(self.x_names) != x.shape[1] or len(self.y_names) != y.shape[1]:
            raise DataError("variable name counts must match matrix widths")
        for xi, yi in self.pairs:
            if not (0 <= xi < x.shape[1] and 0 <= yi < y.shape[1]):
                raise DataError(f"pair ({xi}, {yi}) references a missing column")

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


def _loss_stats(per_node: np.ndarray):
    """(sum, mean, var(ddof=1)) of each column of an (n, m) array of per-node losses.

    Each column is reduced as one contiguous row, which gives the bits of
    the 1-D ``sum``, ``mean`` and ``var`` of that column alone; reducing
    ``per_node`` over axis 0 would not.
    """
    rows = np.ascontiguousarray(per_node.T)
    return rows.sum(axis=1), rows.mean(axis=1), rows.var(axis=1, ddof=1)


def _encoder_backward_batch(dh, inputs, ops, w, b, lag_hops):
    """Reverse pass of a batch of encoders given d(loss)/d(h_tilde), all (n, m).

    ``inputs`` are the layer inputs u = M.T h_prev kept by the forward pass;
    each layer output is recomputed from them as tanh(w * u + b), so no
    sparse product is repeated. Every layer output feeds both the mean
    (weight 1/L) and the next layer; the adjoint of z = w * u + b sends
    M @ (w * dz) back to h.
    """
    L = w.shape[0]
    dw = np.empty_like(w)
    db = np.empty_like(w)
    dh_mean = dh / L
    g = dh_mean
    dz = np.empty_like(dh)
    t = np.empty_like(dh)
    for ell in range(L, 0, -1):
        u = inputs[ell - 1]
        h = layer_output(u, w[ell - 1], b[ell - 1], out=t)
        np.multiply(h, h, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(g, t, out=dz)
        dw[ell - 1] = _column_sums(np.multiply(dz, u, out=t))
        db[ell - 1] = _column_sums(dz)
        if ell > 1:
            np.multiply(dz, w[ell - 1][None, :], out=dz)
            g = _layer_op(ops, ell, lag_hops) @ dz
            np.add(dh_mean, g, out=g)
    return dw, db


def _chunk_forward_backward(lagged_x, lagged_y, Y, theta, ops, lag_hops, link, want_grads):
    """Losses (and optionally gradients) of one model for a chunk of m columns.

    With ``lagged_x`` the model is the full one, link(enc(y) + c * enc(x)),
    and ``theta`` is (4L+1, m), one full column per pair. With ``lagged_x``
    None it is the reduced one, link(enc(y)), and ``theta`` is (2L, m), one
    reduced column per y. ``lagged_x`` and ``lagged_y`` are ``strict_lag`` of
    the chunk's x and y columns, Y the y columns themselves, all (n, m).
    Returns (rss, per_node, grads, ok): grads has ``theta``'s shape, and ok
    flags columns whose forward and backward passes stayed finite. A column
    that overflows or meets an inf is reported through ok alone; numpy's
    floating-point warnings are silenced for it.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        full = lagged_x is not None
        L = (theta.shape[0] - 1) // 4 if full else theta.shape[0] // 2
        w_y, b_y = theta[:L], theta[L : 2 * L]
        h_y, u_y = encode_history_batch(lagged_y, ops, w_y, b_y, lag_hops, want_grads, lagged=True)
        s = h_y
        if full:
            w_x, b_x, c = theta[2 * L : 3 * L], theta[3 * L : 4 * L], theta[4 * L]
            h_x, u_x = encode_history_batch(lagged_x, ops, w_x, b_x, lag_hops, want_grads,
                                            lagged=True)
            s = h_y + c[None, :] * h_x
        yhat = apply_link(s, link)
        ok = np.isfinite(yhat).all(axis=0)

        res = yhat - Y
        per_node = res * res
        rss = _column_sums(per_node)

        grads = None
        if want_grads:
            grads = np.empty_like(theta)
            d = 2.0 * res
            if link == "exponential":
                d = d * yhat
            if full:
                grads[4 * L] = _column_sums(d * h_x)
            grads[:L], grads[L : 2 * L] = _encoder_backward_batch(d, u_y, ops, w_y, b_y, lag_hops)
            if full:
                grads[2 * L : 3 * L], grads[3 * L : 4 * L] = _encoder_backward_batch(
                    c[None, :] * d, u_x, ops, w_x, b_x, lag_hops)
            ok &= np.isfinite(grads).all(axis=0)
    return rss, per_node, grads, ok


# --- single-pair loss and gradients: the kernel at width one -------------------


def _single_pair(x, y, ops, full, reduced, lag_hops, link, want_grads: bool):
    """The kernel's (full, reduced) results for one pair's two columns."""
    full, L = check_column(full, with_x=True)
    reduced, L_reduced = check_column(reduced, with_x=False)
    if L_reduced != L:
        raise DimensionMismatch(f"full column has L={L}, reduced column L={L_reduced}")
    X, Y = _as_column(x, ops), _as_column(y, ops)
    lagged_y = strict_lag(Y, ops)
    return (
        _chunk_forward_backward(strict_lag(X, ops), lagged_y, Y, full[:, None], ops, lag_hops,
                                link, want_grads),
        _chunk_forward_backward(None, lagged_y, Y, reduced[:, None], ops, lag_hops, link,
                                want_grads),
    )


def pair_loss(x: np.ndarray, y: np.ndarray, ops: LaggedOperators, full: np.ndarray,
              reduced: np.ndarray, *, lag_hops: int, link: str) -> LossReport:
    """Per-node squared errors of the full and reduced predictions of one pair."""
    (_, per_node_full, _, ok_full), (_, per_node_reduced, _, ok_reduced) = _single_pair(
        x, y, ops, full, reduced, lag_hops, link, want_grads=False)
    if not (ok_full[0] and ok_reduced[0]):
        raise NonFinitePrediction("prediction overflowed (exponential link?)")
    return LossReport.from_per_node(per_node_full[:, 0], per_node_reduced[:, 0])


def pair_gradients(x: np.ndarray, y: np.ndarray, ops: LaggedOperators, full: np.ndarray,
                   reduced: np.ndarray, *, lag_hops: int,
                   link: str) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (g_full, g_reduced) of rss_full + rss_reduced w.r.t. one pair's two columns."""
    (*_, g_full, ok_full), (*_, g_reduced, ok_reduced) = _single_pair(
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

    Pairs are shuffled into minibatches each epoch (seeded); every pair takes
    one Adam step per epoch. Training stops after ``max_epochs`` epochs or
    when the relative change of the epoch-total loss (each pair's full and
    reduced loss) drops below ``convergence_numerator / n_pairs``.
    ``component`` restricts which model's parameters are updated ("both",
    "full", "reduced"); because the models share no parameters the
    restricted runs reproduce the joint run exactly. A pair whose full model
    goes non-finite, or whose y's reduced model does, is dropped from the
    results with a logged diagnostic. The final evaluation returns no
    per-node losses, only their sum, mean and variance: per pair for the full
    model and per y for the reduced one (``TrainResult``).
    """
    if component not in ("both", "full", "reduced"):
        raise ConfigError(f"component must be both/full/reduced, got {component!r}")
    if dataset.n_nodes != ops.n:
        raise DataError("dataset and operators disagree on the node count")

    n_pairs = len(dataset.pairs)
    L = config.n_layers
    train_full = component in ("both", "full")
    train_reduced = component in ("both", "reduced")
    rng = np.random.default_rng(config.seed)
    x_cols = np.fromiter((p[0] for p in dataset.pairs), dtype=np.int64, count=n_pairs)
    y_cols = np.fromiter((p[1] for p in dataset.pairs), dtype=np.int64, count=n_pairs)
    active = np.ones(n_pairs, dtype=bool)
    # Layer 1's product does not depend on the parameters: compute it once for
    # each variable some pair uses, and gather its columns per chunk.
    x_used, x_at = np.unique(x_cols, return_inverse=True)
    y_used, y_at = np.unique(y_cols, return_inverse=True)
    lagged_x = strict_lag(dataset.x_values[:, x_used], ops)
    lagged_y = strict_lag(dataset.y_values[:, y_used], ops)
    # Two parameter banks, each with its own Adam state: the full model of
    # every pair, one column per pair, and the reduced model of every y some
    # pair uses, one column per y. The reduced model sees y alone, so the
    # pairs of one y would train identical copies of it. One Glorot draw is
    # shared by every column (common random numbers): pairs are compared
    # against each other downstream, so giving each its own draw would only
    # inject between-pair variance into the ranking.
    init_full, init_reduced = glorot_init(L, rng)
    full = np.repeat(init_full[:, None], n_pairs, axis=1)
    reduced = np.repeat(init_reduced[:, None], y_used.size, axis=1)
    full_adam = AdamState.zeros_like(full)
    reduced_adam = AdamState.zeros_like(reduced)

    def pair_chunk(cols, want_grads):
        # np.take gathers into C order, in which _column_sums adds rows
        return _chunk_forward_backward(
            np.take(lagged_x, x_at[cols], axis=1), np.take(lagged_y, y_at[cols], axis=1),
            np.take(dataset.y_values, y_cols[cols], axis=1), np.take(full, cols, axis=1),
            ops, config.lag_hops, config.link, want_grads)

    def bank_chunk(cols, want_grads):
        return _chunk_forward_backward(
            None, np.take(lagged_y, cols, axis=1),
            np.take(dataset.y_values, y_used[cols], axis=1), np.take(reduced, cols, axis=1),
            ops, config.lag_hops, config.link, want_grads)

    def run_chunks(kernel, ids, want_grads):
        """(cols, kernel result) for each fixed-size chunk of ``ids``, in order.

        Chunks run lazily as the caller consumes them. One worker runs
        ``_CHUNK``-column chunks one at a time; a pool of ``workers`` threads
        keeps at most ``workers`` chunks of ``_CHUNK // workers`` columns in
        flight, so the state held by running chunks does not grow with the
        worker count.
        """
        def task(cols):
            return cols, kernel(cols, want_grads)

        width = max(1, _CHUNK // workers)
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

    prev_loss = None
    for epoch in range(config.max_epochs):
        t = epoch + 1
        perm = rng.permutation(n_pairs)
        # The reduced bank first, over the y of the active pairs. Each pair's
        # reduced loss is its y's loss before this step, as if it trained its
        # own copy; a y that goes non-finite drops every pair of it below.
        rss_y = np.zeros(y_used.size)
        ok_y = np.zeros(y_used.size, dtype=bool)
        for cols, (rss, _, grads, ok) in run_chunks(
                bank_chunk, np.unique(y_at[active]), train_reduced):
            rss_y[cols], ok_y[cols] = rss, ok
            if train_reduced and ok.any():
                step(reduced, reduced_adam, cols[ok], grads[:, ok], t)

        epoch_loss = 0.0
        for start in range(0, n_pairs, config.minibatch_pairs):
            batch = perm[start : start + config.minibatch_pairs]
            batch = batch[active[batch]]
            for cols, (rss_f, _, grads, ok) in run_chunks(pair_chunk, batch, train_full):
                ok &= ok_y[y_at[cols]]
                if not ok.all():
                    for k in cols[~ok]:
                        logger.warning("pair %d went non-finite; excluded from results", k)
                    active[cols[~ok]] = False
                good = cols[ok]
                if good.size == 0:
                    continue
                if train_full:
                    epoch_loss += float(rss_f[ok].sum())
                if train_reduced:
                    epoch_loss += float(rss_y[y_at[good]].sum())
                if train_full:
                    step(full, full_adam, good, grads[:, ok], t)

        if prev_loss is not None and prev_loss > 0 and n_pairs > 0:
            rel = abs(epoch_loss - prev_loss) / prev_loss
            if rel < config.convergence_numerator / n_pairs:
                logger.info("converged after %d epochs (relative change %.3g)", epoch + 1, rel)
                break
        prev_loss = epoch_loss

    # Final evaluation over all surviving pairs, fixed chunking again. Each
    # chunk's per-node losses are reduced to the statistics scoring needs,
    # once per y for the reduced bank.
    stats_reduced = np.full((3, y_used.size), np.nan)
    for cols, (_, per_node, _, ok) in run_chunks(bank_chunk, np.unique(y_at[active]), False):
        stats_reduced[:, cols[ok]] = _loss_stats(per_node[:, ok])
    stats_full = np.full((3, n_pairs), np.nan)
    for cols, (_, per_node, _, ok) in run_chunks(pair_chunk, np.flatnonzero(active), False):
        ok &= ~np.isnan(stats_reduced[0, y_at[cols]])
        for k in cols[~ok]:
            logger.warning("pair %d non-finite at final evaluation; excluded", k)
        active[cols[~ok]] = False
        stats_full[:, cols[ok]] = _loss_stats(per_node[:, ok])
    return TrainResult(
        pair_ids=np.flatnonzero(active), y_index=y_at, full=full, reduced=reduced,
        rss_full=stats_full[0], mean_full=stats_full[1], var_full=stats_full[2],
        rss_reduced=stats_reduced[0], mean_reduced=stats_reduced[1],
        var_reduced=stats_reduced[2])

