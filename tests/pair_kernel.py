"""One pair through the training kernel, for the tests (``from pair_kernel import ...``).

``train_all`` runs ``train._chunk_forward_backward`` on every chunk of pairs
that encodes its own columns, and the kernel runs
``model.encode_history_batch`` and then its end, ``_loss_and_gradients``,
which the chunks from stored encodings run too. These helpers call the same
functions on one pair's columns, a batch of width one, so a test of them
checks the code that trains and scores every pair. A full column is
[w_y, b_y, w_x, b_x, c] (4L+1 values) and a reduced or encoder column
[w, b] (2L values), the layouts of ``model``.
"""
from typing import NamedTuple

import numpy as np

from dagranger.model import encode_history_batch, strict_lag
from dagranger.train import _chunk_forward_backward


class PairLosses(NamedTuple):
    """Per-node squared errors of one pair's full and reduced models."""

    per_node_full: np.ndarray
    per_node_reduced: np.ndarray

    @property
    def rss_full(self) -> float:
        return float(self.per_node_full.sum())

    @property
    def rss_reduced(self) -> float:
        return float(self.per_node_reduced.sum())


def _kernel(x, y, ops, full, reduced, lag_hops, link, want_grads):
    """The kernel's results for the full and then the reduced column; both must stay finite."""
    Y = np.asarray(y, dtype=np.float64)[:, None]
    lagged = strict_lag(np.hstack((Y, np.asarray(x, dtype=np.float64)[:, None])), ops)
    results = [_chunk_forward_backward(lagged[:, :width], Y, np.asarray(theta)[:, None], ops,
                                       lag_hops, link, want_grads)
               for width, theta in ((2, full), (1, reduced))]
    assert all(ok[0] for _, _, _, ok in results), "non-finite kernel result"
    return results


def losses_of_one_pair(x, y, ops, full, reduced, *, lag_hops, link) -> PairLosses:
    """Per-node squared errors of the full and reduced predictions of one pair."""
    (_, per_node_full, *_), (_, per_node_reduced, *_) = _kernel(
        x, y, ops, full, reduced, lag_hops, link, want_grads=False)
    return PairLosses(per_node_full[:, 0], per_node_reduced[:, 0])


def gradients_of_one_pair(x, y, ops, full, reduced, *, lag_hops, link):
    """Gradients (g_full, g_reduced) of rss_full + rss_reduced w.r.t. one pair's two columns."""
    (_, _, g_full, *_), (_, _, g_reduced, *_) = _kernel(
        x, y, ops, full, reduced, lag_hops, link, want_grads=True)
    return g_full[:, 0], g_reduced[:, 0]


def encode_one(v, ops, theta, *, lag_hops):
    """enc(v) of one node-value vector under one encoder column [w, b], (n,)."""
    L = len(theta) // 2
    theta = np.asarray(theta, dtype=np.float64)[:, None]
    h_tilde, _ = encode_history_batch(np.asarray(v, dtype=np.float64)[:, None], ops,
                                      theta[:L], theta[L:], lag_hops)
    return h_tilde[:, 0]
