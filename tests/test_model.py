import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagranger.errors import DataError
from dagranger.graph import lagged_operators
from dagranger.model import encode_history_batch, layer_output

from dag_factories import chain_dag, random_dag
from pair_kernel import encode_one, losses_of_one_pair


def _encoder(rng, L, b_scale=0.3):
    """An encoder column [w, b]."""
    return np.concatenate([rng.normal(size=L), rng.normal(size=L) * b_scale])


def _full_column(rng, L, c=None):
    """A full column [w_y, b_y, w_x, b_x, c]."""
    y_enc, x_enc = _encoder(rng, L), _encoder(rng, L)
    return np.concatenate([y_enc, x_enc, [float(rng.normal() * 0.5) if c is None else c]])


class TestEncodeHistory:
    def test_zero_params_give_zero(self, chain3_ops, rng):
        h_tilde = encode_one(rng.normal(size=3), chain3_ops, np.zeros(8), lag_hops=1)
        assert np.array_equal(h_tilde, np.zeros(3))

    def test_single_layer_shift(self, chain3_ops):
        h_tilde = encode_one(np.array([1.0, 0.0, 0.0]), chain3_ops, np.array([1.0, 0.0]),
                             lag_hops=1)
        assert h_tilde == pytest.approx([0.0, math.tanh(1.0), 0.0], abs=1e-15)

    def test_two_layer_chain_oracle(self, chain3_ops):
        # independent scalar evaluation of the recurrence on the chain
        p = np.array([1.0, 1.0, 0.0, 0.0])  # w, then b
        v = np.array([1.0, 0.0, 0.0])
        h1 = [math.tanh(0.0), math.tanh(1.0), math.tanh(0.0)]
        h2 = [
            math.tanh(h1[0]),  # root: a_plus self weight 1
            math.tanh((h1[0] + h1[1]) / 2.0),
            math.tanh((h1[1] + h1[2]) / 2.0),
        ]
        expected = (np.array(h1) + np.array(h2)) / 2.0
        h_tilde = encode_one(v, chain3_ops, p, lag_hops=1)
        assert h_tilde == pytest.approx(expected, abs=1e-15)

    def test_layers_retained(self, chain3_ops, rng):
        # the kept layer inputs give back each layer's output (layer_output,
        # as the backward pass recomputes it), and h_tilde is their mean
        p = _encoder(rng, 3, b_scale=1.0)
        w, b = p[:3, None], p[3:, None]
        h_tilde, inputs = encode_history_batch(rng.normal(size=(3, 1)), chain3_ops, w, b, 1,
                                               keep_inputs=True)
        layers = np.stack([layer_output(u, w[i], b[i])[:, 0] for i, u in enumerate(inputs)])
        assert layers.shape == (3, 3)
        assert np.array_equal(h_tilde[:, 0], layers.mean(axis=0))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, 15)
        ops = lagged_operators(dag)
        L = int(rng.integers(1, 5))
        p = np.concatenate([rng.uniform(-1.7, 1.7, size=L), rng.uniform(-1.0, 1.0, size=L)])
        v = rng.uniform(-5, 5, size=15)
        h_tilde = encode_one(v, ops, p, lag_hops=1)
        assert np.abs(h_tilde).max() < 1.0

    def test_own_value_never_used(self, rng):
        # perturbing node v's input leaves h_tilde[v] exactly unchanged
        dag = random_dag(rng, 20)
        ops = lagged_operators(dag)
        L = 4
        p = _encoder(rng, L, b_scale=0.2)
        v = rng.normal(size=20)
        base = encode_one(v, ops, p, lag_hops=1)
        for node in range(20):
            v2 = v.copy()
            v2[node] += 1.0
            assert encode_one(v2, ops, p, lag_hops=1)[node] == base[node]

    def test_non_ancestor_locality(self, rng):
        dag = random_dag(rng, 15)
        ops = lagged_operators(dag)
        L = 3
        parents = {v: set(dag.edges[dag.edges[:, 1] == v, 0].tolist()) for v in range(15)}
        ancestors = {}
        for v in range(15):
            anc, frontier = set(), parents[v]
            for _ in range(L):
                anc |= frontier
                frontier = {a for f in frontier for a in parents[f]}
            ancestors[v] = anc
        p = _encoder(rng, L, b_scale=0.2)
        v = rng.normal(size=15)
        base = encode_one(v, ops, p, lag_hops=1)
        for node in range(15):
            outsiders = [u for u in range(15) if u not in ancestors[node] and u != node]
            if not outsiders:
                continue
            v2 = v.copy()
            v2[outsiders] = rng.normal(size=len(outsiders))
            assert encode_one(v2, ops, p, lag_hops=1)[node] == base[node]

    def test_chain_reduction_matches_scalar_recurrence(self, rng):
        # the DAG formulation on a linear chain is plain sequence lagging
        n, L = 100, 3
        ops = lagged_operators(chain_dag(n))
        w, b = rng.normal(size=L), rng.normal(size=L) * 0.2
        v = rng.normal(size=n)
        out = encode_one(v, ops, np.concatenate([w, b]), lag_hops=1)

        h_prev, acc = v.copy(), np.zeros(n)
        for ell in range(L):
            h = np.empty(n)
            for i in range(n):
                if ell == 0:
                    u = 0.0 if i == 0 else h_prev[i - 1]
                else:
                    u = h_prev[0] if i == 0 else (h_prev[i - 1] + h_prev[i]) / 2.0
                h[i] = math.tanh(w[ell] * u + b[ell])
            acc += h
            h_prev = h
        assert np.abs(out - acc / L).max() <= 1e-12


class TestPredictors:
    # the predictions as the kernel makes them, seen through the per-node
    # squared errors (y_hat - y)^2 of losses_of_one_pair
    def test_zero_params_identity_link(self, chain3_ops):
        y = np.array([1.0, -2.0, 3.0])
        report = losses_of_one_pair(np.ones(3), y, chain3_ops, np.zeros(9), np.zeros(4),
                                    lag_hops=1, link="identity")
        assert np.array_equal(report.per_node_full, y * y)  # y_hat = 0
        assert np.array_equal(report.per_node_reduced, y * y)

    def test_zero_params_exponential_link(self, chain3_ops):
        y = np.array([1.0, -2.0, 3.0])
        report = losses_of_one_pair(np.ones(3), y, chain3_ops, np.zeros(9), np.zeros(4),
                                    lag_hops=1, link="exponential")
        assert np.array_equal(report.per_node_full, (1.0 - y) ** 2)  # y_hat = 1
        assert np.array_equal(report.per_node_reduced, (1.0 - y) ** 2)

    def test_c_zero_ignores_x(self, chain3_ops, rng):
        full = _full_column(rng, 3, c=0.0)
        reduced, y = _encoder(rng, 3), rng.normal(size=3)
        a, b = (losses_of_one_pair(rng.normal(size=3), y, chain3_ops, full, reduced, lag_hops=1,
                                   link="identity") for _ in range(2))
        assert np.array_equal(a.per_node_full, b.per_node_full)

    def test_identical_params_full_equals_reduced(self, chain3_ops, rng):
        shared = _encoder(rng, 2, b_scale=1.0)
        full = np.concatenate([shared, _encoder(rng, 2, b_scale=1.0), [0.0]])
        x, y = rng.normal(size=3), rng.normal(size=3)
        report = losses_of_one_pair(x, y, chain3_ops, full, shared, lag_hops=1, link="identity")
        assert np.array_equal(report.per_node_full, report.per_node_reduced)

    def test_reduced_ignores_x(self, chain3_ops, rng):
        full, reduced = _full_column(rng, 2), _encoder(rng, 2)
        y = rng.normal(size=3)
        a, b = (losses_of_one_pair(rng.normal(size=3), y, chain3_ops, full, reduced, lag_hops=1,
                                   link="identity") for _ in range(2))
        assert not np.array_equal(a.per_node_full, b.per_node_full)
        assert np.array_equal(a.per_node_reduced, b.per_node_reduced)


class TestEncodeHistoryBatch:
    def test_identical_columns_identical_outputs(self, rng):
        dag = random_dag(rng, 10)
        ops = lagged_operators(dag)
        L = 2
        w = np.repeat(rng.normal(size=(L, 1)), 2, axis=1)
        b = np.zeros((L, 2))
        v = np.repeat(rng.normal(size=(10, 1)), 2, axis=1)
        ht, _ = encode_history_batch(v, ops, w, b, 1)
        assert np.array_equal(ht[:, 0], ht[:, 1])

    def test_batch_matches_loop_of_singles(self, rng):
        dag = random_dag(rng, 30)
        ops = lagged_operators(dag)
        L, m = 4, 9
        w, b = rng.normal(size=(L, m)), rng.normal(size=(L, m)) * 0.3
        v = rng.normal(size=(30, m))
        ht, _ = encode_history_batch(v, ops, w, b, lag_hops=2)
        for j in range(m):
            single = encode_one(v[:, j], ops, np.concatenate([w[:, j], b[:, j]]), lag_hops=2)
            assert np.abs(ht[:, j] - single).max() <= 1e-12

    def test_shape_validation(self, chain3_ops):
        with pytest.raises(DataError, match=r"^parameter arrays must be \(L, m\) matching the "
                                            r"batch width$"):
            encode_history_batch(np.zeros((3, 2)), chain3_ops, np.zeros((2, 3)), np.zeros((2, 3)),
                                 1)
