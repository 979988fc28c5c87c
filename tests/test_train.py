import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dagranger.model
import dagranger.train
from dagranger.errors import ConfigError, DataError
from dagranger.graph import build_dag, lagged_operators
from dagranger.model import apply_link, strict_lag
from dagranger.synth import SynthSpec, generate
from dagranger.train import (
    AdamState,
    _chunk_forward_backward,
    _layout,
    _loss_stats,
    Dataset,
    TrainConfig,
    adam_step,
    glorot_init,
    train_all,
)

from dag_factories import random_dag
from pair_kernel import encode_one, gradients_of_one_pair, losses_of_one_pair


def finite_difference(x, y, ops, full, reduced, lag_hops, link, h=1e-6):
    """Central differences of rss_full + rss_reduced over both columns: (fd_full, fd_reduced)."""
    def total(f, r):
        rep = losses_of_one_pair(x, y, ops, f, r, lag_hops=lag_hops, link=link)
        return rep.rss_full + rep.rss_reduced

    fd_full = [(total(full + e, reduced) - total(full - e, reduced)) / (2 * h)
               for e in h * np.eye(full.size)]
    fd_reduced = [(total(full, reduced + e) - total(full, reduced - e)) / (2 * h)
                  for e in h * np.eye(reduced.size)]
    return np.array(fd_full), np.array(fd_reduced)


def relative_error(g, reference):
    return (np.abs(g - reference) / np.maximum(np.abs(g), 1e-8)).max()


def random_columns(rng, L):
    """A random full column [w_y, b_y, w_x, b_x, c] and reduced column [w_y, b_y]."""
    full = np.concatenate([rng.normal(size=L), rng.normal(size=L) * 0.3, rng.normal(size=L),
                           rng.normal(size=L) * 0.3, [rng.normal() * 0.5]])
    reduced = np.concatenate([rng.normal(size=L), rng.normal(size=L) * 0.3])
    return full, reduced


def cap_chunks(monkeypatch, width):
    """Cap ``train_all``'s chunks, ``_CHUNK`` and ``_WIDE_CHUNK``, at ``width`` columns."""
    for name in ("_CHUNK", "_WIDE_CHUNK"):
        monkeypatch.setattr(dagranger.train, name, min(width, getattr(dagranger.train, name)))


def tiny_dataset(seed=0, n_pairs=4):
    spec = SynthSpec(n_nodes=60, n_branches=1, depth=10, k_neighbors=2,
                     n_x_vars=4, n_y_vars=3, n_causal_pairs=2,
                     noise_sd=0.3, seed=seed,
                     n_candidate_pairs=n_pairs)
    ds = generate(spec)
    dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix,
                      x_names=ds.x_names, y_names=ds.y_names, pairs=ds.candidates)
    return ds, dataset, lagged_operators(ds.dag)


class TestPairLoss:
    def test_exact_prediction_zero_loss(self, chain3_ops):
        # zero params + exponential link predict exactly 1 everywhere, so a
        # target of ones is matched perfectly
        report = losses_of_one_pair(np.zeros(3), np.ones(3), chain3_ops, np.zeros(9), np.zeros(4),
                                    lag_hops=1, link="exponential")
        assert np.array_equal(report.per_node_full, np.zeros(3))
        assert report.rss_full == 0.0 and report.rss_reduced == 0.0

    def test_zero_params_unit_targets(self, chain3_ops):
        y = np.ones(3)
        report = losses_of_one_pair(np.zeros(3), y, chain3_ops, np.zeros(9), np.zeros(4),
                                    lag_hops=1, link="identity")
        assert np.array_equal(report.per_node_full, np.ones(3))
        assert report.rss_full == 3.0 and report.rss_reduced == 3.0

    def test_totals_match_recomputation(self, rng):
        dag = random_dag(rng, 15)
        ops = lagged_operators(dag)
        full, reduced = random_columns(rng, 3)
        x, y = rng.normal(size=15), rng.normal(size=15) * 0.3
        spec = dict(lag_hops=1, link="exponential")
        report = losses_of_one_pair(x, y, ops, full, reduced, **spec)
        # the predictions from each encoder alone: link(enc(y) + c * enc(x)), link(enc(y))
        h_y, h_x, h_reduced = (encode_one(v, ops, theta, lag_hops=1) for v, theta in (
            (y, full[:6]), (x, full[6:12]), (y, reduced)))
        yhat_full = apply_link(h_y + full[12] * h_x, "exponential")
        yhat_reduced = apply_link(h_reduced, "exponential")
        assert report.rss_full == pytest.approx(float(((yhat_full - y) ** 2).sum()))
        assert report.rss_reduced == pytest.approx(float(((yhat_reduced - y) ** 2).sum()))


class TestPairGradients:
    @pytest.mark.parametrize("link", ["identity", "exponential"])
    @pytest.mark.parametrize("lag_hops", [1, 2])
    def test_matches_finite_differences(self, rng, link, lag_hops):
        dag = random_dag(rng, 14)
        ops = lagged_operators(dag)
        full, reduced = random_columns(rng, 3)
        x, y = rng.normal(size=14), rng.normal(size=14) * 0.5
        g_full, g_reduced = gradients_of_one_pair(x, y, ops, full, reduced, lag_hops=lag_hops,
                                                  link=link)
        fd_full, fd_reduced = finite_difference(x, y, ops, full, reduced, lag_hops, link)
        assert g_full.shape == (13,) and g_reduced.shape == (6,)
        assert relative_error(g_full, fd_full) < 1e-5
        assert relative_error(g_reduced, fd_reduced) < 1e-5

    def test_c_gradient_zero_when_x_history_vanishes(self, rng):
        dag = random_dag(rng, 10)
        ops = lagged_operators(dag)
        L = 2
        full = np.concatenate([rng.normal(size=L), rng.normal(size=L), rng.normal(size=L),
                               np.zeros(L), [0.7]])
        reduced = np.concatenate([rng.normal(size=L), rng.normal(size=L)])
        g_full, _ = gradients_of_one_pair(np.zeros(10), rng.normal(size=10), ops, full, reduced,
                                          lag_hops=1, link="identity")
        assert g_full[-1] == 0.0

    def test_reduced_gradients_independent_of_x(self, rng):
        dag = random_dag(rng, 12)
        ops = lagged_operators(dag)
        full, reduced = random_columns(rng, 2)
        y = rng.normal(size=12)
        _, g1 = gradients_of_one_pair(rng.normal(size=12), y, ops, full, reduced, lag_hops=1,
                                      link="identity")
        _, g2 = gradients_of_one_pair(rng.normal(size=12), y, ops, full, reduced, lag_hops=1,
                                      link="identity")
        assert np.array_equal(g1, g2)


class TestChunkKernel:
    @pytest.mark.parametrize("link", ["identity", "exponential"])
    @pytest.mark.parametrize("lag_hops", [1, 2])
    def test_width_five_columns_match_single_pairs(self, rng, link, lag_hops):
        # each column of a chunk is its own pair: its gradient must be that
        # pair's finite-difference gradient and the width-one call's result
        n, width = 16, 5
        ops = lagged_operators(random_dag(rng, n))
        full, reduced = (np.stack(bank, axis=1) for bank in
                         zip(*(random_columns(rng, 3) for _ in range(width))))
        X, Y = rng.normal(size=(n, width)), rng.normal(size=(n, width)) * 0.5
        _, _, g_full, ok_full = _chunk_forward_backward(
            strict_lag(np.hstack((Y, X)), ops), Y, full, ops, lag_hops, link, want_grads=True)
        _, _, g_reduced, ok_reduced = _chunk_forward_backward(
            strict_lag(Y, ops), Y, reduced, ops, lag_hops, link, want_grads=True)
        assert g_full.shape == full.shape and g_reduced.shape == reduced.shape
        assert ok_full.all() and ok_reduced.all()
        for j in range(width):
            args = (X[:, j], Y[:, j], ops, full[:, j], reduced[:, j])
            fds = finite_difference(*args, lag_hops, link)
            singles = gradients_of_one_pair(*args, lag_hops=lag_hops, link=link)
            for g, fd, single in zip((g_full[:, j], g_reduced[:, j]), fds, singles):
                assert relative_error(g, fd) < 1e-5
                assert (np.abs(g - single) / np.maximum(np.abs(single), 1e-8)).max() < 1e-12

    def test_sparse_products_done_once(self, rng, monkeypatch):
        # a pair chunk does the forward products of layers 2..L of its two
        # encoders, as (L-1) products of its y and x columns side by side,
        # and a chunk of the reduced bank the (L-1) of its one, with or
        # without gradients: the backward pass reuses the forward pass's
        # layer inputs; layer 1's product is the caller's
        calls = []
        real = dagranger.model.transpose_apply_batch

        def counting(op, values, out=None):
            calls.append((op is ops.a, values.shape[1]))
            return real(op, values, out=out)

        n, width, L = 16, 5, 4
        ops = lagged_operators(random_dag(rng, n))
        X, Y = rng.normal(size=(n, width)), rng.normal(size=(n, width))
        full, reduced = (np.stack(bank, axis=1) for bank in
                         zip(*(random_columns(rng, L) for _ in range(width))))
        lagged_y, lagged = strict_lag(Y, ops), strict_lag(np.hstack((Y, X)), ops)
        monkeypatch.setattr(dagranger.model, "transpose_apply_batch", counting)
        for want_grads in (True, False):
            calls.clear()
            _chunk_forward_backward(lagged, Y, full, ops, 2, "identity", want_grads)
            assert [w for _, w in calls] == [2 * width] * (L - 1)
            calls.clear()
            _chunk_forward_backward(lagged_y, Y, reduced, ops, 2, "identity", want_grads)
            assert [w for _, w in calls] == [width] * (L - 1)

        ds, dataset, ops = tiny_dataset(seed=2, n_pairs=6)
        epochs = 3
        calls.clear()
        train_all(dataset, ops, TrainConfig(n_layers=L, max_epochs=epochs, seed=0,
                                            convergence_numerator=0.0))
        n_x, n_y = (np.unique(dataset.pairs[:, i]).size for i in (0, 1))
        # with lag_hops 1 only layer 1 uses ops.a. Every pass does two
        # layer-1 products: epochs 1 and 2 (from the shared encoders) one of
        # the bank's y and one of the block's x, every later epoch and the
        # final evaluation one of the bank chunk and one of the pair chunk,
        # y's and x's columns side by side; the L - 1 later layers follow
        # each on the same columns
        shared, per_pair = [n_y, n_x], [n_y, 2 * 6]
        passes = [shared] * 2 + [per_pair] * (epochs - 1)
        assert sorted(w for first, w in calls if first) == sorted(sum(passes, []))
        assert sorted(w for _, w in calls) == sorted(sum(passes, []) * L)

    def test_reduced_model_trained_once_per_y(self, monkeypatch):
        # five pairs over two y variables: every pass (each epoch and the
        # final evaluation) runs the reduced encoder on two columns, every
        # pass but those of epochs 1 and 2 the full model on five, and the
        # pairs of one y report one shared reduced model with one set of
        # reduced statistics
        ds, _, ops = tiny_dataset(seed=5)
        pairs = ((0, 0), (1, 0), (2, 0), (3, 1), (0, 1))
        dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix, x_names=ds.x_names,
                          y_names=ds.y_names, pairs=pairs)
        widths = {"full": [], "reduced": []}
        real = dagranger.train._chunk_forward_backward

        def counting(lagged, Y, *args):
            widths["full" if lagged.shape[1] > Y.shape[1] else "reduced"].append(Y.shape[1])
            return real(lagged, Y, *args)

        monkeypatch.setattr(dagranger.train, "_chunk_forward_backward", counting)
        epochs = 3
        results = train_all(dataset, ops, TrainConfig(n_layers=3, max_epochs=epochs, seed=0,
                                                      convergence_numerator=0.0))
        assert widths["reduced"] == [2] * (epochs + 1)
        assert sum(widths["full"]) == len(pairs) * (epochs - 1)
        assert results.reduced.shape == (6, 2) and results.rss_reduced.shape == (2,)
        assert results.y_index.tolist() == [0, 0, 0, 1, 1]
        # each y's statistics are those of its model's per-node losses
        for pid in (0, 3):
            xi, yi = pairs[pid]
            j = results.y_index[pid]
            direct = losses_of_one_pair(dataset.x_values[:, xi], dataset.y_values[:, yi], ops,
                                        results.full[:, pid], results.reduced[:, j], lag_hops=1,
                                        link="identity")
            assert results.rss_reduced[j] == direct.per_node_reduced.sum()
            assert results.mean_reduced[j] == direct.per_node_reduced.mean()
            assert results.var_reduced[j] == direct.per_node_reduced.var(ddof=1)


    @pytest.mark.parametrize("want_grads", [False, True])
    @pytest.mark.parametrize("n_in", [0, 1, 2, 4])
    @pytest.mark.parametrize("full", [False, True])
    def test_layout_ends_at_its_size(self, full, n_in, want_grads):
        # the shapes of train_all's kernel calls (k = m or 2m encoder columns,
        # 0, 1, 2 or L = 4 layer inputs, with and without gradients): the
        # views end exactly at the size _layout states for them, the layer
        # inputs, acc and the temporaries are pairwise disjoint, and the
        # reduced model's dh overlaps neither acc nor the temporaries
        n, m = 7, 3
        k = 2 * m if full else m
        size = _layout(None, n, k, m, n_in, want_grads)
        workspace = np.empty(size + 5 * n * k)  # room for a view that overruns
        inputs, acc, (dh, dz, g), temps = _layout(workspace, n, k, m, n_in, want_grads)
        views = [*inputs, acc, dz, *temps] + ([dh, g] if want_grads else [])
        base = workspace.__array_interface__["data"][0]
        ends = [(v.__array_interface__["data"][0] - base) // 8 + v.size for v in views]
        assert max(ends) == size
        assert [v.shape for v in (*inputs, acc, dz)] == [(n, k)] * (n_in + 2)
        assert [t.shape for t in temps] == [(n, m)] * 3
        disjoint = [*inputs, acc, *temps]
        for i, a in enumerate(disjoint):
            for b in disjoint[i + 1 :]:
                assert not np.shares_memory(a, b)
        if not want_grads:
            assert dh is None and g is None
        elif full:
            assert dh is acc
        else:
            assert not any(np.shares_memory(dh, v) for v in (acc, *temps))

    def test_loss_stats_have_the_bits_of_each_column_alone(self, rng):
        # the final evaluation's statistics must equal the 1-D sum, mean and
        # var of each pair's per-node losses, at every chunk width
        per_node = rng.gamma(1.0, size=(300, 64))
        for width in (1, 2, 64):
            sums, means, variances = _loss_stats(np.ascontiguousarray(per_node[:, :width]))
            for j in range(width):
                col = per_node[:, j].copy()
                assert (sums[j], means[j], variances[j]) == (
                    col.sum(), col.mean(), col.var(ddof=1))

    @given(st.integers(2, 8000), st.integers(1, 4), st.sampled_from([1e-3, 1.0, 1e160]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_loss_stats_are_numpys_mean_and_var(self, n, m, scale, seed):
        # one sum per column gives the bits of numpy's 1-D sum, mean and
        # var(ddof=1) of that column; at 1e160 the squared deviations
        # overflow, and the variance is inf without a warning (pytest turns
        # a RuntimeWarning into an error)
        per_node = np.random.default_rng(seed).gamma(1.0, size=(n, m)) * scale
        for rows in (None, np.empty(n * m)):
            stats = _loss_stats(per_node, rows)
            for j in range(m):
                col = per_node[:, j].copy()
                with np.errstate(over="ignore"):
                    expected = [col.sum(), col.mean(), col.var(ddof=1)]
                assert stats[:, j].tobytes() == np.array(expected).tobytes()
        assert np.isinf(stats[2]).all() == (scale == 1e160)


class TestAdamStep:
    def test_zero_gradient_no_move_from_fresh_state(self):
        params = np.array([1.0, -2.0])
        state = AdamState.zeros_like(params)
        new_params, _ = adam_step(params, np.zeros(2), state, t=1, lr=0.1)
        assert np.array_equal(new_params, params)

    def test_first_step_magnitude_is_lr_signed(self):
        params = np.zeros(3)
        grads = np.array([3.0, -0.5, 1e-3])
        new_params, _ = adam_step(params, grads, AdamState.zeros_like(params), t=1, lr=0.01)
        assert np.allclose(new_params, -0.01 * np.sign(grads), rtol=1e-4)

    def test_coordinates_independent(self, rng):
        params = rng.normal(size=4)
        grads = rng.normal(size=4)
        state = AdamState(m=rng.normal(size=4) * 0.1, v=rng.random(4) * 0.1)
        joint, _ = adam_step(params, grads, state, t=3, lr=0.05)
        for i in range(4):
            solo, _ = adam_step(params[i : i + 1], grads[i : i + 1],
                                AdamState(m=state.m[i : i + 1], v=state.v[i : i + 1]),
                                t=3, lr=0.05)
            assert solo[0] == joint[i]


class TestGlorotInit:
    def test_weights_within_bound(self, rng):
        for _ in range(20):
            full, reduced = glorot_init(5, rng)
            for w in (full[:5], full[10:15], reduced[:5]):
                assert np.abs(w).max() <= math.sqrt(3.0)

    def test_biases_and_c_zero(self, rng):
        full, reduced = glorot_init(4, rng)
        assert full.shape == (17,) and reduced.shape == (8,)
        assert np.array_equal(full[4:8], np.zeros(4))
        assert np.array_equal(full[12:], np.zeros(5))  # b_x, then c
        assert np.array_equal(reduced[4:], np.zeros(4))

    def test_seeded_determinism(self):
        a = glorot_init(3, np.random.default_rng(7))
        b = glorot_init(3, np.random.default_rng(7))
        assert all(np.array_equal(ca, cb) for ca, cb in zip(a, b))

    def test_y_encoders_start_identical(self):
        full, reduced = glorot_init(6, np.random.default_rng(1))
        assert np.array_equal(full[:12], reduced)

    def test_draws_y_weights_then_x(self):
        full, _ = glorot_init(3, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        w_y, w_x = (rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=3) for _ in range(2))
        assert np.array_equal(full[:3], w_y) and np.array_equal(full[6:9], w_x)


class TestDataset:
    def test_pairs_become_a_read_only_index_array(self):
        _, dataset, _ = tiny_dataset()
        assert dataset.pairs.dtype == np.int64 and dataset.pairs.shape == (4, 2)
        assert not dataset.pairs.flags.writeable
        empty = Dataset(x_values=dataset.x_values, y_values=dataset.y_values,
                        x_names=dataset.x_names, y_names=dataset.y_names, pairs=())
        assert empty.pairs.shape == (0, 2)

    @pytest.mark.parametrize("pairs, message", [
        (((0, 0), (1,), (0, 1)), "pair 1 (1,) is not (x index, y index)"),
        (((0, 0), (1, 2, 0)), "pair 1 (1, 2, 0) is not (x index, y index)"),
        ((0, 1), "pair 0 0 is not (x index, y index)"),
        (((0, 0), (1, 1), (4, 0), (0, -1)), "pair 2 (4, 0) references a missing column"),
        (((0, 0), (0, 3)), "pair 1 (0, 3) references a missing column"),
    ])
    def test_bad_pairs_name_the_first(self, pairs, message):
        ds, dataset, _ = tiny_dataset()
        with pytest.raises(DataError) as info:
            Dataset(x_values=dataset.x_values, y_values=dataset.y_values,
                    x_names=dataset.x_names, y_names=dataset.y_names, pairs=pairs)
        assert message in str(info.value)


class TestTrainAll:
    def test_zero_epochs_returns_initialized_models(self):
        ds, dataset, ops = tiny_dataset()
        cfg = TrainConfig(n_layers=3, max_epochs=0, seed=9)
        results = train_all(dataset, ops, cfg)
        assert results.pair_ids.tolist() == list(range(len(dataset.pairs)))
        assert len(results) == len(dataset.pairs)
        # losses equal direct evaluation of the init models
        init_full, init_reduced = glorot_init(3, np.random.default_rng(9))
        for pid in results.pair_ids:
            full, reduced = results.full[:, pid], results.reduced[:, results.y_index[pid]]
            assert np.array_equal(full, init_full) and np.array_equal(reduced, init_reduced)
            xi, yi = dataset.pairs[pid, 0], dataset.pairs[pid, 1]
            direct = losses_of_one_pair(dataset.x_values[:, xi], dataset.y_values[:, yi], ops,
                                        full, reduced, lag_hops=cfg.lag_hops, link=cfg.link)
            assert results.rss_full[pid] == pytest.approx(direct.rss_full, rel=1e-12)

    def test_loss_decreases_on_synthetic_pair(self):
        ds, dataset, ops = tiny_dataset(seed=4)
        cfg0 = TrainConfig(n_layers=3, max_epochs=0, seed=2)
        cfg5 = TrainConfig(n_layers=3, max_epochs=5, seed=2)
        r0 = train_all(dataset, ops, cfg0)
        r5 = train_all(dataset, ops, cfg5)
        total0, total5 = ((r.rss_full + r.rss_reduced[r.y_index])[r.pair_ids].sum()
                          for r in (r0, r5))
        assert total5 < total0

    @pytest.mark.parametrize("option, value", [
        ("learning_rate", 0.0), ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("max_epochs", -1), ("convergence_numerator", -0.1),
        ("convergence_numerator", math.nan), ("seed", -1)])
    def test_out_of_range_option_is_config_error(self, option, value):
        with pytest.raises(ConfigError, match=option):
            TrainConfig(**{option: value})

    def test_fewer_than_one_worker_is_config_error(self):
        _, dataset, ops = tiny_dataset()
        with pytest.raises(ConfigError, match="workers"):
            train_all(dataset, ops, TrainConfig(max_epochs=0), workers=0)

    def test_more_workers_than_a_chunk_has_pairs_is_config_error(self):
        # checked before any thread or workspace exists
        _, dataset, ops = tiny_dataset()
        with pytest.raises(ConfigError, match=r"workers must be in \[1, 32\], got 33"):
            train_all(dataset, ops, TrainConfig(max_epochs=0), workers=33)

    def test_determinism_across_worker_counts(self):
        ds, dataset, ops = tiny_dataset(seed=8)
        cfg = TrainConfig(n_layers=2, max_epochs=3, seed=5)
        r1 = train_all(dataset, ops, cfg, workers=1)
        r2 = train_all(dataset, ops, cfg, workers=3)
        assert np.array_equal(r1.pair_ids, r2.pair_ids)
        assert np.array_equal(r1.y_index, r2.y_index)
        for pid in r1.pair_ids:
            j = r1.y_index[pid]
            assert np.array_equal(r1.full[:, pid], r2.full[:, pid])
            assert np.array_equal(r1.reduced[:, j], r2.reduced[:, j])
            assert r1.rss_full[pid] == r2.rss_full[pid]

    def test_bit_identical_across_chunk_widths_and_workers(self, monkeypatch):
        # chunk widths differ (1, 2, 32, 64 and the remainders) but no pair's
        # arithmetic may depend on which pairs share its chunk; chunks of 1
        # sum a column on its own (_column_sums)
        spec = SynthSpec(n_nodes=200, n_branches=2, n_x_vars=20, n_y_vars=10,
                         n_causal_pairs=5, n_candidate_pairs=150, noise_sd=0.3, seed=1)
        ds = generate(spec)
        dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix,
                          x_names=ds.x_names, y_names=ds.y_names, pairs=ds.candidates)
        ops = lagged_operators(ds.dag)

        def run(width, workers):
            cfg = TrainConfig(n_layers=3, max_epochs=2, seed=0, convergence_numerator=0.0)
            with monkeypatch.context() as patch:
                cap_chunks(patch, width)
                results = train_all(dataset, ops, cfg, workers=workers)
            # the statistics of dropped pairs are NaN, which equal_nan compares
            return {name: getattr(results, name) for name in (
                "pair_ids", "y_index", "full", "reduced", "rss_full", "mean_full", "var_full",
                "rss_reduced", "mean_reduced", "var_reduced")}

        reference = run(1024, 1)
        for width, workers in ((1, 1), (2, 1), (1024, 2)):
            other = run(width, workers)
            for name, array in reference.items():
                assert np.array_equal(array, other[name], equal_nan=True), (
                    width, workers, name)

    def test_workspaces_stay_private_under_thread_switching(self, monkeypatch):
        # each running chunk takes a segment of its own of the one
        # workspace: with four workers at most four workspaces may exist at
        # once, and with threads switched every microsecond a segment shared
        # by two chunks would change some column's bits
        spec = SynthSpec(n_nodes=200, n_branches=2, n_x_vars=20, n_y_vars=10,
                         n_causal_pairs=5, n_candidate_pairs=150, noise_sd=0.3, seed=1)
        ds = generate(spec)
        dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix,
                          x_names=ds.x_names, y_names=ds.y_names, pairs=ds.candidates)
        ops = lagged_operators(ds.dag)
        cfg = TrainConfig(n_layers=3, max_epochs=3, seed=0, convergence_numerator=0.0)
        reference = train_all(dataset, ops, cfg, workers=1)
        live = [0, 0]  # workspaces alive now, and the most at once
        lock = threading.Lock()
        real = dagranger.train._workspace

        def release():
            with lock:
                live[0] -= 1

        def counting(*args):
            workspace = real(*args)
            with lock:
                live[0] += 1
                live[1] = max(live)
            weakref.finalize(workspace, release)
            return workspace

        monkeypatch.setattr(dagranger.train, "_workspace", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = train_all(dataset, ops, cfg, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= live[1] <= 4
        for name in ("pair_ids", "full", "reduced", "rss_full", "var_full", "rss_reduced"):
            assert np.array_equal(getattr(result, name), getattr(reference, name)), name

    def test_convergence_independent_of_chunk_width_and_workers(self, caplog, monkeypatch):
        # the epoch total is an exactly rounded sum over the kept pairs, so
        # its bits, and with them the epoch the convergence rule stops at,
        # do not depend on how the pairs were chunked
        spec = SynthSpec(n_nodes=200, n_branches=2, n_x_vars=20, n_y_vars=10,
                         n_causal_pairs=5, n_candidate_pairs=150, noise_sd=0.3, seed=1)
        ds = generate(spec)
        dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix,
                          x_names=ds.x_names, y_names=ds.y_names, pairs=ds.candidates)
        ops = lagged_operators(ds.dag)
        caplog.set_level("DEBUG", logger="dagranger.train")
        runs = {}
        for workers in (1, 2, 3):
            for width in (1, 2, 1024):
                caplog.clear()
                cfg = TrainConfig(n_layers=3, max_epochs=30, seed=0, convergence_numerator=0.03)
                with monkeypatch.context() as patch:
                    cap_chunks(patch, width)
                    result = train_all(dataset, ops, cfg, workers=workers)
                log = [r.getMessage() for r in caplog.records
                       if r.getMessage().startswith(("epoch", "converged", "stopped"))]
                runs[workers, width] = log, result.full
        log, full = runs[1, 1024]
        assert log[-1].startswith("converged after 4 epochs") and len(log) == 5
        for key, (other_log, other_full) in runs.items():
            assert other_log == log, key
            assert np.array_equal(other_full, full), key

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_guard(self, workers):
        # n = 2,000, L = 10: each worker's workspace holds L + 4 rows of
        # (n, 2 * 32 / workers) floats, 14.3 MB in all, the chunk's own
        # arrays about 5.5 MB more and the per-variable arrays about 1 MB.
        # Another (n, m) array kept per layer, or chunks of 64 pairs, would
        # pass the bound, which was set before measuring.
        rng = np.random.default_rng(3)
        n, n_x, n_y = 2000, 8, 12
        v = np.repeat(np.arange(1, n), 3)
        edges = np.unique(np.column_stack([(rng.random(v.size) * v).astype(np.int64), v]), axis=0)
        ops = lagged_operators(build_dag(n, edges))
        dataset = Dataset(x_values=rng.normal(size=(n, n_x)), y_values=rng.normal(size=(n, n_y)),
                          x_names=tuple(f"x{i}" for i in range(n_x)),
                          y_names=tuple(f"y{i}" for i in range(n_y)),
                          pairs=[(i, j) for i in range(n_x) for j in range(n_y)])
        cfg = TrainConfig(n_layers=10, max_epochs=2, convergence_numerator=0.0)
        tracemalloc.start()
        try:
            result = train_all(dataset, ops, cfg, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == 96
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("epochs", [1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_arrays_live_in_the_workspace(self, workers, epochs, monkeypatch):
        # n = 8,000, L = 10, 6 x by 4 y: every (n, .) array of a chunk and
        # of a tile of variables is a row of the one workspace, so beside it
        # train_all holds only arrays the size of the parameters or of the
        # pairs. The bound, 0.5 MiB, was set before measuring; one (n, 10)
        # array of the variables outside the workspace (0.64 MB) fails it.
        rng = np.random.default_rng(4)
        n, n_x, n_y = 8000, 6, 4
        v = np.repeat(np.arange(1, n), 3)
        edges = np.unique(np.column_stack([(rng.random(v.size) * v).astype(np.int64), v]), axis=0)
        ops = lagged_operators(build_dag(n, edges))
        dataset = Dataset(x_values=rng.normal(size=(n, n_x)), y_values=rng.normal(size=(n, n_y)),
                          x_names=tuple(f"x{i}" for i in range(n_x)),
                          y_names=tuple(f"y{i}" for i in range(n_y)),
                          pairs=[(i, j) for i in range(n_x) for j in range(n_y)])
        cfg = TrainConfig(n_layers=10, max_epochs=epochs, convergence_numerator=0.0)
        sizes = []
        real = dagranger.train._workspace

        def recording(size):
            sizes.append(size)
            return real(size)

        monkeypatch.setattr(dagranger.train, "_workspace", recording)
        tracemalloc.start()
        try:
            result = train_all(dataset, ops, cfg, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == n_x * n_y and len(sizes) == 1
        assert peak - 8 * sizes[0] < 2**19

    def test_memory_does_not_grow_with_the_x_count(self):
        # Every pass keeps its per-variable arrays one tile of y by x at a
        # time, in the workspace, whose size depends on the x count only up
        # to one block of x (16). With 200 distinct x in place of 8 only the
        # arrays of the pairs grow, 96 -> 200 of them; the layer-1 products
        # of the 192 extra x alone would add 3.1 MB. The bound, 1 MiB over
        # the 8-x peak, was set before measuring.
        rng = np.random.default_rng(3)
        n, n_y = 2000, 12
        v = np.repeat(np.arange(1, n), 3)
        edges = np.unique(np.column_stack([(rng.random(v.size) * v).astype(np.int64), v]), axis=0)
        ops = lagged_operators(build_dag(n, edges))
        cfg = TrainConfig(n_layers=10, max_epochs=2, convergence_numerator=0.0)
        peaks = {}
        for n_x in (8, 200):
            pairs = ([(i, j) for i in range(n_x) for j in range(n_y)] if n_x == 8
                     else [(i, i % n_y) for i in range(n_x)])
            dataset = Dataset(x_values=rng.normal(size=(n, n_x)),
                              y_values=rng.normal(size=(n, n_y)),
                              x_names=tuple(f"x{i}" for i in range(n_x)),
                              y_names=tuple(f"y{i}" for i in range(n_y)), pairs=pairs)
            tracemalloc.start()
            try:
                result = train_all(dataset, ops, cfg)
                peaks[n_x] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(result) == len(pairs)
        assert peaks[200] < peaks[8] + 2**20

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_peak_is_the_same_for_200_and_2000_x(self, epochs):
        # n = 4,000, L = 2, 2,000 pairs over 20 y: the x of the pairs are
        # 200, each in 10 pairs, or 2,000, each in one. After 1 epoch every
        # pass runs from the shared encoders; after 3, epoch 2 does too, and
        # epoch 3 and the final evaluation run per pair. No pass holds an
        # array of one column per used x, which at 2,000 x would be 64 MB.
        # The bound, 4 MiB, was set before measuring.
        rng = np.random.default_rng(5)
        n, n_y, n_pairs = 4000, 20, 2000
        v = np.repeat(np.arange(1, n), 3)
        edges = np.unique(np.column_stack([(rng.random(v.size) * v).astype(np.int64), v]), axis=0)
        ops = lagged_operators(build_dag(n, edges))
        cfg = TrainConfig(n_layers=2, max_epochs=epochs, convergence_numerator=0.0)
        y = rng.normal(size=(n, n_y))
        peaks = {}
        for n_x in (200, 2000):
            k = np.arange(n_pairs)
            pairs = np.column_stack((k % n_x, (k // n_x + k) % n_y))
            dataset = Dataset(x_values=rng.normal(size=(n, n_x)), y_values=y,
                              x_names=tuple(f"x{i}" for i in range(n_x)),
                              y_names=tuple(f"y{i}" for i in range(n_y)), pairs=pairs)
            tracemalloc.start()
            try:
                result = train_all(dataset, ops, cfg)
                peaks[n_x] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(result) == n_pairs
            dataset = None
        assert peaks[2000] < peaks[200] + 4 * 2**20

    def test_joint_equals_separate_training(self):
        # the two models share no parameters, so the joint run must
        # reproduce each restricted run bit for bit
        ds, dataset, ops = tiny_dataset(seed=3)
        cfg = TrainConfig(n_layers=2, max_epochs=4, seed=1, convergence_numerator=0.0)
        joint = train_all(dataset, ops, cfg, component="both")
        full_only = train_all(dataset, ops, cfg, component="full")
        reduced_only = train_all(dataset, ops, cfg, component="reduced")
        for pid in joint.pair_ids:
            j = joint.y_index[pid]
            assert np.array_equal(joint.full[:, pid], full_only.full[:, pid])
            assert np.array_equal(joint.reduced[:, j], reduced_only.reduced[:, j])

    def test_full_vs_reduced_gap_on_causal_pair(self):
        # a strongly driven pair should end with a lower full-model loss
        spec = SynthSpec(n_nodes=300, n_branches=1, depth=30, k_neighbors=2,
                         n_x_vars=1, n_y_vars=1, n_causal_pairs=1,
                         coupling=1.5, noise_sd=0.1, nonlinearity="linear", seed=6)
        ds = generate(spec)
        dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix,
                          x_names=ds.x_names, y_names=ds.y_names, pairs=ds.candidates)
        ops = lagged_operators(ds.dag)
        cfg = TrainConfig(n_layers=4, max_epochs=20, seed=0)
        results = train_all(dataset, ops, cfg)
        assert results.rss_full[0] < results.rss_reduced[results.y_index[0]]

    @pytest.mark.parametrize("max_epochs, convergence_numerator, message", [
        (0, 0.1, "stopped after 0 epochs (max_epochs)"),
        (3, 0.0, "stopped after 3 epochs (max_epochs)"),
        (3, 1e6, "converged after 2 epochs (relative change "),
    ])
    def test_logs_the_stop_reason(self, caplog, max_epochs, convergence_numerator, message):
        _, dataset, ops = tiny_dataset()
        caplog.set_level("INFO", logger="dagranger.train")
        train_all(dataset, ops, TrainConfig(n_layers=2, max_epochs=max_epochs,
                                            convergence_numerator=convergence_numerator))
        stops = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith(("stopped", "converged"))]
        assert len(stops) == 1 and stops[0].startswith(message)
        assert all(r.levelname == "INFO" for r in caplog.records if r.getMessage() in stops)

    @pytest.mark.parametrize("learning_rate, epochs, sign", [(1e-3, 2, "-"), (0.5, 4, "+")])
    def test_convergence_logs_the_signed_change(self, caplog, learning_rate, epochs, sign):
        # the logged relative change is that of the last two epoch losses,
        # sign included: at lr 0.5 the run converges while its loss rises
        _, dataset, ops = tiny_dataset()
        caplog.set_level("DEBUG", logger="dagranger.train")
        train_all(dataset, ops, TrainConfig(n_layers=2, learning_rate=learning_rate,
                                            convergence_numerator=1.0))
        messages = [r.getMessage() for r in caplog.records]
        losses = [float(m.split("loss ")[1]) for m in messages if m.startswith("epoch ")]
        change = f"{(losses[-1] - losses[-2]) / losses[-2]:+.3g}"
        assert messages[-1] == f"converged after {epochs} epochs (relative change {change})"
        assert len(losses) == epochs and change.startswith(sign)

    def test_independent_noise_pair_stays_in_null_band(self):
        # x pure noise: the trained residual gap should not look significant
        from dagranger.score import score_pair

        rng = np.random.default_rng(13)
        spec = SynthSpec(n_nodes=400, n_branches=1, depth=40, k_neighbors=2,
                         n_x_vars=2, n_y_vars=1, n_causal_pairs=1,
                         coupling=1.0, noise_sd=0.3, seed=8)
        ds = generate(spec)
        x_noise = rng.normal(size=400)
        dataset = Dataset(x_values=x_noise[:, None], y_values=ds.y_matrix,
                          x_names=("noise",), y_names=ds.y_names, pairs=((0, 0),))
        ops = lagged_operators(ds.dag)
        cfg = TrainConfig(n_layers=4, max_epochs=20, seed=1)
        results = train_all(dataset, ops, cfg)
        rep = losses_of_one_pair(x_noise, ds.y_matrix[:, 0], ops, results.full[:, 0],
                                 results.reduced[:, results.y_index[0]], lag_hops=cfg.lag_hops,
                                 link=cfg.link)
        s = score_pair(0, rep.per_node_full, rep.per_node_reduced, cfg.n_layers)
        assert s.f_pvalue > 0.05



def kernel_oracle(dataset, ops, config, component="both"):
    """``train_all`` with every epoch's pairs run through ``_chunk_forward_backward``.

    The reference for epochs 1 and 2 and for a final evaluation after at
    most one epoch, which ``train_all`` builds from per-variable work: here
    every pair's full model runs forward and backward in every epoch, all
    active pairs as one chunk in pair-id order, and forward once more in the
    final evaluation. It
    has no convergence rule (use ``convergence_numerator`` 0). Returns the
    ``TrainResult`` fields and the ids of the dropped pairs in the order
    they are logged: pass by pass, by id within a pass.
    """
    L, lr = config.n_layers, config.learning_rate
    train_full, train_reduced = component != "reduced", component != "full"
    xs, ys = dataset.pairs[:, 0], dataset.pairs[:, 1]
    y_used, y_at = np.unique(ys, return_inverse=True)
    lagged_x, lagged_y = strict_lag(dataset.x_values, ops), strict_lag(dataset.y_values, ops)
    init_full, init_reduced = glorot_init(L, np.random.default_rng(config.seed))
    full = np.repeat(init_full[:, None], len(xs), axis=1)
    reduced = np.repeat(init_reduced[:, None], y_used.size, axis=1)
    full_adam, reduced_adam = AdamState.zeros_like(full), AdamState.zeros_like(reduced)
    active = np.ones(len(xs), dtype=bool)
    dropped = []

    def kernel(cols, want_grads, bank=False):
        y = y_used[cols] if bank else ys[cols]
        lagged = np.take(lagged_y, y, axis=1)
        if not bank:
            lagged = np.hstack((lagged, np.take(lagged_x, xs[cols], axis=1)))
        return _chunk_forward_backward(
            lagged, np.take(dataset.y_values, y, axis=1),
            np.take(reduced if bank else full, cols, axis=1), ops, config.lag_hops,
            config.link, want_grads)

    def step(params, state, cols, grads, t):
        p, s = adam_step(params[:, cols], grads,
                         AdamState(m=state.m[:, cols], v=state.v[:, cols]), t, lr)
        params[:, cols], state.m[:, cols], state.v[:, cols] = p, s.m, s.v

    def drop(cols, ok):
        active[cols[~ok]] = False

    for t in range(1, config.max_epochs + 1):
        was_active = active.copy()
        ok_y = np.zeros(y_used.size, dtype=bool)
        cols = np.unique(y_at[active])
        _, _, grads, ok_y[cols] = kernel(cols, train_reduced, bank=True)
        if train_reduced:
            step(reduced, reduced_adam, cols[ok_y[cols]], grads[:, ok_y[cols]], t)
        batch = np.flatnonzero(active)
        _, _, grads, ok = kernel(batch, train_full)
        ok &= ok_y[y_at[batch]]
        drop(batch, ok)
        if train_full:
            step(full, full_adam, batch[ok], grads[:, ok], t)
        dropped.extend(np.flatnonzero(was_active & ~active).tolist())  # each pass's by id

    was_active = active.copy()
    stats = {"reduced": np.full((3, y_used.size), np.nan), "full": np.full((3, len(xs)), np.nan)}
    for name, cols in (("reduced", np.unique(y_at[active])), ("full", np.flatnonzero(active))):
        _, per_node, _, ok = kernel(cols, False, bank=name == "reduced")
        chunk_stats = _loss_stats(per_node)
        ok &= np.isfinite(chunk_stats).all(axis=0)
        if name == "full":
            ok &= ~np.isnan(stats["reduced"][0, y_at[cols]])
            drop(cols, ok)
        stats[name][:, cols[ok]] = chunk_stats[:, ok]
    dropped.extend(np.flatnonzero(was_active & ~active).tolist())
    fields = {"pair_ids": np.flatnonzero(active), "y_index": y_at, "full": full,
              "reduced": reduced}
    for name in ("full", "reduced"):
        for i, stat in enumerate(("rss", "mean", "var")):
            fields[f"{stat}_{name}"] = stats[name][i]
    return fields, dropped


class TestSharedStart:
    # epoch 1 starts every full column at the reduced model with c = 0, so
    # train_all builds it from each y's reduced pass and one encoding of each
    # x; a final evaluation while every full column still holds those shared
    # encoders (after 0 epochs, or 1 with both banks trained) takes enc(y)
    # from the final bank pass and again encodes each x once; so does epoch 2
    # when it starts at them, which then runs only the backward pass per
    # pair. The per-pair kernel passes they replace are the oracle, bit for
    # bit.

    @staticmethod
    def screen(bad=None):
        spec = SynthSpec(n_nodes=80, n_branches=2, depth=8, k_neighbors=2, n_x_vars=10,
                         n_y_vars=5, n_causal_pairs=3, n_candidate_pairs=50, noise_sd=0.3,
                         seed=6)
        ds = generate(spec)
        x, y = ds.x_matrix.copy(), ds.y_matrix.copy()
        ops = lagged_operators(ds.dag)
        if bad is not None:
            # a node with children, so the bad value reaches the lagged column
            node = int(np.flatnonzero(np.diff(ops.a.indptr))[0])
            x[node, 1] = y[node, 2] = bad
            assert not np.isfinite(strict_lag(x, ops)[:, 1]).all()
        return Dataset(x_values=x, y_values=y, x_names=ds.x_names, y_names=ds.y_names,
                       pairs=ds.candidates), ops

    def check(self, dataset, ops, cfg, component, workers, caplog):
        caplog.clear()
        result = train_all(dataset, ops, cfg, workers=workers, component=component)
        expected, dropped = kernel_oracle(dataset, ops, cfg, component)
        for name, array in expected.items():
            assert np.array_equal(getattr(result, name), array, equal_nan=True), name
        logged = [int(r.getMessage().split()[1]) for r in caplog.records
                  if r.getMessage().startswith("pair ")]
        assert logged == dropped
        return result, dropped

    @pytest.mark.parametrize("epochs", [0, 1, 2, 3])
    @pytest.mark.parametrize("workers, width", [(1, 1024), (3, 1)])
    @pytest.mark.parametrize("component", ["both", "full", "reduced"])
    @pytest.mark.parametrize("lag_hops", [1, 2])
    @pytest.mark.parametrize("link", ["identity", "exponential"])
    def test_equals_the_per_pair_pass(self, link, lag_hops, component, workers, width, epochs,
                                      caplog, monkeypatch):
        dataset, ops = self.screen()
        cap_chunks(monkeypatch, width)
        cfg = TrainConfig(n_layers=3, max_epochs=epochs, lag_hops=lag_hops, link=link, seed=4,
                          convergence_numerator=0.0)
        result, dropped = self.check(dataset, ops, cfg, component, workers, caplog)
        assert len(result) == len(dataset.pairs) and not dropped

    @pytest.mark.parametrize("epochs", [0, 1, 2, 3])
    @pytest.mark.parametrize("workers, width", [(1, 1024), (3, 1)])
    @pytest.mark.parametrize("component", ["both", "full", "reduced"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_inputs_drop_the_same_pairs(self, bad, component, workers, width,
                                                   epochs, caplog, monkeypatch):
        # x1 and y2 hold one bad value: every pair of y2 goes; pairs of x1 go
        # where the kernel meets the bad lagged value (NaN: always; inf: only
        # in the x backward pass, which runs when the full bank trains for at
        # least one epoch)
        dataset, ops = self.screen(bad)
        cap_chunks(monkeypatch, width)
        cfg = TrainConfig(n_layers=3, max_epochs=epochs, lag_hops=2, seed=4,
                          convergence_numerator=0.0)
        _, dropped = self.check(dataset, ops, cfg, component, workers, caplog)
        x1, y2 = (np.flatnonzero(dataset.pairs[:, i] == v) for i, v in ((0, 1), (1, 2)))
        x1_dropped = np.isnan(bad) or (component != "reduced" and epochs > 0)
        assert sorted(dropped) == sorted(set(y2) | (set(x1) if x1_dropped else set()))

    @pytest.mark.parametrize("epochs", [0, 1, 2, 3])
    @pytest.mark.parametrize("workers, width", [(1, 1024), (3, 1)])
    @pytest.mark.parametrize("component", ["both", "full", "reduced"])
    @pytest.mark.parametrize("link", ["identity", "exponential"])
    def test_scaled_inputs_drop_the_same_pairs(self, link, component, workers, width, epochs,
                                               caplog, monkeypatch):
        # y0 and x1 scaled by 1e200: the losses of y0 overflow, and the
        # pairs of x1 meet an overflow wherever the kernel does
        dataset, ops = self.screen()
        x, y = dataset.x_values.copy(), dataset.y_values.copy()
        x[:, 1] *= 1e200
        y[:, 0] *= 1e200
        big = Dataset(x_values=x, y_values=y, x_names=dataset.x_names, y_names=dataset.y_names,
                      pairs=dataset.pairs)
        cap_chunks(monkeypatch, width)
        cfg = TrainConfig(n_layers=3, max_epochs=epochs, link=link, seed=4,
                          convergence_numerator=0.0)
        _, dropped = self.check(big, ops, cfg, component, workers, caplog)
        assert set(np.flatnonzero(dataset.pairs[:, 1] == 0)) <= set(dropped)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_permuted_pairs_permute_every_result(self, workers, caplog):
        # no parameter is shared between pairs, so the order of the pairs
        # changes no bit of any pair's result: a shuffle of the pairs would
        # change nothing, and train_all runs them in pair-id order
        dataset, ops = self.screen(np.inf)
        perm = np.random.default_rng(0).permutation(len(dataset.pairs))
        shuffled = Dataset(x_values=dataset.x_values, y_values=dataset.y_values,
                           x_names=dataset.x_names, y_names=dataset.y_names,
                           pairs=dataset.pairs[perm])  # its pair k is pair perm[k]
        cfg = TrainConfig(n_layers=3, max_epochs=3, lag_hops=2, seed=4,
                          convergence_numerator=0.0)
        runs = []
        for data in (dataset, shuffled):
            caplog.clear()
            result = train_all(data, ops, cfg, workers=workers)
            runs.append((result, [int(r.getMessage().split()[1]) for r in caplog.records
                                  if r.getMessage().startswith("pair ")]))
        (a, dropped_a), (b, dropped_b) = runs
        assert dropped_a and sorted(perm[dropped_b]) == sorted(dropped_a)
        assert np.array_equal(np.sort(perm[b.pair_ids]), a.pair_ids)
        assert np.array_equal(b.y_index, a.y_index[perm])
        for name in ("full", "rss_full", "mean_full", "var_full"):
            assert np.array_equal(getattr(b, name), getattr(a, name)[..., perm],
                                  equal_nan=True), name
        for name in ("reduced", "rss_reduced", "mean_reduced", "var_reduced"):
            assert np.array_equal(getattr(b, name), getattr(a, name), equal_nan=True), name

    @pytest.mark.parametrize("workers, width", [(1, 1024), (3, 7)])
    def test_several_tiles_equal_the_per_pair_pass(self, workers, width, caplog, monkeypatch):
        # 40 y and 40 x: epoch 2 runs bank chunks of y (32 and 8, or six of
        # at most 7 with chunks capped at 7) by three blocks of x (16, 16,
        # 8), with an inf in one x column
        spec = SynthSpec(n_nodes=60, n_branches=2, depth=6, k_neighbors=2, n_x_vars=40,
                         n_y_vars=40, n_causal_pairs=10, n_candidate_pairs=400, noise_sd=0.3,
                         seed=3)
        ds = generate(spec)
        x = ds.x_matrix.copy()
        x[int(np.flatnonzero(np.diff(lagged_operators(ds.dag).a.indptr))[0]), 5] = np.inf
        dataset = Dataset(x_values=x, y_values=ds.y_matrix, x_names=ds.x_names,
                          y_names=ds.y_names, pairs=ds.candidates)
        assert np.unique(dataset.pairs[:, 1]).size > 32
        cap_chunks(monkeypatch, width)
        cfg = TrainConfig(n_layers=2, max_epochs=3, seed=1, convergence_numerator=0.0)
        _, dropped = self.check(dataset, lagged_operators(ds.dag), cfg, "both", workers, caplog)
        assert sorted(dropped) == np.flatnonzero(dataset.pairs[:, 0] == 5).tolist()

    @pytest.mark.parametrize("epochs", [0, 1, 2, 3])
    @pytest.mark.parametrize("component", ["both", "full", "reduced"])
    def test_final_evaluation_per_pair_only_off_the_shared_start(self, monkeypatch, epochs,
                                                                 component):
        # the full model runs through the kernel once per pair in each epoch
        # that starts off the shared encoders, and so does the final
        # evaluation: from epoch 3 on when both banks train (epoch 2 starts
        # at them), from epoch 2 on when only one does
        dataset, ops = self.screen()
        full_columns = []
        real = dagranger.train._chunk_forward_backward

        def counting(lagged, Y, *args):
            if lagged.shape[1] > Y.shape[1]:
                full_columns.append(Y.shape[1])
            return real(lagged, Y, *args)

        monkeypatch.setattr(dagranger.train, "_chunk_forward_backward", counting)
        cfg = TrainConfig(n_layers=3, max_epochs=epochs, seed=4, convergence_numerator=0.0)
        train_all(dataset, ops, cfg, component=component)
        per_variable = 2 if component == "both" else 1  # epochs at the shared encoders
        n_pairs = len(dataset.pairs)
        assert sum(full_columns) == (n_pairs * max(0, epochs - per_variable)
                                     + (0 if epochs < per_variable else n_pairs))

    def test_stored_and_per_pair_chunks_share_the_kernel_end(self, monkeypatch):
        # epoch 2's stored chunks and epoch 3's per-pair chunks turn their
        # encodings into losses and gradients through one function: it sees
        # every pair's full model once with gradients from each, in that
        # order, and once more without from the final evaluation
        dataset, ops = self.screen()
        calls = []
        real = dagranger.train._loss_and_gradients

        def counting(h, Y, theta, inputs, *args):
            if h.shape[1] > Y.shape[1]:  # the full model
                calls.append((sys._getframe(1).f_code.co_name, inputs is not None, Y.shape[1]))
            return real(h, Y, theta, inputs, *args)

        monkeypatch.setattr(dagranger.train, "_loss_and_gradients", counting)
        cfg = TrainConfig(n_layers=3, max_epochs=3, seed=4, convergence_numerator=0.0)
        assert len(train_all(dataset, ops, cfg)) == len(dataset.pairs)
        widths = {}
        for caller, grads, width in calls:
            widths[caller, grads] = widths.get((caller, grads), 0) + width
        n_pairs = len(dataset.pairs)
        assert widths == {("stored_chunk", True): n_pairs,
                          ("_chunk_forward_backward", True): n_pairs,
                          ("_chunk_forward_backward", False): n_pairs}
        callers = [caller for caller, _, _ in calls]
        assert callers == sorted(callers, key=("stored_chunk", "_chunk_forward_backward").index)

    def test_one_epoch_encodes_no_column_per_pair(self, monkeypatch):
        # epoch 1 and the final evaluation each encode every used x and y
        # once: 2 (n_x + n_y) columns, fewer than the pairs
        dataset, ops = self.screen()
        widths = []
        real = dagranger.train.encode_history_batch

        def counting(values, *args, **kwargs):
            widths.append(values.shape[1])
            return real(values, *args, **kwargs)

        monkeypatch.setattr(dagranger.train, "encode_history_batch", counting)
        train_all(dataset, ops, TrainConfig(n_layers=3, max_epochs=1, seed=4))
        n_x, n_y = (np.unique(dataset.pairs[:, i]).size for i in (0, 1))
        assert len(dataset.pairs) > 2 * (n_x + n_y)
        assert sum(widths) == 2 * (n_x + n_y)

    def test_two_epochs_encode_no_column_per_pair_before_the_final_evaluation(
            self, monkeypatch):
        # epoch 1 encodes each used y and x once, and so does epoch 2, which
        # starts at the shared encoders: its pairs run the backward pass
        # alone. Only the final evaluation, after 2 epochs, encodes per pair.
        dataset, ops = self.screen()
        widths = []
        real = dagranger.train.encode_history_batch

        def counting(values, *args, **kwargs):
            widths.append(values.shape[1])
            return real(values, *args, **kwargs)

        monkeypatch.setattr(dagranger.train, "encode_history_batch", counting)
        train_all(dataset, ops, TrainConfig(n_layers=3, max_epochs=2, seed=4,
                                            convergence_numerator=0.0))
        n_x, n_y = (np.unique(dataset.pairs[:, i]).size for i in (0, 1))
        assert widths[:4] == [n_y, n_x, n_y, n_x]
        assert sum(widths[4:]) == n_y + 2 * len(dataset.pairs)

    @pytest.mark.parametrize("scale", [1e200, 1e100])
    def test_overflowing_losses_drop_the_pairs_of_that_y(self, scale):
        # finite values whose squared residuals (1e200) or whose loss
        # variance (1e100) overflow: the pairs of y0 go, silently (pytest
        # turns a RuntimeWarning into an error), and every statistic left is
        # finite
        dataset, ops = self.screen()
        y = dataset.y_values.copy()
        y[:, 0] *= scale
        big = Dataset(x_values=dataset.x_values, y_values=y, x_names=dataset.x_names,
                      y_names=dataset.y_names, pairs=dataset.pairs)
        for epochs in (0, 1, 2):
            result = train_all(big, ops, TrainConfig(n_layers=2, max_epochs=epochs))
            assert result.pair_ids.tolist() == np.flatnonzero(dataset.pairs[:, 1] != 0).tolist()
            ids, yk = result.pair_ids, result.y_index[result.pair_ids]
            assert np.isfinite([result.rss_full[ids], result.var_full[ids],
                                result.rss_reduced[yk], result.var_reduced[yk]]).all()
