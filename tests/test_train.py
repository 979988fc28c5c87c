import math

import numpy as np
import pytest

import dagranger.model
import dagranger.train
from dagranger.errors import DimensionMismatch, NonFiniteParameter
from dagranger.graph import lagged_operators
from dagranger.model import predict_full, predict_reduced, strict_lag
from dagranger.synth import SynthSpec, generate
from dagranger.train import (
    AdamState,
    _chunk_forward_backward,
    _loss_stats,
    Dataset,
    TrainConfig,
    adam_step,
    glorot_init,
    pair_gradients,
    pair_loss,
    train_all,
)

from conftest import random_dag


def finite_difference(x, y, ops, full, reduced, lag_hops, link, h=1e-6):
    """Central differences of rss_full + rss_reduced over both columns: (fd_full, fd_reduced)."""
    def total(f, r):
        rep = pair_loss(x, y, ops, f, r, lag_hops=lag_hops, link=link)
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
        report = pair_loss(np.zeros(3), np.ones(3), chain3_ops, np.zeros(9), np.zeros(4),
                           lag_hops=1, link="exponential")
        assert np.array_equal(report.per_node_full, np.zeros(3))
        assert report.rss_full == 0.0 and report.rss_reduced == 0.0

    def test_zero_params_unit_targets(self, chain3_ops):
        y = np.ones(3)
        report = pair_loss(np.zeros(3), y, chain3_ops, np.zeros(9), np.zeros(4),
                           lag_hops=1, link="identity")
        assert np.array_equal(report.per_node_full, np.ones(3))
        assert report.rss_full == 3.0 and report.rss_reduced == 3.0

    def test_totals_match_recomputation(self, rng):
        dag = random_dag(rng, 15)
        ops = lagged_operators(dag)
        full, reduced = random_columns(rng, 3)
        x, y = rng.normal(size=15), rng.normal(size=15) * 0.3
        spec = dict(lag_hops=1, link="exponential")
        report = pair_loss(x, y, ops, full, reduced, **spec)
        yhat_full = predict_full(x, y, ops, full, **spec)
        yhat_reduced = predict_reduced(y, ops, reduced, **spec)
        assert report.rss_full == pytest.approx(float(((yhat_full - y) ** 2).sum()))
        assert report.rss_reduced == pytest.approx(float(((yhat_reduced - y) ** 2).sum()))


class TestColumnChecks:
    # the single-pair functions check both columns before any arithmetic
    @pytest.mark.parametrize("function", [pair_loss, pair_gradients])
    @pytest.mark.parametrize("lengths", [(8, 4), (9, 3), (9, 6), (1, 0), (0, 4)])
    def test_wrong_length_rejected(self, chain3_ops, function, lengths):
        n_full, n_reduced = lengths
        with pytest.raises(DimensionMismatch):
            function(np.ones(3), np.ones(3), chain3_ops, np.zeros(n_full), np.zeros(n_reduced),
                     lag_hops=1, link="identity")

    @pytest.mark.parametrize("function", [pair_loss, pair_gradients])
    @pytest.mark.parametrize("column", ["full", "reduced"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, chain3_ops, function, column, bad):
        columns = {"full": np.zeros(9), "reduced": np.zeros(4)}
        columns[column][-1] = bad  # c in the full column
        with pytest.raises(NonFiniteParameter):
            function(np.ones(3), np.ones(3), chain3_ops, columns["full"], columns["reduced"],
                     lag_hops=1, link="identity")


class TestPairGradients:
    @pytest.mark.parametrize("link", ["identity", "exponential"])
    @pytest.mark.parametrize("lag_hops", [1, 2])
    def test_matches_finite_differences(self, rng, link, lag_hops):
        dag = random_dag(rng, 14)
        ops = lagged_operators(dag)
        full, reduced = random_columns(rng, 3)
        x, y = rng.normal(size=14), rng.normal(size=14) * 0.5
        g_full, g_reduced = pair_gradients(x, y, ops, full, reduced, lag_hops=lag_hops, link=link)
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
        g_full, _ = pair_gradients(np.zeros(10), rng.normal(size=10), ops, full, reduced,
                                   lag_hops=1, link="identity")
        assert g_full[-1] == 0.0

    def test_reduced_gradients_independent_of_x(self, rng):
        dag = random_dag(rng, 12)
        ops = lagged_operators(dag)
        full, reduced = random_columns(rng, 2)
        y = rng.normal(size=12)
        _, g1 = pair_gradients(rng.normal(size=12), y, ops, full, reduced, lag_hops=1,
                               link="identity")
        _, g2 = pair_gradients(rng.normal(size=12), y, ops, full, reduced, lag_hops=1,
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
        *_, g_full, ok_full = _chunk_forward_backward(
            strict_lag(X, ops), strict_lag(Y, ops), Y, full, ops, lag_hops, link,
            want_grads=True)
        *_, g_reduced, ok_reduced = _chunk_forward_backward(
            None, strict_lag(Y, ops), Y, reduced, ops, lag_hops, link, want_grads=True)
        assert g_full.shape == full.shape and g_reduced.shape == reduced.shape
        assert ok_full.all() and ok_reduced.all()
        for j in range(width):
            args = (X[:, j], Y[:, j], ops, full[:, j], reduced[:, j])
            fds = finite_difference(*args, lag_hops, link)
            singles = pair_gradients(*args, lag_hops=lag_hops, link=link)
            for g, fd, single in zip((g_full[:, j], g_reduced[:, j]), fds, singles):
                assert relative_error(g, fd) < 1e-5
                assert (np.abs(g - single) / np.maximum(np.abs(single), 1e-8)).max() < 1e-12

    def test_sparse_products_done_once(self, rng, monkeypatch):
        # a pair chunk does the 2(L-1) forward products of layers 2..L of its
        # two encoders and a chunk of the reduced bank the (L-1) of its one,
        # with or without gradients: the backward pass reuses the forward
        # pass's layer inputs, and layer 1's products are done once per
        # train_all
        calls = []
        real = dagranger.model.transpose_apply_batch

        def counting(op, values):
            calls.append(values.shape[1])
            return real(op, values)

        n, width, L = 16, 5, 4
        ops = lagged_operators(random_dag(rng, n))
        X, Y = rng.normal(size=(n, width)), rng.normal(size=(n, width))
        full, reduced = (np.stack(bank, axis=1) for bank in
                         zip(*(random_columns(rng, L) for _ in range(width))))
        lagged_x, lagged_y = strict_lag(X, ops), strict_lag(Y, ops)
        monkeypatch.setattr(dagranger.model, "transpose_apply_batch", counting)
        for want_grads in (True, False):
            calls.clear()
            _chunk_forward_backward(lagged_x, lagged_y, Y, full, ops, 2, "identity", want_grads)
            assert calls == [width] * (2 * (L - 1))
            calls.clear()
            _chunk_forward_backward(None, lagged_y, Y, reduced, ops, 2, "identity", want_grads)
            assert calls == [width] * (L - 1)

        ds, dataset, ops = tiny_dataset(seed=2, n_pairs=6)
        epochs = 3
        calls.clear()
        train_all(dataset, ops, TrainConfig(n_layers=L, max_epochs=epochs, seed=0,
                                            convergence_numerator=0.0))
        n_x, n_y = (len({p[i] for p in dataset.pairs}) for i in (0, 1))
        # one pair chunk and one bank chunk per epoch plus the final evaluation
        per_pass = [6] * (2 * (L - 1)) + [n_y] * (L - 1)
        assert sorted(calls) == sorted([n_x, n_y] + per_pass * (epochs + 1))

    def test_reduced_model_trained_once_per_y(self, monkeypatch):
        # five pairs over two y variables: every pass (each epoch and the
        # final evaluation) runs the reduced encoder on two columns, the full
        # model on five, and the pairs of one y report one shared reduced model
        # with one set of reduced statistics
        ds, _, ops = tiny_dataset(seed=5)
        pairs = ((0, 0), (1, 0), (2, 0), (3, 1), (0, 1))
        dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix, x_names=ds.x_names,
                          y_names=ds.y_names, pairs=pairs)
        widths = {"full": [], "reduced": []}
        real = dagranger.train._chunk_forward_backward

        def counting(lagged_x, lagged_y, *args):
            widths["reduced" if lagged_x is None else "full"].append(lagged_y.shape[1])
            return real(lagged_x, lagged_y, *args)

        monkeypatch.setattr(dagranger.train, "_chunk_forward_backward", counting)
        epochs = 3
        results = train_all(dataset, ops, TrainConfig(n_layers=3, max_epochs=epochs, seed=0,
                                                      minibatch_pairs=2,
                                                      convergence_numerator=0.0))
        assert widths["reduced"] == [2] * (epochs + 1)
        assert sum(widths["full"]) == len(pairs) * (epochs + 1)
        assert results.reduced.shape == (6, 2) and results.rss_reduced.shape == (2,)
        assert results.y_index.tolist() == [0, 0, 0, 1, 1]
        # each y's statistics are those of its model's per-node losses
        for pid in (0, 3):
            xi, yi = pairs[pid]
            j = results.y_index[pid]
            direct = pair_loss(dataset.x_values[:, xi], dataset.y_values[:, yi], ops,
                               results.full[:, pid], results.reduced[:, j], lag_hops=1,
                               link="identity")
            assert results.rss_reduced[j] == direct.per_node_reduced.sum()
            assert results.mean_reduced[j] == direct.per_node_reduced.mean()
            assert results.var_reduced[j] == direct.per_node_reduced.var(ddof=1)


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
            xi, yi = dataset.pairs[pid]
            direct = pair_loss(dataset.x_values[:, xi], dataset.y_values[:, yi], ops, full,
                               reduced, lag_hops=cfg.lag_hops, link=cfg.link)
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

    def test_bit_identical_across_minibatch_sizes_and_workers(self):
        # chunk widths differ (1, 2, 64 and the remainder) but no pair's
        # arithmetic may depend on which pairs share its chunk
        spec = SynthSpec(n_nodes=200, n_branches=2, n_x_vars=20, n_y_vars=10,
                         n_causal_pairs=5, n_candidate_pairs=150, noise_sd=0.3, seed=1)
        ds = generate(spec)
        dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix,
                          x_names=ds.x_names, y_names=ds.y_names, pairs=ds.candidates)
        ops = lagged_operators(ds.dag)

        def run(minibatch_pairs, workers):
            cfg = TrainConfig(n_layers=3, max_epochs=2, minibatch_pairs=minibatch_pairs,
                              seed=0, convergence_numerator=0.0)
            results = train_all(dataset, ops, cfg, workers=workers)
            # the statistics of dropped pairs are NaN, which equal_nan compares
            return {name: getattr(results, name) for name in (
                "pair_ids", "y_index", "full", "reduced", "rss_full", "mean_full", "var_full",
                "rss_reduced", "mean_reduced", "var_reduced")}

        reference = run(1024, 1)
        for minibatch_pairs, workers in ((1, 1), (2, 1), (1024, 2)):
            other = run(minibatch_pairs, workers)
            for name, array in reference.items():
                assert np.array_equal(array, other[name], equal_nan=True), (
                    minibatch_pairs, workers, name)

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
        rep = pair_loss(x_noise, ds.y_matrix[:, 0], ops, results.full[:, 0],
                        results.reduced[:, results.y_index[0]], lag_hops=cfg.lag_hops,
                        link=cfg.link)
        s = score_pair(0, rep.per_node_full, rep.per_node_reduced, cfg.n_layers)
        assert s.f_pvalue > 0.05

