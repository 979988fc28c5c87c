import hashlib
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from dagranger.errors import ConfigError
from dagranger.graph import lagged_operators
from dagranger.synth import (
    SynthSpec,
    generate,
    generate_branching_dag,
    simulate_pair_values,
    write_dataset,
)


def small_spec(**overrides):
    kw = dict(n_nodes=120, n_branches=2, depth=12, k_neighbors=2,
              n_x_vars=6, n_y_vars=4, n_causal_pairs=3, seed=5)
    kw.update(overrides)
    return SynthSpec(**kw)


class TestGenerateBranchingDag:
    def test_single_branch_one_parent_is_chain(self):
        spec = SynthSpec(n_nodes=10, n_branches=1, depth=10, k_neighbors=1,
                         n_x_vars=2, n_y_vars=2, n_causal_pairs=1, seed=0)
        dag, pt = generate_branching_dag(spec)
        assert np.array_equal(dag.edges, np.column_stack((np.arange(9), np.arange(1, 10))))

    def test_pseudotime_increases_along_edges(self):
        dag, pt = generate_branching_dag(small_spec())
        assert (pt[dag.edges[:, 0]] < pt[dag.edges[:, 1]]).all()

    def test_seeded_reproducibility(self):
        dag1, pt1 = generate_branching_dag(small_spec())
        dag2, pt2 = generate_branching_dag(small_spec())
        assert np.array_equal(dag1.edges, dag2.edges)
        assert np.array_equal(pt1, pt2)

    def test_every_non_root_layer_connected(self):
        dag, _ = generate_branching_dag(small_spec(k_neighbors=3))
        non_roots = (dag.in_degree[np.arange(10, 120)] > 0)
        assert non_roots.all()


class TestSimulatePairValues:
    def test_deterministic_chain_lag1(self):
        # noise 0, linear mechanism: target equals coupling * parent's cause value
        spec = SynthSpec(n_nodes=20, n_branches=1, depth=20, k_neighbors=1,
                         n_x_vars=1, n_y_vars=1, n_causal_pairs=1,
                         lag_steps=1, coupling=2.0, noise_sd=0.0,
                         nonlinearity="linear", seed=3)
        dag, _ = generate_branching_dag(spec)
        rng = np.random.default_rng(9)
        x, y = simulate_pair_values(dag, {(0, 0)}, spec, rng)
        assert y[0, 0] == 0.0  # root has no ancestors at lag 1
        assert np.allclose(y[1:, 0], 2.0 * x[:-1, 0], atol=1e-12)

    def test_zero_coupling_indistinguishable(self):
        # chain DAG keeps per-column values close to iid so the KS test applies
        spec = SynthSpec(n_nodes=400, n_branches=1, depth=400, k_neighbors=1,
                         n_x_vars=4, n_y_vars=6, n_causal_pairs=2,
                         coupling=0.0, noise_sd=0.4, seed=5)
        ds = generate(spec)
        causal_ys = sorted({yi for _, yi in ds.truth})
        null_ys = [j for j in range(6) if j not in causal_ys]
        ks = sps.ks_2samp(ds.y_matrix[:, causal_ys[0]], ds.y_matrix[:, null_ys[0]])
        assert ks.pvalue > 0.01

    def test_dropout_zero_fraction(self):
        spec = small_spec(n_nodes=600, depth=10, dropout_rate=0.9)
        ds = generate(spec)
        zero_frac = (ds.x_matrix == 0).mean()
        assert zero_frac >= 0.85

    def test_planted_correlation_at_generous_signal(self):
        # harness validity: strong coupling, tiny noise, no dropout
        spec = small_spec(n_nodes=500, depth=20, k_neighbors=3,
                          coupling=1.0, noise_sd=0.1, dropout_rate=0.0)
        ds = generate(spec)
        ops = lagged_operators(ds.dag)
        at = ops.a.T.tocsr()
        for xi, yi in ds.truth:
            lagged = ds.x_matrix[:, xi]
            for _ in range(spec.lag_steps):
                lagged = at @ lagged
            r = np.corrcoef(ds.y_matrix[:, yi], np.tanh(lagged))[0, 1]
            assert abs(r) > 0.5

    def test_generation_deterministic(self):
        a = generate(small_spec(dropout_rate=0.3))
        b = generate(small_spec(dropout_rate=0.3))
        assert np.array_equal(a.x_matrix, b.x_matrix)
        assert np.array_equal(a.y_matrix, b.y_matrix)
        assert a.truth == b.truth and a.candidates == b.candidates


class TestSpecValidation:
    def test_too_many_causal_pairs(self):
        with pytest.raises(ConfigError):
            small_spec(n_causal_pairs=100)

    def test_bad_dropout(self):
        with pytest.raises(ConfigError):
            small_spec(dropout_rate=1.0)

    def test_candidates_must_cover_truth(self):
        with pytest.raises(ConfigError):
            small_spec(n_candidate_pairs=2, n_causal_pairs=3)

    @pytest.mark.parametrize("option, value, message", [
        ("coupling", float("nan"), "coupling must be finite, got nan"),
        ("coupling", float("-inf"), "coupling must be finite, got -inf"),
        ("noise_sd", -1.0, "noise_sd must be finite and >= 0, got -1.0"),
        ("noise_sd", float("inf"), "noise_sd must be finite and >= 0, got inf"),
        ("noise_sd", float("nan"), "noise_sd must be finite and >= 0, got nan"),
        ("n_x_vars", 0, "n_x_vars must be >= 1, got 0"),
        ("n_y_vars", -1, "n_y_vars must be >= 1, got -1"),
        ("n_causal_pairs", -1, "n_causal_pairs must be >= 0, got -1"),
    ])
    def test_out_of_range_option(self, option, value, message):
        with pytest.raises(ConfigError) as exc:
            small_spec(**{option: value})
        assert str(exc.value) == message

    def test_edges_of_the_ranges_accepted(self):
        ds = generate(small_spec(n_x_vars=1, n_y_vars=1, n_causal_pairs=0, coupling=-2.0,
                                 noise_sd=0.0))
        assert ds.x_matrix.shape[1] == ds.y_matrix.shape[1] == 1 and not ds.truth

    def test_truth_subset_of_candidates(self):
        ds = generate(small_spec(n_candidate_pairs=10))
        assert ds.truth <= set(ds.candidates)
        assert len(ds.candidates) == 10


class TestWriteDataset:
    def test_emits_consumable_files(self, tmp_path):
        ds = generate(small_spec(dropout_rate=0.2))
        paths = write_dataset(ds, tmp_path)
        from dagranger.graph import read_edge_list
        from dagranger.preprocess import read_matrix, read_pseudotime

        x = read_matrix(paths["x_matrix"])
        assert x.var_names == ds.x_names
        assert np.allclose(x.values, ds.x_matrix)
        dag = read_edge_list(paths["edges"], n_nodes=ds.dag.n_nodes)
        assert np.array_equal(dag.edges, ds.dag.edges)
        pt = read_pseudotime(paths["pseudotime"])
        assert np.allclose(pt, ds.pseudotime)
        ref_lines = [l.split("\t") for l in Path(paths["reference"]).read_text().splitlines()]
        assert len(ref_lines) == len(ds.candidates)
        truth_values = {tuple(l[:2]): float(l[2]) for l in ref_lines}
        for xi, yi in ds.truth:
            assert truth_values[(ds.x_names[xi], ds.y_names[yi])] == 0.0

    def test_bytes_unchanged(self, tmp_path):
        # sha256 over each file's key and bytes, in key order, as first recorded
        ds = generate(small_spec(depth=8, k_neighbors=4, n_candidate_pairs=12,
                                 dropout_rate=0.2))
        paths = write_dataset(ds, tmp_path)
        digest = hashlib.sha256()
        for key in sorted(paths):
            digest.update(key.encode() + b"\0" + Path(paths[key]).read_bytes())
        assert digest.hexdigest() == (
            "2bfb1323df25d71d45ed9bcb599af2b7035cf71d0c52d95f69d16557081f951e")
