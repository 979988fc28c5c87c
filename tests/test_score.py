import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagranger.errors import ConfigError, DegenerateSampleSize
from dagranger.graph import lagged_operators
from dagranger.score import (
    METHODS,
    f_test,
    rank_pairs,
    read_score_records,
    score_dataset,
    score_pair,
    welch_t,
    write_score_records,
)
from dagranger.synth import SynthSpec, generate
from dagranger.train import Dataset, TrainConfig, pair_loss, train_all


def beta_quadrature(x, a, b):
    """Independent oracle: high-precision quadrature of the beta density."""
    mpmath.mp.dps = 30
    density = lambda t: mpmath.power(t, a - 1) * mpmath.power(1 - t, b - 1)
    total = mpmath.beta(a, b)
    return float(mpmath.quad(density, [0, x]) / total)


def welch_oracle(full, reduced):
    """(t, P(T <= t)) of Welch's test, computed in 40-digit arithmetic from the samples."""
    with mpmath.workdps(40):
        f = [mpmath.mpf(float(v)) for v in full]
        r = [mpmath.mpf(float(v)) for v in reduced]
        mf, mr = mpmath.fsum(f) / len(f), mpmath.fsum(r) / len(r)
        af = mpmath.fsum((v - mf) ** 2 for v in f) / (len(f) - 1) / len(f)
        ar = mpmath.fsum((v - mr) ** 2 for v in r) / (len(r) - 1) / len(r)
        t = (mf - mr) / mpmath.sqrt(af + ar)
        df = (af + ar) ** 2 / (af ** 2 / (len(f) - 1) + ar ** 2 / (len(r) - 1))
        # P(|T| <= |t|) is small near t = 0, so the oracle keeps its digits there
        inner = mpmath.betainc(0.5, df / 2, 0, t * t / (df + t * t), regularized=True)
        return float(t), float((1 + mpmath.sign(t) * inner) / 2)


class TestFTest:
    def test_paper_degrees_of_freedom(self):
        s = score_pair(0, np.ones(5000), np.full(5000, 1.1), L=10)
        assert (s.df1, s.df2) == (21, 4959)

    def test_no_improvement(self):
        f, p = f_test(1.0, 1.0, n=100, L=1)
        assert (f, p) == (0.0, 1.0)

    def test_hand_case_statistic_and_p(self):
        f, p = f_test(2.0, 1.0, n=10, L=1)
        assert f == pytest.approx(5.0 / 3.0)
        # p against the regularized-incomplete-beta oracle via quadrature
        df1, df2 = 3, 5
        x = df2 / (df2 + df1 * f)
        assert p == pytest.approx(beta_quadrature(x, df2 / 2, df1 / 2), abs=1e-12)

    def test_negative_numerator_clamped(self):
        f, p = f_test(0.5, 1.0, n=100, L=2)
        assert (f, p) == (0.0, 1.0)

    def test_zero_residual_sentinel(self):
        f, p = f_test(1.0, 0.0, n=100, L=1)
        assert math.isinf(f) and p == 0.0

    def test_degenerate_sample_size(self):
        with pytest.raises(DegenerateSampleSize):
            f_test(2.0, 1.0, n=41, L=10)

    @given(st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_p_monotone_in_reduced_rss(self, bump):
        _, p1 = f_test(1.0 + bump, 1.0, n=200, L=3)
        _, p2 = f_test(1.0 + 2 * bump, 1.0, n=200, L=3)
        assert p2 <= p1

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, scale):
        f1, _ = f_test(3.0, 1.5, n=120, L=2)
        f2, _ = f_test(3.0 * scale, 1.5 * scale, n=120, L=2)
        assert f2 == pytest.approx(f1, rel=1e-12)


class TestWelchT:
    def test_identical_vectors(self, rng):
        losses = rng.random(50) + 0.5
        t, p = welch_t(losses, losses)
        assert t == 0.0 and p == 0.5

    def test_strong_full_advantage(self, rng):
        full = rng.normal(1.0, 0.01, size=200)
        reduced = rng.normal(5.0, 0.01, size=200)
        t, p = welch_t(full, reduced)
        assert t < 0 and p < 1e-6

    def test_permutation_cross_check(self, rng):
        # Welch p consistent with a label-permutation null on the same statistic
        full = rng.normal(0.9, 0.3, size=60)
        reduced = rng.normal(1.2, 0.5, size=60)
        t_obs, p = welch_t(full, reduced)
        pooled = np.concatenate([full, reduced])
        hits = 0
        trials = 3000
        perm_rng = np.random.default_rng(7)
        for _ in range(trials):
            perm = perm_rng.permutation(pooled)
            t_perm, _ = welch_t(perm[:60], perm[60:])
            hits += t_perm <= t_obs
        assert abs(hits / trials - p) < 0.02

    def test_swap_symmetry(self, rng):
        a = rng.normal(size=40)
        b = rng.normal(size=40) + 0.3
        t1, p1 = welch_t(a, b)
        t2, p2 = welch_t(b, a)
        assert t2 == pytest.approx(-t1)
        assert p2 == pytest.approx(1.0 - p1, abs=1e-12)

    def test_scipy_cross_check(self, rng):
        from scipy import stats

        a = rng.normal(size=35)
        b = rng.normal(size=45) * 1.7 + 0.2
        t, p = welch_t(a, b)
        ref = stats.ttest_ind(a, b, equal_var=False, alternative="less")
        assert t == pytest.approx(ref.statistic, rel=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-10)

    def test_both_constant(self):
        assert welch_t(np.ones(5), np.full(5, 2.0)) == (-math.inf, 0.0)
        assert welch_t(np.full(5, 2.0), np.ones(5)) == (math.inf, 1.0)

    def test_too_small(self):
        with pytest.raises(DegenerateSampleSize):
            welch_t(np.ones(1), np.ones(5))

    @pytest.mark.parametrize("t_target", [4.527e-7, -4.527e-7, 1e-9, -0.3, 2.0, -6.0])
    def test_matches_mpmath(self, rng, t_target):
        # two samples of 2,000 with equal variances give df = 3998; near t = 0
        # the tail must not round to exactly 0.5 (the true p at t = 4.527e-7
        # is 0.5000001806)
        full = rng.normal(size=2000)
        se = math.sqrt(2.0 * full.var(ddof=1) / full.size)
        reduced = full[::-1] - t_target * se
        t, p = welch_t(full, reduced)
        t_oracle, p_oracle = welch_oracle(full, reduced)
        assert t == pytest.approx(t_oracle, rel=1e-6)
        assert p == pytest.approx(p_oracle, rel=1e-10, abs=0.0)


TINY_CONFIG = TrainConfig(n_layers=2, max_epochs=2, seed=0)


def tiny_inputs():
    spec = SynthSpec(n_nodes=60, n_branches=1, depth=10, k_neighbors=2, n_x_vars=4,
                     n_y_vars=3, n_causal_pairs=2, noise_sd=0.3, seed=0, n_candidate_pairs=6)
    ds = generate(spec)
    dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix,
                      x_names=ds.x_names, y_names=ds.y_names, pairs=ds.candidates)
    return ds, dataset


def tiny_scored(rank_mode="f", method="dagranger", pseudotime=True):
    ds, dataset = tiny_inputs()
    return score_dataset(
        dataset, method, ops=lagged_operators(ds.dag), neighbor_edges=ds.dag.edges,
        coords=None, pseudotime=ds.pseudotime if pseudotime else None,
        config=TINY_CONFIG, workers=1,
        rank_mode=rank_mode, var_max_lag=1, pseudocell_neighborhood=5)


class TestRankPairs:
    def _records(self, scores):
        return [{"pair_id": pid, "score": s} for pid, s in scores]

    def test_descending_by_f(self):
        records = [{"pair_id": 0, "f_stat": 2.0, "score": 2.0},
                   {"pair_id": 1, "f_stat": 5.0, "score": 5.0}]
        rank_pairs(records)
        assert [r["rank"] for r in records] == [2, 1]

    def test_tie_break_by_id(self):
        records = self._records([(3, 2.0), (1, 2.0), (2, math.inf)])
        rank_pairs(records)
        assert [r["rank"] for r in records] == [3, 2, 1]

    def test_welch_mode(self):
        # the score is -log10 of the Welch p-value, and the rank follows it
        records = tiny_scored(rank_mode="welch")
        assert len(records) == 6
        for r in records:
            expected = math.inf if r["t_pvalue"] == 0.0 else -math.log10(r["t_pvalue"])
            assert r["score"] == expected
        by_rank = sorted(records, key=lambda r: r["rank"])
        assert [r["t_pvalue"] for r in by_rank] == sorted(r["t_pvalue"] for r in records)

    def test_permutation_of_inputs(self, rng):
        records = self._records((i, float(rng.random())) for i in rng.permutation(30))
        rank_pairs(records)
        assert sorted(r["rank"] for r in records) == list(range(1, 31))

    def test_monotone_invariant_enforced(self, rng):
        scores = rng.integers(0, 5, size=40).astype(float)
        scores[::7] = math.inf
        records = self._records(enumerate(scores))
        rank_pairs(records)
        by_rank = sorted(records, key=lambda r: r["rank"])
        for a, b in zip(by_rank, by_rank[1:]):
            assert a["score"] > b["score"] or (
                a["score"] == b["score"] and a["pair_id"] < b["pair_id"])


class TestScoreDataset:
    def test_dagranger_f_mode_scores_are_f_stats(self):
        records = tiny_scored()
        assert [r["pair_id"] for r in records] == list(range(6))
        assert all(r["score"] == r["f_stat"] and r["method"] == "dagranger"
                   for r in records)

    @pytest.mark.parametrize("method, field", [("pearson", "r"), ("pseudocell", "r"),
                                               ("var-granger", "f_pvalue")])
    def test_baselines_rank_by_score(self, method, field):
        records = tiny_scored(method=method)
        assert len(records) == 6 and all(field in r for r in records)
        by_rank = sorted(records, key=lambda r: r["rank"])
        assert all(a["score"] >= b["score"] for a, b in zip(by_rank, by_rank[1:]))

    def test_dagranger_fields_equal_score_pair_of_each_pair(self):
        # score_dataset tests every pair at once from train_all's statistics,
        # each y's reduced statistics shared by its pairs; each record must
        # equal score_pair on the per-node losses of the pair's own model.
        ds, dataset = tiny_inputs()
        assert len({y for _, y in dataset.pairs}) < len(dataset.pairs)
        ops = lagged_operators(ds.dag)
        results = train_all(dataset, ops, TINY_CONFIG)
        records = tiny_scored()
        assert [rec["pair_id"] for rec in records] == results.pair_ids.tolist()
        for rec in records:
            xi, yi = dataset.pairs[rec["pair_id"]]
            rep = pair_loss(dataset.x_values[:, xi], dataset.y_values[:, yi], ops,
                            results.full[:, rec["pair_id"]],
                            results.reduced[:, results.y_index[rec["pair_id"]]],
                            lag_hops=TINY_CONFIG.lag_hops, link=TINY_CONFIG.link)
            s = score_pair(rec["pair_id"], rep.per_node_full, rep.per_node_reduced,
                           TINY_CONFIG.n_layers)
            assert (rec["f_stat"], rec["f_pvalue"], rec["t_stat"], rec["t_pvalue"],
                    rec["flags"]) == (s.f_stat, s.f_pvalue, s.t_stat, s.t_pvalue, list(s.flags))

    @pytest.mark.parametrize("method", METHODS)
    def test_no_pairs_no_records(self, method):
        ds, dataset = tiny_inputs()
        empty = Dataset(x_values=dataset.x_values, y_values=dataset.y_values,
                        x_names=dataset.x_names, y_names=dataset.y_names, pairs=())
        assert score_dataset(
            empty, method, ops=lagged_operators(ds.dag), neighbor_edges=ds.dag.edges,
            coords=None, pseudotime=ds.pseudotime, config=TINY_CONFIG, workers=1,
            rank_mode="f", var_max_lag=1, pseudocell_neighborhood=5) == []

    def test_var_granger_needs_pseudotime(self):
        with pytest.raises(ConfigError):
            tiny_scored(method="var-granger", pseudotime=False)

    @pytest.mark.parametrize("method, rank_mode", [("nosuch", "f"), ("pearson", "nosuch")])
    def test_unknown_method_or_rank_mode(self, method, rank_mode):
        with pytest.raises(ConfigError):
            tiny_scored(method=method, rank_mode=rank_mode)


class TestScoreRecordsIo:
    def test_roundtrip(self, tmp_path):
        records = [
            {"pair_id": 0, "score": 1.5, "x_name": "a", "y_name": "b"},
            {"pair_id": 1, "score": math.inf, "x_name": "c", "y_name": "d"},
        ]
        path = tmp_path / "scores.jsonl"
        write_score_records(path, records)
        assert read_score_records(path) == records
