import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagranger.errors import ConfigError, DataError
from dagranger.graph import lagged_operators
from dagranger.score import (
    FLAGS,
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
from dagranger.train import Dataset, TrainConfig, train_all

from pair_kernel import losses_of_one_pair


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
        with pytest.raises(DataError, match=r"^need n > 4L\+1 = 41 observations, got n = 41$"):
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
        with pytest.raises(DataError, match=r"^Welch's t-test needs at least 2 observations per "
                                            r"sample$"):
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


def rank_reference(scores, pair_ids):
    """1-based ranks by a Python sort: descending score, ties by pair id, NaN last."""
    order = sorted(range(len(scores)), key=lambda i: (
        math.isnan(scores[i]), 0.0 if math.isnan(scores[i]) else -scores[i], pair_ids[i]))
    ranks = [0] * len(scores)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return ranks


class TestRankPairs:
    def _ranks(self, scores):
        pair_ids, values = zip(*scores)
        return rank_pairs(np.array(values, dtype=float), np.array(pair_ids)).tolist()

    def test_descending_by_f(self):
        assert self._ranks([(0, 2.0), (1, 5.0)]) == [2, 1]

    def test_tie_break_by_id(self):
        assert self._ranks([(3, 2.0), (1, 2.0), (2, math.inf)]) == [3, 2, 1]

    def test_nan_ranks_last(self):
        # a NaN score used to break the sort: [1.0, nan, 2.0, 0.5] ranked 1..4
        assert self._ranks(enumerate([1.0, math.nan, 2.0, 0.5])) == [2, 4, 1, 3]
        ranks = self._ranks([(4, math.nan), (0, -math.inf), (2, math.nan), (1, 0.0)])
        assert ranks == [4, 2, 3, 1]

    def test_welch_mode(self):
        # the score is -log10 of the Welch p-value, and the rank follows it
        cols = tiny_scored(rank_mode="welch")
        assert cols["pair_id"].size == 6
        for p, score in zip(cols["t_pvalue"].tolist(), cols["score"].tolist()):
            assert score == (math.inf if p == 0.0 else -math.log10(p))
        by_rank = cols["t_pvalue"][np.argsort(cols["rank"])]
        assert by_rank.tolist() == sorted(cols["t_pvalue"].tolist())

    def test_permutation_of_inputs(self, rng):
        ranks = self._ranks((i, float(rng.random())) for i in rng.permutation(30))
        assert sorted(ranks) == list(range(1, 31))

    def test_monotone_invariant_enforced(self, rng):
        scores = rng.integers(0, 5, size=40).astype(float)
        scores[::7] = math.inf
        ranks = np.array(self._ranks(enumerate(scores)))
        order = np.argsort(ranks)
        for a, b in zip(order, order[1:]):
            assert scores[a] > scores[b] or (scores[a] == scores[b] and a < b)

    @given(st.lists(st.one_of(st.floats(allow_nan=True), st.sampled_from([0.0, -0.0, 1.0])),
                    max_size=40), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_equals_python_sort(self, scores, random):
        pair_ids = list(range(len(scores)))
        random.shuffle(pair_ids)
        ranks = rank_pairs(np.array(scores, dtype=float), np.array(pair_ids, dtype=np.int64))
        assert ranks.tolist() == rank_reference(scores, pair_ids)


def flag_names(code):
    """The names a ``flags`` code stands for: bit i is FLAGS[i]."""
    return [name for i, name in enumerate(FLAGS) if code >> i & 1]


class TestScoreDataset:
    def test_dagranger_f_mode_scores_are_f_stats(self):
        cols = tiny_scored()
        assert cols["pair_id"].tolist() == list(range(6))
        assert np.array_equal(cols["score"], cols["f_stat"])
        assert cols["method"].tolist() == ["dagranger"] * 6

    @pytest.mark.parametrize("method, field", [("pearson", "r"), ("pseudocell", "r"),
                                               ("var-granger", "f_pvalue")])
    def test_baselines_rank_by_score(self, method, field):
        cols = tiny_scored(method=method)
        assert cols["pair_id"].size == 6 and cols[field].size == 6
        by_rank = cols["score"][np.argsort(cols["rank"])]
        assert (by_rank[:-1] >= by_rank[1:]).all()

    @pytest.mark.parametrize("method", METHODS)
    def test_columns_name_each_pair(self, method):
        # equal-length columns in pair-id order, names taken from the pairs
        ds, dataset = tiny_inputs()
        cols = tiny_scored(method=method)
        assert len({c.size for c in cols.values()}) == 1
        assert cols["pair_id"].tolist() == list(range(len(dataset.pairs)))
        assert cols["x_name"].tolist() == [ds.x_names[xi] for xi, _ in ds.candidates]
        assert cols["y_name"].tolist() == [ds.y_names[yi] for _, yi in ds.candidates]
        assert sorted(cols["rank"].tolist()) == list(range(1, 7))

    def test_dagranger_fields_equal_score_pair_of_each_pair(self):
        # score_dataset tests every pair at once from train_all's statistics,
        # each y's reduced statistics shared by its pairs; each record must
        # equal score_pair on the per-node losses of the pair's own model.
        ds, dataset = tiny_inputs()
        assert np.unique(dataset.pairs[:, 1]).size < len(dataset.pairs)
        ops = lagged_operators(ds.dag)
        results = train_all(dataset, ops, TINY_CONFIG)
        cols = tiny_scored()
        assert cols["pair_id"].tolist() == results.pair_ids.tolist()
        for i, pid in enumerate(cols["pair_id"].tolist()):
            xi, yi = dataset.pairs[pid]
            rep = losses_of_one_pair(dataset.x_values[:, xi], dataset.y_values[:, yi], ops,
                                     results.full[:, pid],
                                     results.reduced[:, results.y_index[pid]],
                                     lag_hops=TINY_CONFIG.lag_hops, link=TINY_CONFIG.link)
            s = score_pair(pid, rep.per_node_full, rep.per_node_reduced, TINY_CONFIG.n_layers)
            assert (cols["f_stat"][i], cols["f_pvalue"][i], cols["t_stat"][i],
                    cols["t_pvalue"][i], flag_names(cols["flags"][i]),
                    cols["df1"][i], cols["df2"][i]) == (
                s.f_stat, s.f_pvalue, s.t_stat, s.t_pvalue, list(s.flags), s.df1, s.df2)

    @pytest.mark.parametrize("method", METHODS)
    def test_no_pairs_no_records(self, method):
        ds, dataset = tiny_inputs()
        empty = Dataset(x_values=dataset.x_values, y_values=dataset.y_values,
                        x_names=dataset.x_names, y_names=dataset.y_names, pairs=())
        cols = score_dataset(
            empty, method, ops=lagged_operators(ds.dag), neighbor_edges=ds.dag.edges,
            coords=None, pseudotime=ds.pseudotime, config=TINY_CONFIG, workers=1,
            rank_mode="f", var_max_lag=1, pseudocell_neighborhood=5)
        assert {"pair_id", "x_name", "y_name", "method", "score", "rank"} <= set(cols)
        assert all(c.size == 0 for c in cols.values())

    def test_var_granger_needs_pseudotime(self):
        with pytest.raises(ConfigError):
            tiny_scored(method="var-granger", pseudotime=False)

    @pytest.mark.parametrize("method, rank_mode", [("nosuch", "f"), ("pearson", "nosuch")])
    def test_unknown_method_or_rank_mode(self, method, rank_mode):
        with pytest.raises(ConfigError):
            tiny_scored(method=method, rank_mode=rank_mode)


def records_of(columns):
    """The records the columns stand for, with Python values and ``flags`` as names."""
    keys = list(columns)
    rows = zip(*(columns[k].tolist() for k in keys))
    return [{k: flag_names(v) if k == "flags" else v for k, v in zip(keys, row)}
            for row in rows]


def reference_bytes(columns) -> bytes:
    """The writer's oracle: the stdlib encoder on each record, one line each."""
    encoder = json.JSONEncoder(sort_keys=True)
    return "".join(encoder.encode(rec) + "\n" for rec in records_of(columns)).encode()


NAMES = st.text(alphabet=st.one_of(
    st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028é✓\U0001f600')))
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                                    2.2250738585072014e-308]))


class TestScoreRecordsIo:
    def test_roundtrip(self, tmp_path):
        columns = {"pair_id": np.array([0, 1]), "score": np.array([1.5, math.inf]),
                   "x_name": np.array(["a", "c"], dtype=object),
                   "y_name": np.array(["b", "d"], dtype=object)}
        path = tmp_path / "scores.jsonl"
        write_score_records(path, columns)
        assert read_score_records(path) == records_of(columns)

    def test_special_values_and_every_flag_set(self, tmp_path):
        columns = {"pair_id": np.arange(4), "flags": np.arange(4),
                   "x_name": np.array(['q"uote', "back\\slash", "ctl\x00\n\t", "ünï✓"],
                                      dtype=object),
                   "y_name": np.array(["y"] * 4, dtype=object),
                   "f_stat": np.array([math.inf, -math.inf, math.nan, -0.0]),
                   "score": np.array([5e-324, 1e308, 0.1, -2.5]),
                   "df2": np.array([0, -1, 2**62, 7])}
        path = tmp_path / "scores.jsonl"
        write_score_records(path, columns)
        assert path.read_bytes() == reference_bytes(columns)
        flags = [rec["flags"] for rec in read_score_records(path)]
        assert flags == [[], ["zero_residual"], ["zero_variance_both"],
                         ["zero_residual", "zero_variance_both"]]

    def test_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        import dagranger.score

        monkeypatch.setattr(dagranger.score, "_WRITE_BLOCK", 3)
        columns = {"pair_id": np.arange(10), "score": np.linspace(-1.0, 1.0, 10),
                   "x_name": np.array(list("abcdefghij"), dtype=object),
                   "flags": np.arange(10) % 4}
        path = tmp_path / "scores.jsonl"
        write_score_records(path, columns)
        assert path.read_bytes() == reference_bytes(columns)

    def test_an_array_under_two_keys_is_made_text_once(self, tmp_path, monkeypatch):
        # f rank mode's score is the f_stat array itself
        import dagranger.score

        monkeypatch.setattr(dagranger.score, "_WRITE_BLOCK", 4)
        made = []
        real = dagranger.score._column_text

        def counting(key, values):
            made.append(key)
            return real(key, values)

        monkeypatch.setattr(dagranger.score, "_column_text", counting)
        f = np.array([3.5, math.nan, 0.25, -0.0, 7.0])
        columns = {"pair_id": np.arange(5), "f_stat": f, "score": f,
                   "x_name": np.array(list("abcde"), dtype=object)}
        path = tmp_path / "scores.jsonl"
        write_score_records(path, columns)
        assert path.read_bytes() == reference_bytes(columns)
        assert sorted(made) == sorted(["f_stat", "pair_id", "x_name"] * 2)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_unsigned_score_and_one_value_columns(self, tmp_path_factory, data):
        # a correlation's score is |r|, written from r's text without its
        # sign; a column with one value throughout is written into the line
        # template, its % escaped
        n = data.draw(st.integers(0, 12))
        r = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=np.float64)
        score = np.abs(r)
        if n and data.draw(st.booleans()):  # a score that is not |r| at one record
            score[data.draw(st.integers(0, n - 1))] = data.draw(FLOATS)
        columns = {"pair_id": np.arange(n), "r": r, "score": score,
                   "method": np.full(n, "100% pearson", dtype=object), "df2": np.full(n, 7)}
        path = tmp_path_factory.mktemp("w") / "scores.jsonl"
        write_score_records(path, columns)
        assert path.read_bytes() == reference_bytes(columns)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_the_stdlib_encoder(self, tmp_path_factory, data):
        n = data.draw(st.integers(0, 12))
        column = lambda elements: data.draw(st.lists(elements, min_size=n, max_size=n))
        names = data.draw(st.lists(NAMES, min_size=1, max_size=4))
        pick = lambda: np.array([names[i] for i in column(st.integers(0, len(names) - 1))],
                                dtype=object)
        columns = {"pair_id": np.array(column(st.integers(0, 2**63 - 1)), dtype=np.int64),
                   "x_name": pick(), "y_name": pick(),
                   "method": np.full(n, "dagranger", dtype=object),
                   "f_stat": np.array(column(FLOATS), dtype=np.float64),
                   "score": np.array(column(FLOATS), dtype=np.float64),
                   "df1": np.array(column(st.integers(-2**63, 2**63 - 1)), dtype=np.int64),
                   "flags": np.array(column(st.integers(0, 3)), dtype=np.int64)}
        path = tmp_path_factory.mktemp("w") / "scores.jsonl"
        write_score_records(path, columns)
        assert path.read_bytes() == reference_bytes(columns)
