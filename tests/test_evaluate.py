import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dagranger.errors import DataError
from dagranger.evaluate import (
    auprc,
    auroc,
    label_from_reference,
    read_reference,
    write_metric_report,
)

ONE_CLASS = r"^need at least one true and one false label$"
NO_LABELS = (r"^no candidate pair fell below the true threshold or above the false "
             r"threshold$")


def auroc_bruteforce(scores, labels):
    """O(P*N) pairwise oracle with the same final expression."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = sum(1 for p in pos for q in neg if p > q)
    ties = sum(1 for p in pos for q in neg if p == q)
    return (2 * wins + ties) / (2 * len(pos) * len(neg))


def auprc_bruteforce(scores, labels):
    """Threshold-sweep oracle: rediscovers tie blocks by scanning thresholds."""
    thresholds = sorted(set(scores), reverse=True)
    n_true = sum(labels)
    ap = 0.0
    prev_true = prev_all = 0
    for th in thresholds:
        cum_true = sum(1 for s, l in zip(scores, labels) if l and s >= th)
        cum_all = sum(1 for s in scores if s >= th)
        block_true = cum_true - prev_true
        ap += block_true * (cum_true / cum_all)
        prev_true, prev_all = cum_true, cum_all
    return ap / n_true


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([3, 2, 1, 0], [True, True, False, False]) == 1.0

    def test_all_ties(self):
        assert auroc([1, 1, 1, 1], [True, False, True, False]) == 0.5

    def test_one_class_only(self):
        with pytest.raises(DataError, match=ONE_CLASS):
            auroc([1, 2], [True, True])

    def test_empty_input_is_one_class_only(self):
        with pytest.raises(DataError, match=ONE_CLASS):
            auroc([], [])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 50))
        scores = list(rng.integers(0, 8, size=n).astype(float))  # forces ties
        labels = list(rng.random(n) < 0.4)
        if not (any(labels) and not all(labels)):
            return
        assert auroc(scores, labels) == auroc_bruteforce(scores, labels)

    def test_negation_symmetry(self, rng):
        scores = rng.normal(size=40)  # distinct with probability 1
        labels = list(rng.random(40) < 0.5)
        if not (any(labels) and not all(labels)):
            labels[0], labels[1] = True, False
        a = auroc(scores, labels)
        b = auroc(-scores, labels)
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.normal(size=30)
        labels = list(rng.random(30) < 0.5)
        if not (any(labels) and not all(labels)):
            labels[0], labels[1] = True, False
        assert auroc(scores, labels) == auroc(np.exp(scores), labels)


class TestAuprc:
    def test_perfect_ranking(self):
        scores = list(range(100, 0, -1))
        labels = [i < 5 for i in range(100)]
        assert auprc(scores, labels) == 1.0

    def test_three_point_hand_case(self):
        # descending labels (T, F, T): precision at trues are 1 and 2/3
        assert auprc([3, 2, 1], [True, False, True]) == pytest.approx(5 / 6)

    def test_random_scores_approach_prevalence(self):
        # average precision of a random ranking has a small positive
        # finite-sample bias, so allow it on top of the Monte Carlo band
        rng = np.random.default_rng(0)
        prevalence = 0.2
        values = []
        for _ in range(300):
            labels = rng.random(500) < prevalence
            if not (labels.any() and not labels.all()):
                continue
            values.append(auprc(rng.normal(size=500), list(labels)))
        se = np.std(values) / np.sqrt(len(values))
        assert abs(np.mean(values) - prevalence) < 3 * se + 0.02

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_sweep_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 50))
        scores = list(rng.integers(0, 8, size=n).astype(float))
        labels = list(rng.random(n) < 0.4)
        if not (any(labels) and not all(labels)):
            return
        assert auprc(scores, labels) == auprc_bruteforce(scores, labels)

    def test_worst_ranking_matches_oracle(self):
        scores = list(range(10))
        labels = [i < 3 for i in range(10)]  # trues ranked last
        assert auprc(scores, labels) == auprc_bruteforce(scores, labels)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.normal(size=25)
        labels = list(rng.random(25) < 0.4)
        if not (any(labels) and not all(labels)):
            labels[0], labels[1] = True, False
        assert auprc(scores, labels) == auprc(3.0 * np.asarray(scores) + 7.0, labels)

    def test_empty_input_is_one_class_only(self):
        with pytest.raises(DataError, match=ONE_CLASS):
            auprc([], [])

    def test_nan_score_rejected(self):
        # a NaN ties with nothing, not even itself; the tie sweep used to spin
        with pytest.raises(ValueError):
            auprc([0.5, float("nan"), 0.1], [True, False, False])


class TestInputOrder:
    # eval passes the labeled pairs in the order of its reference file
    SCORE = st.one_of(st.sampled_from([0.0, -0.0, 1 / 3, 2.5]), st.floats(allow_nan=False))

    @given(st.lists(st.tuples(SCORE, st.booleans()), min_size=2, max_size=60).flatmap(
        lambda pairs: st.tuples(st.just(pairs), st.permutations(pairs))))
    @settings(max_examples=100, deadline=None)
    def test_permuting_the_pairs_changes_no_bit(self, pairs_and_permuted):
        pairs, permuted = pairs_and_permuted
        labels = [label for _, label in pairs]
        assume(any(labels) and not all(labels))
        for metric in (auroc, auprc):
            assert metric(*zip(*permuted)) == metric(*zip(*pairs))


class TestLabelFromReference:
    def test_thresholds(self):
        candidates = ["a", "b", "c"]
        reference = [("a", 1e-12), ("b", 0.95), ("c", 0.5)]
        labeled = label_from_reference(candidates, reference, 1e-10, 0.9)
        assert labeled == {"a": True, "b": False}

    def test_empty_reference(self):
        with pytest.raises(DataError, match=NO_LABELS):
            label_from_reference(["a"], [], 1e-10, 0.9)

    def test_all_between_thresholds(self):
        with pytest.raises(DataError, match=NO_LABELS):
            label_from_reference(["a"], [("a", 0.5)], 1e-10, 0.9)

    def test_non_candidates_dropped(self):
        labeled = label_from_reference(["a"], [("a", 0.0), ("z", 0.0)], 0.5, 0.5)
        assert set(labeled) == {"a"}


class TestReferenceIo:
    def test_read(self, tmp_path):
        path = tmp_path / "ref.tsv"
        path.write_text("# comment\npk1\tgene1\t1e-12\npk2\tgene2\t0.95\n")
        ref = read_reference(path)
        assert ref == [(("pk1", "gene1"), 1e-12), (("pk2", "gene2"), 0.95)]

    def test_metric_report(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        write_metric_report(path, "pearson", 0.5, 0.6, 10, 90)
        report = json.loads(path.read_text())
        assert report == {
            "method": "pearson", "auprc": 0.5, "auroc": 0.6,
            "n_true": 10, "n_false": 90,
        }
