"""Ranking metrics against labeled reference pairs: AUROC and AUPRC.

Both metrics come from one sweep down the scores: a stable sort in
descending order, cut into blocks of tied scores, gives each block's count
of true and of false pairs. AUROC is the Mann-Whitney P(score_pos >
score_neg) plus half the tie probability, from integer win and tie counts,
so that equal inputs give exactly equal outputs. AUPRC is average precision
with each tie block taken whole: the block contributes its true count times
the precision at its end, summed from the top block down. Neither depends
on the order of the input pairs.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import DataError
from .textio import numbered_lines

__all__ = [
    "label_from_reference",
    "auroc",
    "auprc",
    "read_reference",
    "write_metric_report",
]


def label_from_reference(
    candidates,
    reference,
    true_threshold: float,
    false_threshold: float,
) -> dict:
    """Binary labels keyed by pair, for candidate pairs from (pair, value) reference entries.

    value < true_threshold -> true; value > false_threshold -> false; values
    between the thresholds are discarded, as are reference entries for pairs
    outside the candidate set.
    """
    candidate_set = set(candidates)
    labels = {}
    for pair, value in reference:
        if pair not in candidate_set:
            continue
        if value < true_threshold:
            labels[pair] = True
        elif value > false_threshold:
            labels[pair] = False
    if not labels:
        raise DataError("no candidate pair fell below the true threshold or above the false "
                        "threshold")
    return labels


def _score_blocks(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """The true and the false count of each block of tied scores, top block first."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    if labels.all() or not labels.any():  # empty input too
        raise DataError("need at least one true and one false label")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    n_true = np.add.reduceat(labels[order], starts, dtype=np.int64)
    return n_true, np.diff(np.r_[starts, len(ranked)]) - n_true


def auroc(scores, labels) -> float:
    """Probability a true pair outranks a false one, ties counting half."""
    t, f = _score_blocks(scores, labels)
    wins = int(t @ (f.sum() - np.cumsum(f)))  # each true against the falses below its block
    ties = int(t @ f)
    return (2 * wins + ties) / (2 * int(t.sum()) * int(f.sum()))


def auprc(scores, labels) -> float:
    """Average precision over the descending-score sweep, tie blocks whole.

    Each block of equal scores contributes (trues in block) * (precision at
    the end of the block); the sum, taken from the top block down, is
    normalized by the total true count.
    """
    t, f = _score_blocks(scores, labels)
    cum_true = np.cumsum(t)
    terms = t * (cum_true / np.cumsum(t + f))
    return float(np.cumsum(terms)[-1] / cum_true[-1])


def read_reference(path) -> list[tuple[tuple[str, str], float]]:
    """TSV rows ``x_name<TAB>y_name<TAB>value``; ``#`` lines ignored."""
    out: list[tuple[tuple[str, str], float]] = []
    for lineno, line in numbered_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated columns")
        try:
            value = float(parts[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric value") from exc
        out.append(((parts[0], parts[1]), value))
    return out


def write_metric_report(path, method: str, auprc_value: float, auroc_value: float,
                        n_true: int, n_false: int) -> None:
    report = {
        "method": method,
        "auprc": auprc_value,
        "auroc": auroc_value,
        "n_true": n_true,
        "n_false": n_false,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
