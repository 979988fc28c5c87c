"""Ranking metrics against labeled reference pairs: AUROC and AUPRC.

AUROC uses the Mann-Whitney formulation P(score_pos > score_neg) + half the
tie probability, computed from integer win/tie counts so that equal inputs
give exactly equal outputs. AUPRC is average precision with tied scores
processed as one block: each block contributes (its true count) times the
precision at the end of the block.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NoLabeledPairs, OneClassOnly, ParseError

__all__ = [
    "LabeledPairs",
    "label_from_reference",
    "auroc",
    "auprc",
    "read_reference",
    "write_metric_report",
]


@dataclass(frozen=True)
class LabeledPairs:
    """Binary labels keyed by pair id, with a note on where they came from."""

    labels: dict
    provenance: str = ""

    def __post_init__(self):
        if not self.labels:
            raise NoLabeledPairs("no labeled pairs")

    @property
    def n_true(self) -> int:
        return sum(1 for v in self.labels.values() if v)

    @property
    def n_false(self) -> int:
        return sum(1 for v in self.labels.values() if not v)


def label_from_reference(
    candidates,
    reference,
    true_threshold: float,
    false_threshold: float,
    provenance: str = "",
) -> LabeledPairs:
    """Label candidate pairs from (pair, value) reference entries.

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
        raise NoLabeledPairs(
            "no candidate pair fell below the true threshold or above the false threshold"
        )
    return LabeledPairs(labels=labels, provenance=provenance)


def _score_blocks(scores, labels):
    """Descending blocks of tied scores as (n_true, n_false) per block."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    order = np.argsort(-scores, kind="stable")
    blocks: list[tuple[int, int]] = []
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            j += 1
        idx = order[i:j]
        t = int(labels[idx].sum())
        blocks.append((t, len(idx) - t))
        i = j
    return blocks


def auroc(scores, labels) -> float:
    """Probability a true pair outranks a false one, ties counting half."""
    blocks = _score_blocks(scores, labels)
    n_true = sum(t for t, _ in blocks)
    n_false = sum(f for _, f in blocks)
    if n_true == 0 or n_false == 0:
        raise OneClassOnly("need at least one true and one false label")
    wins = 0
    ties = 0
    falses_below = n_false
    for t, f in blocks:
        falses_below -= f
        wins += t * falses_below
        ties += t * f
    return (2 * wins + ties) / (2 * n_true * n_false)


def auprc(scores, labels) -> float:
    """Average precision over the descending-score sweep, tie blocks whole.

    Each block of equal scores contributes (trues in block) * (precision at
    the end of the block); the sum is normalized by the total true count.
    """
    blocks = _score_blocks(scores, labels)
    n_true = sum(t for t, _ in blocks)
    n_false = sum(f for _, f in blocks)
    if n_true == 0 or n_false == 0:
        raise OneClassOnly("need at least one true and one false label")
    ap = 0.0
    cum_true = 0
    cum_all = 0
    for t, f in blocks:
        cum_true += t
        cum_all += t + f
        ap += t * (cum_true / cum_all)
    return ap / n_true


def read_reference(path) -> list[tuple[tuple[str, str], float]]:
    """TSV rows ``x_name<TAB>y_name<TAB>value``; ``#`` lines ignored."""
    out: list[tuple[tuple[str, str], float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated columns")
            try:
                value = float(parts[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric value") from exc
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
