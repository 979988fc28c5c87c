"""Statistical comparison of full vs reduced models, and the scoring of a dataset.

Two tests are offered over the per-node loss terms of a trained pair:

* an F-test on the residual sums of squares with (2L+1, n-4L-1) degrees of
  freedom -- the full model carries two 2L-parameter encoders plus the
  interaction coefficient, the reduced model one 2L-parameter encoder;
* a one-tailed Welch's t-test with the alternative that the full model's
  mean per-node loss is smaller.

Their p-values come from ``scipy.special`` (``fdtrc``, ``stdtr``).
``score_dataset`` turns a dataset into the score records of one method
(dagranger or one of the baselines), and ``rank_pairs`` ranks every
method's records by one rule: descending ``score``, ties by pair id.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import baselines, train
from .errors import ConfigError, DegenerateSampleSize, DomainError, ParseError

__all__ = [
    "METHODS",
    "RANK_MODES",
    "PairScore",
    "f_test",
    "welch_t",
    "score_pair",
    "score_dataset",
    "rank_pairs",
    "write_score_records",
    "read_score_records",
]

METHODS = ("dagranger", "pearson", "pseudocell", "var-granger")
RANK_MODES = ("f", "welch")


def f_test(rss_reduced: float, rss_full: float, n: int, L: int) -> tuple[float, float]:
    """F-statistic and upper-tail p for the reduced-vs-full residual comparison.

    F = ((rss_reduced - rss_full) / (2L+1)) / (rss_full / (n - 4L - 1)).
    A negative numerator (full model worse) clamps to F = 0, p = 1: the
    one-sided test carries no evidence in that direction. rss_full == 0
    returns (inf, 0.0); callers flag that degenerate case.
    """
    df1 = 2 * L + 1
    df2 = n - 4 * L - 1
    if df2 <= 0:
        raise DegenerateSampleSize(
            f"need n > 4L+1 = {4 * L + 1} observations, got n = {n}"
        )
    if rss_full < 0 or rss_reduced < 0:
        raise DomainError("residual sums of squares must be nonnegative")
    if rss_full == 0.0:
        return math.inf, 0.0
    numerator = (rss_reduced - rss_full) / df1
    if numerator <= 0.0:
        return 0.0, 1.0
    f = numerator / (rss_full / df2)
    return f, float(special.fdtrc(df1, df2, f))


def _moments(losses) -> tuple[int, float, float]:
    """(n, mean, sample variance) of one sample of per-node losses."""
    a = np.asarray(losses, dtype=np.float64)
    if a.shape[0] < 2:
        raise DegenerateSampleSize("Welch's t-test needs at least 2 observations per sample")
    return a.shape[0], float(a.mean()), float(a.var(ddof=1))


def welch_t(losses_full, losses_reduced) -> tuple[float, float]:
    """One-tailed Welch's t-test that the full model's mean loss is smaller.

    Returns (t, p) with t = (mean_full - mean_reduced) / se and
    p = P(T <= t) under the Welch-Satterthwaite approximation, so strong
    evidence for the full model gives very negative t and tiny p. When both
    samples are constant: p = 1 if mean_full >= mean_reduced, else p = 0.
    """
    return _welch_from_moments(_moments(losses_full), _moments(losses_reduced))


def _welch_from_moments(full, reduced) -> tuple[float, float]:
    """``welch_t`` from each sample's ``_moments``."""
    (nf, mf, vf), (nr, mr, vr) = full, reduced
    if vf == 0.0 and vr == 0.0:
        if mf < mr:
            return -math.inf, 0.0
        if mf > mr:
            return math.inf, 1.0
        return 0.0, 1.0
    af, ar = vf / nf, vr / nr
    se2 = af + ar
    t = (mf - mr) / math.sqrt(se2)
    df = se2 * se2 / (af * af / (nf - 1) + ar * ar / (nr - 1))
    return t, float(special.stdtr(df, t))


@dataclass(frozen=True)
class PairScore:
    """The outputs of both tests on one pair."""

    pair_id: int
    f_stat: float
    f_pvalue: float
    t_stat: float
    t_pvalue: float
    df1: int
    df2: int
    flags: tuple[str, ...] = ()


def score_pair(pair_id: int, per_node_full, per_node_reduced, L: int, *,
               reduced=None) -> PairScore:
    """Run both tests on one pair's per-node loss vectors.

    ``reduced`` is ``(rss, _moments)`` of ``per_node_reduced`` when the caller
    already holds them, as it does for the pairs of one y, which share one
    reduced model; ``per_node_reduced`` is then not read.
    """
    lf = np.asarray(per_node_full, dtype=np.float64)
    n = lf.shape[0]
    rss_full = float(lf.sum())
    if reduced is None:
        lr = np.asarray(per_node_reduced, dtype=np.float64)
        reduced = float(lr.sum()), _moments(lr)
    rss_reduced, reduced_moments = reduced
    flags: list[str] = []
    if rss_full == 0.0:
        flags.append("zero_residual")
    f_stat, f_p = f_test(rss_reduced, rss_full, n, L)
    full_moments = _moments(lf)
    if full_moments[2] == 0.0 and reduced_moments[2] == 0.0:
        flags.append("zero_variance_both")
    t_stat, t_p = _welch_from_moments(full_moments, reduced_moments)
    return PairScore(
        pair_id=pair_id,
        f_stat=f_stat,
        f_pvalue=f_p,
        t_stat=t_stat,
        t_pvalue=t_p,
        df1=2 * L + 1,
        df2=n - 4 * L - 1,
        flags=tuple(flags),
    )


def _significance(p: float) -> float:
    """-log10(p), infinite at p = 0: the score of a pair ranked by a p-value."""
    return math.inf if p <= 0.0 else -math.log10(p)


def score_dataset(dataset, method: str, *, ops, neighbor_edges, coords, pseudotime,
                  config, workers: int, rank_mode: str, var_max_lag: int,
                  pseudocell_neighborhood: int) -> list[dict]:
    """The ranked score records of one method, one per scored pair in pair-id order.

    Every record has ``pair_id``, ``x_name``, ``y_name``, ``method``, ``score``
    and ``rank``; ``rank_pairs`` sets ``rank`` from ``score``. The other fields:

    * dagranger trains every pair (``train.train_all`` with ``config`` on
      ``ops`` and ``workers`` threads) and adds both tests' statistics,
      p-values, degrees of freedom and ``flags``. ``score`` is ``f_stat``
      when ``rank_mode`` is "f" and -log10(``t_pvalue``) when it is "welch".
      Pairs that went non-finite in training have no record.
    * pearson and pseudocell add the correlation ``r``, and ``score`` is |r|;
      pseudocell first averages each node over up to
      ``pseudocell_neighborhood`` of its ``neighbor_edges`` neighbours
      (nearest first when ``coords`` are given).
    * var-granger bins each pair over ``pseudotime`` and adds the VAR F-test's
      ``f_stat`` and ``f_pvalue`` with ``var_max_lag`` lags; ``score`` is
      -log10(``f_pvalue``).
    """
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if rank_mode not in RANK_MODES:
        raise ConfigError(f"rank mode must be one of {RANK_MODES}, got {rank_mode!r}")
    records: list[dict] = []

    def add(pid: int, **fields) -> None:
        xi, yi = dataset.pairs[pid]
        records.append({"pair_id": pid, "x_name": dataset.x_names[xi],
                        "y_name": dataset.y_names[yi], "method": method, **fields})

    if method == "dagranger":
        results = train.train_all(dataset, ops, config, workers=workers)
        reduced_by_y: dict[int, tuple] = {}  # the pairs of one y share its reduced model
        for pid in sorted(results):
            rep = results[pid].report
            yi = dataset.pairs[pid][1]
            if yi not in reduced_by_y:
                reduced_by_y[yi] = rep.rss_reduced, _moments(rep.per_node_reduced)
            s = score_pair(pid, rep.per_node_full, rep.per_node_reduced, config.n_layers,
                           reduced=reduced_by_y[yi])
            add(pid, f_stat=s.f_stat, f_pvalue=s.f_pvalue, t_stat=s.t_stat,
                t_pvalue=s.t_pvalue, df1=s.df1, df2=s.df2, flags=list(s.flags),
                score=s.f_stat if rank_mode == "f" else _significance(s.t_pvalue))
    elif method == "var-granger":
        if pseudotime is None:
            raise ConfigError("var-granger needs --pseudotime")
        for pid, (xi, yi) in enumerate(dataset.pairs):
            binned = baselines.bin_by_pseudotime(
                dataset.x_values[:, xi], dataset.y_values[:, yi], pseudotime)
            f, p = baselines.var_granger(binned.x_bins, binned.y_bins, var_max_lag)
            add(pid, f_stat=f, f_pvalue=p, score=_significance(p))
    else:
        x_all, y_all = dataset.x_values, dataset.y_values
        if method == "pseudocell":
            x_all = baselines.pseudocell_smooth(
                x_all, neighbor_edges, pseudocell_neighborhood, coords=coords)
            y_all = baselines.pseudocell_smooth(
                y_all, neighbor_edges, pseudocell_neighborhood, coords=coords)
        for pid, (xi, yi) in enumerate(dataset.pairs):
            r = baselines.pearson(x_all[:, xi], y_all[:, yi])
            add(pid, r=r, score=abs(r))
    rank_pairs(records)
    return records


def rank_pairs(records: list[dict]) -> None:
    """Set each record's 1-based ``rank``: descending ``score``, ties by ``pair_id``."""
    order = sorted(records, key=lambda r: (-r["score"], r["pair_id"]))
    for rank, rec in enumerate(order, start=1):
        rec["rank"] = rank


def write_score_records(path, records) -> None:
    """One JSON object per line; infinities serialize as ``Infinity`` (readable back)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def read_score_records(path) -> list[dict]:
    """The records of a score file; a line that is not a JSON object raises ParseError."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: not a JSON record ({exc})") from exc
            if not isinstance(rec, dict):
                raise ParseError(f"{path}:{lineno}: not a JSON object")
            records.append(rec)
    return records
