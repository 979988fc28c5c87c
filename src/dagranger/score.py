"""Statistical comparison of full vs reduced models, and the scoring of a dataset.

Two tests are offered over the per-node loss terms of a trained pair:

* an F-test on the residual sums of squares with (2L+1, n-4L-1) degrees of
  freedom -- the full model carries two 2L-parameter encoders plus the
  interaction coefficient, the reduced model one 2L-parameter encoder;
* a one-tailed Welch's t-test with the alternative that the full model's
  mean per-node loss is smaller.

Their p-values come from ``scipy.special`` (``fdtrc``, ``stdtr``).
``score_dataset`` turns a dataset into the score records of one method
(dagranger or one of the baselines) as columns, ``rank_pairs`` ranks every
method's records by one rule: descending ``score``, ties by pair id, NaN last,
and ``write_score_records`` alone knows the line format of a score file.

Both tests run on arrays of per-pair loss statistics (``_pair_tests``), one
``fdtrc`` and one ``stdtr`` call for a whole screen; ``f_test``, ``welch_t``
and ``score_pair`` are the same code at width one.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np
from scipy import special

from . import baselines, train
from .errors import ConfigError, DegenerateSampleSize, DomainError, ParseError

__all__ = [
    "METHODS",
    "RANK_MODES",
    "FLAGS",
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
FLAGS = ("zero_residual", "zero_variance_both")  # the flags a dagranger record can raise

_FLAG_TEXT = tuple(json.dumps([name for i, name in enumerate(FLAGS) if code >> i & 1])
                   for code in range(1 << len(FLAGS)))  # by ``flags`` code: bit i is FLAGS[i]
_WRITE_BLOCK = 2048  # records turned into text at a time, which bounds the writer's memory


def _f_dof(n: int, L: int) -> tuple[int, int]:
    """The F-test's (df1, df2) = (2L+1, n-4L-1); raises when df2 <= 0."""
    df2 = n - 4 * L - 1
    if df2 <= 0:
        raise DegenerateSampleSize(
            f"need n > 4L+1 = {4 * L + 1} observations, got n = {n}"
        )
    return 2 * L + 1, df2


def _f_tests(rss_reduced: np.ndarray, rss_full: np.ndarray, n: int, L: int):
    """``f_test`` on arrays of residual sums: (f, p) arrays."""
    df1, df2 = _f_dof(n, L)
    if (rss_full < 0).any() or (rss_reduced < 0).any():
        raise DomainError("residual sums of squares must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        numerator = (rss_reduced - rss_full) / df1
        f = numerator / (rss_full / df2)
    zero = rss_full == 0.0
    clamped = ~zero & (numerator <= 0.0)
    f[zero], f[clamped] = math.inf, 0.0
    p = special.fdtrc(df1, df2, f)
    p[zero], p[clamped] = 0.0, 1.0
    return f, p


def f_test(rss_reduced: float, rss_full: float, n: int, L: int) -> tuple[float, float]:
    """F-statistic and upper-tail p for the reduced-vs-full residual comparison.

    F = ((rss_reduced - rss_full) / (2L+1)) / (rss_full / (n - 4L - 1)).
    A negative numerator (full model worse) clamps to F = 0, p = 1: the
    one-sided test carries no evidence in that direction. rss_full == 0
    returns (inf, 0.0); callers flag that degenerate case.
    """
    f, p = _f_tests(np.array([rss_reduced], dtype=np.float64),
                    np.array([rss_full], dtype=np.float64), n, L)
    return float(f[0]), float(p[0])


def _moments(losses):
    """(n, mean, sample variance) of one sample of per-node losses, the last two at width one."""
    a = np.asarray(losses, dtype=np.float64)
    if a.shape[0] < 2:
        raise DegenerateSampleSize("Welch's t-test needs at least 2 observations per sample")
    return a.shape[0], np.array([a.mean()]), np.array([a.var(ddof=1)])


def _welch_tests(full, reduced):
    """``welch_t`` on arrays: ``full`` and ``reduced`` are (n, means, variances)."""
    (nf, mf, vf), (nr, mr, vr) = full, reduced
    with np.errstate(divide="ignore", invalid="ignore"):
        af, ar = vf / nf, vr / nr
        se2 = af + ar
        t = (mf - mr) / np.sqrt(se2)
        df = se2 * se2 / (af * af / (nf - 1) + ar * ar / (nr - 1))
    p = special.stdtr(df, t)
    constant = (vf == 0.0) & (vr == 0.0)
    below, above = constant & (mf < mr), constant & (mf > mr)
    level = constant & ~below & ~above
    t[below], t[above], t[level] = -math.inf, math.inf, 0.0
    p[below], p[above], p[level] = 0.0, 1.0, 1.0
    return t, p


def welch_t(losses_full, losses_reduced) -> tuple[float, float]:
    """One-tailed Welch's t-test that the full model's mean loss is smaller.

    Returns (t, p) with t = (mean_full - mean_reduced) / se and
    p = P(T <= t) under the Welch-Satterthwaite approximation, so strong
    evidence for the full model gives very negative t and tiny p. When both
    samples are constant: p = 1 if mean_full >= mean_reduced, else p = 0.
    """
    t, p = _welch_tests(_moments(losses_full), _moments(losses_reduced))
    return float(t[0]), float(p[0])


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


def _pair_tests(n: int, L: int, rss_full, mean_full, var_full, rss_reduced, mean_reduced,
                var_reduced) -> dict[str, np.ndarray]:
    """Both tests on arrays of per-pair loss statistics over n nodes.

    Returns the arrays ``f_stat``, ``f_pvalue``, ``t_stat`` and ``t_pvalue``,
    and the boolean arrays of the two flags.
    """
    f, fp = _f_tests(rss_reduced, rss_full, n, L)
    t, tp = _welch_tests((n, mean_full, var_full), (n, mean_reduced, var_reduced))
    return {"f_stat": f, "f_pvalue": fp, "t_stat": t, "t_pvalue": tp,
            "zero_residual": rss_full == 0.0,
            "zero_variance_both": (var_full == 0.0) & (var_reduced == 0.0)}


def score_pair(pair_id: int, per_node_full, per_node_reduced, L: int) -> PairScore:
    """Run both tests on one pair's per-node loss vectors."""
    lf = np.asarray(per_node_full, dtype=np.float64)
    lr = np.asarray(per_node_reduced, dtype=np.float64)
    (n, mf, vf), (_, mr, vr) = _moments(lf), _moments(lr)
    tests = _pair_tests(n, L, np.array([lf.sum()]), mf, vf, np.array([lr.sum()]), mr, vr)
    df1, df2 = _f_dof(n, L)
    return PairScore(
        pair_id=pair_id,
        f_stat=float(tests["f_stat"][0]),
        f_pvalue=float(tests["f_pvalue"][0]),
        t_stat=float(tests["t_stat"][0]),
        t_pvalue=float(tests["t_pvalue"][0]),
        df1=df1,
        df2=df2,
        flags=tuple(name for name in FLAGS if tests[name][0]),
    )


def _significance(p: np.ndarray) -> np.ndarray:
    """-log10(p), infinite at p = 0: the score of each pair ranked by a p-value.

    ``math.log10`` per element, whose bits ``np.log10`` need not reproduce.
    """
    return np.array([math.inf if v <= 0.0 else -math.log10(v) for v in p.tolist()])


def score_dataset(dataset, method: str, *, ops, neighbor_edges, coords, pseudotime,
                  config, workers: int, rank_mode: str, var_max_lag: int,
                  pseudocell_neighborhood: int) -> dict[str, np.ndarray]:
    """The ranked score records of one method as columns, one entry per scored pair.

    The columns are arrays of equal length in pair-id order: ``pair_id``,
    ``x_name``, ``y_name``, ``method``, the method's fields, ``score`` and
    ``rank``; ``rank_pairs`` sets ``rank`` from ``score``. The fields:

    * dagranger trains every pair (``train.train_all`` with ``config`` on
      ``ops`` and ``workers`` threads) and adds both tests' statistics,
      p-values, degrees of freedom and ``flags`` (bit i set when the pair
      raises ``FLAGS[i]``). ``score`` is ``f_stat`` when ``rank_mode`` is
      "f" and -log10(``t_pvalue``) when it is "welch". Pairs that went
      non-finite in training have no record.
    * pearson and pseudocell add the correlation ``r``, and ``score`` is |r|;
      pseudocell first averages each node over up to
      ``pseudocell_neighborhood`` of its ``neighbor_edges`` neighbours
      (nearest first when ``coords`` are given).
    * var-granger bins each variable over ``pseudotime`` and adds the VAR
      F-test's ``f_stat`` and ``f_pvalue`` with ``var_max_lag`` lags;
      ``score`` is -log10(``f_pvalue``).
    """
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if rank_mode not in RANK_MODES:
        raise ConfigError(f"rank mode must be one of {RANK_MODES}, got {rank_mode!r}")
    ids = np.arange(len(dataset.pairs))
    if method == "dagranger":
        n, L = dataset.n_nodes, config.n_layers
        df1, df2 = _f_dof(n, L)  # before training, which would be wasted
        res = train.train_all(dataset, ops, config, workers=workers)
        ids, yk = res.pair_ids, res.y_index[res.pair_ids]
        tests = _pair_tests(n, L, res.rss_full[ids], res.mean_full[ids], res.var_full[ids],
                            res.rss_reduced[yk], res.mean_reduced[yk], res.var_reduced[yk])
        significance = tests["f_stat"] if rank_mode == "f" else _significance(tests["t_pvalue"])
        flags = sum(tests[name] * (1 << bit) for bit, name in enumerate(FLAGS))
        columns = {"f_stat": tests["f_stat"], "f_pvalue": tests["f_pvalue"],
                   "t_stat": tests["t_stat"], "t_pvalue": tests["t_pvalue"],
                   "score": significance, "flags": flags,
                   "df1": np.full(ids.size, df1), "df2": np.full(ids.size, df2)}
    elif method == "var-granger":
        if pseudotime is None:
            raise ConfigError("var-granger needs --pseudotime")
        f, p = baselines.var_granger_pairs(dataset.x_values, dataset.y_values, dataset.pairs,
                                           pseudotime, var_max_lag)
        columns = {"f_stat": f, "f_pvalue": p, "score": _significance(p)}
    else:
        x_all, y_all = dataset.x_values, dataset.y_values
        if method == "pseudocell":
            x_all, y_all = baselines.pseudocell_smooth(
                (x_all, y_all), neighbor_edges, pseudocell_neighborhood, coords=coords)
        r = baselines.pearson_pairs(x_all, y_all, dataset.pairs, method=method,
                                    x_names=dataset.x_names, y_names=dataset.y_names)
        columns = {"r": r, "score": np.abs(r)}
    columns = {"pair_id": ids,
               "x_name": np.array(dataset.x_names, dtype=object)[dataset.pairs[ids, 0]],
               "y_name": np.array(dataset.y_names, dtype=object)[dataset.pairs[ids, 1]],
               "method": np.full(ids.size, method, dtype=object), **columns}
    columns["rank"] = rank_pairs(columns["score"], columns["pair_id"])
    return columns


def rank_pairs(score: np.ndarray, pair_id: np.ndarray) -> np.ndarray:
    """Each record's 1-based rank: descending ``score``, ties by ``pair_id``, NaN last."""
    order = np.lexsort((pair_id, -score))
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(1, order.size + 1)
    return rank


def _column_text(key: str, values: np.ndarray) -> list[str]:
    """The JSON text of each entry of one column; each distinct name is encoded once."""
    if key == "flags":
        return [_FLAG_TEXT[code] for code in values.tolist()]
    if values.dtype != object:  # numbers: repr, which json uses, except for non-finite floats
        text = list(map(repr, values.tolist()))
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            text[i] = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[text[i]]
        return text
    names = {v: encode_basestring_ascii(v) for v in set(values.tolist())}
    return [names[v] for v in values.tolist()]


def _uniform(values: np.ndarray) -> bool:
    """Whether every entry of a column is the first (bit for bit, or the same name), so that
    each line holds the same text for it."""
    if values.size == 0 or not values[-1] == values[0]:
        return False
    if values.dtype == object:
        return bool((values == values[0]).all())
    bits = np.ascontiguousarray(values).view(np.uint8).reshape(values.size, -1)
    return bool((bits == bits[0]).all())


def write_score_records(path, columns: dict[str, np.ndarray]) -> None:
    """One JSON line per record: the bytes of ``json.JSONEncoder(sort_keys=True)``, with
    ``flags`` as its list of names, from per-column text a block of records at a time.

    Text is made once where it can be: a column with one value throughout (``method``,
    ``df1``, ``df2``) goes into the line template, an array under two keys (f rank mode's
    ``score`` is ``f_stat``) is made text once, and a ``score`` whose bits are |``r``| is
    ``r``'s text without its sign.
    """
    keys = sorted(columns)
    n = len(columns["pair_id"])
    fixed = {k: _column_text(k, columns[k][:1])[0].replace("%", "%%")
             for k in keys if _uniform(columns[k])}
    template = "{" + ", ".join(f"{encode_basestring_ascii(k)}: {fixed.get(k, '%s')}"
                               for k in keys) + "}\n"
    varying = [k for k in keys if k not in fixed]
    source = {k: next(j for j in varying if columns[j] is columns[k]) for k in varying}
    unsigned = (source.get("score") == "score" and source.get("r") == "r"
                and columns["r"].dtype == columns["score"].dtype == np.float64
                and np.array_equal(np.abs(columns["r"]).view(np.int64),
                                   columns["score"].view(np.int64)))
    with open(path, "w", encoding="utf-8") as fh:
        for at in range(0, n, _WRITE_BLOCK):
            made = {j: _column_text(j, columns[j][at:at + _WRITE_BLOCK])
                    for j in set(source.values()) if not (unsigned and j == "score")}
            if unsigned:
                made["score"] = list(map(str.lstrip, made["r"], repeat("-")))
            text = [made[source[k]] for k in varying]
            rows = zip(*text) if text else repeat((), min(_WRITE_BLOCK, n - at))
            fh.writelines(template % row for row in rows)


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
