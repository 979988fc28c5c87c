"""Reference methods: Pearson correlation, neighborhood-smoothed ("pseudocell")
Pearson correlation, and linear VAR Granger causality on pseudotime-binned series.

The VAR baseline forces the partially ordered observations into a total order
by averaging them inside 100 equal-width pseudotime bins, then fits restricted
(own lags) and unrestricted (own + candidate lags) OLS models and compares
them with an F-test.

Each method scores a whole pair list from arrays (``pearson_pairs``,
``var_granger_pairs``): every variable some pair uses is centred, or binned,
once, and the per-pair work runs in gathered blocks of at most
``_BLOCK_BYTES``. ``pearson`` and ``var_granger`` are the same code at width
one.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import AllOneBin, DegenerateSampleSize

__all__ = [
    "BinnedSeries",
    "pearson",
    "pearson_pairs",
    "pseudocell_smooth",
    "bin_by_pseudotime",
    "var_granger",
    "var_granger_pairs",
]

logger = logging.getLogger(__name__)

# Upper bound on the bytes of one gathered block of pairs, whatever the node
# or pair count, so that scoring adds little to a run's peak memory.
_BLOCK_BYTES = 1 << 20

_RIDGE = 1e-8
_N_BINS = 100  # pseudotime bins of the VAR baseline


def _blocks(n_items: int, item_bytes: int):
    """Consecutive slices of ``range(n_items)`` of at most ``_BLOCK_BYTES`` each."""
    width = max(1, _BLOCK_BYTES // max(1, item_bytes))
    return (slice(i, i + width) for i in range(0, n_items, width))


def _centred_rows(values: np.ndarray, used: np.ndarray):
    """Each used column, centred, as one contiguous row, and the row's root sum of squares.

    Reducing contiguous rows gives the bits of the 1-D ``mean`` and ``sum``
    of each column alone.
    """
    rows = np.ascontiguousarray(np.asarray(values, dtype=np.float64)[:, used].T)
    rows -= rows.mean(axis=1)[:, None]
    return rows, np.sqrt((rows * rows).sum(axis=1))


def pearson_pairs(x_values, y_values, pairs, *, method: str = "pearson", x_names=None,
                  y_names=None) -> np.ndarray:
    """Pearson r of every pair ``(xi, yi)`` of columns of ``x_values`` and ``y_values``.

    A pair with zero variance in either column gets r = 0; one warning per
    such variable names it (by ``x_names``/``y_names``, else by column) and
    counts its pairs. ``method`` labels the warnings.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    x_used, x_at = np.unique(pairs[:, 0], return_inverse=True)
    y_used, y_at = np.unique(pairs[:, 1], return_inverse=True)
    xc, sx = _centred_rows(x_values, x_used)
    yc, sy = _centred_rows(y_values, y_used)
    r = np.empty(pairs.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for blk in _blocks(pairs.shape[0], 3 * xc.itemsize * xc.shape[1]):
            xa, ya = x_at[blk], y_at[blk]
            r[blk] = (xc[xa] * yc[ya]).sum(axis=1) / (sx[xa] * sy[ya])
    for side, norms, used, at, names in (("x", sx, x_used, x_at, x_names),
                                         ("y", sy, y_used, y_at, y_names)):
        flat = norms == 0.0
        if not flat.any():
            continue
        r[flat[at]] = 0.0
        counts = np.bincount(at, minlength=used.size)
        for j in np.flatnonzero(flat).tolist():
            name = names[used[j]] if names is not None else f"column {used[j]}"
            logger.warning("%s: %s variable %s has zero variance; %d pairs set to r = 0",
                           method, side, name, counts[j])
    return r


def pearson(x, y) -> float:
    """Sample Pearson correlation; zero variance in either argument gives 0 (flagged).

    Rankings built on this baseline use |r|.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(pearson_pairs(x[:, None], y[:, None], [(0, 0)])[0])


def pseudocell_smooth(
    values: np.ndarray,
    knn_edges,
    neighborhood: int,
    coords: np.ndarray | None = None,
) -> np.ndarray:
    """Replace each row by the mean of itself and up to ``neighborhood`` graph neighbors.

    Neighborhoods are the undirected union of the kNN edges. When ``coords``
    are given the nearest neighbors (Euclidean) are kept; otherwise neighbors
    are kept in ascending node-id order. Nodes with fewer neighbors use all
    of them; ``neighborhood = 0`` is the identity.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if neighborhood == 0:
        return values.copy()
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in knn_edges:
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    out = np.empty_like(values)
    for v in range(n):
        nbrs = sorted(neighbor_sets[v])
        if coords is not None and len(nbrs) > neighborhood:
            d2 = ((coords[nbrs] - coords[v]) ** 2).sum(axis=1)
            order = np.lexsort((np.asarray(nbrs), d2))
            nbrs = [nbrs[i] for i in order]
        rows = [v] + nbrs[:neighborhood]
        out[v] = values[rows].mean(axis=0)
    return out


@dataclass(frozen=True)
class BinnedSeries:
    """Per-bin means of x and y over equal-width pseudotime bins.

    Empty bins hold NaN and are dropped pairwise before model fitting.
    """

    x_bins: np.ndarray
    y_bins: np.ndarray
    occupancy: np.ndarray

    def dropped(self) -> tuple[np.ndarray, np.ndarray]:
        """The two series with empty bins removed, alignment preserved."""
        keep = self.occupancy > 0
        return self.x_bins[keep], self.y_bins[keep]


def _bin_index(pseudotime, n_bins: int) -> np.ndarray:
    """The bin of each node: equal-width bins over the pseudotime range, the maximum in the last."""
    pt = np.asarray(pseudotime, dtype=np.float64)
    lo, hi = float(pt.min()), float(pt.max())
    if lo == hi:
        if pt.shape[0] > 1:
            raise AllOneBin("constant pseudotime: all nodes fall in a single bin")
        return np.zeros(1, dtype=np.int64)  # a single node occupies one bin
    width = (hi - lo) / n_bins
    return np.minimum(((pt - lo) / width).astype(np.int64), n_bins - 1)


def _bin_means(values: np.ndarray, idx: np.ndarray, occupancy: np.ndarray) -> np.ndarray:
    """Per-bin means of each column of ``values`` (n, m) as (n_bins, m); NaN in empty bins."""
    sums = np.column_stack([np.bincount(idx, weights=col, minlength=occupancy.size)
                            for col in values.T])
    with np.errstate(invalid="ignore"):
        return np.where((occupancy > 0)[:, None], sums / np.maximum(occupancy, 1)[:, None],
                        np.nan)


def bin_by_pseudotime(x, y, pseudotime, n_bins: int = _N_BINS) -> BinnedSeries:
    """Average x and y within equal-width bins spanning the pseudotime range.

    The node at the maximum stamp lands in the last bin.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    idx = _bin_index(pseudotime, n_bins)
    occupancy = np.bincount(idx, minlength=n_bins)
    means = _bin_means(np.column_stack([x, y]), idx, occupancy)
    return BinnedSeries(x_bins=means[:, 0], y_bins=means[:, 1], occupancy=occupancy)


def _ridge_rss(design: np.ndarray, target: np.ndarray) -> float:
    """Residual sum of squares of the ridge fit (lambda = ``_RIDGE``) for a singular design."""
    gram = design.T @ design + _RIDGE * np.eye(design.shape[1])
    resid = target - design @ np.linalg.solve(gram, design.T @ target)
    return float((resid * resid).sum())


def _ols_rss(design: np.ndarray, target: np.ndarray) -> tuple[float, bool]:
    """(residual sum of squares of the least-squares fit, whether the design was singular).

    A rank-deficient design gets the ridge fit instead.
    """
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        return _ridge_rss(design, target), True
    resid = target - design @ beta
    return float((resid * resid).sum()), False


def _stacked_rss(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residual sums of squares, rank deficiency) of the least-squares fits of a
    stack of designs (k, rows, cols) to targets (k, rows).

    A design is rank-deficient by ``lstsq``'s rule (a singular value at most
    eps * max(rows, cols) * the largest) and gets the ridge fit instead.
    """
    rows, cols = design.shape[1:]
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    singular = (sv <= np.finfo(np.float64).eps * max(rows, cols) * sv[:, :1]).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.matmul(target[:, None, :], u)[:, 0] / sv
    beta = np.matmul(coef[:, None, :], vt)[:, 0]
    resid = target - np.matmul(design, beta[:, :, None])[:, :, 0]
    rss = (resid * resid).sum(axis=1)
    for i in np.flatnonzero(singular).tolist():
        rss[i] = _ridge_rss(design[i], target[i])
    return rss, singular


def _lags(series: np.ndarray, L: int) -> np.ndarray:
    """(m, T - L, L) lag matrices of the m columns of a (T, m) series: [..., k-1] is lag k."""
    T = series.shape[0]
    return np.stack([series[L - k : T - k].T for k in range(1, L + 1)], axis=2)


def _var_tests(x_bins: np.ndarray, y_bins: np.ndarray, x_at, y_at, max_lag: int):
    """VAR F-tests of the pairs (x_bins[:, x_at[k]], y_bins[:, y_at[k]]): (f, p) arrays.

    The series are (T, m) arrays without empty bins. The restricted model of
    each y is fitted once, by ``_ols_rss``: its RSS is then the one-pair
    ``lstsq`` RSS bit for bit, so a pair whose unrestricted design is singular
    (x adds nothing, f = 0 up to rounding) keeps the p-value of the lstsq
    F-test exactly. The unrestricted models are solved in stacked blocks by
    ``_stacked_rss``. One warning counts the pairs with a ridge fit.
    """
    L = int(max_lag)
    if L < 1:
        raise ValueError("max_lag must be >= 1")
    T = x_bins.shape[0]
    if T <= 3 * L:
        raise DegenerateSampleSize(f"need series length > {3 * L} for max_lag={L}, got {T}")
    rows = T - L
    df2 = rows - 2 * L - 1
    if df2 <= 0:
        raise DegenerateSampleSize(f"too few usable bins ({rows}) for max_lag={L}")
    x_lags, y_lags = _lags(x_bins, L), _lags(y_bins, L)
    targets = np.ascontiguousarray(y_bins[L:].T)
    ones = np.ones((rows, 1))
    rss_y, ridge_y = np.empty(y_bins.shape[1]), np.zeros(y_bins.shape[1], dtype=bool)
    for j in np.unique(y_at).tolist():
        rss_y[j], ridge_y[j] = _ols_rss(np.hstack([ones, y_lags[j]]), targets[j])
    rss_r, ridge = rss_y[y_at], ridge_y[y_at]

    n_pairs = len(x_at)
    rss_u = np.empty(n_pairs)
    for blk in _blocks(n_pairs, 3 * 8 * rows * (2 * L + 1)):
        xa, ya = x_at[blk], y_at[blk]
        design = np.concatenate(
            [np.broadcast_to(ones, (xa.size, rows, 1)), y_lags[ya], x_lags[xa]], axis=2)
        rss_u[blk], singular = _stacked_rss(design, targets[ya])
        ridge[blk] |= singular
    if ridge.any():
        logger.warning("var_granger: %d of %d pairs have a singular design; ridge fit "
                       "(lambda=%g)", int(ridge.sum()), n_pairs, _RIDGE)

    zero = rss_u <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        numerator = np.maximum(rss_r - rss_u, 0.0) / L  # nesting: negative only via ridge noise
        f = numerator / (rss_u / df2)
    f[zero] = math.inf
    p = special.fdtrc(L, df2, f)
    p[zero] = 0.0
    return f, p


def var_granger_pairs(x_values, y_values, pairs, pseudotime,
                      max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """``var_granger`` of every pair (xi, yi) after ``bin_by_pseudotime``: (f, p) arrays.

    Each used variable is binned once; one pseudotime gives every pair the
    same empty bins. A pair whose bins hold NaN elsewhere (NaN input) drops
    them pairwise, one pair at a time, as ``var_granger`` does.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return np.empty(0), np.empty(0)
    x_used, x_at = np.unique(pairs[:, 0], return_inverse=True)
    y_used, y_at = np.unique(pairs[:, 1], return_inverse=True)
    idx = _bin_index(pseudotime, _N_BINS)
    occupancy = np.bincount(idx, minlength=_N_BINS)
    keep = occupancy > 0
    x_bins = _bin_means(np.asarray(x_values, dtype=np.float64)[:, x_used], idx, occupancy)
    y_bins = _bin_means(np.asarray(y_values, dtype=np.float64)[:, y_used], idx, occupancy)
    x_bins, y_bins = x_bins[keep], y_bins[keep]
    regular = ~np.isnan(x_bins).any(axis=0)[x_at] & ~np.isnan(y_bins).any(axis=0)[y_at]
    f, p = np.empty(pairs.shape[0]), np.empty(pairs.shape[0])
    f[regular], p[regular] = _var_tests(x_bins, y_bins, x_at[regular], y_at[regular], max_lag)
    for k in np.flatnonzero(~regular).tolist():
        f[k], p[k] = var_granger(x_bins[:, x_at[k]], y_bins[:, y_at[k]], max_lag)
    return f, p


def var_granger(x_bins, y_bins, max_lag: int) -> tuple[float, float]:
    """Linear VAR Granger test of x driving y on a totally ordered series.

    Regresses y_t on an intercept and its own ``max_lag`` lags (restricted),
    then additionally on x's lags (unrestricted), and compares residual sums
    of squares via an F-test with (max_lag, T - 2*max_lag - 1) degrees of
    freedom, T being the regression sample size. NaN positions (empty bins)
    are dropped pairwise first.
    """
    x = np.asarray(x_bins, dtype=np.float64)
    y = np.asarray(y_bins, dtype=np.float64)
    keep = ~(np.isnan(x) | np.isnan(y))
    at = np.zeros(1, dtype=np.int64)
    f, p = _var_tests(x[keep][:, None], y[keep][:, None], at, at, max_lag)
    return float(f[0]), float(p[0])
