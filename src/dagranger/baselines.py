"""Reference methods: Pearson correlation, neighborhood-smoothed ("pseudocell")
Pearson correlation, and linear VAR Granger causality on pseudotime-binned series.

The VAR baseline forces the partially ordered observations into a total order
by averaging them inside 100 equal-width pseudotime bins, then fits restricted
(own lags) and unrestricted (own + candidate lags) OLS models and compares
them with an F-test. The restricted model of each y is one thin QR; a pair's
x lags are projected off it, and the F-test takes the sum they explain of
its residual directly, not as a difference of two residual sums.

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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two C-ordered arrays over their last axis.

    Each row is reduced as one contiguous row, which gives the bits of the
    1-D sum of that row alone, however many rows share the call.
    """
    return (a * b).sum(axis=-1)


def _centred_rows(values: np.ndarray, used: np.ndarray):
    """Each used column, centred, as one contiguous row, and the row's root sum of squares.

    Reducing contiguous rows gives the bits of the 1-D ``mean`` and ``sum``
    of each column alone.
    """
    rows = np.ascontiguousarray(np.asarray(values, dtype=np.float64)[:, used].T)
    rows -= rows.mean(axis=1)[:, None]
    return rows, np.sqrt(_dot(rows, rows))


def pearson_pairs(x_values, y_values, pairs, *, method: str = "pearson", x_names=None,
                  y_names=None) -> np.ndarray:
    """Pearson r of every pair ``(xi, yi)`` of columns of ``x_values`` and ``y_values``.

    A pair with zero variance in either column gets r = 0; one warning per
    such variable names it (by ``x_names``/``y_names``, else by column) and
    counts its pairs. ``method`` labels the warnings. Values so large that
    their squares overflow give r = NaN without a numpy warning; the run
    manifest counts NaN scores.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    x_used, x_at = np.unique(pairs[:, 0], return_inverse=True)
    y_used, y_at = np.unique(pairs[:, 1], return_inverse=True)
    r = np.empty(pairs.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xc, sx = _centred_rows(x_values, x_used)
        yc, sy = _centred_rows(y_values, y_used)
        for blk in _blocks(pairs.shape[0], 3 * xc.itemsize * xc.shape[1]):
            xa, ya = x_at[blk], y_at[blk]
            r[blk] = _dot(xc[xa], yc[ya]) / (sx[xa] * sy[ya])
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
    values,
    knn_edges: np.ndarray,
    neighborhood: int,
    coords: np.ndarray | None = None,
):
    """Replace each row by the mean of itself and up to ``neighborhood`` graph neighbors.

    ``values`` is an (n, m) array, or a tuple of them, which are smoothed
    with one set of neighbor lists and returned as a tuple. Neighborhoods
    are the undirected union of the (E, 2) kNN edges. When ``coords``
    are given the nearest neighbors (Euclidean) are kept; otherwise neighbors
    are kept in ascending node-id order. Nodes with fewer neighbors use all
    of them; ``neighborhood = 0`` is the identity.

    Row v's mean adds v, then its kept neighbors in the order above (nearest
    first, ties by node id, for a node with more than ``neighborhood``
    neighbors and ``coords``; else ascending id), as ``values[rows].mean(axis=0)``
    on that list does. Nodes that keep the same number of rows are averaged
    together: one gather and one mean over the rows axis, which adds each
    node's rows in the same order with the same arithmetic.
    """
    several = isinstance(values, tuple)
    matrices = [np.asarray(v, dtype=np.float64) for v in (values if several else (values,))]
    if neighborhood == 0:
        out = tuple(v.copy() for v in matrices)
        return out if several else out[0]
    n = matrices[0].shape[0]
    # both directions of every edge as codes node·n + neighbor: one sort
    # leaves each node's distinct neighbors together, in ascending order
    # (np.unique would hash the codes first, which costs ten times the sort)
    src, dst = knn_edges.T
    codes = np.sort(np.concatenate((src * n + dst, dst * n + src)))
    codes = codes[np.diff(codes, prepend=-1) != 0]
    node, nbr = np.divmod(codes, n)
    indptr = np.searchsorted(codes, np.arange(n + 1) * n)
    degree = np.diff(indptr)
    if coords is not None:
        # nearest first, ties by id, where the cap leaves some neighbors out
        capped = degree[node] > neighborhood
        d2 = np.zeros(codes.size)
        d2[capped] = ((coords[nbr[capped]] - coords[node[capped]]) ** 2).sum(axis=1)
        nbr = nbr[np.lexsort((nbr, d2, node))]
    kept = np.minimum(degree, neighborhood)
    out = tuple(np.empty_like(v) for v in matrices)
    for r in np.unique(kept):
        group = np.flatnonzero(kept == r)
        rows = np.column_stack((group, nbr[indptr[group, None] + np.arange(r)]))
        for v, smoothed in zip(matrices, out):
            smoothed[group] = v[rows].mean(axis=1)
    return out if several else out[0]


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


def _ols_rss(design: np.ndarray, target: np.ndarray) -> float:
    """Residual sum of squares of the ``lstsq`` fit; a rank-deficient design gets the ridge fit."""
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        return _ridge_rss(design, target)
    resid = target - design @ beta
    return float((resid * resid).sum())


def _scaled_rows(bins: np.ndarray) -> np.ndarray:
    """Each column of a (T, m) series as one contiguous row divided by its largest
    magnitude; an all-zero column stays 0."""
    top = np.abs(bins).max(axis=0)
    return np.ascontiguousarray((bins / np.where(top > 0.0, top, 1.0)).T)


def _centred_windows(rows: np.ndarray, L: int) -> np.ndarray:
    """(L + 1, m, T - L) windows of the m rows of (m, T), each minus its mean:
    [0] is the regression target, [k] its lag k."""
    T = rows.shape[1]
    windows = np.stack([rows[:, L - k : T - k] for k in range(L + 1)])
    windows -= windows.mean(axis=-1)[..., None]
    return windows


def _orthogonalize(columns: np.ndarray, basis: np.ndarray, basis_sq: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt in place: each of the (k, B, n) ``columns`` loses its
    projection on the (j, B, n) ``basis`` rows, of squared norms ``basis_sq``,
    then on the columns before it. Returns the (k, B) squared norms left."""
    left = np.empty(columns.shape[:2])
    for i, v in enumerate(columns):
        for q, qq in zip((*basis, *columns[:i]), (*basis_sq, *left[:i])):
            v -= (_dot(q, v) / qq)[:, None] * q
        left[i] = _dot(v, v)
    return left


def _lag_matrix(series: np.ndarray, L: int) -> np.ndarray:
    """(T - L, L) lags of one series: column k - 1 is lag k."""
    T = series.shape[0]
    return np.column_stack([series[L - k : T - k] for k in range(1, L + 1)])


def _var_tests(x_bins: np.ndarray, y_bins: np.ndarray, x_at, y_at, max_lag: int):
    """VAR F-tests of the pairs (x_bins[:, x_at[k]], y_bins[:, y_at[k]]): (f, p) arrays.

    The series are (T, m) arrays without empty bins. Each is divided by its
    largest magnitude, which leaves F unchanged and keeps every sum finite.
    Centring a lag window projects it off the intercept. Each y's restricted
    design ``[1, y lags]`` is fitted once by a thin QR (modified Gram-Schmidt
    of its centred lags), which leaves its residual e and RSS. For a pair,
    its centred x lags are projected off that Q and off each other in one
    pass, and the explained sum is ‖Q̃ᵀe‖², the sum over x lags of
    (x̃ · e)² / (x̃ · x̃); then F = (explained / L) / ((RSS - explained) / df2).
    Every reduction runs on contiguous rows, so a pair's bits do not depend
    on which pairs share the call.

    A design is rank-deficient when some lag column (y's, then x's) keeps at
    most rows · eps of its squared norm after its projection off the
    intercept and the columns before it. Such a pair keeps the ``lstsq`` fit
    of the restricted and the ridge fit (``_ridge_rss``) of the unrestricted
    model on the unscaled series, F from the difference of their RSS, or 0
    where those fits overflow on finite series (x adds nothing to a design
    this singular). One warning counts these pairs.
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
    n_pairs = len(x_at)
    tol = rows * np.finfo(np.float64).eps
    explained = np.zeros(n_pairs)
    # Non-finite values give f = NaN without a numpy warning; the run
    # manifest counts NaN scores.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_lags = _centred_windows(_scaled_rows(x_bins), L)[1:]
        x_sq = _dot(x_lags, x_lags)
        y_windows = _centred_windows(_scaled_rows(y_bins), L)
        e, q = y_windows[0], y_windows[1:]
        y_sq = _dot(q, q)
        q_sq = _orthogonalize(q, (), ())
        _orthogonalize(e[None], q, q_sq)
        rss_r = _dot(e, e)[y_at]
        ridge = (q_sq <= tol * y_sq).any(axis=0)[y_at]
        for blk in _blocks(n_pairs, 8 * rows * (2 * L + 3)):
            xa, ya = x_at[blk], y_at[blk]
            xt = x_lags[:, xa]
            left = _orthogonalize(xt, q[:, ya], q_sq[:, ya])
            ridge[blk] |= (left <= tol * x_sq[:, xa]).any(axis=0)
            ey = e[ya]
            for k in range(L):
                explained[blk] += _dot(xt[k], ey) ** 2 / left[k]
        rss_u = rss_r - explained
        f = (explained / L) / (rss_u / df2)
        if ridge.any():
            ones, restricted = np.ones((rows, 1)), {}
            at = np.flatnonzero(ridge)
            for k in at.tolist():
                x = np.ascontiguousarray(x_bins[:, x_at[k]])
                y = np.ascontiguousarray(y_bins[:, y_at[k]])
                design = np.hstack([ones, _lag_matrix(y, L)])
                if y_at[k] not in restricted:
                    restricted[y_at[k]] = _ols_rss(design, y[L:])
                rss_r[k] = restricted[y_at[k]]
                rss_u[k] = _ridge_rss(np.hstack([design, _lag_matrix(x, L)]), y[L:])
            # nesting: negative only via ridge noise
            f[at] = np.maximum(rss_r[at] - rss_u[at], 0.0) / L / (rss_u[at] / df2)
            finite = (np.isfinite(x_bins[:, x_at[at]]).all(axis=0)
                      & np.isfinite(y_bins[:, y_at[at]]).all(axis=0))
            f[at[finite & ~np.isfinite(f[at])]] = 0.0
            logger.warning("var_granger: %d of %d pairs have a singular design; ridge fit "
                           "(lambda=%g)", int(ridge.sum()), n_pairs, _RIDGE)
    zero = rss_u <= 0.0
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
