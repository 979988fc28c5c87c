"""Reference methods: Pearson correlation, neighborhood-smoothed ("pseudocell")
Pearson correlation, and linear VAR Granger causality on pseudotime-binned series.

The VAR baseline forces the partially ordered observations into a total order
by averaging them inside 100 equal-width pseudotime bins, then fits restricted
(own lags) and unrestricted (own + candidate lags) OLS models and compares
them with an F-test.
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
    "pseudocell_smooth",
    "bin_by_pseudotime",
    "var_granger",
]

logger = logging.getLogger(__name__)


def pearson(x, y) -> float:
    """Sample Pearson correlation; zero variance in either argument gives 0 (flagged).

    Rankings built on this baseline use |r|.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        logger.warning("pearson: zero variance, correlation defined as 0")
        return 0.0
    return float((xc * yc).sum() / (sx * sy))


def pseudocell_smooth(
    values: np.ndarray,
    knn_edges,
    neighborhood: int = 50,
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


def bin_by_pseudotime(x, y, pseudotime, n_bins: int = 100) -> BinnedSeries:
    """Average x and y within equal-width bins spanning the pseudotime range.

    The node at the maximum stamp lands in the last bin.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pt = np.asarray(pseudotime, dtype=np.float64)
    lo, hi = float(pt.min()), float(pt.max())
    if lo == hi:
        if pt.shape[0] > 1:
            raise AllOneBin("constant pseudotime: all nodes fall in a single bin")
        idx = np.zeros(1, dtype=np.int64)  # a single node occupies one bin
    else:
        width = (hi - lo) / n_bins
        idx = np.minimum(((pt - lo) / width).astype(np.int64), n_bins - 1)
    occupancy = np.bincount(idx, minlength=n_bins)
    x_sums = np.bincount(idx, weights=x, minlength=n_bins)
    y_sums = np.bincount(idx, weights=y, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        x_bins = np.where(occupancy > 0, x_sums / np.maximum(occupancy, 1), np.nan)
        y_bins = np.where(occupancy > 0, y_sums / np.maximum(occupancy, 1), np.nan)
    return BinnedSeries(x_bins=x_bins, y_bins=y_bins, occupancy=occupancy)


def _ols_rss(design: np.ndarray, target: np.ndarray) -> float:
    """Residual sum of squares of least-squares fit; ridge fallback when singular."""
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        logger.warning("var_granger: singular design, ridge fallback (lambda=1e-8)")
        gram = design.T @ design + 1e-8 * np.eye(design.shape[1])
        beta = np.linalg.solve(gram, design.T @ target)
    resid = target - design @ beta
    return float((resid * resid).sum())


def var_granger(x_bins, y_bins, max_lag: int = 1) -> tuple[float, float]:
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
    x, y = x[keep], y[keep]
    L = int(max_lag)
    if L < 1:
        raise ValueError("max_lag must be >= 1")
    if x.shape[0] <= 3 * L:
        raise DegenerateSampleSize(
            f"need series length > {3 * L} for max_lag={L}, got {x.shape[0]}"
        )
    target = y[L:]
    rows = target.shape[0]
    ones = np.ones((rows, 1))
    y_lags = np.column_stack([y[L - k : -k] for k in range(1, L + 1)])
    x_lags = np.column_stack([x[L - k : -k] for k in range(1, L + 1)])
    restricted = np.hstack([ones, y_lags])
    unrestricted = np.hstack([ones, y_lags, x_lags])

    rss_r = _ols_rss(restricted, target)
    rss_u = _ols_rss(unrestricted, target)
    df2 = rows - 2 * L - 1
    if df2 <= 0:
        raise DegenerateSampleSize(f"too few usable bins ({rows}) for max_lag={L}")
    if rss_u <= 0.0:
        return math.inf, 0.0
    numerator = max(rss_r - rss_u, 0.0) / L  # nesting: negative only via ridge noise
    f = numerator / (rss_u / df2)
    return f, float(special.fdtrc(L, df2, f))
