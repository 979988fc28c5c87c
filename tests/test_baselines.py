import logging
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from dagranger.baselines import (
    bin_by_pseudotime,
    pearson,
    pearson_pairs,
    pseudocell_smooth,
    var_granger,
    var_granger_pairs,
)
from dagranger.errors import AllOneBin, DegenerateSampleSize
from dagranger.synth import SynthSpec, generate


class TestPearson:
    def test_affine_relationship(self, rng):
        x = rng.normal(size=50)
        assert pearson(x, 2.0 * x + 3.0) == pytest.approx(1.0)

    def test_negation(self, rng):
        x = rng.normal(size=50)
        assert pearson(x, -x) == pytest.approx(-1.0)
        assert abs(pearson(x, -x)) == pytest.approx(1.0)

    def test_orthogonal_after_centering(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert pearson(x, y) == pytest.approx(0.0, abs=1e-15)

    def test_zero_variance_flagged_as_zero(self, rng):
        assert pearson(np.ones(10), rng.normal(size=10)) == 0.0

    def test_symmetry_and_affine_invariance(self, rng):
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert pearson(x, y) == pytest.approx(pearson(y, x))
        assert pearson(3.0 * x + 1.0, y) == pytest.approx(pearson(x, y))


def one_node_at_a_time_smooth(values, knn_edges, neighborhood, coords=None):
    """The per-node loop that ``pseudocell_smooth`` batches: the bit-for-bit oracle."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if neighborhood == 0:
        return values.copy()
    src, dst = knn_edges.T
    codes = np.unique(np.concatenate((src * n + dst, dst * n + src)))
    indptr = np.searchsorted(codes, np.arange(n + 1) * n).tolist()
    neighbors = (codes % n).tolist()
    out = np.empty_like(values)
    for v in range(n):
        nbrs = neighbors[indptr[v]:indptr[v + 1]]
        if coords is not None and len(nbrs) > neighborhood:
            d2 = ((coords[nbrs] - coords[v]) ** 2).sum(axis=1)
            order = np.lexsort((np.asarray(nbrs), d2))
            nbrs = [nbrs[i] for i in order]
        rows = [v] + nbrs[:neighborhood]
        out[v] = values[rows].mean(axis=0)
    return out


class TestPseudocellSmooth:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bit_identical_to_the_per_node_loop(self, data):
        # random k-out edges (reverse and repeated edges included), integer
        # coordinates on a small grid so that distances tie, one column
        # (whose mean numpy adds pairwise beyond 8 rows) or several, and a
        # cap of 0, 1, k or more than k neighbors
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n, k = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 12))
        k = min(k, n - 1)
        edges = np.array([(u, v) for u in range(n)
                          for v in rng.choice(np.delete(np.arange(n), u), k, replace=False)])
        edges = edges[rng.integers(0, len(edges), size=len(edges))]
        values = rng.normal(size=(n, data.draw(st.sampled_from([1, 2, 5]))))
        neighborhood = data.draw(st.sampled_from([0, 1, k, k + 1, 3 * k, 50]))
        coords = (rng.integers(0, 3, size=(n, data.draw(st.integers(1, 3)))).astype(float)
                  if data.draw(st.booleans()) else None)
        out = pseudocell_smooth(values, edges, neighborhood, coords=coords)
        expected = one_node_at_a_time_smooth(values, edges, neighborhood, coords=coords)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("neighborhood", [0, 3, 50])
    @pytest.mark.parametrize("with_coords", [False, True])
    def test_a_tuple_is_each_matrix_smoothed_alone(self, rng, neighborhood, with_coords):
        # x and y smoothed with one set of neighbor lists come back with the
        # bits of two calls, at width 1 too, where numpy adds a mean pairwise
        n = 40
        edges = np.array([(u, v) for u in range(n)
                          for v in rng.choice(np.delete(np.arange(n), u), 6, replace=False)])
        coords = rng.normal(size=(n, 2)) if with_coords else None
        x, y = rng.normal(size=(n, 1)), rng.normal(size=(n, 4))
        both = pseudocell_smooth((x, y), edges, neighborhood, coords=coords)
        assert isinstance(both, tuple) and len(both) == 2
        for out, values in zip(both, (x, y)):
            alone = pseudocell_smooth(values, edges, neighborhood, coords=coords)
            assert out.shape == values.shape and out.tobytes() == alone.tobytes()

    def test_constant_column_unchanged(self):
        values = np.ones((4, 2))
        out = pseudocell_smooth(values, np.array([(0, 1), (1, 2), (2, 3)]), neighborhood=2)
        assert np.array_equal(out, values)

    def test_zero_neighborhood_is_identity(self, rng):
        values = rng.normal(size=(5, 3))
        out = pseudocell_smooth(values, np.array([(0, 1)]), neighborhood=0)
        assert np.array_equal(out, values)

    def test_two_node_forced_mean(self):
        values = np.array([[0.0], [2.0]])
        out = pseudocell_smooth(values, np.array([(0, 1)]), neighborhood=1)
        assert np.array_equal(out, np.array([[1.0], [1.0]]))

    def test_commutes_with_adding_constant(self, rng):
        values = rng.normal(size=(6, 2))
        edges = np.array([(0, 1), (1, 2), (3, 4), (4, 5)])
        a = pseudocell_smooth(values + 5.0, edges, neighborhood=3)
        b = pseudocell_smooth(values, edges, neighborhood=3) + 5.0
        assert np.allclose(a, b, atol=1e-12)

    def test_nearest_selected_with_coords(self):
        # node 0 has neighbors 1..3; only the nearest stays when capped at 1
        values = np.array([[0.0], [10.0], [20.0], [30.0]])
        edges = np.array([(0, 1), (0, 2), (0, 3)])
        coords = np.array([[0.0], [5.0], [1.0], [9.0]])
        out = pseudocell_smooth(values, edges, neighborhood=1, coords=coords)
        assert out[0, 0] == pytest.approx((0.0 + 20.0) / 2)


class TestBinByPseudotime:
    def test_uniform_occupancy(self, rng):
        pt = rng.random(1000)
        b = bin_by_pseudotime(rng.normal(size=1000), rng.normal(size=1000), pt)
        assert (b.occupancy > 0).all()
        assert b.occupancy.sum() == 1000
        assert abs(b.occupancy.mean() - 10.0) < 1e-9

    def test_single_node_occupies_one_bin(self):
        b = bin_by_pseudotime(np.ones(1), np.full(1, 2.0), np.ones(1))
        assert (b.occupancy > 0).sum() == 1
        x, y = b.dropped()
        assert x.tolist() == [1.0] and y.tolist() == [2.0]

    def test_two_nodes_endpoints(self):
        b = bin_by_pseudotime(np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                              np.array([0.0, 1.0]))
        assert b.occupancy[0] == 1 and b.occupancy[-1] == 1
        assert b.occupancy.sum() == 2

    def test_constant_signal_constant_means(self, rng):
        pt = rng.random(200)
        b = bin_by_pseudotime(np.full(200, 2.5), np.full(200, -1.0), pt)
        x, y = b.dropped()
        assert np.allclose(x, 2.5) and np.allclose(y, -1.0)

    def test_constant_pseudotime_rejected(self, rng):
        with pytest.raises(AllOneBin):
            bin_by_pseudotime(rng.normal(size=5), rng.normal(size=5), np.ones(5))


class TestVarGranger:
    def test_detects_lagged_driver(self, rng):
        T = 200
        x = rng.normal(size=T)
        y = np.zeros(T)
        for t in range(1, T):
            y[t] = 0.9 * x[t - 1] + 0.05 * rng.normal()
        f, p = var_granger(x, y, max_lag=1)
        assert p < 0.01

    def test_null_calibration(self):
        rng = np.random.default_rng(42)
        rejections = 0
        trials = 1000
        for _ in range(trials):
            x = rng.normal(size=100)
            y = rng.normal(size=100)
            _, p = var_granger(x, y, max_lag=1)
            rejections += p < 0.05
        assert 0.03 <= rejections / trials <= 0.07

    def test_anticausal_control(self):
        # x carries only y's future beyond the lag window, so its lags are
        # uninformative for iid y
        rng = np.random.default_rng(7)
        insignificant = 0
        trials = 50
        for _ in range(trials):
            T = 120
            y = rng.normal(size=T)
            x = np.roll(y, -2)
            x[-2:] = rng.normal(size=2)
            _, p = var_granger(x, y, max_lag=1)
            insignificant += p >= 0.05
        assert insignificant >= 0.9 * trials

    def test_restricted_rss_at_least_unrestricted(self, rng):
        # nesting: adding regressors can only reduce the OLS residual
        x = rng.normal(size=80)
        y = rng.normal(size=80)
        f, p = var_granger(x, y, max_lag=2)
        assert f >= 0.0 and 0.0 <= p <= 1.0

    def test_too_short_series(self, rng):
        with pytest.raises(DegenerateSampleSize):
            var_granger(rng.normal(size=6), rng.normal(size=6), max_lag=2)

    def test_nan_bins_dropped_pairwise(self, rng):
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        x[10] = np.nan
        y[20] = np.nan
        f, p = var_granger(x, y, max_lag=1)
        assert math.isfinite(f)

    def test_collinear_design_uses_ridge(self):
        x = np.ones(30)  # constant series collides with the intercept
        y = np.arange(30.0)
        f, p = var_granger(x, y, max_lag=1)
        assert math.isfinite(f) and 0.0 <= p <= 1.0


def one_pair_pearson(x, y):
    """Reference: one pair's r by 1-D reductions, which the batched code must reproduce bit for bit."""
    xc, yc = x - x.mean(), y - y.mean()
    sx, sy = float(np.sqrt((xc * xc).sum())), float(np.sqrt((yc * yc).sum()))
    return 0.0 if sx == 0.0 or sy == 0.0 else float((xc * yc).sum() / (sx * sy))


def lstsq_var_granger(x_bins, y_bins, L):
    """Oracle: one pair's VAR F-test by ``np.linalg.lstsq``, ridge when rank-deficient."""
    keep = ~(np.isnan(x_bins) | np.isnan(y_bins))
    x, y = x_bins[keep], y_bins[keep]
    target = y[L:]
    ones = np.ones((target.size, 1))
    y_lags = np.column_stack([y[L - k : -k] for k in range(1, L + 1)])
    x_lags = np.column_stack([x[L - k : -k] for k in range(1, L + 1)])

    def rss(design):
        beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < design.shape[1]:
            gram = design.T @ design + 1e-8 * np.eye(design.shape[1])
            beta = np.linalg.solve(gram, design.T @ target)
        return float(((target - design @ beta) ** 2).sum())

    rss_r, rss_u = rss(np.hstack([ones, y_lags])), rss(np.hstack([ones, y_lags, x_lags]))
    df2 = target.size - 2 * L - 1
    f = max(rss_r - rss_u, 0.0) / L / (rss_u / df2)
    return f, float(special.fdtrc(L, df2, f))


BATCHED = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def screen(data, n_nodes):
    """A drawn screen: x (n, nx), y (n, ny), all their pairs in a drawn order."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    nx, ny = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    x, y = rng.normal(size=(n_nodes, nx)), rng.gamma(1.0, size=(n_nodes, ny))
    pairs = [(i, j) for i in range(nx) for j in range(ny)]
    order = data.draw(st.permutations(range(len(pairs))))
    return rng, x, y, [pairs[k] for k in order]


class TestBatchedAgainstOnePair:
    @BATCHED
    @given(data=st.data())
    def test_pearson_pairs_bit_identical(self, data):
        n = data.draw(st.sampled_from([2, 5, 9, 60, 300]))
        _, x, y, pairs = screen(data, n)
        x[:, 0] = 3.0  # a zero-variance column
        r = pearson_pairs(x, y, pairs)
        for k, (i, j) in enumerate(pairs):
            assert r[k] == pearson(x[:, i], y[:, j]) == one_pair_pearson(x[:, i], y[:, j])

    @BATCHED
    @given(data=st.data())
    def test_var_granger_pairs_match_one_pair(self, data):
        # y column 0 repeats x column 0: that pair's design repeats a lag
        # column and takes the ridge fit, as it does in the oracle
        n, L = data.draw(st.integers(150, 400)), data.draw(st.integers(1, 2))
        rng, x, y, pairs = screen(data, n)
        y[:, 0] = x[:, 0]
        pt = rng.random(n)
        warnings = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = warnings.append
        logger = logging.getLogger("dagranger.baselines")
        logger.addHandler(handler)
        try:
            f, p = var_granger_pairs(x, y, pairs, pt, max_lag=L)
        finally:
            logger.removeHandler(handler)
        assert [r.getMessage().split(" of ")[0] for r in warnings] == ["var_granger: 1"]
        for k, (i, j) in enumerate(pairs):
            b = bin_by_pseudotime(x[:, i], y[:, j], pt)
            one = var_granger(b.x_bins, b.y_bins, max_lag=L)
            oracle = lstsq_var_granger(b.x_bins, b.y_bins, L)
            # f near 0 is a difference of two nearly equal sums: an absolute bound there
            assert (f[k], p[k]) == one
            assert f[k] == pytest.approx(oracle[0], rel=1e-9, abs=1e-9)
            assert p[k] == pytest.approx(oracle[1], rel=1e-9, abs=1e-12)

    def test_no_pairs(self, rng):
        x, y = rng.normal(size=(300, 3)), rng.normal(size=(300, 2))
        assert pearson_pairs(x, y, []).shape == (0,)
        f, p = var_granger_pairs(x, y, [], rng.random(300), max_lag=1)
        assert f.shape == p.shape == (0,)

    def test_nan_input_drops_bins_pairwise(self, rng):
        # a NaN value makes its variable's bin NaN; that variable's pairs drop
        # the bin as the one-pair test does, and the other pairs keep it
        x, y = rng.normal(size=(300, 3)), rng.normal(size=(300, 2))
        x[7, 1], y[11, 0] = np.nan, np.nan
        pt = rng.random(300)
        pairs = [(i, j) for i in range(3) for j in range(2)]
        f, p = var_granger_pairs(x, y, pairs, pt, max_lag=1)
        for k, (i, j) in enumerate(pairs):
            b = bin_by_pseudotime(x[:, i], y[:, j], pt)
            assert (f[k], p[k]) == var_granger(b.x_bins, b.y_bins, max_lag=1)
        assert np.isfinite(f).all()


def mpmath_var_f(x, y, L):
    """Oracle: one pair's VAR F from least-squares fits in 50-digit arithmetic."""
    with mpmath.workdps(50):
        T = len(y)
        rows = T - L
        target = mpmath.matrix([float(v) for v in y[L:]])

        def lags(s):
            return [[float(v) for v in s[L - k : T - k]] for k in range(1, L + 1)]

        def rss(columns):
            design = mpmath.matrix([[c[i] for c in columns] for i in range(rows)])
            beta = mpmath.lu_solve(design.T * design, design.T * target)
            return sum(r * r for r in target - design * beta)

        restricted = [[1.0] * rows] + lags(y)
        rss_r, rss_u = rss(restricted), rss(restricted + lags(x))
        return float((rss_r - rss_u) / L / (rss_u / (rows - 2 * L - 1)))


class TestVarAccuracy:
    def test_f_near_zero_matches_a_high_precision_oracle(self):
        # x's lag holds 1e-5 of y's restricted residual and nothing else of
        # it, so x adds almost nothing: F is near 1e-8, where the difference
        # of the two RSS keeps only about half of F's digits
        rng = np.random.default_rng(3)
        T = 100
        y = rng.normal(size=T)
        design = np.column_stack([np.ones(T - 1), y[:-1]])
        e = y[1:] - design @ np.linalg.lstsq(design, y[1:], rcond=None)[0]
        lag = rng.normal(size=T - 1)
        lag -= ((lag @ e) / (e @ e) - 1e-5) * e
        x = np.append(lag, 0.0)  # x[t - 1] is the lag of y[t]
        f, _ = var_granger(x, y, max_lag=1)
        assert 0.0 < f < 1e-6
        assert f == pytest.approx(mpmath_var_f(x, y, 1), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("L", [1, 2])
    def test_affine_copy_of_y_is_rank_deficient(self, L, caplog):
        # x = 3y + 1 lies in the span of [1, y lags] only up to rounding, so
        # its projection leaves noise, not zero: the rank rule must send the
        # pair to the ridge fallback, which gives the oracle's bits
        y = np.random.default_rng(5).normal(size=80)
        x = 3.0 * y + 1.0
        with caplog.at_level(logging.WARNING, logger="dagranger.baselines"):
            f, p = var_granger(x, y, max_lag=L)
        assert [r.getMessage() for r in caplog.records] == [
            "var_granger: 1 of 1 pairs have a singular design; ridge fit (lambda=1e-08)"]
        assert (f, p) == lstsq_var_granger(x, y, L)

    @pytest.mark.parametrize("which", ["constant x", "constant y"])
    def test_overflowing_ridge_fit_gives_f_0(self, which, caplog):
        # a constant series collides with the intercept, so the design is
        # singular and x adds nothing; with y times 1e200 the ridge fit
        # on the unscaled series overflows, and the pair gets F = 0, p = 1
        # in place of NaN, still counted by the one ridge warning. At scale
        # 1 the same pair gives F near 0 and p near 1.
        rng = np.random.default_rng(0)
        x, y = ((np.ones(60), rng.normal(size=60)) if which == "constant x"
                else (rng.normal(size=60), np.ones(60)))
        f, p = var_granger(x, y, max_lag=1)
        assert f < 1e-12 and p > 1.0 - 1e-6
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="dagranger.baselines"):
            assert var_granger(x, 1e200 * y, max_lag=1) == (0.0, 1.0)
        assert [r.getMessage() for r in caplog.records] == [
            "var_granger: 1 of 1 pairs have a singular design; ridge fit (lambda=1e-08)"]

    def test_scale_free(self):
        # column 0 of x and of y times 1e200: F does not depend on the scale
        # of a series, and no sum of squares may overflow
        ds = generate(SynthSpec(n_nodes=80, n_x_vars=4, n_y_vars=3, seed=0))
        assert len(ds.candidates) == 12
        f, _ = var_granger_pairs(ds.x_matrix, ds.y_matrix, ds.candidates, ds.pseudotime, 1)
        x, y = ds.x_matrix.copy(), ds.y_matrix.copy()
        x[:, 0] *= 1e200
        y[:, 0] *= 1e200
        scaled, p = var_granger_pairs(x, y, ds.candidates, ds.pseudotime, 1)
        assert np.isfinite(scaled).all() and np.isfinite(p).all()
        for k in range(12):
            assert scaled[k] == pytest.approx(f[k], rel=1e-9, abs=1e-9)


class TestScreenWarnings:
    def test_one_zero_variance_warning_per_variable(self, rng, caplog):
        x, y = rng.normal(size=(40, 200)), np.ones((40, 2))
        y[:, 1] = rng.normal(size=40)
        pairs = [(i, j) for i in range(200) for j in range(2)]
        with caplog.at_level(logging.WARNING, logger="dagranger.baselines"):
            r = pearson_pairs(x, y, pairs, method="pseudocell", y_names=("flat", "g"))
        assert [rec.getMessage() for rec in caplog.records] == [
            "pseudocell: y variable flat has zero variance; 200 pairs set to r = 0"]
        assert (r[0::2] == 0.0).all() and (r[1::2] != 0.0).all()

    def test_one_ridge_warning_per_screen(self, rng, caplog):
        # a constant x collides with the intercept in every pair it is in
        x, y = rng.normal(size=(300, 6)), rng.normal(size=(300, 3))
        x[:, 2] = 1.5
        pairs = [(i, j) for i in range(6) for j in range(3)]
        with caplog.at_level(logging.WARNING, logger="dagranger.baselines"):
            var_granger_pairs(x, y, pairs, rng.random(300), max_lag=1)
        assert [rec.getMessage() for rec in caplog.records] == [
            "var_granger: 3 of 18 pairs have a singular design; ridge fit (lambda=1e-08)"]


class TestScreenMemory:
    def test_blocks_bound_peak_memory(self, rng):
        # 20,000 pairs on 300 nodes: one gathered (pairs, nodes) array alone
        # would be 48 MB
        x, y = rng.normal(size=(300, 200)), rng.normal(size=(300, 100))
        pairs = [(i, j) for i in range(200) for j in range(100)]
        pt = rng.random(300)
        for run in (lambda: pearson_pairs(x, y, pairs),
                    lambda: var_granger_pairs(x, y, pairs, pt, max_lag=1)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12e6
