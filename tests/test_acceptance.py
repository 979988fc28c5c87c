"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The synthetic-recovery criteria train the full pipeline (about 6,000 pair
models over two sparsity levels and three data seeds) and dominate the
runtime; everything else is seconds. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines as they complete.
"""
import hashlib
import math
import time

import mpmath
import numpy as np
import pytest
from scipy import stats as sps

from dagranger.baselines import var_granger
from dagranger.cli import RunConfig, main as cli_main
from dagranger.evaluate import auprc, auroc
from dagranger.graph import LaggedOperators, lagged_operators
from dagranger.score import METHODS, f_test, score_dataset, welch_t
from dagranger.synth import SynthSpec, generate
from dagranger.train import Dataset, TrainConfig, train_all

from dag_factories import chain_dag, random_dag
from pair_kernel import encode_one, gradients_of_one_pair, losses_of_one_pair


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- criterion 6/7 infrastructure: full pipeline on the synthetic scenario ----

RECOVERY_SEEDS = (1, 2, 3)


def scenario_spec(dropout: float, seed: int) -> SynthSpec:
    return SynthSpec(
        n_nodes=2000, n_branches=3, n_x_vars=200, n_y_vars=50,
        n_causal_pairs=50, n_candidate_pairs=1000,
        coupling=1.0, noise_sd=0.3, nonlinearity="tanh",
        dropout_rate=dropout, seed=seed,
    )


def run_recovery(dropout: float, seed: int, workers: int = 1):
    """Score all four methods as ``dagranger run`` does, with its defaults."""
    ds = generate(scenario_spec(dropout, seed))
    dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix,
                      x_names=ds.x_names, y_names=ds.y_names, pairs=ds.candidates)
    ops = lagged_operators(ds.dag)
    cfg = TrainConfig(seed=0)  # defaults: lr 1e-3, 20 epochs, L=10
    columns = {
        method: score_dataset(
            dataset, method, ops=ops, neighbor_edges=ds.dag.edges, coords=None,
            pseudotime=ds.pseudotime, config=cfg, workers=workers,
            rank_mode=RunConfig.rank_mode, var_max_lag=RunConfig.var_max_lag,
            pseudocell_neighborhood=RunConfig.pseudocell_neighborhood)
        for method in METHODS
    }
    planted = np.zeros((len(ds.x_names), len(ds.y_names)), dtype=bool)
    planted[tuple(np.array(sorted(ds.truth)).T)] = True
    auprcs = {
        method.replace("-", "_"): auprc(cols["score"].tolist(),
                                        planted[tuple(dataset.pairs[cols["pair_id"]].T)].tolist())
        for method, cols in columns.items()
    }
    dagranger = columns["dagranger"]
    return {
        "auprc": auprcs,
        "f_scores": dagranger["f_stat"].tolist(),
        "welch_scores": [
            math.inf if p <= 0.0 else -math.log10(p) for p in dagranger["t_pvalue"].tolist()
        ],
    }


@pytest.fixture(scope="module")
def recovery_05():
    t0 = time.time()
    runs = {seed: run_recovery(0.5, seed) for seed in RECOVERY_SEEDS}
    runs["elapsed"] = time.time() - t0
    return runs


@pytest.fixture(scope="module")
def recovery_09():
    t0 = time.time()
    runs = {seed: run_recovery(0.9, seed) for seed in RECOVERY_SEEDS}
    runs["elapsed"] = time.time() - t0
    return runs


# --- criteria -----------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    links = ("identity", "exponential")
    for i in range(100):
        n = int(rng.integers(5, 51))
        dag = random_dag(rng, n, edge_prob=0.2)
        ops = lagged_operators(dag)
        L = int(rng.choice([1, 2, 4]))
        lag_hops = int(rng.choice([1, min(2, L)]))
        link = links[i % 2]
        # full column [w_y, b_y, w_x, b_x, c], reduced column [w_y, b_y]
        full = np.concatenate([rng.normal(size=L), rng.normal(size=L) * 0.3,
                               rng.normal(size=L), rng.normal(size=L) * 0.3,
                               [rng.normal() * 0.5]])
        reduced = np.concatenate([rng.normal(size=L), rng.normal(size=L) * 0.3])
        x = rng.normal(size=n)
        y = rng.normal(size=n) * 0.5
        spec = dict(lag_hops=lag_hops, link=link)
        g_full, g_reduced = gradients_of_one_pair(x, y, ops, full, reduced, **spec)
        h = 1e-6
        for column, g, loss in (
                (full, g_full, lambda f: losses_of_one_pair(x, y, ops, f, reduced, **spec)),
                (reduced, g_reduced, lambda r: losses_of_one_pair(x, y, ops, full, r, **spec))):
            for j, e in enumerate(h * np.eye(column.size)):
                rp, rm = loss(column + e), loss(column - e)
                fd = ((rp.rss_full + rp.rss_reduced) - (rm.rss_full + rm.rss_reduced)) / (2 * h)
                rel = abs(g[j] - fd) / max(abs(g[j]), 1e-8)
                worst = max(worst, rel)
        checked += 1
    elapsed = time.time() - t0
    ok = checked >= 100 and worst < 1e-5 and elapsed < 30
    report(1, ok, f"{checked} instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


def lag_violation_detector(ops, n, rng, L=3, trials_per_node=1):
    """True if any node's history mean reacts to a perturbation at the node
    itself or at a non-ancestor within L steps (exact comparison)."""
    p = np.concatenate([rng.normal(size=L), rng.normal(size=L) * 0.2])  # w, then b
    v = rng.normal(size=n)
    base = encode_one(v, ops, p, lag_hops=1)
    # ancestor sets within L steps from the strict-lag operator's pattern
    a = ops.a.tocoo()
    parents: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in zip(a.row, a.col):
        parents[j].add(int(i))
    for node in range(n):
        anc, frontier = set(), parents[node]
        for _ in range(L):
            anc |= frontier
            frontier = {q for f in frontier for q in parents[f]}
        v2 = v.copy()
        v2[node] += 1.0
        if encode_one(v2, ops, p, lag_hops=1)[node] != base[node]:
            return True
        outsiders = [u for u in range(n) if u not in anc and u != node]
        if outsiders:
            v3 = v.copy()
            v3[rng.choice(outsiders)] += 1.0
            if encode_one(v3, ops, p, lag_hops=1)[node] != base[node]:
                return True
    return False


def test_criterion_2_lag_semantics():
    t0 = time.time()
    rng = np.random.default_rng(7)
    clean = True
    for _ in range(6):
        n = int(rng.integers(20, 201))
        dag = random_dag(rng, n, edge_prob=min(0.2, 8.0 / n))
        ops = lagged_operators(dag)
        if lag_violation_detector(ops, n, rng):
            clean = False
    # broken variant: substitute the self-retaining operator in layer 1
    dag = random_dag(rng, 60, edge_prob=0.1)
    ops = lagged_operators(dag)
    broken = LaggedOperators(a=ops.a_plus, a_plus=ops.a_plus, n=ops.n)
    fired = lag_violation_detector(broken, 60, rng)
    elapsed = time.time() - t0
    ok = clean and fired and elapsed < 10
    report(2, ok, f"exact invariance held, detector fired on broken operator, {elapsed:.1f}s")


def test_criterion_3_operator_invariants():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst_a = worst_ap = worst_diag = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        dag = random_dag(rng, n, edge_prob=float(rng.uniform(0.05, 0.5)))
        ops = lagged_operators(dag)
        a_sums = np.asarray(ops.a.sum(axis=0)).ravel()
        expected = (dag.in_degree > 0).astype(float)
        worst_a = max(worst_a, float(np.abs(a_sums - expected).max()))
        ap_sums = np.asarray(ops.a_plus.sum(axis=0)).ravel()
        worst_ap = max(worst_ap, float(np.abs(ap_sums - 1.0).max()))
        if ops.a.nnz:
            worst_diag = max(worst_diag, float(np.abs(ops.a.diagonal()).max()))
    elapsed = time.time() - t0
    ok = worst_a <= 1e-12 and worst_ap <= 1e-12 and worst_diag == 0.0 and elapsed < 5
    report(3, ok, f"1000 DAGs, worst column-sum errors {worst_a:.1e}/{worst_ap:.1e}, {elapsed:.1f}s")


def test_criterion_4_chain_graph_reduction():
    t0 = time.time()
    n, L = 500, 3
    rng = np.random.default_rng(3)
    ops = lagged_operators(chain_dag(n))
    w, b = rng.normal(size=L), rng.normal(size=L) * 0.2
    v = rng.normal(size=n)
    out = encode_one(v, ops, np.concatenate([w, b]), lag_hops=1)
    h_prev, acc = v.copy(), np.zeros(n)
    for ell in range(L):
        h = np.empty(n)
        for i in range(n):
            if ell == 0:
                u = 0.0 if i == 0 else h_prev[i - 1]
            else:
                u = h_prev[0] if i == 0 else (h_prev[i - 1] + h_prev[i]) / 2.0
            h[i] = math.tanh(w[ell] * u + b[ell])
        acc += h
        h_prev = h
    diff = float(np.abs(out - acc / L).max())
    elapsed = time.time() - t0
    ok = diff <= 1e-12 and elapsed < 1
    report(4, ok, f"500-node chain, L=3, max deviation {diff:.1e}, {elapsed:.2f}s")


def test_criterion_5_joint_separate_equivalence():
    t0 = time.time()
    spec = SynthSpec(n_nodes=150, n_branches=2, depth=15, k_neighbors=3,
                     n_x_vars=5, n_y_vars=4, n_causal_pairs=3, seed=17,
                     n_candidate_pairs=12)
    ds = generate(spec)
    dataset = Dataset(x_values=ds.x_matrix, y_values=ds.y_matrix,
                      x_names=ds.x_names, y_names=ds.y_names, pairs=ds.candidates)
    ops = lagged_operators(ds.dag)
    cfg = TrainConfig(n_layers=4, max_epochs=6, seed=2, convergence_numerator=0.0)
    joint = train_all(dataset, ops, cfg, component="both")
    full_only = train_all(dataset, ops, cfg, component="full")
    reduced_only = train_all(dataset, ops, cfg, component="reduced")
    identical = True
    for pid in joint.pair_ids:
        j = joint.y_index[pid]
        identical &= np.array_equal(joint.full[:, pid], full_only.full[:, pid])
        identical &= np.array_equal(joint.reduced[:, j], reduced_only.reduced[:, j])
    elapsed = time.time() - t0
    ok = identical and elapsed < 60
    report(5, ok, f"joint vs separate training bit-identical over {len(joint)} pairs, {elapsed:.1f}s")


def test_criterion_6_synthetic_recovery(recovery_05):
    lines = []
    ok = True
    for seed in RECOVERY_SEEDS:
        a = recovery_05[seed]["auprc"]
        margin = a["dagranger"] - max(a["pearson"], a["pseudocell"], a["var_granger"])
        ok &= a["dagranger"] >= 0.15 and margin > 0
        lines.append(f"seed {seed}: dagranger {a['dagranger']:.3f} "
                     f"(pearson {a['pearson']:.3f}, pseudocell {a['pseudocell']:.3f}, "
                     f"var {a['var_granger']:.3f})")
    elapsed = recovery_05["elapsed"]
    ok &= elapsed < 900
    report(6, ok, "; ".join(lines) + f"; {elapsed:.0f}s")


def test_criterion_7_sparsity_robustness(recovery_09):
    lines = []
    ok = True
    for seed in RECOVERY_SEEDS:
        a = recovery_09[seed]["auprc"]
        margin = a["dagranger"] - max(a["pearson"], a["pseudocell"], a["var_granger"])
        ok &= margin > 0
        lines.append(f"seed {seed}: margin {margin:+.3f} "
                     f"(dagranger {a['dagranger']:.3f}, best baseline "
                     f"{max(a['pearson'], a['pseudocell'], a['var_granger']):.3f})")
    elapsed = recovery_09["elapsed"]
    ok &= elapsed < 900
    report(7, ok, "; ".join(lines) + f"; {elapsed:.0f}s")


def test_criterion_8_test_agreement(recovery_05):
    worst = 1.0
    for seed in RECOVERY_SEEDS:
        rho = sps.spearmanr(
            recovery_05[seed]["f_scores"], recovery_05[seed]["welch_scores"]
        ).statistic
        worst = min(worst, float(rho))
    ok = worst > 0.8
    report(8, ok, f"minimum Spearman(F, Welch) over seeds = {worst:.3f}")


def test_criterion_9_statistical_kernels():
    from test_score import welch_oracle

    t0 = time.time()
    # the F-test and Welch p-values that go into score files, against
    # high-precision mpmath oracles at 100 random points each; a third of the
    # Welch points have |t| < 1e-6, where the tail is closest to 0.5
    mpmath.mp.dps = 30
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(1, 11))
        n = int(rng.integers(4 * L + 2, 5000))
        rss_full = float(rng.uniform(0.1, 10.0))
        rss_reduced = rss_full * float(1.0 + rng.uniform(0.0, 0.2) ** 2)
        f, p = f_test(rss_reduced, rss_full, n, L)
        df1, df2 = 2 * L + 1, n - 4 * L - 1
        x = mpmath.mpf(df2) / (df2 + df1 * mpmath.mpf(f))
        oracle = mpmath.betainc(df2 / 2, df1 / 2, 0, x, regularized=True)
        worst = max(worst, abs(p - float(oracle)))
    for i in range(100):
        n = int(rng.integers(2, 3000))
        full = rng.normal(size=n) * float(rng.uniform(0.5, 2.0))
        reduced = rng.normal(size=int(rng.integers(2, 3000)))
        t_target = float(rng.uniform(-1e-6, 1e-6) if i % 3 == 0 else rng.uniform(-6.0, 6.0))
        se = math.sqrt(full.var(ddof=1) / full.size + reduced.var(ddof=1) / reduced.size)
        reduced += full.mean() - reduced.mean() - t_target * se
        _, p = welch_t(full, reduced)
        worst = max(worst, abs(p - welch_oracle(full, reduced)[1]))
    # VAR Granger null calibration
    null_rng = np.random.default_rng(42)
    rejections = 0
    for _ in range(1000):
        xw = null_rng.normal(size=100)
        yw = null_rng.normal(size=100)
        _, p = var_granger(xw, yw, max_lag=1)
        rejections += p < 0.05
    rate = rejections / 1000
    elapsed = time.time() - t0
    ok = worst < 1e-10 and 0.03 <= rate <= 0.07
    report(9, ok, f"F and Welch p-value worst abs err {worst:.1e}; "
                  f"null rejection rate {rate:.3f}; {elapsed:.0f}s")


def test_criterion_10_metric_oracles():
    from test_evaluate import auprc_bruteforce, auroc_bruteforce

    rng = np.random.default_rng(11)
    checked = 0
    ok = True
    while checked < 200:
        n = int(rng.integers(4, 51))
        scores = list(rng.integers(0, 10, size=n).astype(float))
        labels = list(rng.random(n) < 0.35)
        if not (any(labels) and not all(labels)):
            continue
        ok &= auroc(scores, labels) == auroc_bruteforce(scores, labels)
        ok &= auprc(scores, labels) == auprc_bruteforce(scores, labels)
        checked += 1
    report(10, ok, f"AUROC/AUPRC equal brute-force enumeration on {checked} instances")


def test_criterion_11_determinism(tmp_path):
    from dagranger.synth import write_dataset

    t0 = time.time()
    ds = generate(scenario_spec(0.5, RECOVERY_SEEDS[0]))
    paths = write_dataset(ds, tmp_path / "bundle")
    digests = []
    for name, workers in (("w1", 1), ("w2", 4)):
        outdir = tmp_path / name
        code = cli_main([
            "run", "--x-matrix", paths["x_matrix"], "--y-matrix", paths["y_matrix"],
            "--pairs", paths["pairs"], "--edges", paths["edges"],
            "--pseudotime", paths["pseudotime"], "--method", "dagranger",
            "--outdir", str(outdir), "--seed", "0", "--workers", str(workers),
        ])
        assert code == 0
        digests.append(hashlib.sha256(
            (outdir / "scores_dagranger.jsonl").read_bytes()).hexdigest())
    elapsed = time.time() - t0
    ok = digests[0] == digests[1]
    report(11, ok, f"score files byte-identical across worker counts ({digests[0][:12]}…), {elapsed:.0f}s")
