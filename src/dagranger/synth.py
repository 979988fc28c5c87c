"""Synthetic DAG-structured dynamical systems with planted causal pairs.

Nodes are arranged in depth layers that may split into branches, mimicking a
branched trajectory. Candidate-cause variables evolve as parent-mean random
walks along the DAG. Each target variable is an autonomous parent-mean
process plus, for planted pairs, a coupling term driven by the cause
variable's iterated parent mean taken ``lag_steps`` back, so the planted
mechanism is genuinely lagged. Observed matrices are zero-inflated at a
configurable rate to mimic sparse counts.

The quadratic mechanism choice is deliberately outside what the trained
model class can represent; it exists to keep the benchmark honest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .graph import Dag, build_dag, lagged_operators, write_edge_list
from .preprocess import write_matrix, write_pseudotime

__all__ = [
    "SynthSpec",
    "SynthDataset",
    "generate_branching_dag",
    "simulate_pair_values",
    "generate",
    "write_dataset",
]

# Weight of the autonomous parent-mean term in each target variable.
HISTORY_WEIGHT = 0.8

# Pseudotime jitter stays below the unit layer gap so children always stamp later.
_PT_JITTER = 0.9

NONLINEARITIES = ("linear", "tanh", "quadratic")


@dataclass(frozen=True)
class SynthSpec:
    n_nodes: int
    n_branches: int = 1
    depth: int = 10
    k_neighbors: int = 15
    n_x_vars: int = 10
    n_y_vars: int = 5
    n_causal_pairs: int = 5
    lag_steps: int = 2
    coupling: float = 1.0
    noise_sd: float = 0.3
    nonlinearity: str = "tanh"
    dropout_rate: float = 0.0
    seed: int = 0
    n_candidate_pairs: int | None = None  # None: full cross product

    def __post_init__(self):
        for name in ("n_x_vars", "n_y_vars"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_causal_pairs < 0:
            raise ConfigError(f"n_causal_pairs must be >= 0, got {self.n_causal_pairs}")
        if not math.isfinite(self.coupling):
            raise ConfigError(f"coupling must be finite, got {self.coupling}")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ConfigError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if self.n_causal_pairs > self.n_x_vars * self.n_y_vars:
            raise ConfigError("more causal pairs than the variable cross product")
        if self.lag_steps < 1:
            raise ConfigError("lag_steps must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if self.nonlinearity not in NONLINEARITIES:
            raise ConfigError(f"nonlinearity must be one of {NONLINEARITIES}")
        if self.depth < 1 or self.n_nodes < self.depth:
            raise ConfigError("need depth >= 1 and at least one node per layer")
        if self.n_branches < 1 or self.k_neighbors < 1:
            raise ConfigError("n_branches and k_neighbors must be >= 1")
        if (
            self.n_candidate_pairs is not None
            and not self.n_causal_pairs <= self.n_candidate_pairs <= self.n_x_vars * self.n_y_vars
        ):
            raise ConfigError("n_candidate_pairs must cover truth and fit the cross product")


@dataclass(frozen=True)
class SynthDataset:
    dag: Dag
    x_matrix: np.ndarray
    y_matrix: np.ndarray
    pseudotime: np.ndarray
    truth: frozenset
    candidates: tuple
    x_names: tuple
    y_names: tuple


def _layer_sizes(n_nodes: int, depth: int) -> list[int]:
    base, extra = divmod(n_nodes, depth)
    return [base + (1 if d < extra else 0) for d in range(depth)]


def generate_branching_dag(spec: SynthSpec, rng=None) -> tuple[Dag, np.ndarray]:
    """Layered random DAG plus pseudotime stamps consistent with it.

    Node ids increase with depth. Each non-root node gets one parent drawn
    uniformly from the previous layer of its branch (keeping every layer
    connected; a one-wide single branch is therefore a chain), plus up to
    ``k_neighbors - 1`` extra parents drawn from the previous two layers.
    Branches share a common trunk for the first third of the depth.
    pseudotime = depth + U(0, 0.9), so children always stamp later than
    parents.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    sizes = _layer_sizes(spec.n_nodes, spec.depth)
    split_depth = spec.depth if spec.n_branches == 1 else max(1, spec.depth // 3)

    node_depth = np.empty(spec.n_nodes, dtype=np.int64)
    node_branch = np.empty(spec.n_nodes, dtype=np.int64)
    layers: list[np.ndarray] = []
    next_id = 0
    for d, size in enumerate(sizes):
        ids = np.arange(next_id, next_id + size)
        layers.append(ids)
        node_depth[ids] = d
        if d < split_depth:
            node_branch[ids] = -1  # trunk feeds every branch
        else:
            node_branch[ids] = (np.arange(size) * spec.n_branches) // size
        next_id += size

    def compatible(pool: np.ndarray, branch: int) -> np.ndarray:
        pb = node_branch[pool]
        return pool[(pb == -1) | (pb == branch)]

    src: list[int] = []
    dst: list[int] = []
    for d in range(1, spec.depth):
        for v in layers[d]:
            branch = node_branch[v]
            primary_pool = compatible(layers[d - 1], branch)
            if primary_pool.size == 0:
                primary_pool = layers[d - 1]
            first = int(rng.choice(primary_pool))
            parents = {first}
            reach = np.concatenate(layers[max(0, d - 2) : d])
            wide_pool = compatible(reach, branch)
            if wide_pool.size == 0:
                wide_pool = reach
            n_extra = int(rng.integers(0, spec.k_neighbors))
            extra_pool = np.setdiff1d(wide_pool, np.array([first]))
            n_extra = min(n_extra, extra_pool.size)
            if n_extra > 0:
                for u in rng.choice(extra_pool, size=n_extra, replace=False):
                    parents.add(int(u))
            src += sorted(parents)
            dst += [int(v)] * len(parents)

    pseudotime = node_depth.astype(np.float64) + _PT_JITTER * rng.random(spec.n_nodes)
    return build_dag(spec.n_nodes, np.array([src, dst], dtype=np.int64).T), pseudotime


def _nonlinearity(name: str):
    if name == "linear":
        return lambda t: t
    if name == "tanh":
        return np.tanh
    return np.square


def simulate_pair_values(
    dag: Dag, truth, spec: SynthSpec, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve all variables over the DAG and plant the causal couplings.

    Cause variables: x[v] = parent-mean(x)[v] + N(0, noise_sd), roots N(0,1).
    Target variables: an autonomous process s[v] = 0.8 * parent-mean(s)[v]
    + N(0, noise_sd), plus coupling * f(k-step iterated parent mean of the
    cause) for each planted pair. Cause and autonomous columns are
    re-anchored to zero sample mean (the recurrences are shift-invariant;
    the arbitrary origin would otherwise bleed into every correlation-like
    statistic), then the observed matrices are zero-inflated at
    ``dropout_rate``. With noise_sd = 0 the autonomous part vanishes
    identically, leaving the planted term alone.
    """
    ops = lagged_operators(dag)
    at = ops.a.T.tocsr()
    n = dag.n_nodes

    # Group nodes by longest-path level so each level only reads earlier ones.
    by_level = np.argsort(dag.level, kind="stable")
    level_groups = np.split(by_level, np.flatnonzero(np.diff(dag.level[by_level])) + 1)

    roots = dag.in_degree == 0

    eps_x = rng.normal(size=(n, spec.n_x_vars))
    eps_x[~roots] *= spec.noise_sd
    x = np.zeros((n, spec.n_x_vars))
    for rows in level_groups:
        x[rows] = at[rows] @ x + eps_x[rows]
    # Re-anchor each column to zero sample mean: the recurrence is invariant
    # to a per-column shift, and the arbitrary origin would otherwise leak a
    # DC component into every downstream correlation-like statistic.
    x -= x.mean(axis=0)

    eps_y = rng.normal(size=(n, spec.n_y_vars)) * spec.noise_sd
    s = np.zeros((n, spec.n_y_vars))
    for rows in level_groups:
        s[rows] = HISTORY_WEIGHT * (at[rows] @ s) + eps_y[rows]
    s -= s.mean(axis=0)

    lagged = x
    for _ in range(spec.lag_steps):
        lagged = at @ lagged

    f = _nonlinearity(spec.nonlinearity)
    y = s.copy()
    for xi, yi in sorted(truth):
        y[:, yi] += spec.coupling * f(lagged[:, xi])

    if spec.dropout_rate > 0.0:
        x = np.where(rng.random(x.shape) < spec.dropout_rate, 0.0, x)
        y = np.where(rng.random(y.shape) < spec.dropout_rate, 0.0, y)
    return x, y


def generate(spec: SynthSpec) -> SynthDataset:
    """Full dataset: DAG, pseudotime, matrices, planted truth, candidate set."""
    rng = np.random.default_rng(spec.seed)
    dag, pseudotime = generate_branching_dag(spec, rng)

    total = spec.n_x_vars * spec.n_y_vars
    truth_codes = rng.choice(total, size=spec.n_causal_pairs, replace=False)
    truth = frozenset((int(c) // spec.n_y_vars, int(c) % spec.n_y_vars) for c in truth_codes)

    if spec.n_candidate_pairs is None or spec.n_candidate_pairs == total:
        candidates = [(i, j) for i in range(spec.n_x_vars) for j in range(spec.n_y_vars)]
    else:
        remaining = np.setdiff1d(np.arange(total), truth_codes)
        extra = rng.choice(remaining, size=spec.n_candidate_pairs - spec.n_causal_pairs,
                           replace=False)
        codes = sorted(set(int(c) for c in truth_codes) | set(int(c) for c in extra))
        candidates = [(c // spec.n_y_vars, c % spec.n_y_vars) for c in codes]

    x, y = simulate_pair_values(dag, truth, spec, rng)
    return SynthDataset(
        dag=dag,
        x_matrix=x,
        y_matrix=y,
        pseudotime=pseudotime,
        truth=truth,
        candidates=tuple(sorted(candidates)),
        x_names=tuple(f"x{i:04d}" for i in range(spec.n_x_vars)),
        y_names=tuple(f"y{j:04d}" for j in range(spec.n_y_vars)),
    )


def write_dataset(ds: SynthDataset, outdir) -> dict:
    """Emit the dataset in the formats the CLI consumes; returns path map.

    ``reference.tsv`` assigns 0.0 to planted pairs and 1.0 to the rest, so the
    default labeling thresholds mark them true/false respectively.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "x_matrix": outdir / "x_matrix.csv",
        "y_matrix": outdir / "y_matrix.csv",
        "edges": outdir / "edges.tsv",
        "pseudotime": outdir / "pseudotime.txt",
        "pairs": outdir / "pairs.tsv",
        "truth": outdir / "truth.tsv",
        "reference": outdir / "reference.tsv",
    }
    write_matrix(paths["x_matrix"], ds.x_matrix, ds.x_names)
    write_matrix(paths["y_matrix"], ds.y_matrix, ds.y_names)
    write_edge_list(paths["edges"], ds.dag)
    write_pseudotime(paths["pseudotime"], ds.pseudotime)
    with open(paths["pairs"], "w", encoding="utf-8") as fh:
        for xi, yi in ds.candidates:
            fh.write(f"{ds.x_names[xi]}\t{ds.y_names[yi]}\n")
    with open(paths["truth"], "w", encoding="utf-8") as fh:
        for xi, yi in sorted(ds.truth):
            fh.write(f"{ds.x_names[xi]}\t{ds.y_names[yi]}\n")
    with open(paths["reference"], "w", encoding="utf-8") as fh:
        for xi, yi in ds.candidates:
            value = 0.0 if (xi, yi) in ds.truth else 1.0
            fh.write(f"{ds.x_names[xi]}\t{ds.y_names[yi]}\t{value}\n")
    return {k: str(v) for k, v in paths.items()}
