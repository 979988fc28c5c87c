"""DAG representation and the lagged propagation operators built from it.

A directed edge u -> v means "u lies in v's causal past". Two sparse
column-normalized matrices are derived from the edge set:

* ``a``      -- a[i, j] = 1/d_j for every edge (i, j), zero elsewhere, where
  d_j is the in-degree of j. Columns of in-degree-0 nodes are all zero and
  the diagonal is zero, so applying ``a.T`` to a node-value vector replaces
  each node's value by the mean of its parents' values: a strict one-step
  lag with no self term.
* ``a_plus`` -- same construction with every column's in-degree incremented
  by one and the freed weight placed on the diagonal, so each column sums
  to exactly 1 and a node retains a share of its own accumulated value.

Both are stored column-compressed (CSC) with sorted indices, so ``M.T @ v``
is a row-by-row product over a CSR view. Each output entry is a sum that
starts from zero and adds its terms in stored index order; that fixed order
makes results reproducible bit for bit, and it does not depend on the other
columns of v. Training also needs the adjoint products ``M @ g``, which it
takes on the same CSC matrices.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    CycleDetected,
    DimensionMismatch,
    DuplicateEdge,
    NodeIdOutOfRange,
    ParseError,
    SelfLoop,
)

__all__ = [
    "Dag",
    "LaggedOperators",
    "build_dag",
    "lagged_operators",
    "transpose_apply_batch",
    "read_edge_list",
    "write_edge_list",
]


@dataclass(frozen=True)
class Dag:
    """A validated directed acyclic graph over nodes 0..n_nodes-1."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    in_degree: np.ndarray = field(repr=False)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def parents(self, node: int) -> list[int]:
        """Sources of all edges pointing at ``node`` (O(|E|); for tests/introspection)."""
        return [u for (u, v) in self.edges if v == node]


@dataclass(frozen=True)
class LaggedOperators:
    """The pair of column-normalized propagation matrices derived from a Dag."""

    a: sp.csc_matrix = field(repr=False)
    a_plus: sp.csc_matrix = field(repr=False)
    n: int


def build_dag(n_nodes: int, edges) -> Dag:
    """Validate an edge list and return a Dag.

    Raises NodeIdOutOfRange, SelfLoop, DuplicateEdge, or CycleDetected.
    Acyclicity is established by Kahn's algorithm: if the peeling order does
    not consume every node, the remainder contains a cycle.
    """
    if n_nodes < 0:
        raise NodeIdOutOfRange(f"n_nodes must be nonnegative, got {n_nodes}")
    edge_tuples: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    in_degree = np.zeros(n_nodes, dtype=np.int64)
    children: list[list[int]] = [[] for _ in range(n_nodes)]
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise NodeIdOutOfRange(f"edge ({u}, {v}) outside [0, {n_nodes})")
        if u == v:
            raise SelfLoop(f"self-loop at node {u}")
        if (u, v) in seen:
            raise DuplicateEdge(f"edge ({u}, {v}) appears more than once")
        seen.add((u, v))
        edge_tuples.append((u, v))
        in_degree[v] += 1
        children[u].append(v)

    # Kahn peel; any node never reaching in-degree 0 sits on a cycle.
    remaining = in_degree.copy()
    stack = [v for v in range(n_nodes) if remaining[v] == 0]
    seen_count = 0
    while stack:
        u = stack.pop()
        seen_count += 1
        for v in children[u]:
            remaining[v] -= 1
            if remaining[v] == 0:
                stack.append(v)
    if seen_count != n_nodes:
        cyclic = [v for v in range(n_nodes) if remaining[v] > 0]
        raise CycleDetected(f"cycle through nodes {cyclic[:10]}")

    return Dag(n_nodes=n_nodes, edges=tuple(edge_tuples), in_degree=in_degree)


def lagged_operators(dag: Dag) -> LaggedOperators:
    """Build the strict-lag operator and its self-retaining variant.

    Column j of ``a`` holds 1/in_degree(j) at each parent row (empty when j
    has no parents); column j of ``a_plus`` holds 1/(in_degree(j)+1) at each
    parent row and at the diagonal, so it always sums to 1.
    """
    n = dag.n_nodes
    deg = dag.in_degree.astype(np.float64)
    if dag.n_edges:
        src = np.fromiter((e[0] for e in dag.edges), dtype=np.int64, count=dag.n_edges)
        dst = np.fromiter((e[1] for e in dag.edges), dtype=np.int64, count=dag.n_edges)
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)

    a_vals = 1.0 / deg[dst]
    a = sp.coo_matrix((a_vals, (src, dst)), shape=(n, n)).tocsc()
    a.sort_indices()

    diag = np.arange(n, dtype=np.int64)
    plus_rows = np.concatenate([src, diag])
    plus_cols = np.concatenate([dst, diag])
    plus_vals = 1.0 / (deg[plus_cols] + 1.0)
    a_plus = sp.coo_matrix((plus_vals, (plus_rows, plus_cols)), shape=(n, n)).tocsc()
    a_plus.sort_indices()

    return LaggedOperators(a=a, a_plus=a_plus, n=n)


def transpose_apply_batch(op: sp.spmatrix, values: np.ndarray) -> np.ndarray:
    """Return ``op.T @ values`` for an n-by-m batch.

    For the strict-lag operator this is, at each node, the in-degree
    normalized mean of its parents' values (zero at parentless nodes). Each
    output column is bit-identical to the product with that column alone,
    because the sparse product accumulates every column's terms in the same
    stored order.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != op.shape[0]:
        raise DimensionMismatch(f"operator is {op.shape}, batch has shape {values.shape}")
    return op.T @ values


def read_edge_list(path, n_nodes: int | None = None) -> Dag:
    """Read a two-column ``src<TAB>dst`` edge file into a validated Dag.

    Lines starting with ``#`` are ignored. When ``n_nodes`` is not supplied it
    is inferred as max node id + 1.
    """
    edges: list[tuple[int, int]] = []
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer node id") from exc
            edges.append((u, v))
            max_id = max(max_id, u, v)
    if n_nodes is None:
        n_nodes = max_id + 1
    return build_dag(n_nodes, edges)


def write_edge_list(path, dag: Dag) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# src\tdst\n")
        for u, v in dag.edges:
            fh.write(f"{u}\t{v}\n")
