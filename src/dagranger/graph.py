"""DAG representation and the lagged propagation operators built from it.

A directed edge u -> v means "u lies in v's causal past". A ``Dag`` holds
its edges as one read-only (E, 2) int64 array of (u, v) rows, the form in
which edges pass from the edge file or the kNN graph to the operators, and
``level``, each node's longest-path depth from a root, which the one Kahn
peel of ``build_dag`` yields while it checks acyclicity. Two sparse
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

``transpose_apply_batch`` (``M.T @ v``) and ``apply_batch`` (``M @ v``) can
write into a caller's buffer. Both call the routine that scipy's ``@`` calls
for a dense batch, ``scipy.sparse._sparsetools.csr_matvecs`` or
``csc_matvecs``, on a zeroed output, so they give the bits of ``@``; a test
compares them with ``@`` at several widths, since the routine is private to
scipy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import (
    CycleDetected,
    DataError,
    DimensionMismatch,
    DuplicateEdge,
    NodeIdOutOfRange,
    ParseError,
    SelfLoop,
)
from .textio import numbered_lines, read_table

__all__ = [
    "Dag",
    "LaggedOperators",
    "build_dag",
    "lagged_operators",
    "apply_batch",
    "transpose_apply_batch",
    "read_edge_list",
    "write_edge_list",
]


# The child edges up to which ``build_dag`` peels a frontier item by item.
_FEW_EDGES = 256


@dataclass(frozen=True)
class Dag:
    """A validated directed acyclic graph over nodes 0..n_nodes-1.

    ``edges`` is a read-only (E, 2) int64 array of (u, v) rows in the order
    they were given. ``in_degree[v]`` counts the edges into v, and
    ``level[v]`` is the number of edges on the longest path from a root to v
    (0 at roots), so every edge goes from a lower level to a higher one.
    """

    n_nodes: int
    edges: np.ndarray = field(repr=False)
    in_degree: np.ndarray = field(repr=False)
    level: np.ndarray = field(repr=False)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class LaggedOperators:
    """The pair of column-normalized propagation matrices derived from a Dag."""

    a: sp.csc_matrix = field(repr=False)
    a_plus: sp.csc_matrix = field(repr=False)
    n: int


def build_dag(n_nodes: int, edges) -> Dag:
    """Validate an (E, 2) array (or sequence of pairs) of edges and return a Dag.

    Raises NodeIdOutOfRange (for an id outside [0, n_nodes) or not an
    integer), SelfLoop, DuplicateEdge or CycleDetected. An edge defect is
    reported for the first defective edge in input order, and the exception
    carries that edge's position as ``edge_index``. Acyclicity is established
    by Kahn's algorithm, which also gives each node's level: if the peeling
    order does not consume every node, the remainder contains a cycle.
    """
    if n_nodes < 0:
        raise NodeIdOutOfRange(f"n_nodes must be nonnegative, got {n_nodes}")
    given = np.asarray(edges).reshape(-1, 2)
    with np.errstate(invalid="ignore"):
        ends = given.astype(np.int64)
    u, v = ends.T
    non_integer = (ends != given).any(axis=1)
    outside = non_integer | (u < 0) | (u >= n_nodes) | (v < 0) | (v >= n_nodes)
    # each edge but the first of its equals is a duplicate; ids outside the
    # range get distinct negative codes, so they equal nothing
    code = np.where(outside, -1 - np.arange(len(ends)), u * n_nodes + v)
    duplicate = np.ones(len(ends), dtype=bool)
    duplicate[np.unique(code, return_index=True)[1]] = False
    bad = outside | (u == v) | duplicate
    if bad.any():
        i = int(bad.argmax())
        a, b = given[i]
        if non_integer[i]:
            exc = NodeIdOutOfRange(f"edge ({a}, {b}) has a non-integer node id")
        elif outside[i]:
            exc = NodeIdOutOfRange(f"edge ({a}, {b}) outside [0, {n_nodes})")
        elif a == b:
            exc = SelfLoop(f"self-loop at node {a}")
        else:
            exc = DuplicateEdge(f"edge ({a}, {b}) appears more than once")
        exc.edge_index = i
        raise exc

    # Kahn peel over CSR child lists, one frontier at a time: a node joins the
    # frontier when its last parent is peeled, so its level, the longest path
    # from a root, is the frontier's depth. A node never reaching in-degree 0
    # is on or below a cycle. A frontier with few child edges is peeled item
    # by item through memoryviews of the same arrays, which costs less than
    # the dozen numpy calls of a large one.
    in_degree = np.bincount(v, minlength=n_nodes)
    out_degree = np.bincount(u, minlength=n_nodes)
    start = np.concatenate(([0], np.cumsum(out_degree)))
    children = v[np.argsort(u, kind="stable")]
    remaining = in_degree.copy()
    level = np.zeros(n_nodes, dtype=np.int64)
    left, depth_of, child = memoryview(remaining), memoryview(level), memoryview(children)
    first = fanout = None  # start and out_degree as lists, made for the first small frontier

    def listed(nodes):
        """A frontier of few nodes as a list, to be peeled item by item if its edges are few."""
        return nodes.tolist() if nodes.size <= _FEW_EDGES else nodes

    frontier = listed(np.flatnonzero(in_degree == 0))
    depth = 0
    while len(frontier):
        if isinstance(frontier, list) and first is None:
            first, fanout = start.tolist(), out_degree.tolist()
        if isinstance(frontier, list) and sum(map(fanout.__getitem__, frontier)) <= _FEW_EDGES:
            peeled = []
            for node in frontier:
                depth_of[node] = depth
                for kid in child[first[node] : first[node + 1]]:
                    left[kid] -= 1
                    if not left[kid]:
                        peeled.append(kid)
            frontier = peeled
        else:
            nodes = np.asarray(frontier)
            level[nodes] = depth
            count = out_degree[nodes]
            last = np.cumsum(count)
            kids = children[np.repeat(start[nodes] - last + count, count) + np.arange(last[-1])]
            np.subtract.at(remaining, kids, 1)
            frontier = listed(np.unique(kids[remaining[kids] == 0]))  # a child of several once
        depth += 1
    cyclic = np.flatnonzero(remaining)
    if cyclic.size:
        raise CycleDetected(f"cycle through nodes {cyclic[:10].tolist()}")

    ends.setflags(write=False)
    return Dag(n_nodes=n_nodes, edges=ends, in_degree=in_degree, level=level)


def lagged_operators(dag: Dag) -> LaggedOperators:
    """Build the strict-lag operator and its self-retaining variant.

    Column j of ``a`` holds 1/in_degree(j) at each parent row (empty when j
    has no parents); column j of ``a_plus`` holds 1/(in_degree(j)+1) at each
    parent row and at the diagonal, so it always sums to 1.
    """
    n = dag.n_nodes
    deg = dag.in_degree.astype(np.float64)
    src, dst = dag.edges.T

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


def transpose_apply_batch(op: sp.spmatrix, values: np.ndarray, out=None) -> np.ndarray:
    """Return ``op.T @ values`` for an n-by-m batch, written into ``out`` when given.

    For the strict-lag operator this is, at each node, the in-degree
    normalized mean of its parents' values (zero at parentless nodes). Each
    output column is bit-identical to the product with that column alone,
    because the sparse product accumulates every column's terms in the same
    stored order. ``op`` is CSC or CSR, and ``out`` a C-ordered float64 array
    of the result's shape.
    """
    # op.T is the matrix of the other format on the same three arrays
    return _matvecs(_TRANSPOSED[op.format], op.shape[::-1], op, values, out)


def apply_batch(op: sp.spmatrix, values: np.ndarray, out=None) -> np.ndarray:
    """Return ``op @ values`` for an n-by-m batch, written into ``out`` when given.

    The adjoint of ``transpose_apply_batch``, with the same arguments.
    """
    return _matvecs(op.format, op.shape, op, values, out)


_TRANSPOSED = {"csc": "csr", "csr": "csc"}


def _matvecs(fmt: str, shape, op: sp.spmatrix, values, out) -> np.ndarray:
    """The product of ``op``'s arrays, read as a ``fmt`` matrix of ``shape``, with a batch.

    It calls scipy's own routine for a sparse matrix times a dense batch.
    """
    values = np.asarray(values, dtype=np.float64)
    rows, cols = shape
    if values.ndim != 2 or values.shape[0] != cols:
        raise DimensionMismatch(f"operator is {op.shape}, batch has shape {values.shape}")
    m = values.shape[1]
    if out is None:
        out = np.zeros((rows, m))
    elif out.shape != (rows, m) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DimensionMismatch(f"out must be a C-ordered float64 array of shape {(rows, m)}")
    else:
        out.fill(0.0)
    getattr(_sparsetools, fmt + "_matvecs")(rows, cols, m, op.indptr, op.indices, op.data,
                                            values.ravel(), out.ravel())
    return out


def read_edge_list(path, n_nodes: int | None = None) -> Dag:
    """Read a two-column ``src<TAB>dst`` edge file into a validated Dag.

    Any whitespace separates the two ids. Blank lines and lines whose first
    non-blank character is ``#`` are ignored. When ``n_nodes`` is not
    supplied it is inferred as max node id + 1. A rejected edge is reported
    with the file and line it came from; a cycle with the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        edges = read_table(fh, np.int64, comment_lines=True)
    if edges is None or edges.shape[1] != 2:
        edges = _read_edge_lines(path)[0]
    if n_nodes is None:
        n_nodes = int(edges.max(initial=-1)) + 1
        if n_nodes > np.iinfo(np.int64).max:  # 2**63 nodes: one more than int64 counts
            line = _read_edge_lines(path)[1][int(edges.max(axis=1).argmax())]
            raise NodeIdOutOfRange(f"{path}:{line}: node id {n_nodes - 1} is out of range")
    try:
        return build_dag(n_nodes, edges)
    except DataError as exc:
        i = getattr(exc, "edge_index", None)
        where = path if i is None else f"{path}:{_read_edge_lines(path)[1][i]}"
        raise type(exc)(f"{where}: {exc}") from exc


def _read_edge_lines(path) -> tuple[np.ndarray, list[int]]:
    """The (E, 2) edges of an edge file and the line number of each, line by line with ``int()``.

    For a file that ``read_table`` refuses, where it raises the error of the
    first bad line, and for the line of an edge that ``build_dag`` rejects.
    """
    ids: list[int] = []
    linenos: list[int] = []
    for lineno, line in numbered_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
        try:
            ids += (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer node id") from exc
        linenos.append(lineno)
    try:
        edges = np.array(ids, dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        i = next(i for i, x in enumerate(ids) if x.bit_length() > 63)
        raise NodeIdOutOfRange(f"{path}:{linenos[i // 2]}: node id {ids[i]} is out of "
                               f"range") from exc
    return edges, linenos


def write_edge_list(path, dag: Dag) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# src\tdst\n")
        for u, v in dag.edges.tolist():
            fh.write(f"{u}\t{v}\n")
