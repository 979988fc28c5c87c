"""Matrix and pseudotime files, and pseudotime-oriented DAG construction.

The DAG over observations is built in two steps: a directed kNN graph on a
precomputed embedding, then retention of exactly those edges that point in
the direction of strictly increasing pseudotime. Strictness matters: ties in
pseudotime drop the edge, which is what guarantees acyclicity (any surviving
edge strictly increases a scalar potential, so no cycle can close).

The kNN graph is exact, and its cost grows as n log n in time and n·k in
memory, not n². A KD-tree proposes a few more candidates per node than k.
A node whose candidate list could leave out a node as near as its k-th
(coincident or equidistant points) is queried again with twice as many
candidates; the others are final. The chosen neighbours are then ranked by
squared distances recomputed with the arithmetic of an exhaustive search,
ties to the lower node id, so the edge array is the one an exhaustive search
gives, row for row (see ``knn_graph``).

Edges travel as one (E, 2) int64 array of (u, v) rows: ``knn_graph``
returns one, and ``orient_by_pseudotime`` keeps a masked subset of its rows
as the ``edges`` of a ``graph.Dag``.

Matrix files are dense text with a header row of names (comma-delimited
when the header holds a comma, else whitespace-delimited, blank lines
skipped) or real MatrixMarket ``.mtx``. Pseudotime files hold one value per
line; blank lines and lines whose first non-blank character is ``#`` are
skipped. The body of a text file is parsed by numpy's C reader
(``textio.read_table``), about 1.1 times the memory of the array; what it
refuses is read again by a line loop that names the first bad line, or
accepts what ``float()`` accepts beyond it. NaN and infinity are rejected:
in a matrix with the file's name, in a pseudotime file with its line.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, KTooLarge, NonFiniteInput, ParseError
from .graph import Dag, build_dag
from .textio import cited, numbered_lines, read_table

__all__ = [
    "ValueMatrix",
    "Embedding",
    "knn_graph",
    "orient_by_pseudotime",
    "read_matrix",
    "write_matrix",
    "read_pseudotime",
    "write_pseudotime",
]

# knn_graph: KD-tree candidates per node beyond the k + 1 that are needed,
# the relative distance margin that proves a candidate list complete, and
# the most candidates (rows times m) handled at once: a block's work arrays
# take about 22 MB at 2^18, and at 2^20 were most of the peak at 10^5 nodes.
_KNN_SLACK = 4
_KNN_MARGIN = 1e-9
_KNN_BLOCK = 2 ** 18


@dataclass(frozen=True)
class ValueMatrix:
    """Dense node-by-variable matrix with column names; entries must be finite."""

    values: np.ndarray
    var_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "var_names", tuple(self.var_names))
        if values.ndim != 2:
            raise DataError(f"matrix must be 2-D, got shape {values.shape}")
        if len(self.var_names) != values.shape[1]:
            raise DataError("one variable name per column required")
        if not np.isfinite(values).all():
            raise NonFiniteInput("matrix contains NaN or infinity")


@dataclass(frozen=True)
class Embedding:
    """Node coordinates in some latent space, plus one pseudotime stamp per node."""

    coords: np.ndarray
    pseudotime: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        pt = np.asarray(self.pseudotime, dtype=np.float64)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "pseudotime", pt)
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise DataError(f"coords must be n-by-d with d >= 1, got {coords.shape}")
        if pt.shape != (coords.shape[0],):
            raise DataError("pseudotime length must match the number of nodes")
        if not np.isfinite(coords).all():
            raise NonFiniteInput("coords contain NaN or infinity")
        # knn_graph orders squared distances, so they must stay finite; the
        # factor 2 leaves room for rounding in the order of summation.
        with np.errstate(over="ignore"):
            widest = 2.0 * np.square(np.ptp(coords, axis=0)).sum() if coords.size else 0.0
        if not np.isfinite(widest):
            raise NonFiniteInput("coords span too wide: squared distances overflow")
        if not np.isfinite(pt).all():
            raise NonFiniteInput("pseudotime contains NaN or infinity")

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]


def knn_graph(embedding: Embedding, k: int) -> np.ndarray:
    """Directed k-nearest-neighbor edges u -> v under the Euclidean metric, as (n·k, 2) rows.

    Exactly k outgoing edges per node, grouped by u in ascending order and,
    within a node, nearest first; distance ties resolve toward the lower node
    id, and a node is never its own neighbor. The result is the one an
    exhaustive search gives, row for row.

    Coincident nodes are merged first: the KD-tree (``scipy.spatial.cKDTree``)
    holds each distinct coordinate row once, and a point stands for its
    nodes, of which at most the k + 1 lowest ids matter. For each point the
    tree proposes ``m = k + 1 + 4`` candidate points, itself included. The
    point's list of its k + 1 nearest nodes (its own included, by distance
    and then id) is complete when its last candidate lies farther than the
    candidate that holds its (k+1)-th node by a relative margin of ``1e-9``:
    every point left out is then strictly farther, so none of its nodes can
    be chosen or tie with a chosen one, and the margin covers any rounding
    in the tree's own distances. Incomplete rows alone are queried again
    with ``m`` doubled, up to every point; rows go through in blocks of at
    most 2**18 candidates (``_KNN_BLOCK``), so memory stays bounded, and a
    cluster of coincident nodes costs one query, not one per node. Within a
    list the tree's distances are not used: the squared distance to each
    candidate is recomputed as the exhaustive search computes it
    (``einsum`` over ``coords[u] - coords[v]``, which gives the same bits
    for the same two rows and for every node of a point), and one row-wise
    ``lexsort`` by (distance, node id) orders the candidates' nodes. A
    node's k neighbours are its point's list without itself.
    """
    n = embedding.n_nodes
    if not 1 <= k < n:
        raise KTooLarge(f"k must satisfy 1 <= k < n_nodes ({n}), got {k}")
    nbrs = _nearest_neighbors(embedding.coords, k)
    return np.column_stack((np.repeat(np.arange(n, dtype=np.int64), k), nbrs.ravel()))


def _nearest_neighbors(coords: np.ndarray, k: int) -> np.ndarray:
    """(n, k) node ids: row u holds the k nearest other nodes of u, in order."""
    # Imported here: scipy.spatial adds about 10 MB to a process, and only the
    # embedding path needs it.
    from scipy.spatial import cKDTree

    n = coords.shape[0]
    # One tree point per distinct coordinate row; point p's nodes, ascending,
    # are members[starts[p] : starts[p] + counts[p]], and at most its k + 1
    # lowest ids can be among the k + 1 nearest nodes of any node.
    points, node_point, counts = np.unique(coords, axis=0, return_inverse=True,
                                           return_counts=True)
    node_point = node_point.reshape(n)
    members = np.argsort(node_point, kind="stable")
    starts = np.cumsum(counts) - counts
    capped = np.minimum(counts, k + 1)
    n_points = points.shape[0]
    tree = cKDTree(points)
    nearest = np.empty((n_points, k + 1), dtype=np.intp)
    todo = np.arange(n_points)
    m = min(n_points, k + 1 + _KNN_SLACK)
    while todo.size:
        retry = []
        for block in np.array_split(todo, -(-todo.size * m // _KNN_BLOCK)):
            dist, cand = (a.reshape(block.size, m) for a in tree.query(points[block], k=m))
            # complete: all points are candidates, or those left out are
            # strictly farther than the (k+1)-th node, counting each point's nodes
            reached = np.cumsum(capped[cand], axis=1) >= k + 1
            kth = dist[np.arange(block.size), reached.argmax(axis=1)]
            done = (m == n_points) | (reached[:, -1] & (dist[:, -1] > kth * (1.0 + _KNN_MARGIN)))
            retry.append(block[~done])
            rows, cand = block[done], cand[done]
            del dist, reached
            diff = points[rows][:, None, :] - points[cand]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            del diff
            nearest[rows] = _first_nodes(cand, d2, capped, members, starts, k + 1)
        todo = np.concatenate(retry)
        m = min(n_points, 2 * m)
    # a node's list is its point's without itself, or without the last when
    # it is not among them (its point then has k + 1 lower ids)
    lists = nearest[node_point]
    keep = lists != np.arange(n)[:, None]
    keep[keep.all(axis=1), k] = False
    return lists[keep].reshape(n, k)


def _first_nodes(cand, d2, capped, members, starts, count):
    """The first ``count`` nodes of each row's candidate points, by (distance, node id).

    Row i's candidates are the points ``cand[i]`` at squared distances
    ``d2[i]``; point p stands for its ``capped[p]`` lowest node ids, each at
    the point's distance. Rows are expanded in groups of equal node count,
    in blocks of at most ``_KNN_BLOCK`` nodes, and one row-wise ``lexsort``
    per block orders them.
    """
    width = capped[cand]
    total = width.sum(axis=1)
    out = np.empty((cand.shape[0], count), dtype=np.intp)
    for w in np.unique(total):
        group = np.flatnonzero(total == w)
        for part in np.array_split(group, -(-group.size * w // _KNN_BLOCK)):
            if w == cand.shape[1]:  # every candidate point is a single node
                node, dist = members[starts[cand[part]]], d2[part]
            else:
                sizes = width[part].ravel()
                point = np.repeat(cand[part].ravel(), sizes)
                within = np.arange(point.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
                node = members[starts[point] + within].reshape(part.size, w)
                dist = np.repeat(d2[part].ravel(), sizes).reshape(part.size, w)
            order = np.lexsort((node, dist), axis=-1)[:, :count]
            out[part] = np.take_along_axis(node, order, axis=1)
    return out


def orient_by_pseudotime(edges: np.ndarray, pseudotime: np.ndarray) -> Dag:
    """Keep only the (u, v) rows of the (E, 2) ``edges`` that strictly increase pseudotime.

    Returns the DAG of the kept rows, in their input order. Equal stamps drop
    the edge, so the result is acyclic whenever the input has no duplicates.
    """
    pt = np.asarray(pseudotime, dtype=np.float64)
    if not np.isfinite(pt).all():
        raise NonFiniteInput("pseudotime contains NaN or infinity")
    return build_dag(pt.shape[0], edges[pt[edges[:, 0]] < pt[edges[:, 1]]])


# --- file formats -----------------------------------------------------------

def read_matrix(path) -> ValueMatrix:
    """Read a node-by-variable matrix.

    Accepts whitespace- or comma-delimited dense text with one header row of
    variable names, or MatrixMarket coordinate format (``.mtx``; columns then
    carry synthetic names ``v0..``). The header's delimiter is the body's:
    a comma if the header has one, else whitespace. Blank lines are skipped.
    A complex ``.mtx``, a ragged or non-numeric row, an empty body and a NaN
    or infinite entry are rejected with the file's name.
    """
    path = str(path)
    if path.endswith(".mtx"):
        # Imported here: scipy.io adds about 23 ms and 1.4 MB to a process,
        # and only a .mtx input needs it.
        import scipy.io

        try:
            mat = scipy.io.mmread(path)
        except ValueError as exc:
            raise ParseError(f"{path}: not a MatrixMarket file ({exc})") from exc
        if np.iscomplexobj(mat):
            raise ParseError(f"{path}: complex MatrixMarket values are not supported")
        if sp.issparse(mat):
            mat = mat.toarray()
        values = np.asarray(mat, dtype=np.float64)
        names = tuple(f"v{j}" for j in range(values.shape[1]))
        with cited(path):
            return ValueMatrix(values=values, var_names=names)

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise ParseError(f"{path}:1: empty header row")
        delim = "," if "," in header else None
        names = tuple(h.strip() for h in (header.split(delim)))
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise ParseError(f"{path}:1: duplicate variable name {name!r}")
            seen.add(name)
        values = read_table(fh, np.float64, delim)
    if values is None or values.shape[1] != len(names):
        values = _read_matrix_lines(path, delim, len(names))
    with cited(path):
        return ValueMatrix(values=values, var_names=names)


def _read_matrix_lines(path, delim, n_cols: int) -> np.ndarray:
    """The body of a dense-text matrix, line by line with ``float()``.

    For a body that ``read_table`` refuses: it raises the error of the first
    bad line, or returns the values of one that ``float()`` accepts.
    """
    rows: list[list[float]] = []
    lines = numbered_lines(path, comments=False)
    next(lines)  # the header, which is not blank
    for lineno, line in lines:
        parts = line.split(delim)
        if len(parts) != n_cols:
            raise ParseError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric entry") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def write_matrix(path, values: np.ndarray, var_names) -> None:
    values = np.asarray(values)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(var_names))
        for row in values:
            writer.writerow([repr(float(v)) for v in row])


def read_pseudotime(path) -> np.ndarray:
    """One pseudotime value per line, node order matching the matrices.

    Blank lines and ``#`` comment lines are skipped. A line that is not one
    number, and a NaN or infinite value, are rejected with the file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        values = read_table(fh, np.float64, comment_lines=True)
    if values is None or values.shape[1] != 1 or not np.isfinite(values).all():
        return _read_pseudotime_lines(path)
    return values.ravel()


def _read_pseudotime_lines(path) -> np.ndarray:
    """``read_pseudotime`` line by line with ``float()``.

    For a file that ``read_table`` refuses or reads as more than one column,
    and for one with a non-finite value, whose line it names.
    """
    out: list[float] = []
    for lineno, line in numbered_lines(path):
        try:
            value = float(line)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric pseudotime") from exc
        if not np.isfinite(value):
            raise NonFiniteInput(f"{path}:{lineno}: pseudotime is NaN or infinite")
        out.append(value)
    if not out:
        raise ParseError(f"{path}: no pseudotime values")
    return np.array(out, dtype=np.float64)


def write_pseudotime(path, pseudotime: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(pseudotime, dtype=np.float64):
            fh.write(f"{float(v)!r}\n")
