"""Matrix and pseudotime files, and pseudotime-oriented DAG construction.

The DAG over observations is built in two steps: a directed kNN graph on a
precomputed embedding, then retention of exactly those edges that point in
the direction of strictly increasing pseudotime. Strictness matters: ties in
pseudotime drop the edge, which is what guarantees acyclicity (any surviving
edge strictly increases a scalar potential, so no cycle can close).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import DataError, KTooLarge, NonFiniteInput, ParseError
from .graph import Dag, build_dag

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
        if not np.isfinite(pt).all():
            raise NonFiniteInput("pseudotime contains NaN or infinity")

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]


def knn_graph(embedding: Embedding, k: int) -> list[tuple[int, int]]:
    """Directed k-nearest-neighbor edges u -> v under the Euclidean metric.

    Exactly k outgoing edges per node; distance ties resolve toward the lower
    node id so the output is deterministic.
    """
    n = embedding.n_nodes
    if not 1 <= k < n:
        raise KTooLarge(f"k must satisfy 1 <= k < n_nodes ({n}), got {k}")
    coords = embedding.coords
    edges: list[tuple[int, int]] = []
    ids = np.arange(n)
    # Brute-force in row chunks; exact, and memory stays ~chunk * n.
    chunk = max(1, min(n, 2 ** 22 // max(n, 1) + 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = coords[start:stop, None, :] - coords[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        for row, u in enumerate(range(start, stop)):
            d = d2[row].copy()
            d[u] = np.inf  # never a neighbor of itself
            order = np.lexsort((ids, d))
            for v in order[:k]:
                edges.append((u, int(v)))
    return edges


def orient_by_pseudotime(edges, pseudotime: np.ndarray) -> Dag:
    """Keep only edges that strictly increase pseudotime; build the DAG.

    Equal stamps drop the edge, so the result is acyclic whenever the input
    edge list has no duplicates.
    """
    pt = np.asarray(pseudotime, dtype=np.float64)
    if not np.isfinite(pt).all():
        raise NonFiniteInput("pseudotime contains NaN or infinity")
    kept = [(u, v) for (u, v) in edges if pt[u] < pt[v]]
    return build_dag(pt.shape[0], kept)


# --- file formats -----------------------------------------------------------

def read_matrix(path) -> ValueMatrix:
    """Read a node-by-variable matrix.

    Accepts whitespace- or comma-delimited dense text with one header row of
    variable names, or MatrixMarket coordinate format (``.mtx``; columns then
    carry synthetic names ``v0..``).
    """
    path = str(path)
    if path.endswith(".mtx"):
        try:
            mat = scipy.io.mmread(path)
        except ValueError as exc:
            raise ParseError(f"{path}: not a MatrixMarket file ({exc})") from exc
        if sp.issparse(mat):
            mat = mat.toarray()
        values = np.asarray(mat, dtype=np.float64)
        names = tuple(f"v{j}" for j in range(values.shape[1]))
        return _value_matrix(path, values, names)

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
        rows: list[list[float]] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(delim)
            if len(parts) != len(names):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(names)} columns, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric entry") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return _value_matrix(path, np.array(rows, dtype=np.float64), names)


def _value_matrix(path, values, names) -> ValueMatrix:
    """``ValueMatrix(values, names)``, with ``path`` in the message of a rejection."""
    try:
        return ValueMatrix(values=values, var_names=names)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_matrix(path, values: np.ndarray, var_names) -> None:
    values = np.asarray(values)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(var_names))
        for row in values:
            writer.writerow([repr(float(v)) for v in row])


def read_pseudotime(path) -> np.ndarray:
    """One pseudotime value per line, node order matching the matrices."""
    out: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
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
