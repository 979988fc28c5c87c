import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagranger.errors import KTooLarge, NonFiniteInput, ParseError
from dagranger.preprocess import (
    Embedding,
    knn_graph,
    orient_by_pseudotime,
    read_matrix,
    read_pseudotime,
    write_matrix,
    write_pseudotime,
)


class TestEmbedding:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_coords_rejected(self, bad):
        coords = np.zeros((3, 2))
        coords[1, 0] = bad
        with pytest.raises(NonFiniteInput, match="coords"):
            Embedding(coords=coords, pseudotime=np.zeros(3))

    def test_overflowing_distances_rejected(self):
        # finite coordinates whose squared distances are not
        coords = np.array([[0.0], [1e200], [2e200]])
        with pytest.raises(NonFiniteInput, match="span"):
            Embedding(coords=coords, pseudotime=np.zeros(3))


class TestKnnGraph:
    def test_collinear_points(self):
        emb = Embedding(coords=np.array([[0.0], [1.0], [10.0]]), pseudotime=np.zeros(3))
        assert knn_graph(emb, k=1).tolist() == [[0, 1], [1, 0], [2, 1]]

    def test_complete_graph(self):
        emb = Embedding(coords=np.arange(4.0)[:, None], pseudotime=np.zeros(4))
        edges = knn_graph(emb, k=3)
        assert edges.shape == (12, 2) and edges.dtype == np.int64
        assert (edges[:, 0] != edges[:, 1]).all()

    def test_ties_broken_by_lower_id(self):
        coords = np.array([[0.0], [0.0], [0.0]])  # all identical
        emb = Embedding(coords=coords, pseudotime=np.zeros(3))
        assert knn_graph(emb, k=1).tolist() == [[0, 1], [1, 0], [2, 0]]

    def test_out_degree_exactly_k(self, rng):
        emb = Embedding(coords=rng.normal(size=(30, 3)), pseudotime=np.zeros(30))
        edges = knn_graph(emb, k=4)
        assert (np.bincount(edges[:, 0], minlength=30) == 4).all()

    def test_k_too_large(self):
        emb = Embedding(coords=np.zeros((3, 1)), pseudotime=np.zeros(3))
        with pytest.raises(KTooLarge):
            knn_graph(emb, k=3)


def brute_force_knn(embedding, k):
    """The exhaustive search ``knn_graph`` must reproduce: all distances, one sort per node."""
    coords = embedding.coords
    n = coords.shape[0]
    edges = []
    ids = np.arange(n)
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
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


class TestKnnGraphExact:
    """``knn_graph`` returns the exhaustive search's edge array, row for row."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_duplicated_integer_coordinates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5))
        coords = rng.integers(0, int(rng.integers(1, 4)), size=(n, d)).astype(float)
        emb = Embedding(coords=coords, pseudotime=np.zeros(n))
        k = int(rng.integers(1, n))
        assert np.array_equal(knn_graph(emb, k), brute_force_knn(emb, k))

    def test_coincident_points_beyond_the_first_query(self, rng):
        # 12 copies of one point > k + 5 candidates, so those rows are queried again.
        coords = np.vstack([np.zeros((12, 2)), rng.normal(size=(30, 2))])
        emb = Embedding(coords=coords, pseudotime=np.zeros(42))
        for k in (3, 6, 11, 20, 41):
            assert np.array_equal(knn_graph(emb, k), brute_force_knn(emb, k))

    def test_continuous_coordinates(self, rng):
        emb = Embedding(coords=rng.normal(size=(2000, 3)), pseudotime=np.zeros(2000))
        assert np.array_equal(knn_graph(emb, 15), brute_force_knn(emb, 15))

    @pytest.mark.parametrize("k", [1, 15, 299, 400])
    def test_large_clusters_match_the_oracle(self, rng, k):
        # 300 nodes at one point and 40 at another (half of them with -0.0
        # where the rest have +0.0), among 2,000: more coincident nodes than
        # k + 1, exactly k + 1 or fewer
        coords = rng.normal(size=(2000, 3))
        coords[rng.choice(2000, 300, replace=False)] = coords[5]
        coords[1000:1040] = 0.0
        coords[1000:1020, 1] = -0.0
        emb = Embedding(coords=coords, pseudotime=np.zeros(2000))
        assert np.array_equal(knn_graph(emb, k), brute_force_knn(emb, k))

    def test_coincident_cluster_costs_one_query(self):
        # 3,000 of 20,000 random 3-D points coincide. Querying each of them
        # until m passed the cluster took 4.3-6.1 s; the bound, 2 s, was set
        # before measuring the deduplicated query. Each cluster node's
        # neighbours are the 15 lowest other ids of the cluster.
        coords = np.random.default_rng(7).random((20_000, 3))
        cluster = np.random.default_rng(8).choice(20_000, 3_000, replace=False)
        coords[cluster] = coords[cluster[0]]
        emb = Embedding(coords=coords, pseudotime=np.zeros(20_000))
        start = time.perf_counter()
        nbrs = knn_graph(emb, 15)[:, 1].reshape(20_000, 15)
        assert time.perf_counter() - start < 2.0
        cluster.sort()
        for u in cluster[[0, 1, 15, 16, 2999]]:
            assert nbrs[u].tolist() == cluster[cluster != u][:15].tolist()

    def test_memory_stays_linear_in_nodes(self):
        # An all-pairs distance block of 20,000 nodes would be hundreds of MB;
        # the edge array itself, 300,000 rows, is 4.8 MB. Query blocks of
        # 2^18 candidates peak at 27.0 MiB here, and blocks of 2^20 at 31.9.
        coords = np.random.default_rng(7).random((20_000, 3))
        emb = Embedding(coords=coords, pseudotime=np.zeros(20_000))
        tracemalloc.start()
        try:
            edges = knn_graph(emb, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(edges) == 300_000
        assert peak < 28 * 2**20


class TestOrientByPseudotime:
    def test_keeps_increasing_edge_only(self):
        dag = orient_by_pseudotime(np.array([(0, 1), (1, 0)]), np.array([0.1, 0.9]))
        assert dag.edges.tolist() == [[0, 1]]

    def test_equal_stamps_drop_edge(self):
        dag = orient_by_pseudotime(np.array([(0, 1)]), np.array([0.5, 0.5]))
        assert dag.edges.shape == (0, 2)

    def test_aligned_set_unchanged(self):
        edges = np.array([(0, 1), (0, 2), (1, 2)])
        dag = orient_by_pseudotime(edges, np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(dag.edges, edges)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_result_respects_pseudotime_and_is_acyclic(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        pt = rng.normal(size=n)
        edges = {(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(3 * n)}
        edges = np.array([(u, v) for u, v in edges if u != v])
        dag = orient_by_pseudotime(edges, pt)  # build_dag verifies acyclicity
        assert (pt[dag.edges[:, 0]] < pt[dag.edges[:, 1]]).all()
        assert np.array_equal(dag.edges, edges[pt[edges[:, 0]] < pt[edges[:, 1]]])


class TestMatrixIo:
    def test_csv_roundtrip(self, tmp_path, rng):
        values = rng.random((4, 3))
        path = tmp_path / "m.csv"
        write_matrix(path, values, ["a", "b", "c"])
        loaded = read_matrix(path)
        assert loaded.var_names == ("a", "b", "c")
        assert np.array_equal(loaded.values, values)

    def test_whitespace_delimited(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("g1 g2\n1 2\n3 4\n")
        loaded = read_matrix(path)
        assert loaded.var_names == ("g1", "g2")
        assert np.array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_matrixmarket(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 2 2\n1 1 5.0\n3 2 7.0\n"
        )
        loaded = read_matrix(path)
        assert loaded.values[0, 0] == 5.0 and loaded.values[2, 1] == 7.0
        assert loaded.values.sum() == 12.0

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,nan\n3,4\n")
        with pytest.raises(NonFiniteInput, match=r"m\.csv"):
            read_matrix(path)

    def test_pseudotime_roundtrip(self, tmp_path, rng):
        pt = rng.random(7)
        path = tmp_path / "pt.txt"
        write_pseudotime(path, pt)
        assert np.array_equal(read_pseudotime(path), pt)

    def test_nonfinite_pseudotime_names_the_line(self, tmp_path):
        path = tmp_path / "pt.txt"
        path.write_text("0.5\nnan\n")
        with pytest.raises(NonFiniteInput, match=r"pt\.txt:2"):
            read_pseudotime(path)
