import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagranger.errors import (
    CycleDetected,
    DimensionMismatch,
    DuplicateEdge,
    NodeIdOutOfRange,
    SelfLoop,
)
from dagranger.graph import (
    build_dag,
    lagged_operators,
    read_edge_list,
    transpose_apply_batch,
    write_edge_list,
)

from conftest import random_dag


class TestBuildDag:
    def test_chain(self):
        dag = build_dag(3, [(0, 1), (1, 2)])
        assert list(dag.in_degree) == [0, 1, 1]

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_merge_node(self):
        dag = build_dag(4, [(0, 2), (1, 2), (2, 3)])
        assert list(dag.in_degree) == [0, 0, 2, 1]

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_dag(2, [(1, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_dag(2, [(0, 1), (0, 1)])

    def test_out_of_range(self):
        with pytest.raises(NodeIdOutOfRange):
            build_dag(2, [(0, 2)])


class TestLaggedOperators:
    def test_chain_entries(self, chain3_ops):
        a = chain3_ops.a.toarray()
        ap = chain3_ops.a_plus.toarray()
        expected_a = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
        assert np.array_equal(a, expected_a)
        expected_ap = np.array(
            [[1.0, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.5]]
        )
        assert np.array_equal(ap, expected_ap)

    def test_merge_columns(self):
        ops = lagged_operators(build_dag(3, [(0, 2), (1, 2)]))
        a = ops.a.toarray()
        assert a[0, 2] == 0.5 and a[1, 2] == 0.5
        ap = ops.a_plus.toarray()
        assert ap[0, 2] == ap[1, 2] == ap[2, 2] == pytest.approx(1 / 3)

    def test_isolated_node(self):
        ops = lagged_operators(build_dag(2, []))
        assert ops.a.nnz == 0
        assert np.array_equal(ops.a_plus.toarray(), np.eye(2))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_column_sums(self, seed, n):
        dag = random_dag(np.random.default_rng(seed), n)
        ops = lagged_operators(dag)
        a_sums = np.asarray(ops.a.sum(axis=0)).ravel()
        expected = (dag.in_degree > 0).astype(float)
        assert np.abs(a_sums - expected).max() <= 1e-12
        ap_sums = np.asarray(ops.a_plus.sum(axis=0)).ravel()
        assert np.abs(ap_sums - 1.0).max() <= 1e-12
        assert np.abs(ops.a.diagonal()).max() == 0.0


def apply_to(op, v):
    """``op.T @ v`` for one vector, through the batched product."""
    return transpose_apply_batch(op, np.asarray(v, dtype=float)[:, None])[:, 0]


class TestTransposeApply:
    def test_chain_shift(self, chain3_ops):
        out = apply_to(chain3_ops.a, [5.0, 7.0, 9.0])
        assert np.array_equal(out, [0.0, 5.0, 7.0])

    def test_merge_parent_mean(self):
        ops = lagged_operators(build_dag(3, [(0, 2), (1, 2)]))
        out = apply_to(ops.a, [4.0, 8.0, 0.0])
        assert np.array_equal(out, [0.0, 0.0, 6.0])

    def test_zero_vector(self, rng):
        dag = random_dag(rng, 20)
        ops = lagged_operators(dag)
        assert np.array_equal(apply_to(ops.a, np.zeros(20)), np.zeros(20))

    def test_dimension_mismatch(self, chain3_ops):
        with pytest.raises(DimensionMismatch):
            transpose_apply_batch(chain3_ops.a, np.zeros((5, 1)))
        with pytest.raises(DimensionMismatch):
            transpose_apply_batch(chain3_ops.a, np.zeros(3))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_depends_only_on_parents(self, seed):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, 15)
        ops = lagged_operators(dag)
        v = rng.normal(size=15)
        base = apply_to(ops.a, v)
        j = int(rng.integers(0, 15))
        parents = set(dag.parents(j))
        non_parents = [i for i in range(15) if i not in parents and i != j] or None
        if non_parents is None:
            return
        v2 = v.copy()
        v2[rng.choice(non_parents)] += rng.normal()
        assert apply_to(ops.a, v2)[j] == base[j]

    def test_k_hop_reachability(self, rng):
        k = 3
        dag = random_dag(rng, 12)
        ops = lagged_operators(dag)
        children = {u: [v for (s, v) in dag.edges if s == u] for u in range(12)}
        for u in range(12):
            reachable = {u}
            frontier = {u}
            for _ in range(k):
                frontier = {w for p in frontier for w in children[p]}
                reachable |= frontier
            out = np.zeros(12)
            out[u] = 1.0
            for _ in range(k):
                out = apply_to(ops.a_plus, out)
            assert set(np.nonzero(out)[0]) <= reachable

    def test_batch_matches_single_bitwise(self, rng):
        dag = random_dag(rng, 25)
        ops = lagged_operators(dag)
        batch = rng.normal(size=(25, 7))
        out = transpose_apply_batch(ops.a, batch)
        for j in range(7):
            single = ops.a.T @ batch[:, j]
            assert np.array_equal(out[:, j], single)
            assert np.array_equal(out[:, j], apply_to(ops.a, batch[:, j]))


class TestEdgeListIo:
    def test_roundtrip(self, tmp_path, rng):
        dag = random_dag(rng, 10)
        path = tmp_path / "edges.tsv"
        write_edge_list(path, dag)
        loaded = read_edge_list(path, n_nodes=10)
        assert loaded.edges == dag.edges

    def test_comments_and_inference(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("# header\n0\t1\n1\t4\n")
        dag = read_edge_list(path)
        assert dag.n_nodes == 5
        assert dag.edges == ((0, 1), (1, 4))
