import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagranger.errors import (
    CycleDetected,
    DataError,
    DimensionMismatch,
    DuplicateEdge,
    NodeIdOutOfRange,
    SelfLoop,
)
from dagranger.graph import (
    apply_batch,
    build_dag,
    lagged_operators,
    read_edge_list,
    transpose_apply_batch,
    write_edge_list,
)

from dag_factories import random_dag


def reference_build_dag(n_nodes, edges):
    """What ``build_dag`` must match: one edge at a time, a set of seen edges, a Kahn peel.

    Returns the edges as tuples and the in-degrees, or raises as ``build_dag`` does.
    """
    if n_nodes < 0:
        raise NodeIdOutOfRange(f"n_nodes must be nonnegative, got {n_nodes}")
    edge_tuples = []
    seen = set()
    in_degree = np.zeros(n_nodes, dtype=np.int64)
    children = [[] for _ in range(n_nodes)]
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
    return tuple(edge_tuples), in_degree


def reference_levels(n_nodes, edges, in_degree):
    """Longest-path level of each node of a DAG, by a second Kahn peel."""
    level = np.zeros(n_nodes, dtype=np.int64)
    indeg = in_degree.copy()
    children = [[] for _ in range(n_nodes)]
    for u, v in edges:
        children[u].append(v)
    stack = [v for v in range(n_nodes) if indeg[v] == 0]
    while stack:
        u = stack.pop()
        for v in children[u]:
            level[v] = max(level[v], level[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    return level


@st.composite
def edge_lists(draw):
    """A node count and edges: any ids in [-1, n], or a relabelled DAG, maybe with a back edge."""
    n = draw(st.integers(0, 8))
    if n < 2 or draw(st.booleans()):
        ids = st.integers(-1, n) if draw(st.booleans()) else st.integers(0, max(n - 1, 0))
        return n, draw(st.lists(st.tuples(ids, ids), max_size=12))
    perm = draw(st.permutations(range(n)))
    forward = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
        lambda e: e[0] < e[1])
    edges = [(perm[a], perm[b]) for a, b in draw(st.lists(forward, max_size=12, unique=True))]
    if edges and draw(st.booleans()):
        u, v = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), (v, u))  # closes a cycle
    return n, edges


class TestBuildDag:
    def test_chain(self):
        dag = build_dag(3, [(0, 1), (1, 2)])
        assert list(dag.in_degree) == [0, 1, 1]
        assert dag.level.tolist() == [0, 1, 2]
        assert dag.edges.dtype == np.int64 and not dag.edges.flags.writeable

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

    def test_non_integer_id_rejected(self):
        with pytest.raises(NodeIdOutOfRange, match="non-integer"):
            build_dag(3, [(0, 1.7)])
        with pytest.raises(NodeIdOutOfRange, match="non-integer"):
            build_dag(3, np.array([(0.0, 1.0), (1.0, np.nan)]))

    def test_first_bad_edge_in_input_order(self):
        with pytest.raises(SelfLoop) as exc:
            build_dag(3, [(0, 1), (2, 2), (0, 1), (0, 5)])
        assert exc.value.edge_index == 1

    @given(edge_lists())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_matches_reference(self, case):
        n, edges = case
        try:
            ref_edges, ref_in_degree = reference_build_dag(n, edges)
        except DataError as ref:
            with pytest.raises(type(ref)) as got:
                build_dag(n, edges)
            assert type(got.value) is type(ref) and str(got.value) == str(ref)
            return
        dag = build_dag(n, edges)
        assert np.array_equal(dag.edges, np.array(ref_edges, dtype=np.int64).reshape(-1, 2))
        assert np.array_equal(dag.in_degree, ref_in_degree)
        assert np.array_equal(dag.level, reference_levels(n, ref_edges, ref_in_degree))

    def test_long_chain_is_fast(self):
        # 10**5 levels: a peel that advances one level per numpy pass takes seconds
        n = 100_000
        chain = np.column_stack((np.arange(n - 1), np.arange(1, n)))
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            dag = build_dag(n, chain)
            seconds.append(time.perf_counter() - start)
        assert np.array_equal(dag.level, np.arange(n))
        assert min(seconds) < 1.0


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
        parents = set(dag.edges[dag.edges[:, 1] == j, 0].tolist())
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
        children = {u: dag.edges[dag.edges[:, 0] == u, 1].tolist() for u in range(12)}
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


    @pytest.mark.parametrize("width", [1, 5, 32, 64])
    def test_out_products_have_the_bits_of_scipy_matmul(self, rng, width):
        # both products call a routine private to scipy on a zeroed buffer;
        # this pins it to the bits of scipy's own @, including the width-one
        # case, where @ takes another routine
        ops = lagged_operators(random_dag(rng, 40))
        batch = rng.normal(size=(40, width))
        for op in (ops.a, ops.a_plus):
            for product, expected in ((transpose_apply_batch, op.T @ batch),
                                      (apply_batch, op @ batch)):
                out = np.full((40, width), np.nan)
                assert product(op, batch, out=out) is out
                assert np.array_equal(out.view(np.int64), expected.view(np.int64))
                assert np.array_equal(product(op, batch).view(np.int64),
                                      expected.view(np.int64))

    def test_out_must_fit(self, chain3_ops):
        for out in (np.empty((3, 2)), np.empty((2, 3)).T, np.empty((3, 3), dtype=np.float32)):
            with pytest.raises(DimensionMismatch):
                apply_batch(chain3_ops.a, np.zeros((3, 3)), out=out)


class TestEdgeListIo:
    def test_roundtrip(self, tmp_path, rng):
        dag = random_dag(rng, 10)
        path = tmp_path / "edges.tsv"
        write_edge_list(path, dag)
        loaded = read_edge_list(path, n_nodes=10)
        assert np.array_equal(loaded.edges, dag.edges)
        assert path.read_text() == "# src\tdst\n" + "".join(
            f"{u}\t{v}\n" for u, v in dag.edges.tolist())

    def test_comments_and_inference(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("# header\n0\t1\n1\t4\n")
        dag = read_edge_list(path)
        assert dag.n_nodes == 5
        assert dag.edges.tolist() == [[0, 1], [1, 4]]

    def test_largest_int64_id_without_n_nodes(self, tmp_path):
        # the inferred node count, 2**63, is one more than int64 holds
        path = tmp_path / "e.tsv"
        path.write_text("9223372036854775807\t0\n")
        with pytest.raises(NodeIdOutOfRange) as exc:
            read_edge_list(path)
        assert str(exc.value) == f"{path}:1: node id 9223372036854775807 is out of range"

    @pytest.mark.parametrize("text, error, where", [
        ("0\t1\n# c\n\n1\t1\n", SelfLoop, "e.tsv:4: self-loop at node 1"),
        ("0\t99999999999999999999\n", NodeIdOutOfRange, "e.tsv:1: node id 9999"),
    ])
    def test_defects_name_the_file_and_line(self, tmp_path, text, error, where):
        path = tmp_path / "e.tsv"
        path.write_text(text)
        with pytest.raises(error) as exc:
            read_edge_list(path, n_nodes=3)
        assert str(exc.value).startswith(str(tmp_path / where))
