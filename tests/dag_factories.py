"""DAG factories shared by the test modules (``from dag_factories import ...``)."""
from dagranger.graph import build_dag


def random_dag(rng, n, edge_prob=0.3):
    """Random DAG on n nodes; edges only i -> j with i < j, so acyclic."""
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return build_dag(n, edges)


def chain_dag(n):
    return build_dag(n, [(i, i + 1) for i in range(n - 1)])
