import numpy as np
import pytest

from dagranger.graph import lagged_operators

from dag_factories import chain_dag


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def chain3():
    return chain_dag(3)


@pytest.fixture
def chain3_ops(chain3):
    return lagged_operators(chain3)
