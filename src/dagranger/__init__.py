"""Granger-causal screening of paired variables observed on the nodes of a DAG.

For every candidate pair (x, y) the library trains a full model that predicts
y from the lagged DAG histories of both y and x, and a reduced model that
only sees y's own history. Each model is one column of scalar parameters
(``model``); ``train_all`` returns them as two banks of columns. The loss
gap between the two, assessed by an F-test (default) or a one-tailed
Welch's t-test, scores and ranks the pairs.
"""

__version__ = "0.1.0"

from .graph import Dag, LaggedOperators, build_dag, lagged_operators  # noqa: F401
from .train import Dataset, TrainConfig, train_all  # noqa: F401
from .score import f_test, rank_pairs, welch_t  # noqa: F401
