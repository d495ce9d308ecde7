"""Counterfactual learning-to-rank from logged bandit feedback.

Library layout:

- ``data``        logged-bandit / supervised data models, file formats, splits
- ``aggregation`` feedback-rate aggregation, graded labels, negative sampling
- ``policy``      stochastic binary-action softmax policies (linear / mlp)
- ``estimators``  SNIPS / IPS / empirical-average risk estimators, Lagrangian
- ``training``    minibatch Adam training, lambda search, full-info baseline
- ``simulator``   synthetic worlds with exactly computable true risk
- ``evaluation``  MAP / MRR / P@k / NDCG@k, TREC run files
- ``cli``         subcommand entry point composing the above
"""

from banditrank.data import BanditLog, BanditRecord, SupervisedRecord, QuerySplit
from banditrank.policy import PolicyParams
from banditrank.estimators import EstimatorReport

__all__ = [
    "BanditLog",
    "BanditRecord",
    "SupervisedRecord",
    "QuerySplit",
    "PolicyParams",
    "EstimatorReport",
]

__version__ = "0.1.0"
