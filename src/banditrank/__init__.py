"""Counterfactual learning-to-rank from logged bandit feedback.

Library layout:

- ``data``        bandit logs and supervised rows (columnar, validated once),
                  the graded-label rule, file formats, query splits
- ``aggregation`` feedback-rate aggregation, graded labels, negative sampling
- ``policy``      stochastic binary-action softmax policies (linear / mlp)
- ``estimators``  SNIPS / IPS / empirical-average risk estimators and the Lagrangian,
                  each an ``EstimatorReport`` with S and the ESS (``_report``)
- ``training``    minibatch Adam training, lambda search, full-info baseline
- ``simulator``   synthetic worlds with exactly computable true risk
- ``evaluation``  the one ranking routine (``RankIndex``: rank any score vector,
                  then MAP / MRR / P@k / NDCG@k and TREC run files), qrels files
- ``cli``         subcommand entry point composing the above
"""

from banditrank.data import BanditLog, QuerySplit, SupervisedSet
from banditrank.policy import PolicyParams
from banditrank.estimators import EstimatorReport

__all__ = [
    "BanditLog",
    "SupervisedSet",
    "QuerySplit",
    "PolicyParams",
    "EstimatorReport",
]

__version__ = "0.1.0"
