import os
import sys
from pathlib import Path

# One BLAS thread, as CI and the benchmark run: a BLAS product's last bits can
# depend on its thread count, and the bit-for-bit tests were written on one.
# Set before numpy first loads, so the CLI subprocess tests inherit it too; a
# value set by the caller still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from banditrank.data import BanditLog, SupervisedSet
from banditrank.policy import PolicyParams


def random_log(n, d, seed, n_queries=5, n_products=4):
    """Random bandit log with repeated (query, product) pairs for grouping.

    Each (query, product) pair keeps one fixed context across repeats, the
    way a real log would.
    """
    rng = np.random.default_rng(seed)
    pair_contexts = rng.standard_normal((n_queries, n_products, d))
    qs = rng.integers(0, n_queries, n)
    ps = rng.integers(0, n_products, n)
    return BanditLog(
        query_ids=[f"q{i}" for i in qs],
        product_ids=[f"p{i}" for i in ps],
        contexts=pair_contexts[qs, ps],
        actions=rng.integers(0, 2, n),
        propensities=rng.uniform(0.1, 1.0, n),
        deltas=rng.integers(0, 2, n),
    )


def supervised(rows):
    """A ``SupervisedSet`` of (query_id, product_id, context, label, nrr) rows, built
    from each row's nrr; each stated label must be the one the set derives."""
    if not rows:
        return SupervisedSet([], [], np.zeros((0, 0)), [])
    query_ids, product_ids, contexts, labels, nrr = zip(*rows)
    dataset = SupervisedSet(query_ids, product_ids, contexts, nrr)
    assert dataset.labels.tolist() == list(labels)
    return dataset


def identity_policy(d=1):
    """Linear policy whose show-probability is sigmoid of the first feature."""
    w = np.zeros((2, d))
    w[1, 0] = 1.0
    return PolicyParams("linear", [w, np.zeros(2)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
