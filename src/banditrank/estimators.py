"""Counterfactual risk estimators over a bandit log and a target policy.

All estimators share the importance weights w_i = pi_w(a_i|c_i) / p_i where
p_i is the logged propensity. Three risk estimates are provided:

- self-normalized (ratio of weighted losses to total weight),
- plain inverse-propensity (mean of weighted losses, unbounded),
- empirical average (group-mean losses weighted by the policy's own
  action probabilities, no propensity correction).

The mean importance weight S = (1/n) sum w_i has expectation 1 under the
logging policy and is reported as a diagnostic; the Lagrangian surrogate
(1/n) sum (delta_i - lambda) w_i equals ips - lambda * S and is the
objective actually optimized during training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from banditrank.data import BanditLog, open_text
from banditrank.policy import PolicyParams, batch_probabilities, weighted_prob_gradient


@dataclass(frozen=True)
class EstimatorReport:
    estimate: float
    n: int
    mean_importance_weight: float
    effective_sample_size: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("report requires n >= 1")
        if not self.mean_importance_weight > 0:
            raise ValueError("mean importance weight must be positive")
        if not 0 < self.effective_sample_size <= self.n:
            raise ValueError("effective sample size must lie in (0, n]")

    def write(self, sink: IO | str) -> None:
        with open_text(sink, "w") as out:
            out.write(f"estimate\t{self.estimate!r}\n")
            out.write(f"n\t{self.n}\n")
            out.write(f"S\t{self.mean_importance_weight!r}\n")
            out.write(f"ESS\t{self.effective_sample_size!r}\n")


def importance_weights(log: BanditLog, params: PolicyParams) -> np.ndarray:
    """w_i = pi_w(a_i|c_i) / p_i."""
    if len(log) == 0:
        raise ValueError("log must be non-empty")
    P = batch_probabilities(params, log.contexts)
    p_logged = P[np.arange(len(log)), log.actions]
    return p_logged / log.propensities


def _report(estimate: float, w: np.ndarray) -> EstimatorReport:
    return EstimatorReport(
        estimate=float(estimate),
        n=len(w),
        mean_importance_weight=float(np.mean(w)),
        effective_sample_size=float(np.sum(w) ** 2 / np.sum(w * w)),
    )


def snips(log: BanditLog, params: PolicyParams) -> EstimatorReport:
    """Self-normalized estimate: sum(delta * w) / sum(w). Bounded by [0, 1]."""
    w = importance_weights(log, params)
    return _report(np.sum(log.deltas * w) / np.sum(w), w)


def ips(log: BanditLog, params: PolicyParams) -> EstimatorReport:
    """Inverse-propensity estimate: mean(delta * w). Unbiased but unbounded."""
    w = importance_weights(log, params)
    return _report(np.mean(log.deltas * w), w)


def group_mean_losses(log: BanditLog) -> tuple[np.ndarray, np.ndarray]:
    """Per-record mean loss and size of the record's (query, product, action) group."""
    if len(log) == 0:
        raise ValueError("log must be non-empty")
    keys = list(zip(log.query_ids, log.product_ids, log.actions.tolist()))
    index: dict[tuple, int] = {}
    group = np.empty(len(log), dtype=np.int64)
    for i, k in enumerate(keys):
        group[i] = index.setdefault(k, len(index))
    sums = np.bincount(group, weights=log.deltas, minlength=len(index))
    counts = np.bincount(group, minlength=len(index))
    return (sums / counts)[group], counts[group]


def empirical_average(log: BanditLog, params: PolicyParams) -> EstimatorReport:
    """Group losses by (query, product, action) and weight by pi_w(a|c).

    Context identity is taken to be identity of the (query, product) pair;
    the estimate is summed over groups, not averaged.
    """
    mean_delta, group_size = group_mean_losses(log)
    P = batch_probabilities(params, log.contexts)
    p_a = P[np.arange(len(log)), log.actions]
    # each group contributes delta_bar * pi once: divide by its size
    estimate = np.sum(mean_delta * p_a / group_size)
    w = importance_weights(log, params)
    return _report(estimate, w)


def snips_denominator(log: BanditLog, params: PolicyParams) -> float:
    """Mean importance weight S; equals 1 exactly when pi_w is the logger."""
    return float(np.mean(importance_weights(log, params)))


def lagrangian_risk(log: BanditLog, params: PolicyParams, lam: float) -> float:
    """(1/n) sum (delta_i - lambda) w_i; equals ips - lambda * S."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    w = importance_weights(log, params)
    return float(np.mean((log.deltas - lam) * w))


def lagrangian_gradient(
    contexts: np.ndarray,
    actions: np.ndarray,
    propensities: np.ndarray,
    deltas: np.ndarray,
    params: PolicyParams,
    lam: float,
) -> list[np.ndarray]:
    """Batch gradient of the Lagrangian surrogate with respect to params.

    (1/m) sum (delta_i - lambda) / p_i * grad pi_w(a_i | c_i).
    """
    m = len(actions)
    if m == 0:
        raise ValueError("batch must be non-empty")
    coeffs = (np.asarray(deltas, dtype=np.float64) - lam) / np.asarray(
        propensities, dtype=np.float64
    )
    grads = weighted_prob_gradient(params, contexts, actions, coeffs)
    return [g / m for g in grads]

