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
from banditrank.policy import (PolicyParams, _length_error, batch_probabilities,
                               weighted_prob_gradient)


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


def logged_probabilities(log: BanditLog, params: PolicyParams) -> np.ndarray:
    """pi_w(a_i|c_i): the policy's probability of each logged action."""
    if len(log) == 0:
        raise ValueError("log must be non-empty")
    # each distinct context once: batch_probabilities' (k, 2) result is the transpose
    # of the action-major (2, k) array, whose row a holds action a's probabilities
    P = batch_probabilities(params, log.context_table).T
    return np.take(P, log.actions * P.shape[1] + log.context_rows)


def importance_weights(log: BanditLog, params: PolicyParams) -> np.ndarray:
    """w_i = pi_w(a_i|c_i) / p_i."""
    return logged_probabilities(log, params) / log.propensities


def _some_weight(w: np.ndarray) -> np.ndarray:
    """``w``, if any weight is positive: with every weight 0, S is 0 and both the
    ESS and the SNIPS ratio would be 0 / 0."""
    if not np.any(w):
        raise ValueError("every importance weight is 0: the policy gives no logged action "
                         "a positive probability")
    return w


def _report(estimate: float, w: np.ndarray) -> EstimatorReport:
    scaled = w / np.max(w)  # so that no square of a weight below about 1e-154 underflows to 0
    return EstimatorReport(
        estimate=float(estimate),
        n=len(w),
        mean_importance_weight=float(np.mean(w)),
        # (sum w)^2 / sum w^2 <= n, but with nearly equal weights it can round a few ulps above n
        effective_sample_size=min(float(len(w)), float(np.sum(scaled) ** 2 / np.sum(scaled**2))),
    )


def snips(log: BanditLog, params: PolicyParams) -> EstimatorReport:
    """Self-normalized estimate: sum(delta * w) / sum(w). Bounded by [0, 1]."""
    w = _some_weight(importance_weights(log, params))
    return _report(np.sum(log.deltas * w) / np.sum(w), w)


def ips(log: BanditLog, params: PolicyParams) -> EstimatorReport:
    """Inverse-propensity estimate: mean(delta * w). Unbiased but unbounded."""
    w = _some_weight(importance_weights(log, params))
    return _report(np.mean(log.deltas * w), w)


def group_mean_losses(log: BanditLog) -> tuple[np.ndarray, np.ndarray]:
    """Per-record mean loss and size of the record's (query, product, action) group."""
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
    p_a = logged_probabilities(log, params)
    w = _some_weight(p_a / log.propensities)
    # each group contributes delta_bar * pi once: divide by its size
    return _report(np.sum(mean_delta * p_a / group_size), w)


def snips_denominator(log: BanditLog, params: PolicyParams) -> float:
    """Mean importance weight S; equals 1 exactly when pi_w is the logger."""
    return float(np.mean(importance_weights(log, params)))


def lagrangian_risk(log: BanditLog, params: PolicyParams, lam: float) -> float:
    """(1/n) sum (delta_i - lambda) w_i; equals ips - lambda * S."""
    return mean_weight_and_lagrangian(log, params, lam)[1]


def mean_weight_and_lagrangian(
    log: BanditLog, params: PolicyParams, lam: float
) -> tuple[float, float]:
    """S and the Lagrangian risk from one forward pass over the log.

    Equal to ``snips_denominator`` and ``lagrangian_risk`` bit for bit.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    w = importance_weights(log, params)
    # sum / n is np.mean's arithmetic, a pairwise sum and one division
    return float(w.sum() / len(w)), float(((log.deltas - lam) * w).sum() / len(w))


def lagrangian_gradient(
    contexts: np.ndarray,
    actions: np.ndarray,
    propensities: np.ndarray,
    deltas: np.ndarray,
    params: PolicyParams,
    lam: float,
) -> np.ndarray:
    """Batch gradient of the Lagrangian surrogate, laid out like ``params.flat``.

    (1/m) sum (delta_i - lambda) / p_i * grad pi_w(a_i | c_i).
    """
    m = len(actions)
    if m == 0:
        raise ValueError("batch must be non-empty")
    deltas = np.asarray(deltas, dtype=np.float64)
    propensities = np.asarray(propensities, dtype=np.float64)
    if deltas.shape != (m,) or propensities.shape != (m,):
        raise _length_error(contexts, deltas=deltas, propensities=propensities, actions=actions)
    g = weighted_prob_gradient(params, contexts, actions, (deltas - lam) / propensities)
    g /= m
    return g

