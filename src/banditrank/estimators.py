"""Counterfactual risk estimators over a bandit log and a target policy.

All estimators share the importance weights w_i = pi_w(a_i|c_i) / p_i where
p_i is the logged propensity. Three risk estimates are provided:

- self-normalized (ratio of weighted losses to total weight),
- plain inverse-propensity (mean of weighted losses, unbounded),
- empirical average (group-mean losses weighted by the policy's own
  action probabilities, no propensity correction).

``_mean_weight`` is the one place that turns importance weights into the
mean importance weight S = (1/n) sum w_i, which has expectation 1 under the
logging policy: ``snips_denominator`` gives it alone, for the lambda search
and ``sweep.tsv``, and every report is made by ``_report``, which adds the
effective sample size (ESS). ``lagrangian_risk`` is the one place that
computes the Lagrangian surrogate (1/n) sum (delta_i - lambda) w_i, which
equals ips - lambda * S and is the objective actually optimized during
training; its report gives both numbers for a training history.
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
        if self.mean_importance_weight == 0 == self.effective_sample_size:
            return  # every weight is 0: a policy that gives no logged action a probability
        if not self.mean_importance_weight > 0:
            raise ValueError("mean importance weight must be positive, or 0 with an ESS of 0")
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


def _mean_weight(w: np.ndarray) -> float:
    """S = (1/n) sum w_i, by ``np.mean``'s arithmetic: a pairwise sum and one division."""
    return float(w.sum() / len(w))


def _report(estimate: float, w: np.ndarray) -> EstimatorReport:
    """``estimate`` with S and the ESS of the weights ``w``; both are 0 when every weight is."""
    n, top = len(w), np.max(w)
    ess = 0.0
    if top > 0:
        scaled = w / top  # so that no square of a weight below about 1e-154 underflows to 0
        # (sum w)^2 / sum w^2 <= n, but with nearly equal weights it can round a few ulps above n
        ess = min(float(n), float(np.sum(scaled) ** 2 / np.sum(scaled**2)))
    return EstimatorReport(estimate=float(estimate), n=n, mean_importance_weight=_mean_weight(w),
                           effective_sample_size=ess)


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


def lagrangian_risk(log: BanditLog, params: PolicyParams, lam: float) -> EstimatorReport:
    """The report of the Lagrangian (1/n) sum (delta_i - lambda) w_i, which equals
    ips - lambda * S, from one forward pass over the log."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    w = importance_weights(log, params)
    return _report(((log.deltas - lam) * w).sum() / len(w), w)


def snips_denominator(log: BanditLog, params: PolicyParams) -> float:
    """Mean importance weight S; equals 1 exactly when pi_w is the logger."""
    return _mean_weight(importance_weights(log, params))


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

