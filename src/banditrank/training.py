"""Minibatch training of binary-action policies.

Three objectives are supported, all descended with a bias-corrected Adam
update: the importance-weighted Lagrangian surrogate (with a fixed lambda,
or lambda picked by the mean-weight-guided search), the empirical-average
surrogate, and the full-information weighted cross-entropy baseline.
Training checkpoints the model on a fixed cadence of records seen and
returns the checkpoint that scores best on the dev set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from banditrank.data import BanditLog, SupervisedRecord, open_text
from banditrank.estimators import (
    group_mean_losses,
    lagrangian_gradient,
    lagrangian_risk,
    snips_denominator,
)
from banditrank.evaluation import MetricsReport, RankedList, rank_metrics
from banditrank.policy import (
    PolicyParams,
    batch_probabilities,
    logit_backprop,
    logit_margin,
    weighted_prob_gradient,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Cutoffs of the P@k / NDCG@k metrics computed on the dev set.
DEV_KS = (5, 10)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    epochs: int = 5
    learning_rate: float = 1e-3
    seed: int = 0
    lam: float = 0.5
    eval_every: int = 10_000
    dev_metric: str = "MAP"
    max_probes: int = 10

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError(f"batch_size and epochs must be >= 1: {self}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive: {self}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1]: {self}")
        if self.dev_metric not in ("MAP", "NDCG@10"):
            raise ValueError(f"dev_metric must be MAP or NDCG@10: {self}")


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: PolicyParams) -> "AdamState":
        return cls(
            m=[np.zeros_like(a) for a in params.arrays],
            v=[np.zeros_like(a) for a in params.arrays],
        )


def adam_step(
    params: PolicyParams,
    grads: Sequence[np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[PolicyParams, AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    if len(grads) != len(params.arrays):
        raise ValueError("gradient/parameter count mismatch")
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    t = state.t + 1
    new_m, new_v, new_arrays = [], [], []
    for p, g, m, v in zip(params.arrays, grads, state.m, state.v):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_arrays.append(p - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return params.replace_arrays(new_arrays), AdamState(m=new_m, v=new_v, t=t)


@dataclass(frozen=True)
class Checkpoint:
    records_seen: int
    dev_metrics: MetricsReport
    S: float
    objective: float
    params: PolicyParams


@dataclass(frozen=True)
class TrainHistory:
    checkpoints: tuple[Checkpoint, ...]

    def best(self, dev_metric: str) -> Checkpoint:
        return max(
            self.checkpoints, key=lambda cp: (cp.dev_metrics.metric(dev_metric),)
        )


def rank_records(
    params: PolicyParams, records: Sequence[SupervisedRecord]
) -> list[RankedList]:
    """One ranking per query, in sorted query order.

    A query's records are ordered by the policy's logit margin, best first,
    ties broken by product id; all contexts share one forward pass.
    """
    if not records:
        raise ValueError("no records to rank")
    scores = logit_margin(params, np.stack([r.context for r in records])).tolist()
    by_query: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        by_query.setdefault(r.query_id, []).append(i)
    runs = []
    for q in sorted(by_query):
        rows = sorted(by_query[q], key=lambda i: (-scores[i], records[i].product_id))
        runs.append(
            RankedList(q, tuple((records[i].product_id, scores[i]) for i in rows))
        )
    return runs


def evaluate_policy(
    params: PolicyParams, records: Sequence[SupervisedRecord]
) -> MetricsReport:
    """Score the rankings of ``rank_records`` against the records' labels."""
    runs = rank_records(params, records)
    labels = {(r.query_id, r.product_id): r.label for r in records}
    return rank_metrics(runs, labels, ks=DEV_KS)


ObjFn = Callable[[PolicyParams], float]


def _minibatch_train(
    log_len: int,
    grad_fn: Callable[[PolicyParams, np.ndarray], list[np.ndarray]],
    objective_fn: ObjFn,
    s_fn: Callable[[PolicyParams], float],
    dev: Sequence[SupervisedRecord],
    params0: PolicyParams,
    config: TrainConfig,
) -> tuple[PolicyParams, TrainHistory]:
    """Shared epoch/batch/checkpoint loop over record indices."""
    rng = np.random.default_rng(config.seed)
    params = params0
    state = AdamState.zeros_like(params0)
    checkpoints: list[Checkpoint] = []
    records_seen = 0
    next_eval = config.eval_every

    def checkpoint():
        checkpoints.append(
            Checkpoint(
                records_seen=records_seen,
                dev_metrics=evaluate_policy(params, dev),
                S=s_fn(params),
                objective=objective_fn(params),
                params=params,
            )
        )

    for _ in range(config.epochs):
        order = rng.permutation(log_len)
        for start in range(0, log_len, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            grads = grad_fn(params, batch_idx)
            params, state = adam_step(params, grads, state, config)
            records_seen += len(batch_idx)
            if records_seen >= next_eval:
                checkpoint()
                next_eval = records_seen + config.eval_every
    if not checkpoints or checkpoints[-1].records_seen < records_seen:
        checkpoint()
    history = TrainHistory(checkpoints=tuple(checkpoints))
    return history.best(config.dev_metric).params, history


def train_crm(
    train_log: BanditLog,
    dev: Sequence[SupervisedRecord],
    params0: PolicyParams,
    config: TrainConfig,
) -> tuple[PolicyParams, TrainHistory]:
    """Minimize the Lagrangian surrogate at the configured fixed lambda."""
    if len(train_log) == 0 or not dev:
        raise ValueError("train log and dev set must be non-empty")
    lam = config.lam

    def grad_fn(params, idx):
        return lagrangian_gradient(
            train_log.contexts[idx],
            train_log.actions[idx],
            train_log.propensities[idx],
            train_log.deltas[idx],
            params,
            lam,
        )

    return _minibatch_train(
        log_len=len(train_log),
        grad_fn=grad_fn,
        objective_fn=lambda p: lagrangian_risk(train_log, p, lam),
        s_fn=lambda p: snips_denominator(train_log, p),
        dev=dev,
        params0=params0,
        config=config,
    )


def train_ea(
    train_log: BanditLog,
    dev: Sequence[SupervisedRecord],
    params0: PolicyParams,
    config: TrainConfig,
) -> tuple[PolicyParams, TrainHistory]:
    """Minimize the empirical-average surrogate (no propensity correction)."""
    if len(train_log) == 0 or not dev:
        raise ValueError("train log and dev set must be non-empty")
    mean_delta, group_size = group_mean_losses(train_log)
    # per-record share so each (query, product, action) group counts once
    coeffs = mean_delta / group_size

    def grad_fn(params, idx):
        grads = weighted_prob_gradient(
            params, train_log.contexts[idx], train_log.actions[idx], coeffs[idx]
        )
        return [g / len(idx) for g in grads]

    def objective_fn(params):
        P = batch_probabilities(params, train_log.contexts)
        p_a = P[np.arange(len(train_log)), train_log.actions]
        return float(np.sum(coeffs * p_a))

    return _minibatch_train(
        log_len=len(train_log),
        grad_fn=grad_fn,
        objective_fn=objective_fn,
        s_fn=lambda p: snips_denominator(train_log, p),
        dev=dev,
        params0=params0,
        config=config,
    )


def train_full_info(
    train: Sequence[SupervisedRecord],
    dev: Sequence[SupervisedRecord],
    params0: PolicyParams,
    config: TrainConfig,
) -> tuple[PolicyParams, TrainHistory]:
    """Weighted binary cross-entropy on binarized graded labels.

    A record with label l contributes weight (1 + l) / 5, so stronger
    grades pull harder; the target class is 1 whenever l > 0.
    """
    if not train or not dev:
        raise ValueError("train and dev sets must be non-empty")
    X = np.stack([r.context for r in train])
    y = np.array([1 if r.label > 0 else 0 for r in train], dtype=np.int64)
    weights = np.array([(1 + r.label) / 5.0 for r in train])
    if not np.any(y):
        raise ValueError("training set has no positive labels")

    def grad_fn(params, idx):
        Xb, yb, wb = X[idx], y[idx], weights[idx]
        P = batch_probabilities(params, Xb)
        onehot = np.zeros_like(P)
        onehot[np.arange(len(idx)), yb] = 1.0
        dlogits = wb[:, None] * (P - onehot) / len(idx)
        return logit_backprop(params, Xb, dlogits)

    def objective_fn(params):
        P = batch_probabilities(params, X)
        p_y = np.clip(P[np.arange(len(train)), y], 1e-300, None)
        return float(np.mean(-weights * np.log(p_y)))

    return _minibatch_train(
        log_len=len(train),
        grad_fn=grad_fn,
        objective_fn=objective_fn,
        s_fn=lambda p: float("nan"),
        dev=dev,
        params0=params0,
        config=config,
    )


def write_history(history: TrainHistory, sink) -> int:
    """Export the checkpoint series as TSV."""
    with open_text(sink, "w") as out:
        out.write("records_seen\tobjective\tS\tmap\tndcg@10\tavg_rank\tavg_dcg\n")
        for cp in history.checkpoints:
            m = cp.dev_metrics
            row = [
                str(cp.records_seen),
                repr(cp.objective),
                repr(cp.S),
                repr(m.map),
                repr(m.ndcg_at[10]),
                repr(m.avg_rank),
                repr(m.avg_dcg),
            ]
            out.write("\t".join(row) + "\n")
    return len(history.checkpoints)


@dataclass(frozen=True)
class LambdaProbe:
    lam: float
    S: float
    dev_metric: float
    metrics: MetricsReport


def next_lambda(lam: float, S: float) -> float:
    """One step of the mean-weight-guided lambda update.

    A mean weight above 1 means the current lambda overshoots, so lambda
    drops by 10%; otherwise it grows by 10% (capped at 1).
    """
    return lam * 0.9 if S > 1.0 else min(1.0, lam * 1.1)


def lambda_search(
    train_log: BanditLog,
    dev: Sequence[SupervisedRecord],
    params0: PolicyParams,
    config: TrainConfig,
    probe_epochs: int = 2,
) -> tuple[float, PolicyParams, list[LambdaProbe]]:
    """Mean-weight-guided search for lambda.

    Starting from a seeded random lambda in [0, 1], train ``probe_epochs``
    from scratch, measure the mean importance weight S on the training log,
    and step lambda down 10% when S > 1, up 10% otherwise, until S lands in
    [0.95, 1.05] or ``config.max_probes`` probes are spent. Every probed
    lambda then gets a full training run; the one with the best dev metric
    wins.
    """
    if probe_epochs < 1:
        raise ValueError(f"probe_epochs must be >= 1, got {probe_epochs}")
    rng = np.random.default_rng(config.seed)
    lam = float(rng.uniform(0.0, 1.0))
    probed: list[float] = []
    for _ in range(config.max_probes):
        probed.append(lam)
        probe_cfg = replace(config, lam=lam, epochs=probe_epochs)
        probe_params, _ = train_crm(train_log, dev, params0, probe_cfg)
        S = snips_denominator(train_log, probe_params)
        if 0.95 <= S <= 1.05:
            break
        lam = next_lambda(lam, S)
        if lam in probed:
            break

    sweep: list[LambdaProbe] = []
    best: tuple[float, float, PolicyParams] | None = None
    for lam_j in dict.fromkeys(probed):
        full_cfg = replace(config, lam=lam_j)
        params_j, history_j = train_crm(train_log, dev, params0, full_cfg)
        S_j = snips_denominator(train_log, params_j)
        metrics_j = evaluate_policy(params_j, dev)
        score_j = metrics_j.metric(config.dev_metric)
        sweep.append(
            LambdaProbe(lam=lam_j, S=S_j, dev_metric=score_j, metrics=metrics_j)
        )
        if best is None or score_j > best[0]:
            best = (score_j, lam_j, params_j)
    assert best is not None
    return best[1], best[2], sweep
