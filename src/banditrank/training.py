"""Minibatch training of binary-action policies.

Three objectives are supported, all descended with a bias-corrected Adam
update: the importance-weighted Lagrangian surrogate (with a fixed lambda,
or lambda picked by the mean-weight-guided search), the empirical-average
surrogate, and the full-information weighted cross-entropy baseline; they
differ only in their gradient at the logits. Training checkpoints the model
on a fixed cadence of records seen and returns the checkpoint with the best
dev MAP. Every trainer runs one plain loop, ``_train``, which trains for the
longest of the run lengths asked for and returns the run of each length, so the
lambda search reads each probed lambda's probe and full run from one training
of the longer length.

A checkpoint is a plain record: records seen, the dev MAP that selection reads
and params, whose training-set logits are finite: a bound from the params and
the table's largest entry proves it, and the table is forwarded only where the
bound fails. It ranks the dev set for its MAP alone, by ``RankIndex.map``, which
gives the bits of ``RankIndex.report(...).map``. Training computes dev MAP at each
checkpoint and, in the lambda search, S by ``snips_denominator`` at the best
checkpoint of each probe, and nothing else. Whoever reads another number of a
run computes it from a checkpoint's params: its S or objective through
``estimators``, its other dev metrics through a ``RankIndex.report`` of its dev
margins (``evaluate_policy``), as the CLI does for ``history.tsv`` and
``sweep.tsv`` when it writes them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable

import numpy as np

from banditrank.data import BanditLog, SupervisedSet
from banditrank.estimators import group_mean_losses, lagrangian_gradient, snips_denominator
from banditrank.evaluation import MetricsReport, RankIndex
from banditrank.policy import (
    NonFiniteError,
    PolicyParams,
    _forward,
    _logits_bounded,
    batch_probabilities,
    logit_gradient,
    logit_margin,
    weighted_prob_gradient,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    epochs: int = 5
    learning_rate: float = 1e-3
    seed: int = 0
    lam: float = 0.5
    eval_every: int = 10_000
    max_probes: int = 10

    def __post_init__(self):
        counts = (self.batch_size, self.epochs, self.eval_every, self.max_probes, self.seed)
        if not all(isinstance(x, (int, np.integer)) and type(x) is not bool for x in counts):
            raise ValueError(f"batch_size, epochs, eval_every, max_probes, seed must be integers: "
                             f"{self}")
        if min(self.batch_size, self.epochs, self.eval_every) < 1:
            raise ValueError(f"batch_size, epochs and eval_every must be >= 1: {self}")
        if self.max_probes < 1:
            raise ValueError(f"max_probes must be >= 1: {self}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self}")
        # NaN fails too, and so does an integer that no float can hold
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ValueError(f"learning_rate must be positive and finite: {self}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1]: {self}")


@dataclass
class AdamState:
    """Adam's first and second moment estimates, each one vector laid out like
    ``PolicyParams.flat``, and the number of steps taken."""
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, params: PolicyParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(
    params: PolicyParams,
    g: np.ndarray,
    state: AdamState,
    config: TrainConfig,
) -> tuple[PolicyParams, AdamState]:
    """One bias-corrected Adam update of the parameter vector from the gradient ``g``,
    laid out like ``params.flat``; returns fresh params and state."""
    if g.shape != params.flat.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {params.flat.shape}")
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    t = state.t + 1
    # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g and the new
    # flat - lr * m_hat / (sqrt(v_hat) + eps), one operation at a time in that order,
    # made in place on the four arrays that this step allocates
    m = b1 * state.m
    step = (1 - b1) * g
    m += step
    v = b2 * state.v
    sq = (1 - b2) * g
    sq *= g
    v += sq
    np.divide(m, 1 - b1**t, out=step)
    step *= config.learning_rate
    np.divide(v, 1 - b2**t, out=sq)
    np.sqrt(sq, out=sq)
    sq += eps
    step /= sq
    np.subtract(params.flat, step, out=step)
    return params._replace_flat(step), AdamState(m=m, v=v, t=t)


@dataclass(frozen=True)
class Checkpoint:
    """A model taken during training: the records seen, the MAP of its ranking of
    the dev set and its params. Any other metric of it is computed from its params."""
    records_seen: int
    dev_map: float
    params: PolicyParams


@dataclass(frozen=True)
class TrainHistory:
    checkpoints: tuple[Checkpoint, ...]
    stopped: str | None = None  # why the run ended early, if it diverged

    def best(self) -> Checkpoint:
        """The checkpoint with the best dev MAP, the one number a checkpoint holds
        besides its params; ``max`` keeps the earliest among equals."""
        return max(self.checkpoints, key=lambda cp: cp.dev_map)


def evaluate_policy(params: PolicyParams, rows: SupervisedSet) -> MetricsReport:
    """The metrics of the policy's ranking of ``rows`` by logit margin, against their labels."""
    index = RankIndex(rows.query_ids, rows.product_ids, rows.labels)
    return index.report(logit_margin(params, rows.contexts))


def _train(
    log_len: int,
    grad_fn: Callable[[PolicyParams, np.ndarray], np.ndarray],
    table: np.ndarray,
    dev: SupervisedSet,
    params0: PolicyParams,
    config: TrainConfig,
    ends: tuple[int, ...],
) -> list[Callable[[], tuple[PolicyParams, TrainHistory]]]:
    """The shared epoch/batch/checkpoint loop over record indices: it trains for
    ``max(ends)`` epochs and returns, for each length e of ``ends``, a memoised
    function that returns what a run of e epochs returns.

    That is the checkpoints of the first e epochs, plus the end-of-run checkpoint
    such a run takes when its last checkpoint is earlier, made at the first call
    and kept out of the longer runs. A checkpoint ranks the dev set for its MAP
    alone (``RankIndex.map``) and checks that the logits of ``table``, the
    training set's contexts, are finite: by ``_logits_bounded`` from the table's
    largest entry, or, where that bound fails, by forwarding the table. It
    computes no other dev metric, S or objective. Training stops at the first
    step or checkpoint whose logits or updated parameters are not finite; every
    length from that epoch on gets the stopped run, whose history records why,
    or which raises the error when it is called, if it has no checkpoint.
    """
    if log_len == 0 or not dev:
        raise ValueError("training data and dev set must be non-empty")
    dev_index = RankIndex(dev.query_ids, dev.product_ids, dev.labels)
    rng = np.random.default_rng(config.seed)
    params, state = params0, AdamState.zeros_like(params0)
    checkpoints: list[Checkpoint] = []
    records_seen = 0
    next_eval = config.eval_every
    x_max = float(np.abs(table).max(initial=0.0))

    def checkpoint(params: PolicyParams, records_seen: int) -> Checkpoint:
        dev_map = dev_index.map(logit_margin(params, dev.contexts))
        if not _logits_bounded(params, x_max):
            _forward(params, table)  # raises if a training-set logit is not finite
        return Checkpoint(records_seen=records_seen, dev_map=dev_map, params=params)

    def run(kept, params, records_seen, exc=None):
        """What a run that ends after ``records_seen`` records returns."""
        if exc is None and (not kept or kept[-1].records_seen < records_seen):
            try:
                kept = (*kept, checkpoint(params, records_seen))
            except NonFiniteError as err:
                exc = err
        if exc is not None and not kept:
            raise exc
        stopped = None if exc is None else f"training stopped after {records_seen} records: {exc}"
        history = TrainHistory(checkpoints=kept, stopped=stopped)
        return history.best().params, history

    runs, stopped = {}, None
    try:
        for epoch in range(1, max(ends) + 1):
            order = rng.permutation(log_len)
            for start in range(0, log_len, config.batch_size):
                batch_idx = order[start : start + config.batch_size]
                params, state = adam_step(params, grad_fn(params, batch_idx), state, config)
                records_seen += len(batch_idx)
                if records_seen >= next_eval:
                    checkpoints.append(checkpoint(params, records_seen))
                    next_eval = records_seen + config.eval_every
            if epoch in ends:
                runs[epoch] = cache(partial(run, tuple(checkpoints), params, records_seen))
    except NonFiniteError as exc:
        stopped = cache(partial(run, tuple(checkpoints), params, records_seen, exc))
    return [runs.get(epochs, stopped) for epochs in ends]


def _crm_gradient(train_log: BanditLog, lam: float) -> Callable:
    """The ``grad_fn`` of ``_train`` for the Lagrangian surrogate at ``lam``: its
    gradient over a batch of the log's record indices."""
    table, rows = train_log.context_table, train_log.context_rows

    def grad_fn(params, idx):
        return lagrangian_gradient(np.take(table, rows[idx], axis=0), train_log.actions[idx],
                                   train_log.propensities[idx], train_log.deltas[idx], params,
                                   lam)

    return grad_fn


def train_crm(
    train_log: BanditLog,
    dev: SupervisedSet,
    params0: PolicyParams,
    config: TrainConfig,
) -> tuple[PolicyParams, TrainHistory]:
    """Minimize the Lagrangian surrogate at the configured fixed lambda."""
    return _train(len(train_log), _crm_gradient(train_log, config.lam), train_log.context_table,
                  dev, params0, config, (config.epochs,))[0]()


def train_ea(
    train_log: BanditLog,
    dev: SupervisedSet,
    params0: PolicyParams,
    config: TrainConfig,
) -> tuple[PolicyParams, TrainHistory]:
    """Minimize the empirical-average surrogate (no propensity correction)."""
    mean_delta, group_size = group_mean_losses(train_log)
    # per-record share so each (query, product, action) group counts once
    coeffs = mean_delta / group_size
    table, rows = train_log.context_table, train_log.context_rows

    def grad_fn(params, idx):
        return weighted_prob_gradient(
            params, np.take(table, rows[idx], axis=0), train_log.actions[idx], coeffs[idx]
        ) / len(idx)

    return _train(len(train_log), grad_fn, table, dev, params0, config, (config.epochs,))[0]()


def _classes_and_weights(rows: SupervisedSet) -> tuple[np.ndarray, np.ndarray]:
    """Each row's target class, 1 whenever its label l > 0, and its weight (1 + l) / 5."""
    return (rows.labels > 0).astype(np.int64), (1 + rows.labels) / 5.0


def _cross_entropy_dlogits(weights: np.ndarray) -> Callable:
    """The ``dlogits`` of ``logit_gradient`` for the mean weighted cross-entropy over a
    batch whose rows have ``weights``: w * (P - onehot(y)) / m at the logits."""
    return lambda P, onehot, out: np.divide((P - onehot) * weights, len(weights), out=out)


def train_full_info(
    train: SupervisedSet,
    dev: SupervisedSet,
    params0: PolicyParams,
    config: TrainConfig,
) -> tuple[PolicyParams, TrainHistory]:
    """Weighted binary cross-entropy on binarized graded labels.

    A row with label l contributes weight (1 + l) / 5, so stronger grades
    pull harder; the target class is 1 whenever l > 0.
    """
    X = train.contexts
    y, weights = _classes_and_weights(train)
    if not np.any(y):
        raise ValueError("training set has no positive labels")

    def grad_fn(params, idx):
        return logit_gradient(params, X[idx], y[idx], _cross_entropy_dlogits(weights[idx]))

    return _train(len(train), grad_fn, X, dev, params0, config, (config.epochs,))[0]()


def weighted_cross_entropy(rows: SupervisedSet, params: PolicyParams) -> float:
    """``train_full_info``'s objective over ``rows``: the mean weighted cross-entropy,
    each row's probability of its target class clipped at 1e-300."""
    y, weights = _classes_and_weights(rows)
    P = batch_probabilities(params, rows.contexts)
    p_y = np.clip(P[np.arange(len(rows)), y], 1e-300, None)
    return float(np.mean(-weights * np.log(p_y)))


def next_lambda(lam: float, S: float) -> float:
    """One step of the mean-weight-guided lambda update.

    A mean weight above 1 means the current lambda overshoots, so lambda
    drops by 10%; otherwise it grows by 10% (capped at 1).
    """
    return lam * 0.9 if S > 1.0 else min(1.0, lam * 1.1)


def lambda_search(
    train_log: BanditLog,
    dev: SupervisedSet,
    params0: PolicyParams,
    config: TrainConfig,
    probe_epochs: int = 2,
) -> tuple[float, PolicyParams, list[tuple[float, float, TrainHistory]]]:
    """Mean-weight-guided search for lambda: lambda*, its params and, in probe
    order, each probed lambda with its probe's S and the history of its full run.

    Starting from a seeded random lambda in [0, 1], train it and read its
    probe, a run of ``probe_epochs`` epochs: the mean importance weight S of
    the probe's best checkpoint steps lambda down 10% when S > 1, up 10%
    otherwise, until S lands in [0.95, 1.05], ``config.max_probes`` probes are
    spent, or the next lambda was probed already (at the cap of 1). Each probed
    lambda's full run, of ``config.epochs`` epochs, comes from the same
    training as its probe, which lasts the longer of the two lengths; the
    lambda whose full run's best checkpoint has the best dev MAP wins. The
    results are those of a ``train_crm`` run of each length apart.

    Finding a best checkpoint reads no S. The search computes S, one pass over
    the log, once per probe, at the probe's best checkpoint; every other
    number of a full run is its caller's to compute from the run's params.
    """
    if probe_epochs < 1:
        raise ValueError(f"probe_epochs must be >= 1, got {probe_epochs}")
    rng = np.random.default_rng(config.seed)
    lam = float(rng.uniform(0.0, 1.0))
    probes = []  # each probed lambda, its probe's S and its full run
    for _ in range(config.max_probes):
        probe, full = _train(len(train_log), _crm_gradient(train_log, lam),
                             train_log.context_table, dev, params0, replace(config, lam=lam),
                             (probe_epochs, config.epochs))
        S = snips_denominator(train_log, probe()[1].best().params)
        probes.append((lam, S, full))
        if 0.95 <= S <= 1.05:
            break
        lam = next_lambda(lam, S)
        if lam in [lam_j for lam_j, _, _ in probes]:
            break

    # each full run's best checkpoint holds its returned params; the first
    # probed lambda wins a tie, as the earliest checkpoint does within a run
    runs = [(lam_j, S_j, full()[1]) for lam_j, S_j, full in probes]
    lam_star, _, chosen = max(runs, key=lambda run: run[2].best().dev_map)
    return lam_star, chosen.best().params, runs
