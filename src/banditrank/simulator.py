"""Synthetic ranking worlds with exactly computable ground truth.

A world holds a context vector and a true click probability for every
(query, product) pair, both generated from a hidden linear scorer. The
logging policy is the hidden scorer plus seeded Gaussian parameter noise,
pushed through a temperature-scaled softmax, so it ranks well but not
perfectly and always has full support over both actions.

Loss semantics per interaction: when the product is shown (a=1), the loss
is 0 on a click and 1 otherwise; when it is hidden (a=0), the user examines
it anyway with probability ``deep_browse_prob`` and the loss is 1 on an
examined click, else 0. This makes the loss an exact 0/1 penalty for wrong
decisions, and the expected loss of any policy can be enumerated in closed
form rather than sampled.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from banditrank.data import BanditLog, SupervisedRecord, open_text
from banditrank.policy import PolicyParams, batch_probabilities


@dataclass(frozen=True)
class SimConfig:
    n_queries: int = 100
    products_per_query: int = 50
    feature_dim: int = 10
    deep_browse_prob: float = 0.2
    noise_scale: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        if self.n_queries < 1 or self.products_per_query < 1 or self.feature_dim < 1:
            raise ValueError(f"dimensions must be positive: {self}")
        if not 0.0 <= self.deep_browse_prob <= 1.0:
            raise ValueError(f"deep_browse_prob must lie in [0, 1]: {self}")
        if self.noise_scale < 0 or self.temperature <= 0:
            raise ValueError(f"bad noise/temperature: {self}")


@dataclass(frozen=True)
class LoggingPolicy:
    params: PolicyParams


@dataclass(frozen=True)
class SyntheticWorld:
    config: SimConfig
    seed: int
    contexts: np.ndarray          # (n_queries * products_per_query, d)
    true_relevance: np.ndarray    # matching click probabilities, in (0, 1)
    hidden_truth: np.ndarray      # (d,) linear scorer behind the relevance
    logging_policy: LoggingPolicy

    @property
    def n_pairs(self) -> int:
        return self.contexts.shape[0]

    def pair_ids(self) -> list[tuple[str, str]]:
        ppq = self.config.products_per_query
        return [
            (f"q{i // ppq}", f"p{i % ppq}") for i in range(self.n_pairs)
        ]


def generate_world(config: SimConfig, seed: int) -> SyntheticWorld:
    """Draw contexts, true relevance, and a noisy logging policy."""
    rng = np.random.default_rng(seed)
    n = config.n_queries * config.products_per_query
    contexts = rng.standard_normal((n, config.feature_dim))
    hidden = rng.standard_normal(config.feature_dim)
    scores = contexts @ hidden
    relevance = 1.0 / (1.0 + np.exp(-scores))
    noisy = hidden + config.noise_scale * rng.standard_normal(config.feature_dim)
    w = np.zeros((2, config.feature_dim))
    w[1] = noisy / config.temperature
    params = PolicyParams("linear", [w, np.zeros(2)])
    return SyntheticWorld(
        config=config,
        seed=seed,
        contexts=contexts,
        true_relevance=relevance,
        hidden_truth=hidden,
        logging_policy=LoggingPolicy(params=params),
    )


def simulate_log(
    world: SyntheticWorld,
    policy: LoggingPolicy,
    n_interactions: int,
    seed: int,
    metadata: dict[str, str] | None = None,
) -> BanditLog:
    """Sample logged interactions: uniform pair, logged action, 0/1 loss."""
    if n_interactions < 1:
        raise ValueError(f"n_interactions must be >= 1, got {n_interactions}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, world.n_pairs, size=n_interactions)
    X = world.contexts[idx]
    r = world.true_relevance[idx]
    P = batch_probabilities(policy.params, X)
    actions = (rng.random(n_interactions) < P[:, 1]).astype(np.int64)
    propensities = P[np.arange(n_interactions), actions]
    clicks = rng.random(n_interactions) < r
    examines = rng.random(n_interactions) < world.config.deep_browse_prob
    shown = actions == 1
    deltas = np.where(
        shown, ~clicks, examines & clicks
    ).astype(np.int64)
    pair_ids = world.pair_ids()
    meta = {"source": "simulator", "seed": str(seed)}
    meta.update(metadata or {})
    return BanditLog(
        query_ids=[pair_ids[i][0] for i in idx],
        product_ids=[pair_ids[i][1] for i in idx],
        contexts=X.copy(),
        actions=actions,
        propensities=propensities,
        deltas=deltas,
        metadata=meta,
    )


def true_risk(world: SyntheticWorld, params: PolicyParams) -> float:
    """Exact expected loss of a policy by enumerating every pair."""
    P = batch_probabilities(params, world.contexts)
    r = world.true_relevance
    per_pair = P[:, 1] * (1.0 - r) + P[:, 0] * world.config.deep_browse_prob * r
    return float(np.mean(per_pair))


def world_labels(
    world: SyntheticWorld, top_fraction: float = 0.2
) -> dict[tuple[str, str], int]:
    """Graded labels from true relevance.

    Only the ``top_fraction`` most relevant products of each query are
    relevant (mirroring sparse positive feedback); those are graded
    ceil(4 * relevance / max relevance), everything else gets grade 0.
    """
    labels: dict[tuple[str, str], int] = {}
    ppq = world.config.products_per_query
    n_rel = max(1, int(round(top_fraction * ppq)))
    rel = world.true_relevance.reshape(world.config.n_queries, ppq)
    for qi in range(world.config.n_queries):
        row = rel[qi]
        mx = row.max()
        top = set(np.argsort(-row)[:n_rel].tolist())
        for pi in range(ppq):
            if pi in top:
                grade = int(np.ceil(4.0 * round(row[pi] / mx, 12)))
            else:
                grade = 0
            labels[(f"q{qi}", f"p{pi}")] = grade
    return labels


def world_supervised(
    world: SyntheticWorld,
    query_ids: set[str] | None = None,
    top_fraction: float = 0.2,
) -> list[SupervisedRecord]:
    """Supervised records for (a subset of) the world's queries.

    The nrr field is relevance normalized by the per-query maximum for
    relevant products and 0 for the rest, so labels stay consistent with
    the graded-label rule.
    """
    labels = world_labels(world, top_fraction)
    ppq = world.config.products_per_query
    rel = world.true_relevance.reshape(world.config.n_queries, ppq)
    records = []
    for qi in range(world.config.n_queries):
        q = f"q{qi}"
        if query_ids is not None and q not in query_ids:
            continue
        mx = rel[qi].max()
        for pi in range(ppq):
            grade = labels[(q, f"p{pi}")]
            nrr = round(rel[qi, pi] / mx, 12) if grade > 0 else 0.0
            records.append(
                SupervisedRecord(
                    query_id=q,
                    product_id=f"p{pi}",
                    context=world.contexts[qi * ppq + pi],
                    label=grade,
                    nrr=nrr,
                )
            )
    return records


def save_world(world: SyntheticWorld, sink) -> None:
    """Persist a world as its generation recipe (config + seed).

    Generation is deterministic, so reloading regenerates bit-identical
    contexts, relevance, and logging policy.
    """
    with open_text(sink, "w") as out:
        json.dump({"config": asdict(world.config), "seed": world.seed}, out)


def load_world(source) -> SyntheticWorld:
    with open_text(source) as stream:
        obj = json.load(stream)
    return generate_world(SimConfig(**obj["config"]), obj["seed"])
