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

Pair i is query ``q{i // products_per_query}`` and product ``p{i % products_per_query}``.
``_names`` formats each id once, and logs and supervised sets gather their ids
from it, so the records of one query share one id string.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from banditrank.data import NRR_DECIMALS, BanditLog, SupervisedSet, open_text
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
        dims = (self.n_queries, self.products_per_query, self.feature_dim)
        if not all(isinstance(x, (int, np.integer)) and type(x) is not bool for x in dims):
            raise ValueError(f"dimensions must be integers: {self}")
        if min(dims) < 1:
            raise ValueError(f"dimensions must be positive: {self}")
        if not 0.0 <= self.deep_browse_prob <= 1.0:
            raise ValueError(f"deep_browse_prob must lie in [0, 1]: {self}")
        # NaN fails too, and so does an integer that no float can hold; an infinite
        # temperature is the uniform logger's limit
        largest = sys.float_info.max
        if not (0 <= self.noise_scale <= largest
                and (0 < self.temperature <= largest or self.temperature == np.inf)):
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
    logging_policy: LoggingPolicy

    @property
    def n_pairs(self) -> int:
        return self.contexts.shape[0]

    def pair_ids(self) -> list[tuple[str, str]]:
        queries, products = (names.tolist() for names in _names(self.config))
        return [(q, p) for q in queries for p in products]


def _names(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """The world's query ids ``q0 … q{Q-1}`` and product ids ``p0 … p{P-1}``, as
    object arrays of str: the one statement of the id scheme."""
    return (np.array([f"q{i}" for i in range(config.n_queries)], dtype=object),
            np.array([f"p{j}" for j in range(config.products_per_query)], dtype=object))


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
    return SyntheticWorld(config=config, seed=seed, contexts=contexts, true_relevance=relevance,
                          logging_policy=LoggingPolicy(params=params))


def simulate_log(
    world: SyntheticWorld,
    policy: LoggingPolicy,
    n_interactions: int,
    seed: int,
) -> BanditLog:
    """Sample logged interactions: uniform pair, logged action, 0/1 loss."""
    if n_interactions < 1:
        raise ValueError(f"n_interactions must be >= 1, got {n_interactions}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, world.n_pairs, size=n_interactions)
    # the log's context table: each drawn pair's context once, in pair order
    drawn = np.bincount(idx, minlength=world.n_pairs) > 0
    rows = (np.cumsum(drawn) - 1)[idx]
    table = world.contexts[np.flatnonzero(drawn)]
    P = batch_probabilities(policy.params, table)
    actions = (rng.random(n_interactions) < P[rows, 1]).astype(np.int64)
    propensities = P[rows, actions]
    clicks = rng.random(n_interactions) < world.true_relevance[idx]
    examines = rng.random(n_interactions) < world.config.deep_browse_prob
    deltas = np.where(actions == 1, ~clicks, examines & clicks).astype(np.int64)
    queries, products = _names(world.config)
    query, product = np.divmod(idx, world.config.products_per_query)
    return BanditLog(
        query_ids=queries[query].tolist(),
        product_ids=products[product].tolist(),
        contexts=table,
        actions=actions,
        propensities=propensities,
        deltas=deltas,
        metadata={"source": "simulator", "seed": str(seed)},
        context_rows=rows,
    )


def true_risk(world: SyntheticWorld, params: PolicyParams) -> float:
    """Exact expected loss of a policy by enumerating every pair."""
    P = batch_probabilities(params, world.contexts)
    r = world.true_relevance
    per_pair = P[:, 1] * (1.0 - r) + P[:, 0] * world.config.deep_browse_prob * r
    return float(np.mean(per_pair))


def world_supervised(
    world: SyntheticWorld,
    query_ids: set[str] | None = None,
    top_fraction: float = 0.2,
) -> SupervisedSet:
    """Supervised rows for (a subset of) the world's queries.

    Only the ``top_fraction`` most relevant products of each query are
    relevant (mirroring sparse positive feedback): their nrr is relevance
    over the query's maximum, rounded to ``NRR_DECIMALS`` places, and every
    other product has nrr 0. ``SupervisedSet`` grades each nrr into its label.
    A ``top_fraction`` outside (0, 1] or a query the world does not hold raises
    ``ValueError``.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top_fraction must lie in (0, 1], got {top_fraction}")
    queries, products = _names(world.config)
    unknown = sorted(set(query_ids or ()).difference(queries.tolist()))
    if unknown:
        raise ValueError(f"query {unknown[0]!r} is not one of the world's {len(queries)} queries")
    chosen = np.flatnonzero([query_ids is None or q in query_ids for q in queries.tolist()])
    ppq = world.config.products_per_query
    n_rel = max(1, int(round(top_fraction * ppq)))
    rel = world.true_relevance.reshape(world.config.n_queries, ppq)
    top = np.zeros(rel.shape, dtype=bool)
    np.put_along_axis(top, np.argsort(-rel, axis=1)[:, :n_rel], True, axis=1)
    nrr = np.where(top, np.round(rel / rel.max(axis=1, keepdims=True), NRR_DECIMALS), 0.0)
    rows = (chosen[:, None] * ppq + np.arange(ppq)).ravel()
    return SupervisedSet(
        np.repeat(queries[chosen], ppq).tolist(),
        np.tile(products, len(chosen)).tolist(),
        world.contexts[rows],
        nrr.ravel()[rows],
    )


def save_world(world: SyntheticWorld, sink) -> None:
    """Persist a world as its generation recipe (config + seed).

    Generation is deterministic, so reloading regenerates bit-identical
    contexts, relevance, and logging policy.
    """
    with open_text(sink, "w") as out:
        json.dump({"config": asdict(world.config), "seed": world.seed}, out)


def load_world(source) -> SyntheticWorld:
    """The world ``save_world`` wrote. A file that holds no world raises ``ValueError``."""
    with open_text(source) as stream:
        obj = json.load(stream)
    if not (isinstance(obj, dict) and isinstance(obj.get("config"), dict)
            and type(obj.get("seed")) is int and obj["seed"] >= 0):
        raise ValueError("not a world: expected a JSON object with a config object "
                         "and a non-negative integer seed")
    try:
        config = SimConfig(**obj["config"])
    except TypeError as exc:
        raise ValueError(f"not a world: {exc}") from exc
    return generate_world(config, obj["seed"])
