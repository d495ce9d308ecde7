"""Turns raw impression / positive-feedback streams into graded labels.

Pipeline: count visibility per (query, product), drop pairs seen fewer than
``visibility_threshold`` times, compute the relevance rate (positives over
visibility), normalize by the per-query maximum rate, and grade on a 5-point
scale with ceil(4 * NRR). The supervised dataset keeps every positive pair
and negatively samples shown-but-unclicked products.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from banditrank.data import SupervisedSet, grade, write_supervised

logger = logging.getLogger(__name__)

DEFAULT_VISIBILITY_THRESHOLD = 50
DEFAULT_NEGATIVE_RATIO = 4.0


@dataclass(frozen=True)
class RelevanceEntry:
    rr: float
    nrr: float
    label: int


@dataclass(frozen=True)
class RelevanceTable:
    """Per (query, product): relevance rate, normalized rate, graded label."""

    entries: dict[tuple[str, str], RelevanceEntry]

    def by_query(self) -> dict[str, list[str]]:
        """Each query's products, both in sorted order, from one pass over the entries."""
        products: dict[str, list[str]] = {}
        for q, p in sorted(self.entries):
            products.setdefault(q, []).append(p)
        return products

    def __getitem__(self, key: tuple[str, str]) -> RelevanceEntry:
        return self.entries[key]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key) -> bool:
        return key in self.entries


def aggregate_feedback(
    impressions: Iterable[tuple[str, str]],
    positives: Iterable[tuple[str, str]],
    visibility_threshold: int = DEFAULT_VISIBILITY_THRESHOLD,
) -> RelevanceTable:
    """Aggregate raw event streams into a relevance table.

    ``impressions`` and ``positives`` are streams of (query_id, product_id)
    events; each occurrence counts once. Pairs whose visibility falls below
    the threshold are dropped before any rate is computed.
    """
    if visibility_threshold < 1:
        raise ValueError(f"visibility_threshold must be >= 1, got {visibility_threshold}")
    visibility = Counter(impressions)
    pos_counts = Counter(positives)
    for pair, n_pos in pos_counts.items():
        if n_pos > visibility.get(pair, 0):
            raise ValueError(
                f"pair {pair} has {n_pos} positives but only "
                f"{visibility.get(pair, 0)} impressions"
            )

    kept = {
        pair: vis for pair, vis in visibility.items() if vis >= visibility_threshold
    }
    rr = {pair: pos_counts.get(pair, 0) / vis for pair, vis in kept.items()}
    max_rr: dict[str, float] = {}
    for (q, _), r in rr.items():
        max_rr[q] = max(max_rr.get(q, 0.0), r)

    entries = {}
    for pair in sorted(kept):
        q = pair[0]
        nrr = rr[pair] / max_rr[q] if max_rr[q] > 0 else 0.0
        entries[pair] = RelevanceEntry(rr=rr[pair], nrr=nrr, label=grade(nrr))
    return RelevanceTable(entries=entries)


def build_supervised(
    table: RelevanceTable,
    shown_products: Mapping[str, set[str]],
    contexts: Mapping[tuple[str, str], np.ndarray],
    negative_ratio: float = DEFAULT_NEGATIVE_RATIO,
    seed: int = 0,
) -> SupervisedSet:
    """Positive pairs plus per-query negatively sampled zero-label pairs.

    For each query, floor(negative_ratio * n_positives) label-0 products are
    drawn uniformly without replacement from products that were shown but
    never positively labeled (and that survived the visibility filter).
    Deterministic for a fixed seed; queries are processed in sorted order.
    """
    if not 0 < negative_ratio < math.inf:  # NaN too
        raise ValueError(f"negative_ratio must be positive and finite, got {negative_ratio}")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[str, str]] = []
    for q, products in table.by_query().items():
        positives = [p for p in products if table[(q, p)].label > 0]
        if not positives:
            continue
        candidates = sorted(
            p
            for p in shown_products.get(q, set())
            if (q, p) in table and table[(q, p)].label == 0
        )
        n_neg = int(math.floor(negative_ratio * len(positives)))
        n_neg = min(n_neg, len(candidates))
        if n_neg == 0 and not candidates:
            logger.warning("query %s has positives but no negative candidates", q)
        sampled = (
            [candidates[i] for i in rng.choice(len(candidates), size=n_neg, replace=False)]
            if n_neg
            else []
        )
        pairs += [(q, p) for p in positives + sorted(sampled)]
    return _supervised_set(table, pairs, [contexts[pair] for pair in pairs] or np.zeros((0, 0)))


def _supervised_set(table: RelevanceTable, pairs: list[tuple[str, str]], contexts) -> SupervisedSet:
    """The table's ``pairs``, in order, with their ``contexts``."""
    return SupervisedSet([q for q, _ in pairs], [p for _, p in pairs], contexts,
                         [table[pair].nrr for pair in pairs])


def export_relevance_table(table: RelevanceTable, sink: IO | str) -> int:
    """Write every table entry in the supervised TSV format, with no feature columns."""
    pairs = sorted(table.entries)
    return write_supervised(_supervised_set(table, pairs, np.zeros((len(pairs), 0))), sink)
