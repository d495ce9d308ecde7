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
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from banditrank.data import SupervisedRecord, write_supervised

logger = logging.getLogger(__name__)

DEFAULT_VISIBILITY_THRESHOLD = 50
DEFAULT_NEGATIVE_RATIO = 4.0

# ceil(4 * nrr) is evaluated after rounding nrr to 12 decimals so values that
# should sit exactly on a grade boundary do not jump a grade from float noise.
_NRR_DECIMALS = 12


@dataclass(frozen=True)
class RelevanceEntry:
    rr: float
    nrr: float
    label: int


@dataclass(frozen=True)
class RelevanceTable:
    """Per (query, product): relevance rate, normalized rate, graded label."""

    entries: dict[tuple[str, str], RelevanceEntry]

    def queries(self) -> list[str]:
        return sorted({q for q, _ in self.entries})

    def products_for(self, query_id: str) -> list[str]:
        return sorted(p for q, p in self.entries if q == query_id)

    def __getitem__(self, key: tuple[str, str]) -> RelevanceEntry:
        return self.entries[key]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key) -> bool:
        return key in self.entries


def graded_label(nrr: float) -> int:
    """5-point grade: ceil(4 * nrr), with 0 -> 0 and 1 -> 4."""
    if not 0.0 <= nrr <= 1.0:
        raise ValueError(f"nrr must lie in [0, 1], got {nrr!r}")
    return math.ceil(4.0 * round(nrr, _NRR_DECIMALS))


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
    visibility: dict[tuple[str, str], int] = {}
    for pair in impressions:
        visibility[pair] = visibility.get(pair, 0) + 1
    pos_counts: dict[tuple[str, str], int] = {}
    for pair in positives:
        pos_counts[pair] = pos_counts.get(pair, 0) + 1
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
        entries[pair] = RelevanceEntry(rr=rr[pair], nrr=nrr, label=graded_label(nrr))
    return RelevanceTable(entries=entries)


def build_supervised(
    table: RelevanceTable,
    shown_products: Mapping[str, set[str]],
    contexts: Mapping[tuple[str, str], np.ndarray],
    negative_ratio: float = DEFAULT_NEGATIVE_RATIO,
    seed: int = 0,
) -> list[SupervisedRecord]:
    """Positive pairs plus per-query negatively sampled zero-label pairs.

    For each query, floor(negative_ratio * n_positives) label-0 products are
    drawn uniformly without replacement from products that were shown but
    never positively labeled (and that survived the visibility filter).
    Deterministic for a fixed seed; queries are processed in sorted order.
    """
    if negative_ratio <= 0:
        raise ValueError(f"negative_ratio must be positive, got {negative_ratio}")
    rng = np.random.default_rng(seed)
    records: list[SupervisedRecord] = []
    for q in table.queries():
        positives = [
            p for p in table.products_for(q) if table[(q, p)].label > 0
        ]
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
        for p in positives + sorted(sampled):
            entry = table[(q, p)]
            records.append(
                SupervisedRecord(
                    query_id=q,
                    product_id=p,
                    context=np.asarray(contexts[(q, p)], dtype=np.float64),
                    label=entry.label,
                    nrr=entry.nrr,
                )
            )
    return records


def export_relevance_table(
    table: RelevanceTable,
    contexts: Mapping[tuple[str, str], np.ndarray],
    sink: IO | str,
) -> int:
    """Write every table entry in the supervised TSV format."""
    records = [
        SupervisedRecord(
            query_id=q,
            product_id=p,
            context=np.asarray(contexts[(q, p)], dtype=np.float64),
            label=e.label,
            nrr=e.nrr,
        )
        for (q, p), e in sorted(table.entries.items())
    ]
    return write_supervised(records, sink)
