"""Turns raw impression / positive-feedback streams into graded labels.

Pipeline: count visibility per (query, product), drop pairs seen fewer than
``visibility_threshold`` times, compute the relevance rate (positives over
visibility), normalize by the per-query maximum rate, and grade on a 5-point
scale with ceil(4 * NRR). The supervised dataset keeps every positive pair
and negatively samples shown-but-unclicked products.

The ``RelevanceTable`` is a row set, checked and stored by ``data._RowSet``
like ``data.SupervisedSet``. It adds what no other row set has: its pairs
sorted with none twice, each query's first row, nrr over each query's run and
the labels of ``data.grade_column``. Aggregation, sampling and export work on
these columns; a per-pair record is built only when a caller reads ``entries``.
"""

from __future__ import annotations

import logging
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from banditrank.data import SupervisedSet, _read_only, _RowSet, grade_column, write_supervised

logger = logging.getLogger(__name__)

DEFAULT_VISIBILITY_THRESHOLD = 50
DEFAULT_NEGATIVE_RATIO = 4.0


@dataclass(frozen=True)
class RelevanceEntry:
    rr: float
    nrr: float
    label: int


class RelevanceTable(_RowSet):
    """Per (query, product): relevance rate, normalized rate, graded label.

    Columns: ``query_ids`` and ``product_ids`` lists, sorted by pair with no
    pair twice, and read-only arrays ``rr``, ``nrr`` and ``labels``.
    ``query_starts`` holds the first row of each query's run. A pair's nrr is
    its rr over the largest rr of its query, or 0 where that is 0.
    """

    _COLUMNS = (
        ("rr", 0, lambda x: (x >= 0.0) & (x <= 1.0), np.float64, "rr", "must lie in [0, 1]"),)

    def __init__(self, query_ids: Sequence[str], product_ids: Sequence[str],
                 rr: Sequence[float]):
        (self.rr,) = self._store(query_ids, product_ids, (rr,))
        n = len(self)
        pairs = list(zip(self.query_ids, self.product_ids))
        if not all(map(operator.lt, pairs, islice(pairs, 1, None))):
            row = next(i for i in range(1, n) if not pairs[i - 1] < pairs[i])
            raise ValueError(f"row {row}: pair {pairs[row]!r} does not follow "
                             f"{pairs[row - 1]!r}; pairs must be sorted and distinct")
        new_query = np.fromiter(map(operator.ne, islice(self.query_ids, 1, None), self.query_ids),
                                bool, max(n - 1, 0))
        self.query_starts = _read_only(np.flatnonzero(np.concatenate(([n > 0], new_query))))
        top = np.repeat(np.maximum.reduceat(self.rr, self.query_starts),
                        np.diff(self.query_starts, append=n))
        self.nrr = _read_only(np.divide(self.rr, top, out=np.zeros(n), where=top > 0))
        self.labels = _read_only(grade_column(self.nrr))

    @cached_property
    def entries(self) -> dict[tuple[str, str], RelevanceEntry]:
        """Each pair's record, built on the first read."""
        return dict(zip(zip(self.query_ids, self.product_ids),
                        map(RelevanceEntry, self.rr.tolist(), self.nrr.tolist(),
                            self.labels.tolist())))

    def __getitem__(self, key: tuple[str, str]) -> RelevanceEntry:
        return self.entries[key]

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
    if not visibility_threshold >= 1:  # NaN too
        raise ValueError(f"visibility_threshold must be >= 1, got {visibility_threshold}")
    visibility = Counter(impressions)
    pos_counts = Counter(positives)
    for pair, n_pos in pos_counts.items():
        if n_pos > visibility.get(pair, 0):
            raise ValueError(
                f"pair {pair} has {n_pos} positives but only "
                f"{visibility.get(pair, 0)} impressions"
            )

    kept = sorted(pair for pair, vis in visibility.items() if vis >= visibility_threshold)
    n = len(kept)
    seen = np.fromiter(map(visibility.__getitem__, kept), np.float64, n)
    clicked = np.fromiter(map(pos_counts.get, kept, repeat(0)), np.float64, n)
    query_ids, product_ids = zip(*kept) if kept else ((), ())
    return RelevanceTable(query_ids, product_ids, clicked / seen)


def build_supervised(
    table: RelevanceTable,
    shown_products: Mapping[str, set[str]],
    contexts: Mapping[tuple[str, str], np.ndarray],
    negative_ratio: float = DEFAULT_NEGATIVE_RATIO,
    seed: int = 0,
) -> SupervisedSet:
    """Positive pairs plus per-query negatively sampled zero-label pairs.

    For each query, floor(negative_ratio * n_positives) label-0 products, or
    all of them where there are fewer, are drawn uniformly without
    replacement from products that were shown but never positively labeled
    (and that survived the visibility filter). Deterministic for a fixed
    seed; queries are processed in sorted order.
    """
    if not 0 < negative_ratio < math.inf:  # NaN too
        raise ValueError(f"negative_ratio must be positive and finite, got {negative_ratio}")
    rng = np.random.default_rng(seed)
    products, positive = table.product_ids, (table.labels > 0).tolist()
    bounds = table.query_starts.tolist() + [len(table)]
    rows: list[int] = []
    for lo, hi in zip(bounds, islice(bounds, 1, None)):
        positives = [i for i in range(lo, hi) if positive[i]]
        if not positives:
            continue
        q = table.query_ids[lo]
        shown = shown_products.get(q, ())
        candidates = [i for i in range(lo, hi) if not positive[i] and products[i] in shown]
        # wanted may overflow to inf; like any count of at least len(candidates), it takes all
        wanted = negative_ratio * len(positives)
        n_neg = len(candidates) if wanted >= len(candidates) else int(wanted)
        if not candidates:
            logger.warning("query %s has positives but no negative candidates", q)
        rows += positives
        if n_neg:
            picked = rng.choice(len(candidates), size=n_neg, replace=False)
            rows += sorted(candidates[i] for i in picked.tolist())
    query_ids = [table.query_ids[i] for i in rows]
    product_ids = [products[i] for i in rows]
    return SupervisedSet(query_ids, product_ids,
                         [contexts[pair] for pair in zip(query_ids, product_ids)]
                         or np.zeros((0, 0)),
                         table.nrr[np.array(rows, dtype=np.intp)])


def export_relevance_table(table: RelevanceTable, sink: IO | str) -> int:
    """Write every table entry in the supervised TSV format, with no feature columns."""
    return write_supervised(SupervisedSet(table.query_ids, table.product_ids,
                                          np.zeros((len(table), 0)), table.nrr), sink)
