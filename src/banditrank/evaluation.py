"""Ranked-retrieval metrics and run-file output.

Conventions follow the trec_eval tool: an item is relevant when its grade is
positive, and DCG uses exponential gain (2^grade - 1) with a log2(rank + 1)
discount. Every average (MAP, MRR, P@k, NDCG@k, average DCG) is over the
queries with at least one relevant item. A query without one has no ranking
to get right: its AP, reciprocal rank and NDCG are undefined, and its P@k is
0 whatever the scores, so counting it toward P@k would only scale P@k by the
share of such queries. A query's items are ranked by score, best first;
equal scores are broken by product id."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from banditrank.data import open_text

# Cut-offs k of P@k and NDCG@k: the default of ``RankIndex``, and so of the
# dev-set metrics of training runs and of the CLI's ``evaluate``.
DEFAULT_KS = (5, 10)


@dataclass(frozen=True)
class MetricsReport:
    map: float
    mrr: float
    p_at: dict[int, float]
    ndcg_at: dict[int, float]
    avg_rank: float
    avg_dcg: float
    n_queries: int

    def write(self, sink: IO | str) -> None:
        with open_text(sink, "w") as out:
            out.write(f"map\t{self.map!r}\n")
            out.write(f"mrr\t{self.mrr!r}\n")
            for k in sorted(self.p_at):
                out.write(f"p@{k}\t{self.p_at[k]!r}\n")
            for k in sorted(self.ndcg_at):
                out.write(f"ndcg@{k}\t{self.ndcg_at[k]!r}\n")
            out.write(f"avg_rank\t{self.avg_rank!r}\n")
            out.write(f"avg_dcg\t{self.avg_dcg!r}\n")
            out.write(f"n_queries\t{self.n_queries}\n")


def _positions(counts: np.ndarray) -> np.ndarray:
    """0-based position of each item within its segment, for segments of ``counts`` items."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _sums(values: np.ndarray, seg: np.ndarray, n_queries: int) -> np.ndarray:
    """Each query's sum of ``values``; ``seg`` gives the query of each value.

    ``np.bincount`` adds a bin's values one at a time in input order, as
    Python's ``sum`` adds a list; the pairwise summation of numpy's
    reductions would round differently.
    """
    return np.bincount(seg, weights=values, minlength=n_queries)


def _mean(x: np.ndarray) -> float:
    """``np.mean(x)`` as a float: the same pairwise sum and one division, without its
    dispatch."""
    return float(x.sum() / len(x))


def _codes(keys: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct keys in sorted order, and each key's position among them."""
    distinct = sorted(set(keys))
    position = {k: i for i, k in enumerate(distinct)}
    return distinct, np.array([position[k] for k in keys], dtype=np.int64)


class RankIndex:
    """Graded (query, product) rows, arranged once to rank and score any score vector.

    Each row's query and product id is held as its position among the sorted
    distinct ids. ``grouped`` lists the rows by query, then product id. A score
    vector is ranked by two stable sorts: of ``grouped`` by score, best first,
    then of that order by query code. The codes are held in the smallest
    unsigned type that counts the queries, so the second sort is a radix sort
    of 8- or 16-bit keys. What does not depend on the scores is computed here
    once: each ranked position's query code, rank and discount log2(rank + 1),
    the positions within each cut-off k and their query codes, and per query
    the relevant count and the ideal DCG at each k.

    ``report`` scores a ranking by every metric; ``map`` by its MAP alone, as a
    training checkpoint needs it for model selection. Both take the MAP from one
    average precision routine, so that the two give the same bits.
    """

    def __init__(
        self,
        query_ids: Sequence[str],
        product_ids: Sequence[str],
        grades: Sequence[int],
        ks: Sequence[int] = DEFAULT_KS,
    ):
        n = len(query_ids)
        if not n:
            raise ValueError("no records to rank")
        if len(product_ids) != n or len(grades) != n:
            raise ValueError(f"expected {n} product ids and grades, "
                             f"got {len(product_ids)} and {len(grades)}")
        if any(k < 1 for k in ks):
            raise ValueError(f"cutoffs must be >= 1, got {list(ks)}")
        self.ks = tuple(ks)
        self.query_ids, self.product_ids = list(query_ids), list(product_ids)
        self.grades = np.asarray(grades, dtype=np.int64)
        queries, self.query = _codes(self.query_ids)
        _, self.product = _codes(self.product_ids)
        self.grouped = grouped = np.lexsort((self.product, self.query))
        same = (np.diff(self.query[grouped]) == 0) & (np.diff(self.product[grouped]) == 0)
        if same.any():
            q = queries[self.query[grouped[np.argmax(same)]]]
            raise ValueError(f"duplicate product in ranking for query {q}")
        self.n_queries = len(queries)
        lengths = np.bincount(self.query)
        # query code, 1-based rank and discount of each position of a ranking,
        # queries in sorted order
        self.seg = np.repeat(np.arange(self.n_queries, dtype=np.min_scalar_type(self.n_queries)),
                             lengths)
        self.rank = _positions(lengths) + 1
        self.discount = np.log2(self.rank + 1)
        self.top = [np.flatnonzero(self.rank <= k) for k in self.ks]
        self.top_seg = [self.seg[top] for top in self.top]
        self.n_rel = np.bincount(self.query[self.grades > 0], minlength=self.n_queries)
        self.judged = self.n_rel > 0
        # 1-based count of relevant items up to each relevant item, query by query
        self.hits = _positions(self.n_rel) + 1
        self.first_hit = (np.cumsum(self.n_rel) - self.n_rel)[self.judged]
        ideal = self.grades[np.lexsort((-self.grades, self.query))]
        self.ideal_dcg = self._dcg(ideal)[:-1, self.judged]

    def _dcg(self, grades: np.ndarray) -> np.ndarray:
        """DCG per query at each k and over the whole list, shape (len(ks) + 1, n_queries).

        A grade of 0 adds a term of exactly 0.0, which leaves each sum as it is.
        """
        terms = (np.ldexp(1.0, grades) - 1.0) / self.discount
        return np.array(
            [_sums(terms[top], seg, self.n_queries) for top, seg in zip(self.top, self.top_seg)]
            + [_sums(terms, self.seg, self.n_queries)]
        )

    def order(self, scores: Sequence[float]) -> np.ndarray:
        """Row indices in ranked order: by query, then score best first, then product id."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != self.query.shape:
            raise ValueError(f"expected {len(self.query)} scores, got shape {scores.shape}")
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise ValueError(f"score {scores[bad[0]]} of row {bad[0]} is not finite")
        # self.seg is the query of each row of self.grouped; both sorts are stable,
        # so rows of one query and one score keep grouped's product order
        by_score = np.argsort(-scores[self.grouped], kind="stable")
        return self.grouped[by_score[np.argsort(self.seg[by_score], kind="stable")]]

    def _ranked(self, scores: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The grades of the ranking by ``scores``, and which of them are relevant."""
        if not self.judged.any():
            raise ValueError("no query has a relevant item")
        ranked = self.grades[self.order(scores)]
        return ranked, ranked > 0

    def _map(self, rel: np.ndarray) -> float:
        """The MAP of a ranking whose relevant positions are ``rel``: the one average
        precision routine, which ``map`` and ``report`` share."""
        judged = self.judged
        ap = _sums(self.hits / self.rank[rel], self.seg[rel], self.n_queries)[judged]
        return _mean(ap / self.n_rel[judged])

    def map(self, scores: Sequence[float]) -> float:
        """The MAP of the ranking by ``scores``: ``report(scores).map``, bit for bit,
        with no other metric computed."""
        return self._map(self._ranked(scores)[1])

    def report(self, scores: Sequence[float]) -> MetricsReport:
        """MAP, MRR, P@k, NDCG@k and the average rank and DCG of relevant items
        of the ranking by ``scores``."""
        judged = self.judged
        ranked, rel = self._ranked(scores)
        rel_rank = self.rank[rel]
        dcg = self._dcg(ranked)[:, judged]
        ideal = self.ideal_dcg
        ndcg = np.where(ideal > 0, dcg[:-1] / np.where(ideal > 0, ideal, 1.0), 0.0)
        p_at = [_sums(rel[top], seg, self.n_queries)[judged] / k
                for k, top, seg in zip(self.ks, self.top, self.top_seg)]
        return MetricsReport(
            map=self._map(rel),
            mrr=_mean(1.0 / rel_rank[self.first_hit]),
            p_at={k: _mean(p) for k, p in zip(self.ks, p_at)},
            ndcg_at={k: _mean(row) for k, row in zip(self.ks, ndcg)},
            avg_rank=_mean(rel_rank),
            avg_dcg=_mean(dcg[-1]),
            n_queries=self.n_queries,
        )

    def write_trec_run(self, scores: Sequence[float], run_tag: str, sink: IO | str) -> int:
        """Write the ranking by ``scores`` as a trec_eval run file; returns the line count."""
        order = self.order(scores)
        ranked = np.asarray(scores, dtype=np.float64)[order].tolist()
        with open_text(sink, "w") as out:
            for i, rank, score in zip(order.tolist(), self.rank.tolist(), ranked):
                out.write(f"{self.query_ids[i]} Q0 {self.product_ids[i]} {rank} {score:.6f} "
                          f"{run_tag}\n")
        return len(order)


def rank_metrics(
    query_ids: Sequence[str],
    product_ids: Sequence[str],
    scores: Sequence[float],
    labels: Mapping[tuple[str, str], int],
    ks: Sequence[int] = DEFAULT_KS,
) -> MetricsReport:
    """The ``RankIndex.report`` of a run given as columns: row i scores
    product ``product_ids[i]`` for query ``query_ids[i]``.

    ``labels`` grades (query_id, product_id) pairs; a missing label counts as grade 0.
    """
    grades = [labels.get(pair, 0) for pair in zip(query_ids, product_ids)]
    return RankIndex(query_ids, product_ids, grades, ks).report(scores)


def write_qrels(labels: Mapping[tuple[str, str], int], sink: IO | str) -> int:
    """Emit graded judgments as 'query_id 0 product_id grade' lines."""
    n = 0
    with open_text(sink, "w") as out:
        for (q, p), grade in sorted(labels.items()):
            out.write(f"{q} 0 {p} {int(grade)}\n")
            n += 1
    return n
