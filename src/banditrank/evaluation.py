"""Ranked-retrieval metrics and run-file output.

Conventions follow the trec_eval tool: an item is relevant when its grade is
positive; queries without any relevant item are excluded from the MAP / MRR /
NDCG averages but still count toward P@k; DCG uses exponential gain
(2^grade - 1) with a log2(rank + 1) discount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from banditrank.data import open_text

# Cut-offs k of P@k and NDCG@k: the default of ``rank_metrics``, the dev-set
# metrics of training checkpoints and the CLI's ``evaluate``.
DEFAULT_KS = (5, 10)

@dataclass(frozen=True)
class RankedList:
    """One query's ranking: (product_id, score) pairs, best first."""

    query_id: str
    items: tuple[tuple[str, float], ...]

    def __post_init__(self):
        ids = [pid for pid, _ in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate product in ranking for query {self.query_id}")
        scores = [s for _, s in self.items]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError(f"scores must be non-increasing for query {self.query_id}")


@dataclass(frozen=True)
class MetricsReport:
    map: float
    mrr: float
    p_at: dict[int, float]
    ndcg_at: dict[int, float]
    avg_rank: float
    avg_dcg: float
    n_queries: int

    def metric(self, name: str) -> float:
        """Look up a metric by name, e.g. 'MAP' or 'NDCG@10'."""
        name = name.upper()
        if name == "MAP":
            return self.map
        if name == "MRR":
            return self.mrr
        if name.startswith("P@"):
            return self.p_at[int(name[2:])]
        if name.startswith("NDCG@"):
            return self.ndcg_at[int(name[5:])]
        raise KeyError(name)

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


class QueryGrades:
    """The graded items of each query, for scoring any ranking of them.

    ``grades`` lists every item's grade, query by query, in segments of
    ``lengths`` items; ``report`` takes the same grades with each segment
    in rank order. What does not depend on the order (each item's query
    and rank position, the relevant count and the ideal DCG per query and
    per k) is computed here once.
    """

    def __init__(self, grades: np.ndarray, lengths: Sequence[int], ks: Sequence[int]):
        if any(k < 1 for k in ks):
            raise ValueError(f"cutoffs must be >= 1, got {list(ks)}")
        grades = np.asarray(grades, dtype=np.int64)
        self.ks = tuple(ks)
        self.n_queries = len(lengths)
        lengths = np.asarray(lengths, dtype=np.int64)
        self.seg = np.repeat(np.arange(self.n_queries), lengths)
        self.rank = _positions(lengths) + 1
        self.n_rel = np.bincount(self.seg[grades > 0], minlength=self.n_queries)
        self.judged = self.n_rel > 0
        # 1-based count of relevant items up to each relevant item, query by query
        self.hits = _positions(self.n_rel) + 1
        self.first_hit = (np.cumsum(self.n_rel) - self.n_rel)[self.judged]
        self.ideal_dcg = self._dcg(grades[np.lexsort((-grades, self.seg))])[:-1, self.judged]

    def _dcg(self, grades: np.ndarray) -> np.ndarray:
        """DCG per query at each k and over the whole list, shape (len(ks) + 1, n_queries)."""
        gained = grades != 0
        seg, rank = self.seg[gained], self.rank[gained]
        terms = (np.ldexp(1.0, grades[gained]) - 1.0) / np.log2(rank + 1)
        cuts = [rank <= k for k in self.ks]
        return np.array(
            [_sums(terms[cut], seg[cut], self.n_queries) for cut in cuts]
            + [_sums(terms, seg, self.n_queries)]
        )

    def report(self, ranked: np.ndarray) -> MetricsReport:
        """Metrics of one ranking: ``ranked`` holds the grades, each query's best first."""
        judged = self.judged
        if not judged.any():
            raise ValueError("no query has a relevant item")
        ranked = np.asarray(ranked, dtype=np.int64)
        if ranked.shape != self.seg.shape:
            raise ValueError(f"expected {len(self.seg)} ranked grades, got {ranked.shape}")
        rel = ranked > 0
        rel_seg, rel_rank = self.seg[rel], self.rank[rel]
        ap = _sums(self.hits / rel_rank, rel_seg, self.n_queries)[judged] / self.n_rel[judged]
        dcg = self._dcg(ranked)[:, judged]
        ideal = self.ideal_dcg
        ndcg = np.where(ideal > 0, dcg[:-1] / np.where(ideal > 0, ideal, 1.0), 0.0)
        hits_at = {k: np.bincount(rel_seg[rel_rank <= k], minlength=self.n_queries) for k in self.ks}
        return MetricsReport(
            map=float(np.mean(ap)),
            mrr=float(np.mean(1.0 / rel_rank[self.first_hit])),
            p_at={k: float(np.mean(hits / k)) for k, hits in hits_at.items()},
            ndcg_at={k: float(np.mean(row)) for k, row in zip(self.ks, ndcg)},
            avg_rank=float(np.mean(rel_rank)),
            avg_dcg=float(np.mean(dcg[-1])),
            n_queries=self.n_queries,
        )


def rank_metrics(
    runs: Sequence[RankedList],
    labels: Mapping[tuple[str, str], int],
    ks: Sequence[int] = DEFAULT_KS,
) -> MetricsReport:
    """Compute MAP, MRR, P@k, NDCG@k, average rank / DCG of relevant items.

    Missing labels count as grade 0.
    """
    if not runs:
        raise ValueError("runs must be non-empty")
    grades = np.array(
        [labels.get((run.query_id, pid), 0) for run in runs for pid, _ in run.items],
        dtype=np.int64,
    )
    return QueryGrades(grades, [len(run.items) for run in runs], ks).report(grades)


def write_trec_run(runs: Sequence[RankedList], run_tag: str, sink: IO | str) -> int:
    """Emit a trec_eval-consumable run file; returns the line count."""
    n = 0
    with open_text(sink, "w") as out:
        for run in runs:
            if not run.items:
                raise ValueError(f"empty ranking for query {run.query_id}")
            for rank, (pid, score) in enumerate(run.items, start=1):
                out.write(f"{run.query_id} Q0 {pid} {rank} {score:.6f} {run_tag}\n")
                n += 1
    return n


def write_qrels(labels: Mapping[tuple[str, str], int], sink: IO | str) -> int:
    """Emit graded judgments as 'query_id 0 product_id grade' lines."""
    n = 0
    with open_text(sink, "w") as out:
        for (q, p), grade in sorted(labels.items()):
            out.write(f"{q} 0 {p} {int(grade)}\n")
            n += 1
    return n
