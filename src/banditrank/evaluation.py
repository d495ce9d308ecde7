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


def _gain(grade: int) -> float:
    return float(2**grade - 1)


def _dcg(grades: Sequence[int], k: int) -> float:
    return sum(
        _gain(g) / np.log2(i + 2) for i, g in enumerate(grades[:k])
    )


def rank_metrics(
    runs: Sequence[RankedList],
    labels: Mapping[tuple[str, str], int],
    ks: Sequence[int] = (5, 10),
) -> MetricsReport:
    """Compute MAP, MRR, P@k, NDCG@k, average rank / DCG of relevant items.

    Missing labels count as grade 0.
    """
    if not runs:
        raise ValueError("runs must be non-empty")
    ap_vals, rr_vals, ndcg_vals = [], [], {k: [] for k in ks}
    p_vals = {k: [] for k in ks}
    rank_vals, dcg_vals = [], []
    for run in runs:
        grades = [labels.get((run.query_id, pid), 0) for pid, _ in run.items]
        rel = [g > 0 for g in grades]
        n_rel = sum(rel)
        for k in ks:
            p_vals[k].append(sum(rel[:k]) / k)
        if n_rel == 0:
            continue
        # average precision over relevant positions
        hits = 0
        precisions = []
        for i, r in enumerate(rel):
            if r:
                hits += 1
                precisions.append(hits / (i + 1))
        ap_vals.append(sum(precisions) / n_rel)
        rr_vals.append(1.0 / (rel.index(True) + 1))
        ideal = sorted(grades, reverse=True)
        for k in ks:
            idcg = _dcg(ideal, k)
            ndcg_vals[k].append(_dcg(grades, k) / idcg if idcg > 0 else 0.0)
        rank_vals.extend(i + 1 for i, r in enumerate(rel) if r)
        dcg_vals.append(_dcg(grades, len(grades)))
    if not ap_vals:
        raise ValueError("no query has a relevant item")
    return MetricsReport(
        map=float(np.mean(ap_vals)),
        mrr=float(np.mean(rr_vals)),
        p_at={k: float(np.mean(v)) for k, v in p_vals.items()},
        ndcg_at={k: float(np.mean(v)) for k, v in ndcg_vals.items()},
        avg_rank=float(np.mean(rank_vals)),
        avg_dcg=float(np.mean(dcg_vals)),
        n_queries=len(runs),
    )


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
