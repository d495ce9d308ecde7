"""The brute-force aggregation oracle, which the benchmark imports as well as the tests.

The benchmark imports this file in every run, compiled from source, so its size
moves the benchmark's ``peak_rss_mb``: it holds ``brute_aggregate`` and nothing
else. Every other oracle lives in ``reference.py``.
"""

import math


def brute_aggregate(impressions, positives, threshold):
    """Visibility filter, relevance rates, per-query normalization, grades."""
    vis = {}
    for pair in impressions:
        vis[pair] = vis.get(pair, 0) + 1
    pos = {}
    for pair in positives:
        pos[pair] = pos.get(pair, 0) + 1
    out = {}
    kept = {pair: v for pair, v in vis.items() if v >= threshold}
    by_query = {}
    for (q, p), v in kept.items():
        by_query.setdefault(q, []).append((p, pos.get((q, p), 0) / v))
    for q, items in by_query.items():
        max_rr = max(rr for _, rr in items)
        for p, rr in items:
            nrr = rr / max_rr if max_rr > 0 else 0.0
            out[(q, p)] = (rr, nrr, math.ceil(4 * round(nrr, 12)))
    return out
