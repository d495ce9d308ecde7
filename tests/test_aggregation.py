import io
import logging
import math
import random
import re
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditrank.aggregation import (
    RelevanceEntry,
    RelevanceTable,
    aggregate_feedback,
    build_supervised,
    export_relevance_table,
)
from banditrank.data import LogValidationError, SupervisedSet, grade, write_supervised
from oracles import brute_aggregate

logger = logging.getLogger("banditrank.aggregation")


# A frozen copy of the per-pair aggregation that the column-wise table
# replaced: one RelevanceEntry per pair in a dict sorted by pair, dict lookups
# while sampling. TestPerPairCopy holds the columns to it bit for bit. It
# stays with its one user, this file: not in reference.py, which holds the
# oracles that several test files share, nor in oracles.py, which the benchmark
# imports and which holds brute_aggregate alone.
def per_pair_aggregate(impressions, positives, visibility_threshold):
    visibility = Counter(impressions)
    pos_counts = Counter(positives)
    kept = {pair: vis for pair, vis in visibility.items() if vis >= visibility_threshold}
    rr = {pair: pos_counts.get(pair, 0) / vis for pair, vis in kept.items()}
    max_rr = {}
    for (q, _), r in rr.items():
        max_rr[q] = max(max_rr.get(q, 0.0), r)
    entries = {}
    for pair in sorted(kept):
        q = pair[0]
        nrr = rr[pair] / max_rr[q] if max_rr[q] > 0 else 0.0
        entries[pair] = RelevanceEntry(rr=rr[pair], nrr=nrr, label=grade(nrr))
    return entries


def per_pair_build(entries, shown_products, contexts, negative_ratio, seed):
    rng = np.random.default_rng(seed)
    by_query = {}
    for q, p in sorted(entries):
        by_query.setdefault(q, []).append(p)
    pairs = []
    for q, products in by_query.items():
        positives = [p for p in products if entries[(q, p)].label > 0]
        if not positives:
            continue
        candidates = sorted(
            p for p in shown_products.get(q, set())
            if (q, p) in entries and entries[(q, p)].label == 0
        )
        n_neg = min(int(math.floor(negative_ratio * len(positives))), len(candidates))
        if n_neg == 0 and not candidates:
            logger.warning("query %s has positives but no negative candidates", q)
        sampled = (
            [candidates[i] for i in rng.choice(len(candidates), size=n_neg, replace=False)]
            if n_neg
            else []
        )
        pairs += [(q, p) for p in positives + sorted(sampled)]
    return per_pair_set(entries, pairs, [contexts[pair] for pair in pairs] or np.zeros((0, 0)))


def per_pair_set(entries, pairs, contexts):
    return SupervisedSet([q for q, _ in pairs], [p for _, p in pairs], contexts,
                         [entries[pair].nrr for pair in pairs])


def per_pair_export(entries, sink):
    pairs = sorted(entries)
    return write_supervised(per_pair_set(entries, pairs, np.zeros((len(pairs), 0))), sink)


@contextmanager
def warnings_logged():
    """The messages that ``banditrank.aggregation`` logs inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def stream(pairs_with_counts):
    out = []
    for pair, count in pairs_with_counts.items():
        out.extend([pair] * count)
    return out


class TestGradedLabel:
    """``data.grade``, the graded label ``aggregate_feedback`` gives each pair."""

    @pytest.mark.parametrize(
        "nrr,label",
        [(0.0, 0), (0.01, 1), (0.25, 1), (0.26, 2), (0.5, 2), (0.75, 3), (0.9, 4), (1.0, 4)],
    )
    def test_values(self, nrr, label):
        assert grade(nrr) == label

    def test_float_noise_at_boundary(self):
        assert grade(0.25000000000001) == 1
        assert grade(0.25 + 1e-9) == 2

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert grade(lo) <= grade(hi)


class TestAggregateFeedback:
    def test_worked_example(self):
        # one pair seen 100x clicked 20x (rr 0.2), query max rr 0.4
        impressions = stream({("q", "a"): 100, ("q", "b"): 100})
        positives = stream({("q", "a"): 20, ("q", "b"): 40})
        table = aggregate_feedback(impressions, positives, 50)
        assert table[("q", "a")].rr == pytest.approx(0.2)
        assert table[("q", "a")].nrr == pytest.approx(0.5)
        assert table[("q", "b")].nrr == 1.0
        assert table[("q", "b")].label == 4

    def test_visibility_filter(self):
        impressions = stream({("q", "a"): 49, ("q", "b"): 50})
        table = aggregate_feedback(impressions, [], 50)
        assert ("q", "a") not in table
        assert ("q", "b") in table

    def test_query_with_no_positives(self):
        impressions = stream({("q", "a"): 60, ("q", "b"): 70})
        table = aggregate_feedback(impressions, [], 50)
        assert all(table[k].nrr == 0.0 and table[k].label == 0 for k in table.entries)

    def test_export_rejects_an_id_that_tsv_cannot_hold(self):
        table = aggregate_feedback(stream({("q1", "a"): 50, ("q2", "b\r"): 50}), [], 50)
        buf = io.StringIO()
        with pytest.raises(ValueError, match=r"^row 1: id 'b\\r' holds a tab or a line end"):
            export_relevance_table(table, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("threshold", [0, -1, float("nan")])
    def test_visibility_threshold_below_one_or_nan(self, threshold):
        # NaN compares false with everything: a check written `threshold < 1` let it
        # through, and no pair's visibility reached it, so the table came out empty
        with pytest.raises(ValueError, match=r"^visibility_threshold must be >= 1, got "):
            aggregate_feedback(stream({("q", "a"): 60}), [], threshold)

    def test_positives_exceed_visibility(self):
        with pytest.raises(ValueError):
            aggregate_feedback(stream({("q", "a"): 60}), stream({("q", "a"): 61}), 50)

    def test_max_nrr_is_exactly_one(self):
        rng = np.random.default_rng(0)
        impressions, positives = [], []
        for q in range(5):
            for p in range(6):
                vis = int(rng.integers(50, 200))
                pos = int(rng.integers(0, vis))
                impressions.extend([(f"q{q}", f"p{p}")] * vis)
                positives.extend([(f"q{q}", f"p{p}")] * pos)
        table = aggregate_feedback(impressions, positives, 50)
        for q in {k[0] for k in table.entries}:
            nrrs = [table[k].nrr for k in table.entries if k[0] == q]
            assert max(nrrs) == 1.0
            assert all(0.0 <= v <= 1.0 for v in nrrs)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        impressions, positives = [], []
        for q in range(8):
            for p in range(10):
                vis = int(rng.integers(0, 120))
                pos = int(rng.integers(0, vis + 1))
                impressions.extend([(f"q{q}", f"p{p}")] * vis)
                positives.extend([(f"q{q}", f"p{p}")] * pos)
        table = aggregate_feedback(impressions, positives, 50)
        expected = brute_aggregate(impressions, positives, 50)
        assert set(table.entries) == set(expected)
        for key, (rr, nrr, label) in expected.items():
            assert table[key].rr == rr
            assert table[key].nrr == nrr
            assert table[key].label == label


def toy_table():
    impressions, positives = [], []
    for p in range(12):
        impressions.extend([("q", f"p{p:02d}")] * 100)
    positives.extend([("q", "p00")] * 50)  # label 4
    positives.extend([("q", "p01")] * 20)  # nrr 0.4 -> label 2
    return aggregate_feedback(impressions, positives, 50)


class TestBuildSupervised:
    def contexts(self, table):
        return {key: np.array([float(hash(key) % 7)]) for key in table.entries}

    def test_counts(self):
        table = toy_table()
        shown = {"q": {f"p{p:02d}" for p in range(12)}}
        recs = build_supervised(table, shown, self.contexts(table), negative_ratio=2.0, seed=3)
        positives = [r for r in recs if r.label > 0]
        negatives = [r for r in recs if r.label == 0]
        assert len(positives) == 2
        assert len(negatives) == 4

    @pytest.mark.parametrize("negative_ratio", [0.0, -1.0, float("nan"), float("inf")])
    def test_negative_ratio_must_be_positive(self, negative_ratio):
        table = toy_table()
        with pytest.raises(ValueError, match="negative_ratio must be positive"):
            build_supervised(table, {"q": {"p02"}}, self.contexts(table), negative_ratio)

    def test_no_candidates_warns(self, caplog):
        table = toy_table()
        shown = {"q": {"p00", "p01"}}  # only the positives were shown
        with caplog.at_level(logging.WARNING, logger="banditrank.aggregation"):
            recs = build_supervised(table, shown, self.contexts(table), 2.0, seed=1)
        assert all(r.label > 0 for r in recs)
        assert any("no negative candidates" in m for m in caplog.messages)

    @pytest.mark.parametrize("negative_ratio", [1e308, 1e200])
    def test_a_ratio_whose_product_overflows_takes_every_candidate(self, negative_ratio):
        table = toy_table()  # two positives and ten candidates
        shown = {"q": {f"p{p:02d}" for p in range(12)}}
        recs = build_supervised(table, shown, self.contexts(table), negative_ratio, seed=3)
        assert recs == build_supervised(table, shown, self.contexts(table), 5.0, seed=3)
        assert len(recs) == 12

    def test_queries_and_positives_in_sorted_order(self):
        keys = [("q2", "b"), ("q1", "z"), ("q2", "a"), ("q1", "c")]
        query_ids, product_ids = zip(*sorted(keys))
        table = RelevanceTable(query_ids, product_ids, [1.0] * len(keys))
        recs = build_supervised(table, {}, {key: np.zeros(1) for key in keys}, 1.0)
        assert [(r.query_id, r.product_id) for r in recs] == sorted(keys)

    def test_deterministic(self):
        table = toy_table()
        shown = {"q": {f"p{p:02d}" for p in range(12)}}
        ctx = self.contexts(table)
        a = build_supervised(table, shown, ctx, 2.0, seed=5)
        b = build_supervised(table, shown, ctx, 2.0, seed=5)
        assert a == b

    def test_negatives_respect_visibility_filter(self):
        impressions = stream({("q", "a"): 100, ("q", "b"): 100, ("q", "c"): 10})
        positives = stream({("q", "a"): 30})
        table = aggregate_feedback(impressions, positives, 50)
        shown = {"q": {"a", "b", "c"}}
        ctx = {k: np.zeros(1) for k in [("q", "a"), ("q", "b"), ("q", "c")]}
        recs = build_supervised(table, shown, ctx, 4.0, seed=0)
        assert {"c"} & {r.product_id for r in recs} == set()


class TestRelevanceTableColumns:
    def test_each_query_normalized_by_its_top_rate(self):
        table = RelevanceTable(["q1", "q1", "q2", "q3"], ["a", "b", "a", "a"],
                               [0.2, 0.4, 0.0, 0.5])
        assert table.nrr.tolist() == [0.5, 1.0, 0.0, 1.0]
        assert table.labels.tolist() == [2, 4, 0, 4]
        assert table.query_starts.tolist() == [0, 2, 3]
        assert table[("q1", "a")] == RelevanceEntry(rr=0.2, nrr=0.5, label=2)
        assert ("q2", "a") in table and ("q2", "b") not in table and len(table) == 4

    def test_empty(self):
        table = RelevanceTable([], [], [])
        assert len(table) == 0 and table.entries == {} and table.labels.dtype == np.int64
        assert len(build_supervised(table, {}, {}, 1.0)) == 0

    def test_columns_are_read_only(self):
        table = RelevanceTable(["q"], ["a"], [0.5])
        for column in (table.rr, table.nrr, table.labels, table.query_starts):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    @pytest.mark.parametrize("query_ids,product_ids", [
        (["q", "q"], ["b", "a"]), (["q2", "q1"], ["a", "a"]), (["q", "q"], ["a", "a"]),
    ])
    def test_pairs_out_of_order_or_repeated(self, query_ids, product_ids):
        with pytest.raises(ValueError, match=r"^row 1: pair .* must be sorted and distinct$"):
            RelevanceTable(query_ids, product_ids, [0.5, 0.5])

    @pytest.mark.parametrize("rate", [-0.5, 1.5, float("nan")])
    def test_rate_outside_the_unit_interval(self, rate):
        with pytest.raises(LogValidationError,
                           match=rf"^row 1: rr must lie in \[0, 1\], got {re.escape(repr(rate))}$"):
            RelevanceTable(["q", "q"], ["a", "b"], [0.5, rate])

    def test_columns_of_different_lengths(self):
        with pytest.raises(LogValidationError, match=r"^product_ids has length 1, expected 2$"):
            RelevanceTable(["q", "q"], ["a"], [0.5, 0.5])

    @pytest.mark.parametrize("query_ids,row,bad", [([1, 2], 0, "1"), (["q", 1], 1, "1")])
    def test_an_id_that_is_not_a_string(self, query_ids, row, bad):
        with pytest.raises(LogValidationError,
                           match=rf"^row {row}: query_id must be a string, got {bad}$"):
            RelevanceTable(query_ids, ["a", "a"], [0.5, 0.5])
        with pytest.raises(LogValidationError,
                           match=rf"^row {row}: product_id must be a string, got {bad}$"):
            RelevanceTable(["q1", "q2"], query_ids, [0.5, 0.5])

    def test_equality_by_columns(self):
        columns = (["q1", "q1", "q2"], ["a", "b", "a"], [0.2, 0.4, 0.0])
        table, same = RelevanceTable(*columns), RelevanceTable(*columns)
        assert table == same and table is not same
        assert table.entries and table == same and same == table  # entries read on one side
        assert same.entries and table == same  # and on both
        assert table != RelevanceTable(*columns[:2], [0.2, 0.4, 0.1])
        assert table != RelevanceTable(["q1", "q1", "q3"], *columns[1:])
        assert table != RelevanceTable([], [], [])


QUERIES, PRODUCTS = ["q0", "q1", "q2"], ["a", "b", "c", "d", "e"]
PAIRS = [(q, p) for q in QUERIES for p in PRODUCTS]


class TestPerPairCopy:
    """The column-wise table, its sampling and its export hold the bits of the
    frozen per-pair copy at the top of this file."""

    contexts = {pair: np.array([float(i), float(len(pair[1]))]) for i, pair in enumerate(PAIRS)}

    @settings(max_examples=300, deadline=None)
    @given(
        # (impressions, positives) of each pair, few of each, so that rates
        # tie; a pair with no impressions is not in the streams
        counts=st.lists(st.tuples(st.sampled_from([0, 0, 1, 2, 3, 4, 6]),
                                  st.sampled_from([0, 0, 1, 2, 3, 6])),
                        min_size=len(PAIRS), max_size=len(PAIRS)),
        threshold=st.integers(1, 4),
        # each query's shown products: none at all, every one, or some
        shown=st.lists(st.one_of(st.none(), st.just(set(PRODUCTS)),
                                 st.sets(st.sampled_from(PRODUCTS))),
                       min_size=len(QUERIES), max_size=len(QUERIES)),
        negative_ratio=st.sampled_from([0.4, 1.0, 1.5, 2.0, 4.0, 50.0]),
        seed=st.integers(0, 2**32 - 1),
        order=st.randoms(use_true_random=False),
    )
    @example(counts=[(0, 0)] * len(PAIRS), threshold=1, shown=[None] * len(QUERIES),
             negative_ratio=1.0, seed=0, order=random.Random(0))  # an empty table
    def test_same_bits(self, counts, threshold, shown, negative_ratio, seed, order):
        impressions = stream({pair: seen for pair, (seen, _) in zip(PAIRS, counts)})
        positives = stream({pair: min(seen, hit) for pair, (seen, hit) in zip(PAIRS, counts)})
        order.shuffle(impressions)
        order.shuffle(positives)
        shown = {q: products for q, products in zip(QUERIES, shown) if products is not None}

        entries = per_pair_aggregate(impressions, positives, threshold)
        table = aggregate_feedback(impressions, positives, threshold)
        assert list(zip(table.query_ids, table.product_ids)) == list(entries)
        for name in ("rr", "nrr"):
            assert ([x.hex() for x in getattr(table, name).tolist()]
                    == [getattr(e, name).hex() for e in entries.values()])
        assert table.labels.tolist() == [e.label for e in entries.values()]
        assert table.entries == entries

        with warnings_logged() as warned:
            rows = build_supervised(table, shown, self.contexts, negative_ratio, seed)
        with warnings_logged() as expected_warnings:
            expected = per_pair_build(entries, shown, self.contexts, negative_ratio, seed)
        assert rows == expected and rows.nrr.tobytes() == expected.nrr.tobytes()
        assert warned == expected_warnings

        tsv, expected_tsv = io.StringIO(), io.StringIO()
        assert export_relevance_table(table, tsv) == per_pair_export(entries, expected_tsv)
        assert tsv.getvalue().encode() == expected_tsv.getvalue().encode()
