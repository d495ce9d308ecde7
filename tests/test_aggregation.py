import io
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditrank.aggregation import (
    RelevanceEntry,
    RelevanceTable,
    aggregate_feedback,
    build_supervised,
    export_relevance_table,
)
from banditrank.data import grade
from oracles import brute_aggregate


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

    def test_queries_and_positives_in_sorted_order(self):
        top = RelevanceEntry(rr=1.0, nrr=1.0, label=4)
        keys = [("q2", "b"), ("q1", "z"), ("q2", "a"), ("q1", "c")]
        table = RelevanceTable({key: top for key in keys})
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
