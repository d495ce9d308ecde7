import io
import math

import numpy as np
import pytest

from banditrank.evaluation import (
    RankedList,
    rank_metrics,
    write_qrels,
    write_trec_run,
)


def make_run(query_id, grades, prefix="p"):
    """A ranked list realizing the given grades in list order."""
    items = tuple(
        (f"{prefix}{i}", float(len(grades) - i)) for i in range(len(grades))
    )
    labels = {(query_id, f"{prefix}{i}"): g for i, g in enumerate(grades)}
    return RankedList(query_id=query_id, items=items), labels


class TestRankedList:
    def test_duplicate_product_rejected(self):
        with pytest.raises(ValueError):
            RankedList("q", (("a", 2.0), ("a", 1.0)))

    def test_increasing_scores_rejected(self):
        with pytest.raises(ValueError):
            RankedList("q", (("a", 1.0), ("b", 2.0)))


class TestRankMetrics:
    def test_ideal_order_ndcg_one(self):
        run, labels = make_run("q", [3, 2, 0])
        rep = rank_metrics([run], labels, ks=[3])
        assert rep.ndcg_at[3] == 1.0

    def test_hand_derived_ndcg(self):
        # grades (0, 3): DCG@2 = 7/log2(3), ideal = 7 -> 0.630930
        run, labels = make_run("q", [0, 3])
        rep = rank_metrics([run], labels, ks=[2])
        expected = (7.0 / math.log2(3)) / 7.0
        assert rep.ndcg_at[2] == pytest.approx(expected, abs=1e-12)
        assert rep.ndcg_at[2] == pytest.approx(0.630930, abs=1e-6)

    def test_mrr_first_relevant_rank_two(self):
        runs, labels = [], {}
        for q in ("q1", "q2"):
            run, lab = make_run(q, [0, 1, 0])
            runs.append(run)
            labels.update(lab)
        rep = rank_metrics(runs, labels, ks=[3])
        assert rep.mrr == 0.5

    def test_map_simple(self):
        # relevant at positions 1 and 3: AP = (1/1 + 2/3) / 2
        run, labels = make_run("q", [1, 0, 2])
        rep = rank_metrics([run], labels, ks=[3])
        assert rep.map == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-12)

    def test_p_at_k(self):
        run, labels = make_run("q", [1, 0, 1, 0, 0])
        rep = rank_metrics([run], labels, ks=[2, 5])
        assert rep.p_at[2] == 0.5
        assert rep.p_at[5] == pytest.approx(0.4)

    def test_no_relevant_query_skipped_for_map(self):
        r1, l1 = make_run("q1", [1, 0])
        r2, l2 = make_run("q2", [0, 0], prefix="x")
        rep = rank_metrics([r1, r2], {**l1, **l2}, ks=[2])
        assert rep.map == 1.0            # q2 skipped
        assert rep.p_at[2] == pytest.approx(0.25)  # q2 counted

    def test_missing_label_is_grade_zero(self):
        run = RankedList("q", (("a", 2.0), ("b", 1.0)))
        rep = rank_metrics([run], {("q", "b"): 1}, ks=[2])
        assert rep.mrr == 0.5

    def test_equal_grade_swap_invariance(self):
        r1 = RankedList("q", (("a", 2.0), ("b", 1.0)))
        r2 = RankedList("q", (("b", 2.0), ("a", 1.0)))
        labels = {("q", "a"): 2, ("q", "b"): 2}
        m1 = rank_metrics([r1], labels, ks=[2])
        m2 = rank_metrics([r2], labels, ks=[2])
        assert m1 == m2

    def test_empty_runs_error(self):
        with pytest.raises(ValueError):
            rank_metrics([], {}, ks=[5])


def avg_rank(runs, labels):
    return rank_metrics(runs, labels).avg_rank


def avg_dcg(runs, labels):
    return rank_metrics(runs, labels).avg_dcg


class TestAverages:
    def test_rank_best_case(self):
        run, labels = make_run("q", [1, 0])
        assert avg_rank([run], labels) == 1.0

    def test_rank_mean_over_items(self):
        r1, l1 = make_run("q1", [0, 1, 0, 0])
        r2, l2 = make_run("q2", [0, 0, 0, 1])
        assert avg_rank([r1, r2], {**l1, **l2}) == 3.0

    def test_rank_reversal_identity(self):
        grades = [0, 0, 1, 0, 0, 0]
        run, labels = make_run("q", grades)
        rev, rev_labels = make_run("q", grades[::-1])
        L = len(grades)
        r = avg_rank([run], labels)
        assert avg_rank([rev], rev_labels) == L + 1 - r

    def test_dcg_single_item(self):
        run, labels = make_run("q", [1])
        assert avg_dcg([run], labels) == 1.0

    def test_dcg_rank_three(self):
        run, labels = make_run("q", [0, 0, 1])
        assert avg_dcg([run], labels) == pytest.approx(0.5)

    def test_dcg_improves_with_rank(self):
        worse, wl = make_run("q", [0, 0, 1])
        better, bl = make_run("q", [0, 1, 0])
        assert avg_dcg([better], bl) > avg_dcg([worse], wl)

    def test_no_relevant_error(self):
        run, labels = make_run("q", [0, 0])
        with pytest.raises(ValueError):
            avg_rank([run], labels)


class TestTrecRun:
    def test_line_format(self):
        run, _ = make_run("q7", [1, 0, 1])
        buf = io.StringIO()
        assert write_trec_run([run], "tagA", buf) == 3
        lines = buf.getvalue().splitlines()
        assert lines[0] == "q7 Q0 p0 1 3.000000 tagA"
        assert lines[2] == "q7 Q0 p2 3 1.000000 tagA"

    def test_empty_list_error(self):
        with pytest.raises(ValueError):
            write_trec_run([RankedList("q", ())], "t", io.StringIO())

    def test_qrels_format(self):
        buf = io.StringIO()
        assert write_qrels({("q1", "a"): 3, ("q0", "b"): 0}, buf) == 2
        assert buf.getvalue().splitlines() == ["q0 0 b 0", "q1 0 a 3"]
