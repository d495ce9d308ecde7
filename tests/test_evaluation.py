import dataclasses
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banditrank.evaluation import DEFAULT_KS, RankIndex, rank_metrics, write_qrels
from banditrank.policy import PolicyParams, logit_margin
from banditrank.training import evaluate_policy
from conftest import supervised
from oracles import (
    loop_rank_metrics,
    trec_eval_map,
    trec_eval_mrr,
    trec_eval_ndcg_at,
    trec_eval_p_at,
)

FIXTURES = Path(__file__).parent / "fixtures"


def make_run(query_id, grades, prefix="p"):
    """A run, as (query ids, product ids, scores) columns, whose scores rank
    the given grades in list order, and its labels."""
    pids = [f"{prefix}{i}" for i in range(len(grades))]
    scores = [float(len(grades) - i) for i in range(len(grades))]
    labels = dict(zip(((query_id, pid) for pid in pids), grades))
    return ([query_id] * len(grades), pids, scores), labels


def joined(*runs):
    """One run holding the rows of several."""
    return tuple(sum(columns, []) for columns in zip(*runs))


class TestRankMetrics:
    def test_ideal_order_ndcg_one(self):
        run, labels = make_run("q", [3, 2, 0])
        rep = rank_metrics(*run, labels, ks=[3])
        assert rep.ndcg_at[3] == 1.0

    def test_hand_derived_ndcg(self):
        # grades (0, 3): DCG@2 = 7/log2(3), ideal = 7 -> 0.630930
        run, labels = make_run("q", [0, 3])
        rep = rank_metrics(*run, labels, ks=[2])
        expected = (7.0 / math.log2(3)) / 7.0
        assert rep.ndcg_at[2] == pytest.approx(expected, abs=1e-12)
        assert rep.ndcg_at[2] == pytest.approx(0.630930, abs=1e-6)

    def test_mrr_first_relevant_rank_two(self):
        runs, labels = [], {}
        for q in ("q1", "q2"):
            run, lab = make_run(q, [0, 1, 0])
            runs.append(run)
            labels.update(lab)
        rep = rank_metrics(*joined(*runs), labels, ks=[3])
        assert rep.mrr == 0.5

    def test_map_simple(self):
        # relevant at positions 1 and 3: AP = (1/1 + 2/3) / 2
        run, labels = make_run("q", [1, 0, 2])
        rep = rank_metrics(*run, labels, ks=[3])
        assert rep.map == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-12)

    def test_p_at_k(self):
        run, labels = make_run("q", [1, 0, 1, 0, 0])
        rep = rank_metrics(*run, labels, ks=[2, 5])
        assert rep.p_at[2] == 0.5
        assert rep.p_at[5] == pytest.approx(0.4)

    def test_no_relevant_query_skipped_for_map(self):
        r1, l1 = make_run("q1", [1, 0])
        r2, l2 = make_run("q2", [0, 0], prefix="x")
        rep = rank_metrics(*joined(r1, r2), {**l1, **l2}, ks=[2])
        assert rep.map == 1.0            # q2 skipped
        assert rep.p_at[2] == pytest.approx(0.5)  # q2 skipped for P@k too

    def test_missing_label_is_grade_zero(self):
        rep = rank_metrics(["q", "q"], ["a", "b"], [2.0, 1.0], {("q", "b"): 1}, ks=[2])
        assert rep.mrr == 0.5

    def test_equal_grade_swap_invariance(self):
        labels = {("q", "a"): 2, ("q", "b"): 2}
        m1 = rank_metrics(["q", "q"], ["a", "b"], [2.0, 1.0], labels, ks=[2])
        m2 = rank_metrics(["q", "q"], ["b", "a"], [2.0, 1.0], labels, ks=[2])
        assert m1 == m2

    def test_empty_runs_error(self):
        with pytest.raises(ValueError, match="no records to rank"):
            rank_metrics([], [], [], {}, ks=[5])

    def test_cutoff_below_one_error(self):
        run, labels = make_run("q", [1, 0])
        with pytest.raises(ValueError, match="cutoffs"):
            rank_metrics(*run, labels, ks=[0])

    def test_duplicate_product_rejected(self):
        with pytest.raises(ValueError, match="duplicate product in ranking for query q"):
            rank_metrics(["q", "q"], ["a", "a"], [2.0, 1.0], {})

    def test_run_out_of_score_order_is_ranked(self):
        # relevant at positions 1 and 3 once ranked: AP = (1/1 + 2/3) / 2
        run, labels = make_run("q", [1, 0, 2])
        shuffled = tuple([column[i] for i in (2, 0, 1)] for column in run)
        rep = rank_metrics(*shuffled, labels, ks=[3])
        assert rep == rank_metrics(*run, labels, ks=[3])
        assert rep.map == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, bad):
        run, labels = make_run("q", [1, 0])
        with pytest.raises(ValueError, match="row 1 is not finite"):
            rank_metrics(run[0], run[1], [1.0, bad], labels)


# Integer weights on integer contexts make every logit margin an exact
# integer, x0 - 2 x1, so the brute-force ranking sees the library's ties.
MARGIN_POLICY = PolicyParams("linear", [np.array([[0.0, 0.0], [1.0, -2.0]]), np.zeros(2)])


def brute_margin(x):
    return x[0] - 2 * x[1]


@st.composite
def dev_sets(draw):
    """(query_id, product_id, context, label, nrr) rows of ragged queries (one
    item upwards), queries with no relevant item and, from a 5 x 5 context
    grid, many equal margins that product ids break. Queries of more than 8
    graded items tell a left-to-right sum from numpy's pairwise one."""
    records = []
    for q in range(draw(st.integers(1, 5))):
        pids = draw(st.lists(st.text("abz", min_size=1, max_size=3), min_size=1, max_size=12,
                             unique=True))
        for pid in pids:
            label = draw(st.sampled_from([0, 0, 0, 1, 2, 4]))
            x = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
            records.append((f"q{q}", pid, np.array(x, float), label, label / 4))
    assume(any(label > 0 for _, _, _, label, _ in records))
    return draw(st.permutations(records))


def wide_dev_set(seed, n_queries=300):
    """Rows like those ``dev_sets`` draws, of more queries than 8-bit query codes
    count: ragged lengths of 1 to 12 items, every seventh query with no relevant
    item, and margins from a 5 x 5 context grid, so many tie."""
    rng = np.random.default_rng(seed)
    records = []
    for q in range(n_queries):
        n = 1 if q % 10 == 0 else int(rng.integers(1, 13))
        labels = [0] * n if q % 7 == 0 else rng.choice([0, 0, 0, 1, 2, 4], n).tolist()
        for i, label in enumerate(labels):
            x = rng.integers(-2, 3, 2).astype(float)
            records.append((f"q{q}", f"{rng.integers(1000)}-{i}", x, label, label / 4))
    return [records[i] for i in rng.permutation(len(records))]


def brute_runs(records):
    """Each query's product ids ranked by margin, best first, then by product id;
    queries in sorted order."""
    by_query = {}
    for q, pid, x, _, _ in records:
        by_query.setdefault(q, []).append((-brute_margin(x), pid))
    return [(q, [pid for _, pid in sorted(items)]) for q, items in sorted(by_query.items())]


class TestMetricsCore:
    @settings(max_examples=200, deadline=None)
    @given(dev_sets())
    def test_index_matches_adapter_loop_reference_and_oracles(self, records):
        rows = supervised(records)
        report = evaluate_policy(MARGIN_POLICY, rows)
        labels = {(q, pid): label for q, pid, _, label, _ in records}
        margins = [brute_margin(x) for _, _, x, _, _ in records]
        assert report == rank_metrics(rows.query_ids, rows.product_ids, margins, labels,
                                      DEFAULT_KS)
        runs = brute_runs(records)
        assert dataclasses.asdict(report) == loop_rank_metrics(runs, labels, DEFAULT_KS)
        run = dict(runs)
        assert report.map == pytest.approx(trec_eval_map(run, labels), abs=1e-12)
        assert report.mrr == pytest.approx(trec_eval_mrr(run, labels), abs=1e-12)
        for k in DEFAULT_KS:
            assert report.ndcg_at[k] == pytest.approx(trec_eval_ndcg_at(run, labels, k), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(dev_sets(), st.randoms(use_true_random=False))
    def test_report_ignores_record_order(self, records, random):
        shuffled = list(records)
        random.shuffle(shuffled)
        assert (evaluate_policy(MARGIN_POLICY, supervised(shuffled))
                == evaluate_policy(MARGIN_POLICY, supervised(records)))

    @settings(max_examples=200, deadline=None)
    @given(dev_sets())
    def test_order_and_run_file_match_the_three_key_sort(self, records):
        rows = supervised(records)
        index = RankIndex(rows.query_ids, rows.product_ids, rows.labels)
        scores = logit_margin(MARGIN_POLICY, rows.contexts)
        expected = np.lexsort((index.product, -scores, index.query))
        np.testing.assert_array_equal(index.order(scores), expected)
        lines, rank = [], {}
        for i in expected.tolist():
            q = rows.query_ids[i]
            rank[q] = rank.get(q, 0) + 1
            lines.append(f"{q} Q0 {rows.product_ids[i]} {rank[q]} {scores[i]:.6f} tag\n")
        out = io.StringIO()
        assert index.write_trec_run(scores, "tag", out) == len(rows)
        assert out.getvalue() == "".join(lines)

    @pytest.mark.parametrize("seed", range(4))
    def test_more_queries_than_8_bit_codes_count(self, seed):
        records = wide_dev_set(seed)
        rows = supervised(records)
        ks = (1, 5, 13)  # 13 is above every query's length
        index = RankIndex(rows.query_ids, rows.product_ids, rows.labels, ks)
        assert index.seg.dtype == np.uint16
        scores = logit_margin(MARGIN_POLICY, rows.contexts)
        np.testing.assert_array_equal(index.order(scores),
                                      np.lexsort((index.product, -scores, index.query)))
        labels = {(q, pid): label for q, pid, _, label, _ in records}
        assert (dataclasses.asdict(index.report(scores))
                == loop_rank_metrics(brute_runs(records), labels, ks))

    @settings(max_examples=200, deadline=None)
    @given(dev_sets(), st.lists(st.integers(1, 15), min_size=1, max_size=3, unique=True))
    def test_map_alone_is_the_report_and_loop_map(self, records, ks):
        # the MAP a training checkpoint takes; ks above a query's length included
        rows = supervised(records)
        index = RankIndex(rows.query_ids, rows.product_ids, rows.labels, ks)
        scores = logit_margin(MARGIN_POLICY, rows.contexts)
        labels = {(q, pid): label for q, pid, _, label, _ in records}
        expected = loop_rank_metrics(brute_runs(records), labels, ks)["map"]
        assert index.map(scores) == index.report(scores).map == expected

    def test_map_without_a_relevant_item_fails_like_the_report(self):
        run, _ = make_run("q", [0, 0])
        index = RankIndex(run[0], run[1], [0, 0])
        for score in (index.map, index.report):
            with pytest.raises(ValueError, match="no query has a relevant item"):
                score(run[2])

    def test_duplicate_pair_error(self):
        rec = ("q", "a", np.zeros(2), 4, 1.0)
        with pytest.raises(ValueError, match="duplicate product"):
            evaluate_policy(MARGIN_POLICY, supervised([rec, rec]))


def avg_rank(run, labels):
    return rank_metrics(*run, labels).avg_rank


def avg_dcg(run, labels):
    return rank_metrics(*run, labels).avg_dcg


class TestAverages:
    def test_rank_best_case(self):
        run, labels = make_run("q", [1, 0])
        assert avg_rank(run, labels) == 1.0

    def test_rank_mean_over_items(self):
        r1, l1 = make_run("q1", [0, 1, 0, 0])
        r2, l2 = make_run("q2", [0, 0, 0, 1])
        assert avg_rank(joined(r1, r2), {**l1, **l2}) == 3.0

    def test_rank_reversal_identity(self):
        grades = [0, 0, 1, 0, 0, 0]
        run, labels = make_run("q", grades)
        rev, rev_labels = make_run("q", grades[::-1])
        L = len(grades)
        r = avg_rank(run, labels)
        assert avg_rank(rev, rev_labels) == L + 1 - r

    def test_dcg_single_item(self):
        run, labels = make_run("q", [1])
        assert avg_dcg(run, labels) == 1.0

    def test_dcg_rank_three(self):
        run, labels = make_run("q", [0, 0, 1])
        assert avg_dcg(run, labels) == pytest.approx(0.5)

    def test_dcg_improves_with_rank(self):
        worse, wl = make_run("q", [0, 0, 1])
        better, bl = make_run("q", [0, 1, 0])
        assert avg_dcg(better, bl) > avg_dcg(worse, wl)

    def test_no_relevant_error(self):
        run, labels = make_run("q", [0, 0])
        with pytest.raises(ValueError):
            avg_rank(run, labels)


class TestTrecRun:
    def test_line_format(self):
        query_ids, product_ids, scores = make_run("q7", [1, 0, 1])[0]
        buf = io.StringIO()
        index = RankIndex(query_ids, product_ids, [1, 0, 1])
        assert index.write_trec_run(scores, "tagA", buf) == 3
        lines = buf.getvalue().splitlines()
        assert lines[0] == "q7 Q0 p0 1 3.000000 tagA"
        assert lines[2] == "q7 Q0 p2 3 1.000000 tagA"

    def test_qrels_format(self):
        buf = io.StringIO()
        assert write_qrels({("q1", "a"): 3, ("q0", "b"): 0}, buf) == 2
        assert buf.getvalue().splitlines() == ["q0 0 b 0", "q1 0 a 3"]


class TestUnjudgedQueryFixture:
    """A trec_eval run and qrels pair in which u02 has only grade-0 judgments
    and u04 none: both are left out of every average, P@k included."""

    def test_matches_the_oracles(self):
        run, columns = {}, ([], [], [])
        for line in (FIXTURES / "fixture_unjudged_run.txt").read_text().splitlines():
            q, _, d, _, score, _ = line.split()
            run.setdefault(q, []).append(d)
            for column, value in zip(columns, (q, d, float(score))):
                column.append(value)
        qrels = {}
        for line in (FIXTURES / "fixture_unjudged_qrels.txt").read_text().splitlines():
            q, _, d, grade = line.split()
            qrels[(q, d)] = int(grade)
        rep = rank_metrics(*columns, qrels, ks=[5, 10])
        assert rep.n_queries == 5
        assert dataclasses.asdict(rep) == loop_rank_metrics(sorted(run.items()), qrels, [5, 10])
        assert rep.map == pytest.approx(trec_eval_map(run, qrels), abs=1e-12)
        assert rep.mrr == pytest.approx(trec_eval_mrr(run, qrels), abs=1e-12)
        for k in (5, 10):
            assert rep.p_at[k] == pytest.approx(trec_eval_p_at(run, qrels, k), abs=1e-12)
            assert rep.ndcg_at[k] == pytest.approx(trec_eval_ndcg_at(run, qrels, k), abs=1e-12)
