import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditrank.data import MIN_PROPENSITY, BanditLog
from banditrank.estimators import (
    empirical_average,
    importance_weights,
    ips,
    lagrangian_gradient,
    lagrangian_risk,
    logged_probabilities,
    snips,
    snips_denominator,
)
from banditrank.policy import PolicyParams, batch_probabilities, init_params
from banditrank.simulator import SimConfig, generate_world, simulate_log
from banditrank.training import Checkpoint, TrainHistory, evaluate_policy, write_history
from conftest import identity_policy, random_log, supervised
from oracles import (
    brute_ea,
    brute_ips,
    brute_lagrangian,
    brute_mean_weight,
    brute_snips,
    finite_difference_gradient,
    flatten,
    rows,
    unflatten,
)


def logit(p):
    return math.log(p / (1 - p))


def worked_example_log():
    """Three records engineered so importance weights come out (1.6, 0.8, 1.0).

    The policy's show-probability is sigmoid of the single feature, so the
    context value logit(p) realizes any target probability p.
    """
    return BanditLog(
        query_ids=["q1", "q2", "q3"],
        product_ids=["p1", "p2", "p3"],
        contexts=np.array([[logit(0.8)], [logit(0.4)], [logit(0.5)]]),
        actions=np.array([1, 1, 1]),
        propensities=np.array([0.5, 0.5, 0.5]),
        deltas=np.array([0, 1, 0]),
    )


def record_prob_fn(params):
    def fn(r):
        return batch_probabilities(params, r.context)[0][r.action]

    return fn


class TestWorkedExample:
    def setup_method(self):
        self.log = worked_example_log()
        self.params = identity_policy(1)

    def test_weights(self):
        np.testing.assert_allclose(
            importance_weights(self.log, self.params), [1.6, 0.8, 1.0], rtol=1e-12
        )

    def test_snips(self):
        # sum(delta * w) / sum(w) = 0.8 / 3.4
        assert snips(self.log, self.params).estimate == pytest.approx(
            0.8 / 3.4, rel=1e-12
        )
        assert snips(self.log, self.params).estimate == pytest.approx(0.235294, abs=1e-6)

    def test_ips(self):
        assert ips(self.log, self.params).estimate == pytest.approx(0.8 / 3, rel=1e-12)

    def test_denominator(self):
        assert snips_denominator(self.log, self.params) == pytest.approx(
            3.4 / 3, rel=1e-12
        )

    def test_lagrangian_half(self):
        val = lagrangian_risk(self.log, self.params, 0.5).estimate
        assert val == pytest.approx(0.8 / 3 - 0.5 * 3.4 / 3, rel=1e-12)
        assert val == pytest.approx(-0.3, abs=1e-6)


class TestSelfNormalization:
    def test_logger_recovers_mean_delta_exactly(self):
        log = random_log(200, 4, seed=0)
        params = init_params("linear", 4, seed=1)
        # rebuild the log with propensities exactly equal to the policy's probs
        P = batch_probabilities(params, log.contexts)
        props = P[np.arange(len(log)), log.actions]
        log2 = BanditLog(
            log.query_ids, log.product_ids, log.contexts, log.actions, props, log.deltas
        )
        assert snips(log2, params).estimate == log2.deltas.mean()
        assert ips(log2, params).estimate == log2.deltas.mean()
        assert snips_denominator(log2, params) == 1.0

    def test_propensity_scaling(self):
        log = random_log(100, 3, seed=2)
        params = init_params("linear", 3, seed=3)
        # scale by a power of two so the float division is exact
        scaled = BanditLog(
            log.query_ids,
            log.product_ids,
            log.contexts,
            log.actions,
            log.propensities * 0.5,
            log.deltas,
        )
        assert snips(scaled, params).estimate == snips(log, params).estimate
        assert ips(scaled, params).estimate == 2.0 * ips(log, params).estimate

    def test_all_zero_delta(self):
        log = random_log(50, 3, seed=4)
        zeroed = BanditLog(
            log.query_ids,
            log.product_ids,
            log.contexts,
            log.actions,
            log.propensities,
            np.zeros(len(log), dtype=np.int64),
        )
        params = init_params("linear", 3, seed=5)
        assert snips(zeroed, params).estimate == 0.0
        assert ips(zeroed, params).estimate == 0.0
        assert empirical_average(zeroed, params).estimate == 0.0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_estimators(self, seed):
        log = random_log(np.random.default_rng(seed).integers(1, 21), 3, seed)
        params = init_params("mlp", 3, hidden=4, seed=seed + 100)
        records = rows(log)
        fn = record_prob_fn(params)
        assert snips(log, params).estimate == pytest.approx(
            brute_snips(records, fn), abs=1e-12
        )
        assert ips(log, params).estimate == pytest.approx(
            brute_ips(records, fn), abs=1e-12
        )
        assert empirical_average(log, params).estimate == pytest.approx(
            brute_ea(records, fn), abs=1e-12
        )
        assert snips_denominator(log, params) == pytest.approx(
            brute_mean_weight(records, fn), abs=1e-12
        )

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_lagrangian(self, lam):
        log = random_log(15, 2, seed=8)
        params = init_params("linear", 2, seed=9)
        assert lagrangian_risk(log, params, lam).estimate == pytest.approx(
            brute_lagrangian(rows(log), record_prob_fn(params), lam), abs=1e-12
        )


@st.composite
def logs_and_policies(draw, propensities=st.floats(0.01, 1.0)):
    """A random log of 1 to 40 records with 3 features, and a random linear or MLP policy."""
    n = draw(st.integers(1, 40))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    log = BanditLog(
        [f"q{i % 4}" for i in range(n)], [f"p{i % 5}" for i in range(n)],
        np.array(column(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))).reshape(n, 3),
        column(st.integers(0, 1)), column(propensities), column(st.integers(0, 1)),
    )
    kind = draw(st.sampled_from(["linear", "mlp"]))
    return log, init_params(kind, 3, hidden=2, seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def table_logs_and_policies(draw):
    """A log of 1 to 40 records given as a context table of 1 to 3 features, with
    repeated rows and -0.0 and 0.0 twins, and each record's row of it; the same log
    given one context row per record; and a random linear or MLP policy."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    value = st.sampled_from([0.0, -0.0, 0.5, -2.5]) | st.floats(-30.0, 30.0)
    pool = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=6))
    pool += [[-x if x == 0 else x for x in row] for row in pool]  # each zero's sign flipped
    table = np.array(pool, dtype=np.float64)
    rows = np.array(draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n)))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    columns = ([f"q{i % 4}" for i in range(n)], [f"p{i % 5}" for i in range(n)])
    rest = (column(st.integers(0, 1)), column(st.floats(0.01, 1.0)), column(st.integers(0, 1)))
    kind = draw(st.sampled_from(["linear", "mlp"]))
    params = init_params(kind, d, hidden=draw(st.sampled_from([2, 16, 64])),
                         seed=draw(st.integers(0, 2**32 - 1)))
    return (BanditLog(*columns, table, *rest, context_rows=rows),
            BanditLog(*columns, table[rows], *rest), params)


class TestContextTable:
    """The estimators give the same on a log's table as on one context row per record.

    OpenBLAS picks its matrix-product kernel by the sizes of the product, and
    the kernels round differently, so a row's logits can differ in the last
    bits between a small batch and a large one: up to 14 ulps of a probability
    over 4,000 random MLP logs of up to 2,000 records. Linear policies of up to
    3 features and logs of the workloads' size agree bit for bit.
    """

    @settings(max_examples=80, deadline=None)
    @given(table_logs_and_policies(), st.floats(0.0, 1.0))
    def test_table_and_rows_match_one_row_per_record(self, logs, lam):
        log, flat, params = logs
        found = [logged_probabilities(log, params), lagrangian_risk(log, params, lam),
                 snips(log, params)]
        expected = [logged_probabilities(flat, params), lagrangian_risk(flat, params, lam),
                    snips(flat, params)]
        if params.kind == "linear":
            assert np.array_equal(found[0], expected[0]) and found[1:] == expected[1:]
        else:
            np.testing.assert_array_max_ulp(found[0], expected[0], maxulp=64)
            (S, objective), (S_flat, objective_flat) = [
                (r.mean_importance_weight, r.estimate) for r in (found[1], expected[1])]
            assert (S, objective) == pytest.approx((S_flat, objective_flat), rel=1e-12, abs=1e-15)
            assert found[2].estimate == pytest.approx(expected[2].estimate, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("kind, hidden", [("linear", 0), ("mlp", 16), ("mlp", 64)])
    def test_a_workload_sized_log_matches_bit_for_bit(self, kind, hidden):
        # the search workload's log: 30,000 records over 4,991 distinct pairs
        world = generate_world(SimConfig(100, 50, 10), seed=7)
        log = simulate_log(world, world.logging_policy, 30_000, seed=8)
        params = init_params(kind, 10, hidden=hidden, seed=3)
        P = batch_probabilities(params, log.contexts)
        assert len(log.context_table) == 4991
        assert np.array_equal(logged_probabilities(log, params), P[np.arange(len(log)), log.actions])


def equal_weights_log(n, propensity):
    """n records logged at one propensity, and a zero-weight policy: every w_i is 0.5 / p."""
    log = BanditLog([f"q{i}" for i in range(n)], ["p"] * n, np.ones((n, 2)), [1] * n,
                    [propensity] * n, [i % 2 for i in range(n)])
    return log, PolicyParams("linear", [np.zeros((2, 2)), np.zeros(2)])


def lagrangian_at_half(log, params):
    return lagrangian_risk(log, params, 0.5)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_snips_bounded(self, seed):
        log = random_log(80, 4, seed)
        params = init_params("mlp", 4, hidden=3, seed=seed)
        est = snips(log, params).estimate
        assert log.deltas.min() <= est <= log.deltas.max()

    @pytest.mark.parametrize("seed", range(5))
    def test_lagrangian_identity(self, seed):
        log = random_log(60, 3, seed)
        params = init_params("linear", 3, seed=seed + 50)
        lam = np.random.default_rng(seed).uniform(0, 1)
        lhs = lagrangian_risk(log, params, lam).estimate
        rhs = ips(log, params).estimate - lam * snips_denominator(log, params)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_report_fields(self):
        log = random_log(40, 3, seed=13)
        params = init_params("linear", 3, seed=14)
        rep = snips(log, params)
        assert rep.n == 40
        assert rep.mean_importance_weight > 0
        assert 0 < rep.effective_sample_size <= rep.n

    @pytest.mark.parametrize("estimator", [snips, ips, empirical_average])
    def test_a_policy_that_gives_no_logged_action_a_probability_is_rejected(self, estimator):
        # the logged action 1 has logit -2000: its probability is 0, and so is S
        log = BanditLog(["q"], ["p"], np.array([[1.0]]), [1], [0.5], [1])
        params = PolicyParams("linear", [np.array([[0.0], [-2000.0]]), np.zeros(2)])
        assert snips_denominator(log, params) == 0.0
        with pytest.raises(ValueError, match="every importance weight is 0"):
            estimator(log, params)

    def test_a_policy_that_gives_no_logged_action_a_probability_reports_zeros(self, tmp_path):
        log = BanditLog(["q"], ["p"], np.array([[1.0]]), [1], [0.5], [1])
        params = PolicyParams("linear", [np.array([[0.0], [-2000.0]]), np.zeros(2)])
        report = lagrangian_risk(log, params, 0.5)
        assert (report.estimate, report.mean_importance_weight,
                report.effective_sample_size) == (0.0, 0.0, 0.0)
        # train-crm's history.tsv numbers: S and the objective at the run's lambda
        dev = supervised([("q", "p", np.array([1.0]), 4, 1.0),
                          ("q", "p2", np.array([0.0]), 0, 0.0)])
        checkpoint = Checkpoint(records_seen=1, dev_map=evaluate_policy(params, dev).map,
                                params=params)

        def numbers(p):
            report = lagrangian_risk(log, p, 0.5)
            return {"objective": report.estimate, "S": report.mean_importance_weight}

        write_history(TrainHistory(checkpoints=(checkpoint,)), numbers, str(tmp_path / "h.tsv"))
        header, row = (tmp_path / "h.tsv").read_text().splitlines()
        assert header.split("\t")[:3] == ["records_seen", "objective", "S"]
        assert row.split("\t")[:3] == ["1", "0.0", "0.0"]

    def test_empty_log_errors(self):
        empty = BanditLog([], [], np.zeros((0, 0)), [], [], [])
        with pytest.raises(ValueError):
            snips(empty, init_params("linear", 1, seed=0))

    @settings(max_examples=60, deadline=None)
    @given(logs_and_policies())
    def test_snips_lies_in_the_unit_interval(self, log_and_policy):
        assert 0.0 <= snips(*log_and_policy).estimate <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(logs_and_policies(), st.floats(0.01, 1.0))
    def test_snips_ignores_a_common_propensity_scale(self, log_and_policy, scale):
        log, params = log_and_policy
        # propensities >= 0.01 scaled by >= 0.01 stay within [MIN_PROPENSITY, 1]
        scaled = BanditLog(log.query_ids, log.product_ids, log.contexts, log.actions,
                           log.propensities * scale, log.deltas)
        assert snips(scaled, params).estimate == pytest.approx(
            snips(log, params).estimate, rel=1e-12, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(logs_and_policies(), st.floats(0.0, 1.0))
    def test_lagrangian_is_ips_less_lambda_times_s(self, log_and_policy, lam):
        log, params = log_and_policy
        rhs = ips(log, params).estimate - lam * snips_denominator(log, params)
        lhs = lagrangian_risk(log, params, lam).estimate
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(logs_and_policies(), st.floats(0.0, 1.0))
    def test_lagrangian_reports_the_s_and_ess_of_snips(self, log_and_policy, lam):
        lagrangian, ratio = lagrangian_risk(*log_and_policy, lam), snips(*log_and_policy)
        assert (lagrangian.n, lagrangian.mean_importance_weight.hex(),
                lagrangian.effective_sample_size.hex()) == (
            ratio.n, ratio.mean_importance_weight.hex(), ratio.effective_sample_size.hex())

    @settings(max_examples=60, deadline=None)
    @given(logs_and_policies())
    def test_ess_lies_in_zero_to_n(self, log_and_policy):
        for estimator in (snips, ips, empirical_average, lagrangian_at_half):
            report = estimator(*log_and_policy)
            assert 0 < report.effective_sample_size <= report.n == len(log_and_policy[0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.floats(0.01, 1.0))
    @example(199, 0.5 / 7.7)  # (sum w)^2 / sum w^2 rounds to 199.00000000000017 here
    def test_equal_weights_give_an_ess_of_n(self, n, propensity):
        for estimator in (snips, ips, empirical_average, lagrangian_at_half):
            report = estimator(*equal_weights_log(n, propensity))
            assert report.effective_sample_size == n

    def test_one_vanishing_weight_gives_an_ess_of_1(self):
        # w = 3.8e-174, whose square underflows to 0
        log = BanditLog(["q"], ["p"], np.ones((1, 1)), [1], [0.5], [1])
        params = PolicyParams("linear", [np.array([[0.0], [-400.0]]), np.zeros(2)])
        for estimator in (snips, ips, empirical_average, lagrangian_at_half):
            report = estimator(log, params)
            assert 0 < report.mean_importance_weight < 1e-170
            assert report.effective_sample_size == 1.0

    @settings(max_examples=30, deadline=None)
    @given(logs_and_policies(propensities=st.just(MIN_PROPENSITY)), st.floats(0.0, 1.0))
    def test_min_propensity_logs_give_finite_estimates(self, log_and_policy, lam):
        log, params = log_and_policy
        estimates = [estimator(log, params).estimate for estimator in (snips, ips, empirical_average)]
        estimates += [snips_denominator(log, params), lagrangian_risk(log, params, lam).estimate]
        assert np.all(np.isfinite(estimates))


def log_gradient(log, params, lam, rows=slice(None)):
    """lagrangian_gradient over the records ``rows`` of a log."""
    return lagrangian_gradient(
        log.contexts[rows], log.actions[rows], log.propensities[rows],
        log.deltas[rows], params, lam,
    )


class TestLagrangianGradient:
    def test_zero_coefficient(self):
        log = random_log(1, 2, seed=20)
        params = init_params("linear", 2, seed=21)
        lam = float(log.deltas[0])
        np.testing.assert_array_equal(log_gradient(log, params, lam), 0.0)

    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 3)])
    def test_finite_differences(self, kind, hidden):
        log = random_log(8, 3, seed=22)
        params = init_params(kind, 3, hidden=hidden, seed=23)
        lam = 0.4
        records = rows(log)

        def risk_of(flat):
            p = unflatten(params, np.array(flat))
            return brute_lagrangian(records, record_prob_fn(p), lam)

        numeric = np.array(
            finite_difference_gradient(risk_of, flatten(params).tolist(), h=1e-5)
        )
        analytic = log_gradient(log, params, lam)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    def test_batch_gradient_is_mean_of_per_record(self):
        log = random_log(6, 2, seed=30)
        params = init_params("linear", 2, seed=31)
        batch = log_gradient(log, params, 0.2)
        per_record = [log_gradient(log, params, 0.2, slice(i, i + 1)) for i in range(len(log))]
        np.testing.assert_allclose(batch, np.mean(per_record, axis=0), rtol=1e-12)

    @pytest.mark.parametrize("column, length", [
        ("propensities", 1), ("propensities", 6), ("deltas", 1), ("deltas", 4),
    ])
    def test_a_column_of_another_length_than_the_batch_fails(self, column, length):
        X = np.arange(10.0).reshape(5, 2) / 10
        columns = {"propensities": np.full(5, 0.5), "deltas": np.ones(5)}
        columns[column] = columns[column][:1].repeat(length)
        with pytest.raises(ValueError, match=re.escape(
                f"{column} of shape ({length},) for a batch of 5 rows")):
            lagrangian_gradient(X, np.ones(5, dtype=np.int64), columns["propensities"],
                                columns["deltas"], init_params("linear", 2, seed=0), 0.5)

    def test_actions_of_another_length_than_the_batch_fail(self):
        X = np.arange(10.0).reshape(5, 2) / 10
        with pytest.raises(ValueError, match=re.escape("actions of shape (3,) for a batch of 5")):
            lagrangian_gradient(X, np.ones(3, dtype=np.int64), np.full(5, 0.5), np.ones(5),
                                init_params("linear", 2, seed=0), 0.5)

    def test_columns_that_agree_but_not_with_the_batch_fail(self):
        X = np.arange(10.0).reshape(5, 2) / 10
        with pytest.raises(ValueError, match=re.escape("classes of shape (3,) for a batch of 5")):
            lagrangian_gradient(X, [1, 1, 1], [0.5] * 3, [1.0] * 3,
                                init_params("linear", 2, seed=0), 0.5)
