import math

import numpy as np
import pytest

from banditrank.data import BanditLog
from banditrank.estimators import (
    empirical_average,
    importance_weights,
    ips,
    lagrangian_gradient,
    lagrangian_risk,
    snips,
    snips_denominator,
)
from banditrank.policy import PolicyParams, batch_probabilities, init_params
from conftest import identity_policy, random_log
from oracles import (
    brute_ea,
    brute_ips,
    brute_lagrangian,
    brute_mean_weight,
    brute_snips,
    finite_difference_gradient,
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
        val = lagrangian_risk(self.log, self.params, 0.5)
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
        records = list(log)
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
        assert lagrangian_risk(log, params, lam) == pytest.approx(
            brute_lagrangian(list(log), record_prob_fn(params), lam), abs=1e-12
        )


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
        lhs = lagrangian_risk(log, params, lam)
        rhs = ips(log, params).estimate - lam * snips_denominator(log, params)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_report_fields(self):
        log = random_log(40, 3, seed=13)
        params = init_params("linear", 3, seed=14)
        rep = snips(log, params)
        assert rep.n == 40
        assert rep.mean_importance_weight > 0
        assert 0 < rep.effective_sample_size <= rep.n

    def test_empty_log_errors(self):
        empty = BanditLog.from_records([])
        with pytest.raises(ValueError):
            snips(empty, init_params("linear", 1, seed=0))


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
        grads = log_gradient(log, params, lam)
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 3)])
    def test_finite_differences(self, kind, hidden):
        log = random_log(8, 3, seed=22)
        params = init_params(kind, 3, hidden=hidden, seed=23)
        lam = 0.4
        records = list(log)

        def risk_of(flat):
            p = params.unflatten(np.array(flat))
            return brute_lagrangian(records, record_prob_fn(p), lam)

        numeric = np.array(
            finite_difference_gradient(risk_of, params.flatten().tolist(), h=1e-5)
        )
        analytic = np.concatenate(
            [g.ravel() for g in log_gradient(log, params, lam)]
        )
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    def test_batch_gradient_is_mean_of_per_record(self):
        log = random_log(6, 2, seed=30)
        params = init_params("linear", 2, seed=31)
        batch = log_gradient(log, params, 0.2)
        per_record = [log_gradient(log, params, 0.2, slice(i, i + 1)) for i in range(len(log))]
        for i, g in enumerate(batch):
            mean = np.mean([p[i] for p in per_record], axis=0)
            np.testing.assert_allclose(g, mean, rtol=1e-12)
