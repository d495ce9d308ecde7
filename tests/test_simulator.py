import numpy as np
import pytest

from banditrank.data import BanditLog
from banditrank.policy import PolicyParams, batch_probabilities, init_params
from banditrank.simulator import (
    LoggingPolicy,
    SimConfig,
    SyntheticWorld,
    generate_world,
    load_world,
    save_world,
    simulate_log,
    true_risk,
    world_supervised,
)
import io


def small_config(**overrides):
    base = dict(n_queries=10, products_per_query=8, feature_dim=4)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    @pytest.mark.parametrize("bad", [dict(noise_scale=-0.1), dict(noise_scale=float("nan")),
                                     dict(temperature=0.0), dict(temperature=float("nan")),
                                     dict(noise_scale=float("inf")), dict(noise_scale=10**400),
                                     dict(temperature=10**400),
                                     dict(temperature=-float("inf"))])
    def test_bad_noise_or_temperature_rejected(self, bad):
        with pytest.raises(ValueError, match="bad noise/temperature"):
            small_config(**bad)

    @pytest.mark.parametrize("bad", [dict(n_queries=2.5), dict(products_per_query=True),
                                     dict(feature_dim=4.0)])
    def test_dimensions_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="dimensions must be integers"):
            small_config(**bad)

    def test_infinite_temperature_is_the_uniform_logger(self):
        w = generate_world(small_config(temperature=float("inf")), seed=3)
        assert np.all(batch_probabilities(w.logging_policy.params, w.contexts) == 0.5)


class TestGenerateWorld:
    def test_counts(self):
        w = generate_world(SimConfig(100, 100, 10), seed=0)
        assert w.contexts.shape == (10_000, 10)
        assert w.true_relevance.shape == (10_000,)

    def test_relevance_strictly_inside_unit_interval(self):
        w = generate_world(small_config(), seed=1)
        assert np.all((w.true_relevance > 0) & (w.true_relevance < 1))

    def test_deterministic(self):
        a = generate_world(small_config(), seed=5)
        b = generate_world(small_config(), seed=5)
        np.testing.assert_array_equal(a.contexts, b.contexts)
        assert a.logging_policy.params == b.logging_policy.params

    def test_zero_noise_ranks_like_truth(self):
        w = generate_world(small_config(noise_scale=0.0), seed=2)
        p1 = batch_probabilities(w.logging_policy.params, w.contexts)[:, 1]
        ppq = w.config.products_per_query
        for q in range(w.config.n_queries):
            sl = slice(q * ppq, (q + 1) * ppq)
            by_policy = np.argsort(-p1[sl])
            by_truth = np.argsort(-w.true_relevance[sl])
            np.testing.assert_array_equal(by_policy, by_truth)

    def test_save_load_roundtrip(self):
        w = generate_world(small_config(), seed=9)
        buf = io.StringIO()
        save_world(w, buf)
        buf.seek(0)
        w2 = load_world(buf)
        np.testing.assert_array_equal(w.contexts, w2.contexts)
        np.testing.assert_array_equal(w.true_relevance, w2.true_relevance)


class TestSimulateLog:
    def test_deterministic(self):
        w = generate_world(small_config(), seed=0)
        a = simulate_log(w, w.logging_policy, 500, seed=3)
        b = simulate_log(w, w.logging_policy, 500, seed=3)
        assert a == b

    def test_no_deep_browse_no_hidden_loss(self):
        w = generate_world(small_config(deep_browse_prob=0.0), seed=4)
        log = simulate_log(w, w.logging_policy, 2000, seed=5)
        hidden = log.actions == 0
        assert hidden.any()
        assert np.all(log.deltas[hidden] == 0)

    def test_log_passes_validation(self):
        w = generate_world(small_config(), seed=6)
        log = simulate_log(w, w.logging_policy, 1000, seed=7)
        # re-validating through the constructor exercises every invariant
        BanditLog(
            log.query_ids, log.product_ids, log.contexts,
            log.actions, log.propensities, log.deltas,
        )
        assert np.all((log.propensities > 0) & (log.propensities < 1))

    def test_always_show_always_click_gives_zero_loss(self):
        w = generate_world(small_config(), seed=8)
        # near-deterministic relevance and a near-always-show policy
        forced = SyntheticWorld(
            config=w.config, seed=w.seed, contexts=w.contexts,
            true_relevance=np.full(w.n_pairs, 1.0 - 1e-12),
            logging_policy=w.logging_policy,
        )
        wshow = np.zeros((2, w.config.feature_dim))
        show_policy = LoggingPolicy(
            PolicyParams("linear", [wshow, np.array([-30.0, 30.0])])
        )
        log = simulate_log(forced, show_policy, 2000, seed=9)
        assert np.all(log.actions == 1)
        assert np.all(log.deltas == 0)

    def test_bad_n(self):
        w = generate_world(small_config(), seed=1)
        with pytest.raises(ValueError):
            simulate_log(w, w.logging_policy, 0, seed=0)


class TestTrueRisk:
    def test_uniform_policy_closed_form(self):
        w = generate_world(small_config(deep_browse_prob=0.4), seed=3)
        flat = SyntheticWorld(
            config=w.config, seed=w.seed, contexts=w.contexts,
            true_relevance=np.full(w.n_pairs, 0.5),
            logging_policy=w.logging_policy,
        )
        uniform = PolicyParams(
            "linear", [np.zeros((2, w.config.feature_dim)), np.zeros(2)]
        )
        # 0.5 * 0.5 + 0.5 * 0.4 * 0.5
        assert true_risk(flat, uniform) == pytest.approx(0.35, abs=1e-12)

    def test_never_show_no_browse_zero_risk(self):
        w = generate_world(small_config(deep_browse_prob=0.0), seed=4)
        never = PolicyParams(
            "linear",
            [np.zeros((2, w.config.feature_dim)), np.array([40.0, -40.0])],
        )
        assert true_risk(w, never) == pytest.approx(0.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        from banditrank.estimators import ips

        w = generate_world(small_config(), seed=11)
        params = init_params("linear", 4, seed=12)
        estimates = [
            ips(simulate_log(w, w.logging_policy, 5000, seed=200 + k), params).estimate
            for k in range(40)
        ]
        mean = np.mean(estimates)
        se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
        assert abs(mean - true_risk(w, params)) < 4 * se


class TestWorldSupervised:
    def test_labels_sparse_and_graded(self):
        w = generate_world(small_config(), seed=14)
        labels = world_supervised(w, top_fraction=0.25).qrels()
        per_query = w.config.products_per_query
        n_rel = round(0.25 * per_query)
        for q in range(w.config.n_queries):
            grades = [labels[(f"q{q}", f"p{p}")] for p in range(per_query)]
            assert sum(g > 0 for g in grades) == n_rel
            assert max(grades) == 4  # the top product always grades 4

    def test_supervised_consistent_with_labels(self):
        w = generate_world(small_config(), seed=15)
        labels = world_supervised(w, top_fraction=0.25).qrels()
        records = world_supervised(w, top_fraction=0.25)
        assert len(records) == w.n_pairs
        for r in records:
            assert labels[(r.query_id, r.product_id)] == r.label

    def test_query_subset(self):
        w = generate_world(small_config(), seed=16)
        records = world_supervised(w, query_ids={"q0", "q3"})
        assert {r.query_id for r in records} == {"q0", "q3"}
