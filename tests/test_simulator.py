import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditrank.data import NRR_DECIMALS, BanditLog, SupervisedSet
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

    @pytest.mark.parametrize("text, names", [
        ("[1, 2]", "expected a JSON object"),
        ('{"config": {"n_querys": 3}, "seed": 1}', "n_querys"),
        ('{"config": {}}', "non-negative integer seed"),
        ('{"config": [], "seed": 1}', "expected a JSON object with a config object"),
        ('{"config": {}, "seed": -1}', "non-negative integer seed"),
        ('{"config": {}, "seed": 1.5}', "non-negative integer seed"),
        ('{"config": {}, "seed": "1"}', "non-negative integer seed"),
        ('{"config": {}, "seed": true}', "non-negative integer seed"),
    ], ids=["list", "unknown config key", "no seed", "config not an object", "negative seed",
            "float seed", "string seed", "boolean seed"])
    def test_a_file_that_holds_no_world_raises_value_error(self, text, names):
        with pytest.raises(ValueError, match="not a world") as caught:
            load_world(io.StringIO(text))
        assert names in str(caught.value)

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

    @pytest.mark.parametrize("top_fraction", [5.0, 1.0 + 1e-9, 0.0, -1.0, math.nan])
    def test_top_fraction_outside_unit_interval_rejected(self, top_fraction):
        w = generate_world(small_config(), seed=17)
        with pytest.raises(ValueError, match=r"top_fraction must lie in \(0, 1\]"):
            world_supervised(w, top_fraction=top_fraction)

    @pytest.mark.parametrize("query_ids, first", [
        ({"q0", "q9"}, "q9"), ({"zz"}, "zz"), ({"zz", "q3", "q10", "Q1"}, "Q1"),
    ], ids=["past the last query", "not a query id", "first in sorted order"])
    def test_queries_the_world_does_not_hold_rejected(self, query_ids, first):
        w = generate_world(SimConfig(3, 4, 2), seed=18)
        with pytest.raises(ValueError, match=f"query '{first}' is not one of the world's 3"):
            world_supervised(w, query_ids=query_ids)


# The simulator's id and table construction as first written, kept here as the
# reference its array construction must match bit for bit.

def reference_pair_ids(world):
    ppq = world.config.products_per_query
    return [(f"q{i // ppq}", f"p{i % ppq}") for i in range(world.n_pairs)]


def reference_log(world, policy, n_interactions, seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, world.n_pairs, size=n_interactions)
    pairs, rows = np.unique(idx, return_inverse=True)
    table = world.contexts[pairs]
    r = world.true_relevance[idx]
    P = batch_probabilities(policy.params, table)
    actions = (rng.random(n_interactions) < P[rows, 1]).astype(np.int64)
    propensities = P[rows, actions]
    clicks = rng.random(n_interactions) < r
    examines = rng.random(n_interactions) < world.config.deep_browse_prob
    deltas = np.where(actions == 1, ~clicks, examines & clicks).astype(np.int64)
    pair_ids = reference_pair_ids(world)
    return BanditLog([pair_ids[i][0] for i in idx], [pair_ids[i][1] for i in idx], table,
                     actions, propensities, deltas, {"source": "simulator", "seed": str(seed)},
                     context_rows=rows)


def reference_world_supervised(world, query_ids, top_fraction):
    ppq = world.config.products_per_query
    n_rel = max(1, int(round(top_fraction * ppq)))
    rel = world.true_relevance.reshape(world.config.n_queries, ppq)
    top = np.zeros(rel.shape, dtype=bool)
    np.put_along_axis(top, np.argsort(-rel, axis=1)[:, :n_rel], True, axis=1)
    nrr = np.where(top, np.round(rel / rel.max(axis=1, keepdims=True), NRR_DECIMALS), 0.0)
    queries = [qi for qi in range(world.config.n_queries)
               if query_ids is None or f"q{qi}" in query_ids]
    rows = (np.array(queries, dtype=np.int64)[:, None] * ppq + np.arange(ppq)).ravel()
    return SupervisedSet([f"q{qi}" for qi in queries for _ in range(ppq)],
                         [f"p{pi}" for pi in range(ppq)] * len(queries),
                         world.contexts[rows], nrr.ravel()[rows])


class TestSameBitsAsReference:
    @settings(max_examples=150, deadline=None)
    @given(n_queries=st.integers(1, 6), products=st.integers(1, 6), d=st.integers(1, 3),
           n=st.integers(1, 300), world_seed=st.integers(0, 2**32 - 1),
           log_seed=st.integers(0, 2**32 - 1), subset=st.sets(st.integers(0, 5)),
           top_fraction=st.floats(0.0, 1.0, exclude_min=True))
    @example(n_queries=1, products=1, d=1, n=10, world_seed=0, log_seed=1, subset={0},
             top_fraction=0.2)
    @example(n_queries=2, products=3, d=2, n=300, world_seed=5, log_seed=6, subset={1},
             top_fraction=1.0)
    def test_log_ids_and_supervised_rows(self, n_queries, products, d, n, world_seed, log_seed,
                                         subset, top_fraction):
        world = generate_world(SimConfig(n_queries, products, d), world_seed)
        log = simulate_log(world, world.logging_policy, n, log_seed)
        reference = reference_log(world, world.logging_policy, n, log_seed)
        assert log == reference
        # equality reads the records; the BLAS bits of every later pass read the table layout
        assert np.array_equal(log.context_table, reference.context_table)
        assert np.array_equal(log.context_rows, reference.context_rows)
        assert log.context_rows.dtype == reference.context_rows.dtype
        assert world.pair_ids() == reference_pair_ids(world)
        query_ids = {f"q{i}" for i in subset if i < n_queries}
        for chosen in (None, query_ids):
            assert (world_supervised(world, chosen, top_fraction)
                    == reference_world_supervised(world, chosen, top_fraction))

    def test_a_log_that_draws_every_pair_holds_the_world_table(self):
        world = generate_world(SimConfig(2, 3, 2), seed=5)
        log = simulate_log(world, world.logging_policy, 300, seed=6)
        assert np.array_equal(log.context_table, world.contexts)
        assert log == reference_log(world, world.logging_policy, 300, seed=6)

    def test_records_of_one_query_share_one_id_string(self):
        world = generate_world(small_config(), seed=20)
        log = simulate_log(world, world.logging_policy, 2000, seed=21)
        assert len({id(q) for q in log.query_ids}) == len(set(log.query_ids))
        assert len({id(p) for p in log.product_ids}) == len(set(log.product_ids))
