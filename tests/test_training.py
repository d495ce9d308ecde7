import dataclasses

import numpy as np
import pytest

from banditrank.data import SupervisedRecord
from banditrank.estimators import lagrangian_gradient, lagrangian_risk
from banditrank.policy import init_params
from banditrank.simulator import SimConfig, generate_world, simulate_log, true_risk, world_supervised
from banditrank.training import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate_policy,
    lambda_search,
    next_lambda,
    train_crm,
    train_full_info,
)
from conftest import random_log


def cfg(**overrides):
    base = dict(batch_size=16, epochs=2, learning_rate=1e-2, seed=0, lam=0.3, eval_every=100)
    base.update(overrides)
    return TrainConfig(**base)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = init_params("linear", 3, seed=0)
        state = AdamState.zeros_like(p)
        grads = [np.zeros_like(a) for a in p.arrays]
        p2, state2 = adam_step(p, grads, state, cfg())
        assert p2 == p
        assert state2.t == 1

    def test_constant_gradient_step_size_limit(self):
        # with a constant gradient the bias-corrected update tends to
        # -lr * sign(g) per step
        p = init_params("linear", 2, seed=1)
        config = cfg(learning_rate=0.05)
        state = AdamState.zeros_like(p)
        g = [np.full_like(a, 2.0) for a in p.arrays]
        for _ in range(300):
            p, state = adam_step(p, g, state, config)
        p2, _ = adam_step(p, g, state, config)
        step = p2.arrays[0] - p.arrays[0]
        np.testing.assert_allclose(step, -config.learning_rate, rtol=1e-6)

    def test_deterministic(self):
        p = init_params("mlp", 3, hidden=2, seed=2)
        g = [np.ones_like(a) * 0.1 for a in p.arrays]
        a1, _ = adam_step(p, g, AdamState.zeros_like(p), cfg())
        a2, _ = adam_step(p, g, AdamState.zeros_like(p), cfg())
        assert a1 == a2

    def test_shape_mismatch(self):
        p = init_params("linear", 3, seed=0)
        bad = [np.zeros((2, 4)), np.zeros(2)]
        with pytest.raises(ValueError):
            adam_step(p, bad, AdamState.zeros_like(p), cfg())


def toy_dev(d=4, n_queries=3):
    rng = np.random.default_rng(0)
    records = []
    for q in range(n_queries):
        for p in range(6):
            label = 4 if p == 0 else (2 if p == 1 else 0)
            nrr = {4: 1.0, 2: 0.5, 0: 0.0}[label]
            records.append(
                SupervisedRecord(f"q{q}", f"p{p}", rng.standard_normal(d), label, nrr)
            )
    return records


class TestTrainCrm:
    def test_single_step_count(self):
        log = random_log(10, 4, seed=1)
        dev = toy_dev()
        p0 = init_params("linear", 4, seed=0)
        config = cfg(batch_size=10, epochs=1, eval_every=10)
        params, history = train_crm(log, dev, p0, config)
        # exactly one optimizer step: result equals a hand-rolled single update
        rng = np.random.default_rng(config.seed)
        order = rng.permutation(10)
        g = lagrangian_gradient(
            log.contexts[order], log.actions[order], log.propensities[order],
            log.deltas[order], p0, config.lam,
        )
        expected, _ = adam_step(p0, g, AdamState.zeros_like(p0), config)
        assert history.checkpoints[-1].params == expected

    def test_checkpoints_strictly_increasing(self):
        log = random_log(64, 3, seed=2)
        params, history = train_crm(
            log, toy_dev(3), init_params("linear", 3, seed=1), cfg(epochs=3, eval_every=50)
        )
        seen = [c.records_seen for c in history.checkpoints]
        assert seen == sorted(set(seen))
        assert len(seen) >= 2

    def test_deterministic_history(self):
        log = random_log(80, 3, seed=3)
        dev = toy_dev(3)
        p0 = init_params("linear", 3, seed=4)
        _, h1 = train_crm(log, dev, p0, cfg())
        _, h2 = train_crm(log, dev, p0, cfg())
        assert len(h1.checkpoints) == len(h2.checkpoints)
        for a, b in zip(h1.checkpoints, h2.checkpoints):
            assert a.params == b.params
            assert a.objective == b.objective

    def test_model_selection_is_best_dev(self):
        log = random_log(200, 3, seed=5)
        dev = toy_dev(3)
        p0 = init_params("linear", 3, seed=6)
        config = cfg(epochs=4, eval_every=64)
        params, history = train_crm(log, dev, p0, config)
        best = max(c.dev_metrics.map for c in history.checkpoints)
        chosen = [c for c in history.checkpoints if c.params == params]
        assert chosen and chosen[0].dev_metrics.map == best

    def test_single_batch_overfit(self):
        log = random_log(16, 4, seed=7)
        dev = toy_dev(4)
        p0 = init_params("linear", 4, seed=8)
        config = cfg(batch_size=16, epochs=500, eval_every=10**9, lam=0.5)
        params, history = train_crm(log, dev, p0, config)
        initial = lagrangian_risk(log, p0, 0.5)
        final = history.checkpoints[-1].objective
        assert final < initial

    def test_improves_over_logging_policy(self):
        world = generate_world(SimConfig(40, 20, 6, noise_scale=1.0), seed=7)
        log = simulate_log(world, world.logging_policy, 10_000, seed=8)
        dev = world_supervised(world)
        config = cfg(batch_size=256, epochs=10, eval_every=10**9, lam=0.3)
        params, _ = train_crm(log, dev, init_params("linear", 6, seed=9), config)
        assert true_risk(world, params) < true_risk(world, world.logging_policy.params)

    def test_empty_inputs(self):
        from banditrank.data import BanditLog

        with pytest.raises(ValueError):
            train_crm(BanditLog.from_records([]), toy_dev(), init_params("linear", 4, seed=0), cfg())
        with pytest.raises(ValueError):
            train_crm(random_log(10, 4, 0), [], init_params("linear", 4, seed=0), cfg())


class TestLambdaRule:
    def test_decrease_when_s_above_one(self):
        assert next_lambda(0.5, 1.2) == pytest.approx(0.45)

    def test_increase_when_s_below_one(self):
        assert next_lambda(0.5, 0.8) == pytest.approx(0.55)

    def test_capped_at_one(self):
        assert next_lambda(0.95, 0.5) == 1.0

    def test_ten_percent_exactly(self):
        for lam in (0.1, 0.37, 0.9):
            assert next_lambda(lam, 2.0) == pytest.approx(0.9 * lam, rel=1e-15)
            assert next_lambda(lam, 0.1) == pytest.approx(min(1.0, 1.1 * lam), rel=1e-15)


class TestLambdaSearch:
    def test_returns_probed_lambda_with_best_dev(self):
        world = generate_world(SimConfig(30, 15, 5, noise_scale=1.0), seed=11)
        log = simulate_log(world, world.logging_policy, 6000, seed=12)
        dev = world_supervised(world)
        config = cfg(batch_size=256, epochs=5, eval_every=10**9, max_probes=4)
        lam_star, params, sweep = lambda_search(
            log, dev, init_params("linear", 5, seed=13), config, probe_epochs=1
        )
        lams = [p.lam for p in sweep]
        assert lam_star in lams
        best = max(sweep, key=lambda p: p.dev_metric)
        assert best.lam == lam_star
        # consecutive probes differ by exactly +-10% (unless capped)
        for a, b in zip(lams, lams[1:]):
            assert b == pytest.approx(0.9 * a) or b == pytest.approx(1.1 * a) or b == 1.0

    def test_probe_epochs_validated(self):
        with pytest.raises(ValueError):
            lambda_search(
                random_log(10, 3, 0), toy_dev(3), init_params("linear", 3, seed=0),
                cfg(), probe_epochs=0,
            )


class TestTrainFullInfo:
    def separable(self, n=40):
        records = []
        for i in range(n):
            pos = i % 2 == 0
            x = np.array([1.0 if pos else -1.0, 0.5])
            records.append(
                SupervisedRecord(
                    f"q{i % 4}", f"p{i}", x, 4 if pos else 0, 1.0 if pos else 0.0
                )
            )
        return records

    def test_separable_reaches_perfect_map(self):
        train = self.separable()
        config = cfg(batch_size=8, epochs=60, eval_every=10**9)
        params, _ = train_full_info(train, train, init_params("linear", 2, seed=1), config)
        assert evaluate_policy(params, train).map == 1.0

    def test_all_zero_labels_rejected(self):
        records = [
            SupervisedRecord("q", f"p{i}", np.array([float(i)]), 0, 0.0) for i in range(5)
        ]
        with pytest.raises(ValueError):
            train_full_info(records, records, init_params("linear", 1, seed=0), cfg())

    def test_deterministic(self):
        train = self.separable()
        p0 = init_params("linear", 2, seed=3)
        _, h1 = train_full_info(train, train, p0, cfg(epochs=3))
        _, h2 = train_full_info(train, train, p0, cfg(epochs=3))
        for a, b in zip(h1.checkpoints, h2.checkpoints):
            assert a.params == b.params
