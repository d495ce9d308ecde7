import io
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from itertools import count, islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banditrank import cli, estimators, policy, training
from banditrank.data import (
    BanditLog,
    SupervisedSet,
    grade,
    split_queries,
    write_bandit_log,
    write_supervised,
)
from banditrank.estimators import (
    lagrangian_gradient,
    lagrangian_risk,
    snips_denominator,
)
from banditrank.policy import init_params
from banditrank.simulator import SimConfig, generate_world, simulate_log, true_risk, world_supervised
from banditrank.training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    TrainHistory,
    adam_step,
    evaluate_policy,
    lambda_search,
    next_lambda,
    train_crm,
    train_ea,
    train_full_info,
    write_history,
)
from conftest import random_log, supervised
from oracles import adam_step_arrays, lambda_search_by_probes


def cfg(**overrides):
    base = dict(batch_size=16, epochs=2, learning_rate=1e-2, seed=0, lam=0.3, eval_every=100)
    base.update(overrides)
    return TrainConfig(**base)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = init_params("linear", 3, seed=0)
        state = AdamState.zeros_like(p)
        p2, state2 = adam_step(p, np.zeros_like(p.flat), state, cfg())
        assert p2 == p
        assert state2.t == 1

    def test_constant_gradient_step_size_limit(self):
        # with a constant gradient the bias-corrected update tends to
        # -lr * sign(g) per step
        p = init_params("linear", 2, seed=1)
        config = cfg(learning_rate=0.05)
        state = AdamState.zeros_like(p)
        g = np.full_like(p.flat, 2.0)
        for _ in range(300):
            p, state = adam_step(p, g, state, config)
        p2, _ = adam_step(p, g, state, config)
        step = p2.arrays[0] - p.arrays[0]
        np.testing.assert_allclose(step, -config.learning_rate, rtol=1e-6)

    def test_deterministic(self):
        p = init_params("mlp", 3, hidden=2, seed=2)
        g = np.ones_like(p.flat) * 0.1
        a1, _ = adam_step(p, g, AdamState.zeros_like(p), cfg())
        a2, _ = adam_step(p, g, AdamState.zeros_like(p), cfg())
        assert a1 == a2

    def test_shape_mismatch(self):
        p = init_params("linear", 3, seed=0)
        bad = np.zeros(p.flat.size + 2)  # laid out like a 4-feature policy's
        with pytest.raises(ValueError):
            adam_step(p, bad, AdamState.zeros_like(p), cfg())


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays]).tobytes()


@st.composite
def adam_runs(draw):
    """Parameters, a learning rate and the gradients of 1-50 steps: random at a
    drawn scale, all zero, or either at each step."""
    kind = draw(st.sampled_from(["linear", "mlp"]))
    params = init_params(kind, draw(st.integers(1, 5)), hidden=draw(st.integers(1, 4)),
                         seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1e-12, 1e-3, 1.0, 1e6]))
    zero = draw(st.sampled_from(["never", "always", "sometimes"]))
    steps = []
    for _ in range(draw(st.integers(1, 50))):
        if zero == "always" or (zero == "sometimes" and rng.random() < 0.5):
            steps.append(np.zeros_like(params.flat))
        else:
            steps.append(rng.standard_normal(params.flat.shape) * scale)
    return params, draw(st.sampled_from([1e-3, 0.01, 0.5])), steps


class TestAdamOracle:
    """The one-vector Adam update gives the array-by-array update's bits."""

    @settings(max_examples=150, deadline=None)
    @given(adam_runs())
    def test_step_matches_the_oracle_bit_for_bit(self, run):
        params, lr, steps = run
        config = cfg(learning_rate=lr)
        p, state = params, AdamState.zeros_like(params)
        p_ref, state_ref = params, AdamState.zeros_like(params)
        for grads in steps:
            p, state = adam_step(p, grads, state, config)
            p_ref, state_ref = adam_step_arrays(p_ref, grads, state_ref, config)
            assert p.flat.tobytes() == flat(p_ref.arrays)
            assert state.m.tobytes() == flat(state_ref.m)
            assert state.v.tobytes() == flat(state_ref.v)
            assert state.t == state_ref.t

    @settings(max_examples=100, deadline=None)
    @given(adam_runs())
    def test_a_step_writes_only_arrays_it_made(self, run):
        params, lr, steps = run
        config = cfg(learning_rate=lr)
        p, state = params, AdamState.zeros_like(params)
        for g in steps:
            inputs = (state.m, state.v, p.flat, g)
            before = [a.tobytes() for a in inputs]
            p_next, state_next = adam_step(p, g, state, config)
            assert [a.tobytes() for a in inputs] == before
            assert not p_next.flat.flags.writeable
            made = (p_next.flat, state_next.m, state_next.v)
            assert not any(np.shares_memory(a, b) for a in made for b in inputs)
            assert not np.shares_memory(state_next.m, state_next.v)
            p, state = p_next, state_next

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_training_with_the_oracle_gives_the_same_history(self, monkeypatch, kind):
        log = random_log(120, 3, seed=41)
        p0 = init_params(kind, 3, hidden=4, seed=42)
        config = cfg(eval_every=40)
        _, history = train_crm(log, toy_dev(3), p0, config)
        monkeypatch.setattr(training, "adam_step", adam_step_arrays)
        _, oracle_history = train_crm(log, toy_dev(3), p0, config)
        assert oracle_history == history and len(history.checkpoints) >= 3
        assert ([cp.params.flat.tobytes() for cp in history.checkpoints]
                == [flat(cp.params.arrays) for cp in oracle_history.checkpoints])

    def test_checkpoint_params_never_change(self, monkeypatch):
        made = {}
        step = training.adam_step

        def recording(params, grads, state, config):
            params, state = step(params, grads, state, config)
            made[id(params)] = (params, params.flat.tobytes())
            return params, state

        monkeypatch.setattr(training, "adam_step", recording)
        _, history = train_crm(random_log(120, 3, seed=43), toy_dev(3),
                               init_params("mlp", 3, hidden=4, seed=44), cfg(eval_every=40))
        assert len(made) == 16 and len(history.checkpoints) >= 3
        for cp in history.checkpoints:
            assert cp.params.flat.tobytes() == made[id(cp.params)][1]


def toy_dev(d=4, n_queries=3):
    rng = np.random.default_rng(0)
    records = []
    for q in range(n_queries):
        for p in range(6):
            label = 4 if p == 0 else (2 if p == 1 else 0)
            nrr = {4: 1.0, 2: 0.5, 0: 0.0}[label]
            records.append((f"q{q}", f"p{p}", rng.standard_normal(d), label, nrr))
    return supervised(records)


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
        assert len(h1.checkpoints) >= 2
        assert h1 == h2  # records seen, dev metrics, params and why it stopped

    def test_model_selection_is_best_dev(self):
        log = random_log(200, 3, seed=5)
        dev = toy_dev(3)
        p0 = init_params("linear", 3, seed=6)
        config = cfg(epochs=4, eval_every=64)
        params, history = train_crm(log, dev, p0, config)
        best = max(c.dev_map for c in history.checkpoints)
        chosen = [c for c in history.checkpoints if c.params == params]
        assert chosen and chosen[0].dev_map == best

    def test_single_batch_overfit(self):
        log = random_log(16, 4, seed=7)
        dev = toy_dev(4)
        p0 = init_params("linear", 4, seed=8)
        config = cfg(batch_size=16, epochs=500, eval_every=10**9, lam=0.5)
        params, history = train_crm(log, dev, p0, config)
        initial = lagrangian_risk(log, p0, 0.5).estimate
        final = lagrangian_risk(log, history.checkpoints[-1].params, 0.5).estimate
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

        empty = BanditLog([], [], np.zeros((0, 0)), [], [], [])
        with pytest.raises(ValueError):
            train_crm(empty, toy_dev(), init_params("linear", 4, seed=0), cfg())
        with pytest.raises(ValueError):
            train_crm(random_log(10, 4, 0), supervised([]), init_params("linear", 4, seed=0),
                      cfg())


class TestEmptyInputs:
    """Every trainer rejects an empty training set or dev set with a ``ValueError``."""

    @pytest.mark.parametrize("trainer", [train_crm, train_ea])
    def test_empty_log(self, trainer):
        empty = BanditLog([], [], np.zeros((0, 4)), [], [], [])
        with pytest.raises(ValueError, match="must be non-empty"):
            trainer(empty, toy_dev(), init_params("linear", 4, seed=0), cfg())

    @pytest.mark.parametrize("trainer", [train_crm, train_ea])
    def test_empty_dev_set_for_a_log(self, trainer):
        with pytest.raises(ValueError, match="must be non-empty"):
            trainer(random_log(10, 4, 0), supervised([]), init_params("linear", 4, seed=0), cfg())

    def test_empty_training_set(self):
        empty = SupervisedSet([], [], np.zeros((0, 4)), [])
        with pytest.raises(ValueError):
            train_full_info(empty, toy_dev(), init_params("linear", 4, seed=0), cfg())

    def test_empty_dev_set_for_a_training_set(self):
        with pytest.raises(ValueError, match="must be non-empty"):
            train_full_info(toy_dev(), supervised([]), init_params("linear", 4, seed=0), cfg())


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
        best = max(sweep, key=lambda p: p.metrics.map)
        assert best.lam == lam_star
        # consecutive probes differ by exactly +-10% (unless capped)
        for a, b in zip(lams, lams[1:]):
            assert b == pytest.approx(0.9 * a) or b == pytest.approx(1.1 * a) or b == 1.0

    def test_sweep_reports_the_chosen_params(self):
        world = generate_world(SimConfig(20, 10, 4, noise_scale=1.0), seed=3)
        log = simulate_log(world, world.logging_policy, 2000, seed=4)
        dev = world_supervised(world)
        config = cfg(batch_size=128, epochs=2, eval_every=500, max_probes=3)
        lam_star, params, sweep = lambda_search(
            log, dev, init_params("linear", 4, seed=5), config, probe_epochs=1
        )
        (chosen,) = [p for p in sweep if p.lam == lam_star]
        assert chosen.S == snips_denominator(log, params)
        assert chosen.metrics == evaluate_policy(params, dev)

    @pytest.mark.parametrize("learning_rate", [0.0, -1e-3, float("nan"), float("inf"),
                                               pytest.param(10**400, id="int past a float")])
    def test_learning_rate_validated(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            cfg(learning_rate=learning_rate)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)])
    def test_seed_must_be_non_negative(self, seed):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            cfg(seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 2.5), ("epochs", 2.5), ("epochs", True), ("eval_every", 100.0),
        ("max_probes", 2.5), ("seed", 1.5),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match="must be integers"):
            cfg(**{field: value})

    def test_max_probes_validated(self):
        with pytest.raises(ValueError, match="max_probes must be >= 1"):
            cfg(max_probes=0)

    @pytest.mark.parametrize("eval_every", [0, -5])
    def test_eval_every_validated(self, eval_every):
        with pytest.raises(ValueError, match="eval_every must be >= 1"):
            cfg(eval_every=eval_every)

    def test_probe_epochs_validated(self):
        with pytest.raises(ValueError):
            lambda_search(
                random_log(10, 3, 0), toy_dev(3), init_params("linear", 3, seed=0),
                cfg(), probe_epochs=0,
            )


class TestLambdaStoppingRule:
    """The search's path when every probe's best checkpoint reports the same S,
    as on a world where S barely moves with lambda."""

    # the search starts from a uniform draw of the config's seed
    lam0 = float(np.random.default_rng(0).uniform(0.0, 1.0))

    def search(self, monkeypatch, S, max_probes=10):
        """The lambdas of the probes and of the full runs, in call order."""
        runs, calls = [], []

        def fixed_s_crm_epochs(train_log, dev, params0, config, dev_index=None):
            run = len(runs)
            runs.append(config.lam)
            checkpoint = Checkpoint(records_seen=len(train_log), dev_map=0.5, params=params0)
            for epoch in count(1):
                def result(epoch=epoch):
                    calls.append((run, config.lam, epoch))
                    return params0, TrainHistory(checkpoints=(checkpoint,))
                yield result

        # each probed lambda trains once: its probe reads epoch 2 of that
        # training and its full run epoch 5
        monkeypatch.setattr(training, "_crm_epochs", fixed_s_crm_epochs)
        monkeypatch.setattr(training, "snips_denominator", lambda log, p: S)
        lam_star, _, sweep = lambda_search(
            random_log(10, 3, 0), toy_dev(3), init_params("linear", 3, seed=0),
            cfg(epochs=5, max_probes=max_probes), probe_epochs=2,
        )
        probes = [lam for _, lam, epoch in calls if epoch == 2]
        full_runs = [lam for _, lam, epoch in calls if epoch == 5]
        assert calls == [*((run, lam, 2) for run, lam in enumerate(runs)),
                         *((run, lam, 5) for run, lam in enumerate(runs))]
        assert [p.lam for p in sweep] == full_runs and lam_star == full_runs[0]
        return probes, full_runs

    def test_s_above_the_band_walks_down_max_probes_times(self, monkeypatch):
        probes, full_runs = self.search(monkeypatch, S=1.06, max_probes=4)
        assert probes == pytest.approx([self.lam0 * 0.9**i for i in range(4)], rel=1e-12)
        assert full_runs == probes

    def test_s_below_the_band_climbs_to_the_cap_and_stops_at_the_repeat(self, monkeypatch):
        probes, full_runs = self.search(monkeypatch, S=0.9)
        climb = [self.lam0 * 1.1**i for i in range(5)]
        assert climb[-1] < 1.0 < climb[-1] * 1.1
        assert probes == pytest.approx([*climb, 1.0], rel=1e-12)
        assert full_runs == probes  # each distinct lambda gets one full run

    @pytest.mark.parametrize("S", [1.0, 1.04, 0.95, 1.05])
    def test_s_in_the_band_stops_after_one_probe(self, monkeypatch, S):
        assert self.search(monkeypatch, S) == ([self.lam0], [self.lam0])


@st.composite
def searches(draw):
    """A lambda search's inputs, and maybe a divergence after a drawn number of
    steps of each run: to infinite parameters, or to logits too large to be finite."""
    kind = draw(st.sampled_from(["linear", "mlp"]))
    n = draw(st.integers(8, 60))
    batch_size = draw(st.sampled_from([4, 8, 16, 64]))
    epochs, probe_epochs = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    eval_every = draw(st.one_of(
        st.integers(1, 2).map(lambda k: k * n),  # aligned with epoch ends
        st.integers(1, 2 * n),  # mostly not
        st.just(10**9),  # only the end-of-run checkpoints
    ))
    config = cfg(batch_size=batch_size, epochs=epochs, eval_every=eval_every,
                 learning_rate=draw(st.sampled_from([0.01, 0.1, 0.5])),
                 seed=draw(st.integers(0, 2**16)), max_probes=draw(st.integers(1, 4)))
    steps = max(epochs, probe_epochs) * -(-n // batch_size)
    divergence = draw(st.one_of(
        st.none(), st.tuples(st.sampled_from(["parameters", "logits"]), st.integers(1, steps))))
    log = random_log(n, 3, seed=draw(st.integers(0, 2**16)))
    dev = log_dev(log)
    assume(np.any(dev.labels > 0))
    p0 = init_params(kind, 3, hidden=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**16)))
    return log, dev, p0, config, probe_epochs, divergence


def log_dev(log):
    """A dev set of the log's (query, product) pairs, graded by the share of
    their records that showed the product at no loss, so that training moves
    its MAP."""
    contexts, shown, seen = {}, Counter(), Counter()
    for pair, context, action, delta in zip(zip(log.query_ids, log.product_ids), log.contexts,
                                            log.actions, log.deltas):
        contexts[pair] = context
        shown[pair] += int(action == 1 and delta == 0)
        seen[pair] += 1
    rates = {pair: shown[pair] / seen[pair] for pair in seen}
    return supervised([(q, p, contexts[q, p], grade(rate), rate)
                       for (q, p), rate in rates.items()])


def diverging_adam_step(how, after):
    """``training.adam_step``, whose steps after a run's first ``after`` make
    infinite parameters (``"parameters"``) or finite ones too large for finite logits."""
    adam_step = training.adam_step

    def step(params, grads, state, config):
        if state.t >= after:
            if how == "parameters":
                grads = np.full_like(grads, np.inf)
            else:
                return params._replace_flat(np.full_like(params.flat, 1e308)), state
        return adam_step(params, grads, state, config)

    return step


@contextmanager
def diverging(divergence):
    """Training whose runs diverge as a drawn ``(how, after)`` says, or do not for ``None``."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        if divergence:
            mp.setattr(training, "adam_step", diverging_adam_step(*divergence))
        yield


def returned(run):
    """What ``run()`` returns, or the type and message of the ``NonFiniteError`` it raises."""
    try:
        return run()
    except policy.NonFiniteError as exc:
        return type(exc), str(exc)


def search_outcome(search, log, dev, p0, config, probe_epochs):
    """A search's λ*, parameter bits and sweep, or the type and message of its error."""
    try:
        lam_star, params, sweep = search(log, dev, p0, config, probe_epochs)
    except policy.NonFiniteError as exc:
        return type(exc), str(exc)
    return lam_star, params.kind, params.flat.tobytes(), sweep


class TestOneRunPerLambda:
    """Each probed lambda trains once, and the search gives what it gave when
    its probes and full runs trained apart."""

    @settings(max_examples=200, deadline=None)
    @given(searches())
    def test_equals_the_search_by_probes(self, search):
        log, dev, p0, config, probe_epochs, divergence = search
        with diverging(divergence):
            expected = search_outcome(lambda_search_by_probes, log, dev, p0, config, probe_epochs)
            assert search_outcome(lambda_search, log, dev, p0, config, probe_epochs) == expected

    @settings(max_examples=100, deadline=None)
    @given(searches())
    def test_each_length_equals_its_own_train_crm(self, search):
        log, dev, p0, config, probe_epochs, divergence = search
        ends = (probe_epochs, config.epochs)
        with diverging(divergence):
            run_after = list(islice(training._crm_epochs(log, dev, p0, config), max(ends)))
            for epochs in ends:
                assert returned(run_after[epochs - 1]) == returned(
                    lambda: train_crm(log, dev, p0, replace(config, epochs=epochs)))

    def test_a_full_run_diverging_after_its_probe_with_no_checkpoint_raises(self, monkeypatch):
        # 2 steps per epoch: the probe ends after step 2, and the full run
        # diverges at step 4 with no checkpoint before its end
        monkeypatch.setattr(training, "adam_step", diverging_adam_step("parameters", 3))
        log, p0 = random_log(32, 3, seed=53), init_params("linear", 3, seed=54)
        config = cfg(batch_size=16, epochs=3, eval_every=10**9)
        with np.errstate(invalid="ignore"):  # Adam's inf / inf
            expected = search_outcome(lambda_search_by_probes, log, log_dev(log), p0, config, 1)
            assert expected == (policy.NonFiniteError, "policy parameters must be finite")
            assert search_outcome(lambda_search, log, log_dev(log), p0, config, 1) == expected

    def counted_search(self, monkeypatch, kind, probe_epochs, epochs, eval_every):
        """The sweep of a search on a log of 4 batches, the steps of its Adam
        updates, the (lambda, parameter bytes) of its full-log passes, and the
        (lambda, parameter bytes) of each distinct best checkpoint of a probe or
        full run, the ones whose S the search reads."""
        steps, full_passes, trained_at = [], [], {}
        adam_step, full_pass = training.adam_step, training.snips_denominator

        def counted_step(params, grads, state, config):
            steps.append(state.t)
            params, state = adam_step(params, grads, state, config)
            trained_at[params.flat.tobytes()] = config.lam  # the lambda each params came from
            return params, state

        def counted_pass(log, params):
            full_passes.append((trained_at[params.flat.tobytes()], params.flat.tobytes()))
            return full_pass(log, params)

        monkeypatch.setattr(training, "adam_step", counted_step)
        monkeypatch.setattr(training, "snips_denominator", counted_pass)
        log, dev = random_log(50, 3, seed=51), toy_dev(3)
        p0 = init_params(kind, 3, hidden=3, seed=52)
        config = cfg(batch_size=16, epochs=epochs, eval_every=eval_every, learning_rate=0.5,
                     max_probes=4)
        _, _, sweep = lambda_search(log, dev, p0, config, probe_epochs)
        assert len(sweep) > 1
        assert len(steps) == len(sweep) * max(probe_epochs, epochs) * 4  # 4 batches of 50
        assert all(p.stopped is None for p in sweep)
        searched = list(full_passes)
        best_read = []
        for probe in sweep:
            runs = training._crm_epochs(log, dev, p0, replace(config, lam=probe.lam))
            run_after = list(islice(runs, max(probe_epochs, epochs)))
            best = {cp.records_seen: cp for cp in (run_after[n - 1]()[1].best()
                                                   for n in (probe_epochs, epochs))}
            best_read += [(probe.lam, cp.params.flat.tobytes()) for cp in best.values()]
        assert full_passes == searched  # finding the best checkpoints reads no S
        return sweep, searched, best_read

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("probe_epochs, epochs", [(1, 3), (3, 3), (4, 2)])
    def test_one_run_of_the_longer_length_per_probed_lambda(self, monkeypatch, kind,
                                                            probe_epochs, epochs):
        sweep, full_passes, best_read = self.counted_search(monkeypatch, kind, probe_epochs,
                                                            epochs, 40)
        # a checkpoint every 40 records falls once in each epoch (at 48, 98, ...),
        # never at its end, but only the best checkpoint of each probe and each
        # full run makes a full pass, once even when both read it
        assert Counter(full_passes) == Counter(best_read)
        assert len(sweep) <= len(full_passes) <= len(sweep) * len({probe_epochs, epochs})

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("probe_epochs, epochs", [(1, 3), (3, 3), (4, 2)])
    def test_one_full_pass_per_length_with_only_end_of_run_checkpoints(
            self, monkeypatch, kind, probe_epochs, epochs):
        sweep, full_passes, best_read = self.counted_search(monkeypatch, kind, probe_epochs,
                                                            epochs, 10**9)
        # each length's one checkpoint is its best, read once
        assert Counter(full_passes) == Counter(best_read)
        assert len(full_passes) == len(sweep) * len({probe_epochs, epochs})


class TestTrainFullInfo:
    def separable(self, n=40):
        records = []
        for i in range(n):
            pos = i % 2 == 0
            x = np.array([1.0 if pos else -1.0, 0.5])
            records.append((f"q{i % 4}", f"p{i}", x, 4 if pos else 0, 1.0 if pos else 0.0))
        return supervised(records)

    def test_separable_reaches_perfect_map(self):
        train = self.separable()
        config = cfg(batch_size=8, epochs=60, eval_every=10**9)
        params, _ = train_full_info(train, train, init_params("linear", 2, seed=1), config)
        assert evaluate_policy(params, train).map == 1.0

    def test_all_zero_labels_rejected(self):
        records = supervised([("q", f"p{i}", np.array([float(i)]), 0, 0.0) for i in range(5)])
        with pytest.raises(ValueError):
            train_full_info(records, records, init_params("linear", 1, seed=0), cfg())

    def test_deterministic(self):
        train = self.separable()
        p0 = init_params("linear", 2, seed=3)
        _, h1 = train_full_info(train, train, p0, cfg(epochs=3))
        _, h2 = train_full_info(train, train, p0, cfg(epochs=3))
        assert len(h1.checkpoints) >= 2
        assert h1 == h2


class TestOneFullLogPass:
    """Training computes no S or objective. ``write_history`` computes them from
    each checkpoint's params, one pass over the training set per checkpoint."""

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_crm_matches_the_estimators(self, kind, tmp_path):
        log, dev = random_log(80, 3, seed=21), toy_dev(3)
        config = cfg(eval_every=40)
        _, history = train_crm(log, dev, init_params(kind, 3, hidden=4, seed=config.seed), config)
        write_bandit_log(log, str(tmp_path / "log.jsonl"))
        write_supervised(dev, str(tmp_path / "dev.tsv"))
        cli_cfg = {"policy": kind, "hidden": 4, "lambda": config.lam, **{
            key: getattr(config, key) for key in ("batch_size", "epochs", "learning_rate",
                                                  "seed", "eval_every")}}
        (tmp_path / "train.json").write_text(json.dumps(cli_cfg))
        assert cli.run(["train-crm", "--config", str(tmp_path / "train.json"), "--log",
                        str(tmp_path / "log.jsonl"), "--dev", str(tmp_path / "dev.tsv"),
                        "--out", str(tmp_path / "run")]) == 0
        header, *rows = (tmp_path / "run" / "history.tsv").read_text().splitlines()
        assert header.split("\t")[:3] == ["records_seen", "objective", "S"]
        assert len(rows) == len(history.checkpoints) >= 2
        for cp, row in zip(history.checkpoints, rows):
            records_seen, objective, S = row.split("\t")[:3]
            assert int(records_seen) == cp.records_seen
            assert float(S) == snips_denominator(log, cp.params)
            assert float(objective) == lagrangian_risk(log, cp.params, config.lam).estimate

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_full_info_matches_the_cross_entropy(self, kind):
        train = toy_dev(3, n_queries=5)
        _, history = train_full_info(train, toy_dev(3), init_params(kind, 3, hidden=4, seed=27),
                                     cfg(eval_every=40))
        for cp in history.checkpoints:
            # one row at a time: -(1 + l) / 5 * log P(l > 0 | x), P clipped at 1e-300
            terms = [-(1 + label) / 5 * np.log(max(P[0, int(label > 0)], 1e-300))
                     for x, label in zip(train.contexts, train.labels.tolist())
                     for P in [policy.batch_probabilities(cp.params, x[None, :])]]
            assert training.weighted_cross_entropy(train, cp.params) == pytest.approx(
                np.mean(terms), rel=1e-12)

    @staticmethod
    def counted_rows(monkeypatch):
        """The rows that each later call sees, by name: of training's own _forward (a
        checkpoint's forward of the table where the bound fails), of each gradient batch
        (at its one forward and backward pass) and of each full pass (at
        batch_probabilities)."""
        rows = {"_forward": [], "logit_gradient": [], "batch_probabilities": []}

        def counting(name):
            original = getattr(policy, name)

            def counted(params, contexts, *args):
                rows[name].append(len(contexts))
                return original(params, contexts, *args)
            return counted

        for name in rows:
            counted = counting(name)
            for module in (training,) if name == "_forward" else (policy, estimators, training):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return rows

    @staticmethod
    def fit(trainer, far=None):
        """A linear run of ``trainer`` on 84 training rows, the first row's first entry
        set to ``far`` if given: its training set, its history and the numbers that
        train-crm or train-fullinfo writes for it."""
        p0, config = init_params("linear", 3, seed=25), cfg(eval_every=40)
        if trainer == "full_info":
            train = toy_dev(3, n_queries=14)
            if far is not None:
                contexts = train.contexts.copy()
                contexts[0, 0] = far
                train = SupervisedSet(train.query_ids, train.product_ids, contexts, train.nrr)
            _, history = train_full_info(train, toy_dev(3), p0, config)

            def numbers(params):
                return {"objective": training.weighted_cross_entropy(train, params)}
        else:
            train = random_log(84, 3, seed=26)
            if far is not None:
                contexts = train.contexts.copy()
                contexts[0, 0] = far
                train = BanditLog(train.query_ids, train.product_ids, contexts, train.actions,
                                  train.propensities, train.deltas)
            fit = train_crm if trainer == "crm" else train_ea
            _, history = fit(train, toy_dev(3), p0, config)

            def numbers(params):  # train-crm's: S and the objective at the run's lambda
                report = estimators.lagrangian_risk(train, params, config.lam)
                return {"objective": report.estimate, "S": report.mean_importance_weight}
        return train, history, numbers

    @pytest.mark.parametrize("trainer", ["crm", "ea", "full_info"])
    def test_one_pass_per_checkpoint(self, monkeypatch, trainer):
        rows = self.counted_rows(monkeypatch)
        train, history, numbers = self.fit(trainer)
        # gradient batches hold at most 16 rows; the bound proves every checkpoint's
        # training logits finite, so none forwards the table
        checkpoints = history.checkpoints
        assert len(train) == 84 and max(rows["logit_gradient"]) <= 16
        assert rows["_forward"] == [] and len(checkpoints) >= 3
        assert rows["batch_probabilities"] == []  # training computes no S or objective
        write_history(history, numbers, io.StringIO())
        assert rows["batch_probabilities"] == [84] * len(checkpoints)
        assert rows["_forward"] == []

    @pytest.mark.parametrize("trainer", ["crm", "ea", "full_info"])
    def test_a_far_entry_forwards_the_table_at_each_checkpoint(self, monkeypatch, trainer):
        # an entry of -1e301 fails the bound (the weights of logit 1 sum to about 1.9 in
        # size) while every logit stays finite; the far row's probabilities saturate (at
        # its target class, for full information), so its gradient is 0 and no step
        # overflows
        with monkeypatch.context() as unbounded:
            unbounded.setattr(training, "_logits_bounded", lambda params, x_max: False)
            expected = self.fit(trainer, far=-1e301)[1]
        rows = self.counted_rows(monkeypatch)
        _, history, _ = self.fit(trainer, far=-1e301)
        checkpoints = history.checkpoints
        assert not any(policy._logits_bounded(cp.params, 1e301) for cp in checkpoints)
        assert rows["_forward"] == [84] * len(checkpoints) and len(checkpoints) >= 3
        assert history == expected and history.stopped is None


class TestCheckpointMeaning:
    """A checkpoint holds its dev MAP alone. Its other dev metrics, read by the
    lambda search and by ``history.tsv``, come from a full report of its params,
    and match what a full report taken at the checkpoint gave."""

    @staticmethod
    def world():
        """A small world's log, its training and dev sets, and the config of its runs."""
        world = generate_world(SimConfig(24, 8, 4, noise_scale=1.0), seed=31)
        log = simulate_log(world, world.logging_policy, 1500, seed=32)
        split = split_queries({q for q, _ in world.pair_ids()}, (0.5, 0.25, 0.25), seed=33)
        config = cfg(batch_size=64, epochs=3, eval_every=90, max_probes=4)
        return log, world_supervised(world, split.train), world_supervised(world, split.dev), config

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("trainer", [train_crm, train_ea, train_full_info])
    def test_each_dev_map_is_the_map_of_a_full_report(self, trainer, kind):
        log, train, dev, config = self.world()
        rows = train if trainer is train_full_info else log
        _, history = trainer(rows, dev, init_params(kind, 4, hidden=3, seed=34), config)
        assert len(history.checkpoints) >= 3
        for cp in history.checkpoints:
            assert cp.dev_map == evaluate_policy(cp.params, dev).map

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_each_probe_reports_its_full_runs_best_params(self, kind):
        log, _, dev, config = self.world()
        config = replace(config, learning_rate=0.5, seed=3)  # S leaves the band: 4 probes
        p0 = init_params(kind, 4, hidden=3, seed=35)
        _, _, sweep = lambda_search(log, dev, p0, config, probe_epochs=1)
        assert len(sweep) >= 2
        for probe in sweep:
            params, _ = train_crm(log, dev, p0, replace(config, lam=probe.lam))
            assert probe.metrics == evaluate_policy(params, dev)

    @pytest.mark.parametrize("command", ["train-crm", "train-fullinfo"])
    def test_history_tsv_is_the_one_written_from_full_reports(self, tmp_path, command):
        log, train, dev, config = self.world()
        write_bandit_log(log, str(tmp_path / "log.jsonl"))
        write_supervised(train, str(tmp_path / "train.tsv"))
        write_supervised(dev, str(tmp_path / "dev.tsv"))
        cli_cfg = {"policy": "mlp", "hidden": 3, "lambda": config.lam, **{
            key: getattr(config, key) for key in ("batch_size", "epochs", "learning_rate",
                                                  "seed", "eval_every")}}
        (tmp_path / "run.json").write_text(json.dumps(cli_cfg))
        inputs = (["--log", str(tmp_path / "log.jsonl")] if command == "train-crm"
                  else ["--train", str(tmp_path / "train.tsv")])
        assert cli.run([command, "--config", str(tmp_path / "run.json"), *inputs, "--dev",
                        str(tmp_path / "dev.tsv"), "--out", str(tmp_path / "run")]) == 0
        p0 = init_params("mlp", 4, hidden=3, seed=config.seed)
        if command == "train-crm":
            _, history = train_crm(log, dev, p0, config)

            def numbers(params):
                report = lagrangian_risk(log, params, config.lam)
                return [report.estimate, report.mean_importance_weight]
            named = ["objective", "S"]
        else:
            _, history = train_full_info(train, dev, p0, config)

            def numbers(params):
                return [training.weighted_cross_entropy(train, params)]
            named = ["objective"]
        lines = ["\t".join(["records_seen", *named, "map", "ndcg@10", "avg_rank", "avg_dcg"])]
        for cp in history.checkpoints:
            m = evaluate_policy(cp.params, dev)
            row = [*numbers(cp.params), m.map, m.ndcg_at[10], m.avg_rank, m.avg_dcg]
            lines.append("\t".join([str(cp.records_seen), *map(repr, row)]))
        assert len(history.checkpoints) >= 3
        assert (tmp_path / "run" / "history.tsv").read_text() == "\n".join(lines) + "\n"


class TestDivergence:
    """A run whose logits or parameters stop being finite ends at that step with
    the best checkpoint so far, or raises if it has none."""

    @pytest.fixture(autouse=True)
    def quiet(self):
        with np.errstate(over="ignore", invalid="ignore"):  # the runs overflow on purpose
            yield

    def gradients(self, log, turn_after, how):
        """The CRM gradient of a batch, which turns non-finite after ``turn_after`` calls:
        infinite (``"parameters"``) or from contexts too large for finite logits."""
        calls = []

        def grad_fn(params, idx):
            calls.append(len(idx))
            contexts = log.contexts[idx]
            if len(calls) > turn_after:
                if how == "parameters":
                    return np.full_like(params.flat, np.inf)
                contexts = contexts * 1e308
            return lagrangian_gradient(contexts, log.actions[idx], log.propensities[idx],
                                       log.deltas[idx], params, 0.3)

        return grad_fn

    @pytest.mark.parametrize("how, reason", [("parameters", "policy parameters must be finite"),
                                             ("logits", "non-finite logits")])
    def test_stops_after_the_first_checkpoint(self, how, reason):
        log = random_log(80, 3, seed=31)
        config = cfg(eval_every=40)  # batches of 16: the first checkpoint is at 48 records
        grad_fn = self.gradients(log, 3, how)
        params, history = training._run_of(config.epochs, training._epochs(
            len(log), grad_fn, log.context_table, toy_dev(3), init_params("linear", 3, seed=32),
            config))
        assert [cp.records_seen for cp in history.checkpoints] == [48]
        assert params == history.checkpoints[0].params
        assert history.stopped == f"training stopped after 48 records: {reason}"

    @pytest.mark.parametrize("how, error", [("parameters", ValueError),
                                            ("logits", FloatingPointError)])
    def test_raises_with_no_checkpoint(self, how, error):
        log, config = random_log(80, 3, seed=31), cfg(eval_every=40)
        with pytest.raises(error):
            training._run_of(config.epochs, training._epochs(
                len(log), self.gradients(log, 0, how), log.context_table, toy_dev(3),
                init_params("linear", 3, seed=32), config))

    def far_row_run(self, x, eval_every):
        """A CRM run of one epoch (5 steps of 16 records) on a log whose first
        record's context is (x, 0, 0), its initial parameters and that log. From
        x = 1e6 the row's two logits lie so far apart that its gradient is
        exactly 0, so the steps do not depend on x, and its logits overflow once
        the largest first-feature weight passes FMAX / x."""
        log = random_log(80, 3, seed=30)
        contexts = log.contexts.copy()
        contexts[0] = (x, 0.0, 0.0)
        log = BanditLog(log.query_ids, log.product_ids, contexts, log.actions,
                        log.propensities, log.deltas)
        p0 = init_params("linear", 3, seed=30)
        config = cfg(batch_size=16, epochs=1, learning_rate=0.5, eval_every=eval_every)
        return lambda: train_crm(log, toy_dev(3), p0, config), p0, log

    def far_row_weights(self):
        """The parameters after each step of ``far_row_run`` and their largest
        first-feature weight, the initial ones first."""
        run, p0, _ = self.far_row_run(1e6, eval_every=16)
        params = [p0, *(cp.params for cp in run()[1].checkpoints)]
        return params, [float(np.abs(p.arrays[0][:, 0]).max()) for p in params]

    def test_a_checkpoint_whose_training_logits_overflow_stops_the_run(self):
        # no step's batch overflows: the far row's logits first overflow at the
        # second checkpoint's forward pass over the whole training set
        params, weights = self.far_row_weights()
        assert weights[2] > 1.05 * max(weights[:2])
        x = np.finfo(np.float64).max / np.sqrt(max(weights[:2]) * weights[2])
        run, _, log = self.far_row_run(x, eval_every=16)
        _, history = run()
        assert [(cp.records_seen, cp.params) for cp in history.checkpoints] == [(16, params[1])]
        assert np.isfinite(snips_denominator(log, history.checkpoints[0].params))
        assert history.stopped == "training stopped after 32 records: non-finite logits"

    def test_an_end_of_run_checkpoint_whose_training_logits_overflow_raises(self):
        # the far row's logits stay finite at every step, the fifth too, and
        # overflow at the end-of-run checkpoint, the run's only one
        _, weights = self.far_row_weights()
        assert weights[5] > 1.05 * max(weights[:5])
        x = np.finfo(np.float64).max / np.sqrt(max(weights[:5]) * weights[5])
        run, _, _ = self.far_row_run(x, eval_every=10**9)
        with pytest.raises(policy.NonFiniteError, match="non-finite logits"):
            run()

    def test_a_finished_run_has_no_reason(self):
        _, history = train_crm(random_log(40, 3, seed=33), toy_dev(3),
                               init_params("linear", 3, seed=34), cfg(eval_every=40))
        assert history.stopped is None
