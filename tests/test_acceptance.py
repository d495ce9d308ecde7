"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from banditrank import training
from banditrank.aggregation import aggregate_feedback
from banditrank.data import BanditLog, split_queries
from banditrank.estimators import (
    empirical_average,
    ips,
    lagrangian_gradient,
    lagrangian_risk,
    snips,
    snips_denominator,
)
from banditrank.evaluation import rank_metrics
from banditrank.policy import (
    batch_probabilities,
    init_params,
    weighted_prob_gradient,
)
from banditrank.simulator import (
    SimConfig,
    generate_world,
    simulate_log,
    true_risk,
    world_supervised,
)
from banditrank.training import (
    TrainConfig,
    evaluate_policy,
    lambda_search,
    train_crm,
    train_ea,
)
from conftest import random_log
from oracles import (
    brute_aggregate,
    brute_ea,
    brute_ips,
    brute_lagrangian,
    brute_snips,
    finite_difference_gradient,
    flatten,
    rows,
    trec_eval_map,
    trec_eval_mrr,
    trec_eval_ndcg_at,
    trec_eval_p_at,
    unflatten,
)

FIXTURES = Path(__file__).parent / "fixtures"


def verdict(number, ok, detail=""):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def prob_fn(params):
    def fn(r):
        return batch_probabilities(params, r.context)[0][r.action]

    return fn


def test_criterion_1_estimator_oracle_equivalence():
    worst = 0.0
    for seed in range(30):
        n = int(np.random.default_rng(seed).integers(1, 21))
        log = random_log(n, 3, seed)
        params = init_params("mlp" if seed % 2 else "linear", 3, hidden=4, seed=seed)
        records, fn = rows(log), prob_fn(params)
        worst = max(
            worst,
            abs(snips(log, params).estimate - brute_snips(records, fn)),
            abs(ips(log, params).estimate - brute_ips(records, fn)),
            abs(empirical_average(log, params).estimate - brute_ea(records, fn)),
        )
    verdict(1, worst < 1e-12, f"max |library - brute force| = {worst:.2e}")


def test_criterion_2_self_normalization_identities():
    log = random_log(300, 4, seed=0)
    params = init_params("linear", 4, seed=1)
    P = batch_probabilities(params, log.contexts)
    props = P[np.arange(len(log)), log.actions]
    at_logger = BanditLog(
        log.query_ids, log.product_ids, log.contexts, log.actions, props, log.deltas
    )
    ok = (
        snips(at_logger, params).estimate == at_logger.deltas.mean()
        and ips(at_logger, params).estimate == at_logger.deltas.mean()
        and snips_denominator(at_logger, params) == 1.0
    )
    # scale by a power of two so float arithmetic stays exact
    scaled = BanditLog(
        log.query_ids, log.product_ids, log.contexts, log.actions,
        log.propensities * 0.25, log.deltas,
    )
    ok = ok and snips(scaled, params).estimate == snips(log, params).estimate
    ok = ok and ips(scaled, params).estimate == 4.0 * ips(log, params).estimate
    verdict(2, ok, "SNIPS/IPS/S identities exact at the logging policy and under scaling")


def test_criterion_3_lagrangian_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        log = random_log(int(rng.integers(2, 50)), 3, seed)
        params = init_params("linear", 3, seed=seed)
        lam = float(rng.uniform(0, 1))
        lhs = lagrangian_risk(log, params, lam).estimate
        rhs = ips(log, params).estimate - lam * snips_denominator(log, params)
        worst = max(worst, abs(lhs - rhs))
    verdict(3, worst < 1e-12, f"max |lagrangian - (ips - lam*S)| = {worst:.2e}")


def test_criterion_4_gradient_correctness():
    failures = 0
    checked = 0
    for seed in range(25):
        for kind, hidden in (("linear", 0), ("mlp", 3)):
            rng = np.random.default_rng(2000 + seed)
            params = init_params(kind, 3, hidden=hidden, seed=seed)
            log = random_log(8, 3, seed + 300)
            lam = float(rng.uniform(0, 1))
            records = rows(log)

            def risk_of(flat, p=params, r=records, l=lam):
                return brute_lagrangian(r, prob_fn(unflatten(p, np.array(flat))), l)

            numeric = np.array(
                finite_difference_gradient(risk_of, flatten(params).tolist(), 1e-5)
            )
            analytic = lagrangian_gradient(
                log.contexts, log.actions, log.propensities, log.deltas, params, lam
            )
            checked += 1
            if not np.allclose(analytic, numeric, rtol=1e-4, atol=1e-8):
                failures += 1
            # gradient of pi(action | x) against finite differences of the probability
            x = rng.standard_normal(3)
            action = int(rng.integers(0, 2))

            def p_of(flat, p=params, xx=x, a=action):
                q = batch_probabilities(unflatten(p, np.array(flat)), xx)[0]
                return q[a]

            numeric_p = np.array(
                finite_difference_gradient(p_of, flatten(params).tolist(), 1e-5)
            )
            analytic_p = weighted_prob_gradient(params, x[None], [action], [1.0])
            if not np.allclose(analytic_p, numeric_p, rtol=1e-4, atol=1e-8):
                failures += 1
    verdict(4, failures == 0, f"{checked} instances x 2 gradients, {failures} mismatches")


def test_criterion_5_ips_unbiasedness():
    world = generate_world(SimConfig(30, 20, 6, noise_scale=1.0), seed=50)
    target = init_params("linear", 6, seed=51)
    truth = true_risk(world, target)
    estimates = [
        ips(simulate_log(world, world.logging_policy, 2000, seed=5000 + k), target).estimate
        for k in range(200)
    ]
    mean = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1) / np.sqrt(len(estimates)))
    ok = abs(mean - truth) < 3 * se
    verdict(5, ok, f"mean IPS {mean:.5f} vs truth {truth:.5f}, |diff|/SE = {abs(mean-truth)/se:.2f}")


def test_criterion_6_snips_consistency():
    world = generate_world(SimConfig(30, 20, 6, noise_scale=1.0), seed=60)
    target = init_params("linear", 6, seed=61)
    truth = true_risk(world, target)

    def mean_abs_err(n):
        errs = [
            abs(snips(simulate_log(world, world.logging_policy, n, seed=6000 + k), target).estimate - truth)
            for k in range(20)
        ]
        return float(np.mean(errs))

    err_small, err_large = mean_abs_err(500), mean_abs_err(5000)
    verdict(6, err_large < err_small, f"mean |err| n=500: {err_small:.5f}, n=5000: {err_large:.5f}")


@pytest.fixture(scope="module")
def crm_learning_run():
    world = generate_world(SimConfig(100, 50, 10, noise_scale=1.0), seed=7)
    log = simulate_log(world, world.logging_policy, 30_000, seed=8)
    split = split_queries({q for q, _ in world.pair_ids()}, (0.6, 0.2, 0.2), seed=7)
    dev = world_supervised(world, split.dev)
    test = world_supervised(world, split.test)
    config = TrainConfig(
        batch_size=256, epochs=10, learning_rate=0.01, seed=1,
        lam=0.5, eval_every=2000, max_probes=6,
    )
    p0 = init_params("linear", 10, seed=0)
    full_passes = []
    full_pass = training.snips_denominator

    def counted_pass(log, params):
        full_passes.append(params)
        return full_pass(log, params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "snips_denominator", counted_pass)
        lam_star, _, sweep = lambda_search(log, dev, p0, config, probe_epochs=2)
    params, history = train_crm(
        log, dev, p0, dataclasses.replace(config, lam=lam_star)
    )
    search_passes = (len(full_passes), len(sweep))
    return world, log, dev, test, params, history, lam_star, search_passes


def test_criterion_7_crm_learning(crm_learning_run):
    world, log, dev, test, params, history, lam_star, search_passes = crm_learning_run
    risk_logger = true_risk(world, world.logging_policy.params)
    risk_trained = true_risk(world, params)
    map_logger = evaluate_policy(world.logging_policy.params, test).map
    map_trained = evaluate_policy(params, test).map
    ok = risk_trained < risk_logger and map_trained > map_logger
    verdict(
        7, ok,
        f"lambda*={lam_star:.3f}; risk {risk_trained:.4f} < {risk_logger:.4f}; "
        f"test MAP {map_trained:.4f} > {map_logger:.4f}",
    )
    # the search reads S at the best checkpoint of each probe and each full run only
    passes, probed = search_passes
    assert passes <= 2 * probed, f"{passes} full-log passes for {probed} probed lambdas"


def test_criterion_8_estimator_ordering():
    maps = {"snips": [], "ips": [], "ea": []}
    for seed in range(5):
        world = generate_world(SimConfig(100, 50, 10, noise_scale=1.0), seed=100 + seed)
        log = simulate_log(world, world.logging_policy, 30_000, seed=200 + seed)
        split = split_queries({q for q, _ in world.pair_ids()}, (0.6, 0.2, 0.2), seed)
        dev = world_supervised(world, split.dev)
        test = world_supervised(world, split.test)
        p0 = init_params("linear", 10, seed=seed)
        config = TrainConfig(
            batch_size=256, epochs=10, learning_rate=0.01, seed=seed,
            lam=0.3, eval_every=10**9,
        )
        p_snips, _ = train_crm(log, dev, p0, config)
        p_ips, _ = train_crm(log, dev, p0, dataclasses.replace(config, lam=0.0))
        p_ea, _ = train_ea(log, dev, p0, config)
        for name, p in (("snips", p_snips), ("ips", p_ips), ("ea", p_ea)):
            maps[name].append(evaluate_policy(p, test).map)
    means = {k: float(np.mean(v)) for k, v in maps.items()}
    ok = means["snips"] >= means["ips"] >= means["ea"]
    verdict(8, ok, f"mean test MAP: SNIPS {means['snips']:.4f} >= IPS {means['ips']:.4f} >= EA {means['ea']:.4f}")


def test_criterion_9_lambda_s_behavior():
    world = generate_world(SimConfig(100, 50, 10, noise_scale=1.0), seed=7)
    log = simulate_log(world, world.logging_policy, 30_000, seed=8)
    split = split_queries({q for q, _ in world.pair_ids()}, (0.6, 0.2, 0.2), seed=7)
    dev = world_supervised(world, split.dev)
    p0 = init_params("linear", 10, seed=0)
    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    rows = []
    for lam in grid:
        config = TrainConfig(
            batch_size=256, epochs=10, learning_rate=0.01, seed=1,
            lam=lam, eval_every=10**9,
        )
        params, _ = train_crm(log, dev, p0, config)
        rows.append(
            (lam, snips_denominator(log, params), evaluate_policy(params, dev).map)
        )
    s_vals = [s for _, s, _ in rows]
    inversions = [max(0.0, a - b) for a, b in zip(s_vals, s_vals[1:])]
    n_inversions = sum(1 for v in inversions if v > 0)
    ok_mono = n_inversions <= 1 and all(v <= 0.02 for v in inversions)
    best = max(rows, key=lambda r: r[2])
    ok_best = 0.8 <= best[1] <= 1.2
    verdict(
        9, ok_mono and ok_best,
        f"S over grid {['%.3f' % s for s in s_vals]}, inversions={n_inversions}, "
        f"best lambda {best[0]:.1f} with S={best[1]:.3f}",
    )


def test_criterion_10_metric_fixture():
    run: dict[str, list[str]] = {}
    query_ids, product_ids, scores = [], [], []
    for line in (FIXTURES / "fixture_run.txt").read_text().splitlines():
        q, _, d, rank, score, _ = line.split()
        run.setdefault(q, []).append(d)
        query_ids.append(q)
        product_ids.append(d)
        scores.append(float(score))
    qrels = {}
    for line in (FIXTURES / "fixture_qrels.txt").read_text().splitlines():
        q, _, d, grade = line.split()
        qrels[(q, d)] = int(grade)
    rep = rank_metrics(query_ids, product_ids, scores, qrels, ks=[5, 10])
    diffs = {
        "MAP": abs(rep.map - trec_eval_map(run, qrels)),
        "MRR": abs(rep.mrr - trec_eval_mrr(run, qrels)),
        "P@5": abs(rep.p_at[5] - trec_eval_p_at(run, qrels, 5)),
        "P@10": abs(rep.p_at[10] - trec_eval_p_at(run, qrels, 10)),
        "NDCG@5": abs(rep.ndcg_at[5] - trec_eval_ndcg_at(run, qrels, 5)),
        "NDCG@10": abs(rep.ndcg_at[10] - trec_eval_ndcg_at(run, qrels, 10)),
    }
    ok = all(v < 1e-4 for v in diffs.values())
    # hand-derived example: grades (0, 3) -> NDCG@2 = (7/log2(3)) / 7
    hand = rank_metrics(
        ["q", "q"], ["a", "b"], [2.0, 1.0],
        {("q", "a"): 0, ("q", "b"): 3},
        ks=[2],
    ).ndcg_at[2]
    ok = ok and abs(hand - 0.630930) < 1e-6
    verdict(10, ok, f"max fixture diff {max(diffs.values()):.2e}; hand NDCG {hand:.6f}")


def test_criterion_11_aggregation_pipeline():
    rng = np.random.default_rng(11)
    impressions, positives = [], []
    for q in range(10):
        for p in range(15):
            vis = int(rng.integers(0, 150))
            pos = int(rng.integers(0, vis + 1))
            impressions.extend([(f"q{q}", f"p{p}")] * vis)
            positives.extend([(f"q{q}", f"p{p}")] * pos)
    table = aggregate_feedback(impressions, positives, 50)
    expected = brute_aggregate(impressions, positives, 50)
    ok = set(table.entries) == set(expected)
    for key, (rr, nrr, label) in expected.items():
        e = table[key]
        ok = ok and e.rr == rr and e.nrr == nrr and e.label == label
    split = split_queries({f"q{i}" for i in range(3060)}, (0.6, 0.2, 0.2), seed=3)
    sizes = (len(split.train), len(split.dev), len(split.test))
    ok = ok and sizes == (1836, 612, 612)
    verdict(11, ok, f"aggregation exact over {len(expected)} pairs; split sizes {sizes}")


def test_criterion_12_learning_progress_shape(crm_learning_run):
    _, _, dev, _, _, history, _, _ = crm_learning_run
    first = evaluate_policy(history.checkpoints[0].params, dev)
    last = evaluate_policy(history.checkpoints[-1].params, dev)
    ok = last.avg_rank < first.avg_rank and last.avg_dcg > first.avg_dcg
    verdict(
        12, ok,
        f"avg_rank {first.avg_rank:.2f} -> {last.avg_rank:.2f}, "
        f"avg_dcg {first.avg_dcg:.3f} -> {last.avg_dcg:.3f}",
    )
