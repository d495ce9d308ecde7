"""Command-line entry point composing the library into end-to-end workflows.

Every subcommand reads a flat JSON config file (``--config``), applies flag
overrides, and writes all outputs into a run directory together with the
fully resolved config (``config.json``) and a manifest of produced files
(``manifest.json``). Unknown config keys are rejected.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from banditrank import aggregation, simulator
from banditrank.data import (
    parse_bandit_log,
    read_supervised,
    split_queries,
    write_bandit_log,
    write_supervised,
)
from banditrank.evaluation import rank_metrics, write_qrels, write_trec_run
from banditrank.policy import PolicyParams, init_params
from banditrank.training import (
    TrainConfig,
    lambda_search,
    rank_records,
    train_crm,
    train_full_info,
    write_history,
)

RUN_ROOT_ENV = "BANDITRANK_RUN_ROOT"


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


def _load_config(path: str | None, allowed: dict, overrides: dict) -> dict:
    """Merge defaults, config file, and flag overrides; reject unknown keys."""
    resolved = dict(allowed)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config {path}: {exc}", 2) from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"config {path} is not valid JSON: {exc}") from exc
        unknown = set(file_cfg) - set(allowed)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key, value in overrides.items():
        if value is not None:
            resolved[key] = value
    return resolved


def _run_dir(out: str | None) -> str:
    if out is None:
        raise CliError("--out is required")
    root = os.environ.get(RUN_ROOT_ENV, "")
    path = os.path.join(root, out) if root and not os.path.isabs(out) else out
    os.makedirs(path, exist_ok=True)
    return path


def _finish(run_dir: str, resolved: dict, outputs: dict[str, str]) -> None:
    with open(os.path.join(run_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(outputs, fh, indent=2, sort_keys=True)


def _write(run_dir: str, name: str, writer) -> tuple[str, str]:
    path = os.path.join(run_dir, name)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            writer(fh)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", 2) from exc
    return name, path


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        batch_size=int(cfg["batch_size"]),
        epochs=int(cfg["epochs"]),
        learning_rate=float(cfg["learning_rate"]),
        seed=int(cfg["seed"]),
        lam=float(cfg["lambda"]),
        eval_every=int(cfg["eval_every"]),
        dev_metric=str(cfg["dev_metric"]),
        max_probes=int(cfg["max_probes"]),
    )


_TRAIN_DEFAULTS = {
    "batch_size": 256,
    "epochs": 5,
    "learning_rate": 1e-3,
    "seed": 0,
    "lambda": 0.5,
    "eval_every": 10_000,
    "dev_metric": "MAP",
    "max_probes": 10,
    "policy": "linear",
    "hidden": 16,
}


def cmd_simulate(args) -> int:
    allowed = {
        "n_queries": 100,
        "products_per_query": 50,
        "feature_dim": 10,
        "deep_browse_prob": 0.2,
        "noise_scale": 1.0,
        "temperature": 1.0,
        "n_interactions": 20_000,
        "seed": 0,
        "split_ratios": [0.6, 0.2, 0.2],
        "top_fraction": 0.2,
    }
    cfg = _load_config(
        args.config, allowed, {"seed": args.seed, "n_interactions": args.n_interactions}
    )
    run_dir = _run_dir(args.out)
    sim_cfg = simulator.SimConfig(
        n_queries=int(cfg["n_queries"]),
        products_per_query=int(cfg["products_per_query"]),
        feature_dim=int(cfg["feature_dim"]),
        deep_browse_prob=float(cfg["deep_browse_prob"]),
        noise_scale=float(cfg["noise_scale"]),
        temperature=float(cfg["temperature"]),
    )
    seed = int(cfg["seed"])
    world = simulator.generate_world(sim_cfg, seed)
    log = simulator.simulate_log(
        world, world.logging_policy, int(cfg["n_interactions"]), seed + 1
    )
    split = split_queries(
        {q for q, _ in world.pair_ids()}, tuple(cfg["split_ratios"]), seed
    )
    top = float(cfg["top_fraction"])
    dev = simulator.world_supervised(world, split.dev, top)
    test = simulator.world_supervised(world, split.test, top)
    test_labels = {
        (r.query_id, r.product_id): r.label for r in test
    }
    outputs = dict(
        [
            _write(run_dir, "world.json", lambda fh: simulator.save_world(world, fh)),
            _write(run_dir, "log.jsonl", lambda fh: write_bandit_log(log, fh)),
            _write(run_dir, "dev.tsv", lambda fh: write_supervised(dev, fh)),
            _write(run_dir, "test.tsv", lambda fh: write_supervised(test, fh)),
            _write(run_dir, "qrels.txt", lambda fh: write_qrels(test_labels, fh)),
            _write(
                run_dir,
                "logging_policy.json",
                lambda fh: world.logging_policy.params.save(fh),
            ),
        ]
    )
    _finish(run_dir, cfg, outputs)
    return 0


def cmd_aggregate(args) -> int:
    allowed = {
        "impressions": None,
        "positives": None,
        "visibility_threshold": aggregation.DEFAULT_VISIBILITY_THRESHOLD,
    }
    cfg = _load_config(
        args.config,
        allowed,
        {
            "impressions": args.impressions,
            "positives": args.positives,
            "visibility_threshold": args.visibility_threshold,
        },
    )
    if not cfg["impressions"] or not cfg["positives"]:
        raise CliError("aggregate requires impressions and positives inputs")
    run_dir = _run_dir(args.out)

    def read_pairs(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return [tuple(line.rstrip("\n").split("\t")[:2]) for line in fh if line.strip()]
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}", 2) from exc

    table = aggregation.aggregate_feedback(
        read_pairs(cfg["impressions"]),
        read_pairs(cfg["positives"]),
        int(cfg["visibility_threshold"]),
    )
    contexts = {key: np.zeros(0) for key in table.entries}
    outputs = dict(
        [
            _write(
                run_dir,
                "relevance.tsv",
                lambda fh: aggregation.export_relevance_table(table, contexts, fh),
            )
        ]
    )
    _finish(run_dir, cfg, outputs)
    return 0


def _load_log_and_dev(cfg: dict):
    try:
        with open(cfg["log"], "r", encoding="utf-8") as fh:
            log = parse_bandit_log(fh)
        dev = read_supervised(cfg["dev"])
    except OSError as exc:
        raise CliError(f"cannot read inputs: {exc}", 2) from exc
    if len(log) == 0:
        raise CliError("bandit log is empty")
    return log, dev


def _initial_params(cfg: dict, feature_dim: int) -> PolicyParams:
    return init_params(
        str(cfg["policy"]), feature_dim, int(cfg["hidden"]), int(cfg["seed"])
    )


def cmd_train_crm(args) -> int:
    allowed = {"log": None, "dev": None, **_TRAIN_DEFAULTS}
    cfg = _load_config(
        args.config,
        allowed,
        {"log": args.log, "dev": args.dev, "lambda": args.lam, "seed": args.seed,
         "epochs": args.epochs, "eval_every": args.eval_every},
    )
    if not cfg["log"] or not cfg["dev"]:
        raise CliError("train-crm requires --log and --dev")
    run_dir = _run_dir(args.out)
    log, dev = _load_log_and_dev(cfg)
    params, history = train_crm(log, dev, _initial_params(cfg, log.feature_dim), _train_config(cfg))
    outputs = dict(
        [
            _write(run_dir, "model.json", lambda fh: params.save(fh)),
            _write(run_dir, "history.tsv", lambda fh: write_history(history, fh)),
        ]
    )
    _finish(run_dir, cfg, outputs)
    return 0


def cmd_train_fullinfo(args) -> int:
    allowed = {"train": None, "dev": None, **_TRAIN_DEFAULTS}
    cfg = _load_config(
        args.config,
        allowed,
        {"train": args.train, "dev": args.dev, "seed": args.seed,
         "epochs": args.epochs, "eval_every": args.eval_every},
    )
    if not cfg["train"] or not cfg["dev"]:
        raise CliError("train-fullinfo requires --train and --dev")
    run_dir = _run_dir(args.out)
    try:
        train = read_supervised(cfg["train"])
        dev = read_supervised(cfg["dev"])
    except OSError as exc:
        raise CliError(f"cannot read inputs: {exc}", 2) from exc
    if not train:
        raise CliError("training set is empty")
    params0 = _initial_params(cfg, train[0].context.shape[0])
    params, history = train_full_info(train, dev, params0, _train_config(cfg))
    outputs = dict(
        [
            _write(run_dir, "model.json", lambda fh: params.save(fh)),
            _write(run_dir, "history.tsv", lambda fh: write_history(history, fh)),
        ]
    )
    _finish(run_dir, cfg, outputs)
    return 0


def cmd_lambda_sweep(args) -> int:
    allowed = {"log": None, "dev": None, "probe_epochs": 2, **_TRAIN_DEFAULTS}
    cfg = _load_config(
        args.config,
        allowed,
        {"log": args.log, "dev": args.dev, "seed": args.seed, "epochs": args.epochs,
         "eval_every": args.eval_every},
    )
    if not cfg["log"] or not cfg["dev"]:
        raise CliError("lambda-sweep requires --log and --dev")
    run_dir = _run_dir(args.out)
    log, dev = _load_log_and_dev(cfg)
    lam_star, params, sweep = lambda_search(
        log, dev, _initial_params(cfg, log.feature_dim), _train_config(cfg),
        probe_epochs=int(cfg["probe_epochs"]),
    )

    def write_sweep(fh):
        fh.write("lambda\tS\tmap\tndcg@5\n")
        for probe in sweep:
            m = probe.metrics
            fh.write(
                f"{probe.lam!r}\t{probe.S!r}\t{m.map!r}\t{m.ndcg_at[5]!r}\n"
            )

    outputs = dict(
        [
            _write(run_dir, "model.json", lambda fh: params.save(fh)),
            _write(run_dir, "sweep.tsv", write_sweep),
            _write(
                run_dir,
                "lambda.json",
                lambda fh: json.dump({"lambda": lam_star}, fh),
            ),
        ]
    )
    _finish(run_dir, cfg, outputs)
    return 0


def cmd_evaluate(args) -> int:
    allowed = {"model": None, "test": None, "ks": [5, 10], "run_tag": "banditrank"}
    ks_override = (
        [int(k) for k in args.ks.split(",")] if args.ks else None
    )
    cfg = _load_config(
        args.config,
        allowed,
        {"model": args.model, "test": args.test, "ks": ks_override},
    )
    if not cfg["model"] or not cfg["test"]:
        raise CliError("evaluate requires --model and --test")
    run_dir = _run_dir(args.out)
    try:
        params = PolicyParams.load(cfg["model"])
        test = read_supervised(cfg["test"])
    except OSError as exc:
        raise CliError(f"cannot read inputs: {exc}", 2) from exc
    if not test:
        raise CliError("test set is empty")
    ks = tuple(int(k) for k in cfg["ks"])
    runs = rank_records(params, test)
    labels = {(r.query_id, r.product_id): r.label for r in test}
    metrics = rank_metrics(runs, labels, ks=ks)
    outputs = dict(
        [
            _write(run_dir, "metrics.txt", lambda fh: metrics.write(fh)),
            _write(
                run_dir,
                "run.txt",
                lambda fh: write_trec_run(runs, str(cfg["run_tag"]), fh),
            ),
            _write(run_dir, "qrels.txt", lambda fh: write_qrels(labels, fh)),
        ]
    )
    _finish(run_dir, cfg, outputs)
    metrics.write(sys.stdout)
    return 0


def cmd_learning_curve(args) -> int:
    allowed = {"history": None}
    cfg = _load_config(args.config, allowed, {"history": args.history})
    if not cfg["history"]:
        raise CliError("learning-curve requires --history")
    run_dir = _run_dir(args.out)
    try:
        with open(cfg["history"], "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    except OSError as exc:
        raise CliError(f"cannot read {cfg['history']}: {exc}", 2) from exc
    needed = ["records_seen", "avg_rank", "avg_dcg", "map", "ndcg@10"]
    try:
        idx = [header.index(c) for c in needed]
    except ValueError as exc:
        raise CliError(f"history file missing columns {needed}: {exc}") from exc

    def write_curve(fh):
        fh.write("\t".join(needed) + "\n")
        for row in rows:
            fh.write("\t".join(row[i] for i in idx) + "\n")

    outputs = dict([_write(run_dir, "curve.tsv", write_curve)])
    _finish(run_dir, cfg, outputs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditrank",
        description="Counterfactual learning-to-rank from logged bandit feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, flags):
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--out", required=True)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("simulate", cmd_simulate, {
        "--seed": {"type": int}, "--n-interactions": {"type": int, "dest": "n_interactions"},
    })
    add("aggregate", cmd_aggregate, {
        "--impressions": {}, "--positives": {},
        "--visibility-threshold": {"type": int, "dest": "visibility_threshold"},
    })
    train_flags = {
        "--seed": {"type": int}, "--epochs": {"type": int},
        "--eval-every": {"type": int, "dest": "eval_every"},
    }
    add("train-crm", cmd_train_crm, {
        "--log": {}, "--dev": {}, "--lambda": {"type": float, "dest": "lam"},
        **train_flags,
    })
    add("train-fullinfo", cmd_train_fullinfo, {
        "--train": {}, "--dev": {}, **train_flags,
    })
    add("lambda-sweep", cmd_lambda_sweep, {
        "--log": {}, "--dev": {}, **train_flags,
    })
    add("evaluate", cmd_evaluate, {
        "--model": {}, "--test": {}, "--ks": {},
    })
    add("learning-curve", cmd_learning_curve, {"--history": {}})
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
