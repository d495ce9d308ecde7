"""Command-line entry point composing the library into end-to-end workflows.

Every subcommand resolves one flat config. Precedence, lowest first: the
subcommand's defaults, then the JSON file given by ``--config``, then the
flags. A flag is named like the config key it sets (``--eval-every`` sets
``eval_every``, ``--lambda`` sets ``lambda``). The defaults are read from
the library (``TrainConfig``, ``SimConfig``, ...); a key whose default is
``None`` is a required input, given by its flag or by the config file.
Unknown config keys are rejected. A value in the file must have its default's
type (an int serves for a float, a list for a tuple; a required input is a str).

All outputs go into the run directory ``--out``, together with the resolved
config as given (``config.json``) and a manifest mapping each output name to
its path (``manifest.json``).

Exit codes: 0 success; 1 a usage or validation error (bad flags or config, a
missing required input, an empty or malformed input); 2 an I/O error (a file
that cannot be read or written).

Speed and bits assume one BLAS thread (``OPENBLAS_NUM_THREADS=1``), as the tests
and the benchmark run it. Left unpinned on 2 shared vCPUs, an MLP's ``X @ w1.T``
over a 4,990-row log table took 0.24-8 ms instead of 0.07-0.1 ms, ``train-crm``
0.60-0.80 s instead of 0.38-0.56 s and ``lambda-sweep`` 0.50-0.66 s instead of
0.35-0.56 s; the bit-for-bit tests ran on one thread.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from banditrank import aggregation, simulator
from banditrank.data import (
    LogParseError,
    SupervisedSet,
    _check_ids,
    open_text,
    parse_bandit_log,
    read_supervised,
    split_queries,
    write_bandit_log,
    write_supervised,
)
from banditrank.estimators import lagrangian_risk, snips_denominator
from banditrank.evaluation import DEFAULT_KS, RankIndex, write_qrels
from banditrank.policy import PolicyParams, _checked_shapes, init_params, logit_margin
from banditrank.training import (
    TrainConfig,
    TrainHistory,
    lambda_search,
    train_crm,
    train_full_info,
    weighted_cross_entropy,
)


class CliError(ValueError):
    """A usage or validation error found by the CLI itself (exit code 1)."""


def _key(field: str) -> str:
    """The config key of a library config field: ``lam`` is ``lambda``."""
    return "lambda" if field == "lam" else field


def _library_default(fn, parameter: str):
    """The default value of ``fn``'s ``parameter``, so the CLI does not restate it."""
    return inspect.signature(fn).parameters[parameter].default


def _from_config(cls, cfg: dict):
    """A library config dataclass built from the config keys named like its fields."""
    return cls(**{f.name: cfg[_key(f.name)] for f in fields(cls)})


_SIM_DEFAULTS = {
    **asdict(simulator.SimConfig()),
    "n_interactions": 20_000,
    "seed": 0,
    "split_ratios": [0.6, 0.2, 0.2],
    "top_fraction": _library_default(simulator.world_supervised, "top_fraction"),
}
_TRAIN_DEFAULTS = {
    **{_key(f): v for f, v in asdict(TrainConfig()).items()},
    "policy": "linear",
    "hidden": 16,
}


def _type_name(default) -> str:
    if default is None:
        return "str"
    if isinstance(default, (list, tuple)):
        return f"list of {_type_name(default[0])}"
    return type(default).__name__


def _fits(value, default) -> bool:
    """Whether a config file ``value`` has the type of its key's ``default``; a bool is no
    int, and an int serves for a float only if a float can hold it."""
    if isinstance(default, (list, tuple)):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    wanted = str if default is None else type(default)
    return type(value) is wanted or (
        type(value) is int and wanted is float and abs(value) <= sys.float_info.max)


def _config(args) -> dict:
    """Resolve the subcommand's config and create the run directory.

    Returns the config as given, which ``config.json`` records.
    """
    defaults = args.defaults
    cfg = dict(defaults)
    if args.config:
        with open_text(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise CliError(f"config {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            if not _fits(value, defaults[key]):
                raise CliError(f"{key}: expected {_type_name(defaults[key])}, got {value!r}")
        cfg.update(file_cfg)
    cfg.update(
        {key: value for key, value in vars(args).items() if key in defaults and value is not None}
    )
    required = [key for key, default in defaults.items() if default is None]
    if not all(cfg[key] for key in required):
        raise CliError(f"{args.command} requires {' and '.join(required)}")
    os.makedirs(args.out, exist_ok=True)
    return cfg


def _finish(args, cfg: dict, writers: dict) -> None:
    """Write each named output with its writer, then ``config.json`` and ``manifest.json``."""
    paths = {name: os.path.join(args.out, name) for name in writers}
    for name, write in writers.items():
        with open_text(paths[name], "w") as fh:
            write(fh)
    for name, obj in (("config.json", cfg), ("manifest.json", paths)):
        with open_text(os.path.join(args.out, name), "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)


def cmd_simulate(cfg: dict) -> dict:
    seed = cfg["seed"]
    if seed < 0:
        raise CliError(f"seed must be >= 0, got {seed}")
    world = simulator.generate_world(_from_config(simulator.SimConfig, cfg), seed)
    log = simulator.simulate_log(world, world.logging_policy, cfg["n_interactions"], seed + 1)
    split = split_queries(simulator._names(world.config)[0], tuple(cfg["split_ratios"]), seed)
    dev = simulator.world_supervised(world, split.dev, cfg["top_fraction"])
    test = simulator.world_supervised(world, split.test, cfg["top_fraction"])
    return {
        "world.json": lambda fh: simulator.save_world(world, fh),
        "log.jsonl": lambda fh: write_bandit_log(log, fh),
        "dev.tsv": lambda fh: write_supervised(dev, fh),
        "test.tsv": lambda fh: write_supervised(test, fh),
        "qrels.txt": lambda fh: write_qrels(test.qrels(), fh),
        "logging_policy.json": world.logging_policy.params.save,
    }


def cmd_aggregate(cfg: dict) -> dict:
    def read_pairs(path):
        with open_text(path) as fh:
            rows = [(n, line.rstrip("\n").split("\t"))
                    for n, line in enumerate(fh, start=1) if line.strip()]
        for line_no, fields in rows:
            if len(fields) < 2:
                raise CliError(f"{path} line {line_no}: expected query id <tab> product id")
        return [tuple(fields[:2]) for _, fields in rows]

    table = aggregation.aggregate_feedback(
        read_pairs(cfg["impressions"]), read_pairs(cfg["positives"]), cfg["visibility_threshold"]
    )
    return {"relevance.tsv": lambda fh: aggregation.export_relevance_table(table, fh)}


def _read(reader, path: str):
    """``reader(path)``, a malformed input reported by its path: a bad line as
    ``<path> line N: ...`` like ``aggregate``'s, anything else as ``<path>: ...``."""
    try:
        return reader(path)
    except LogParseError as exc:
        raise CliError(f"{path} {exc}") from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _initial_params(cfg: dict, feature_dim: int) -> PolicyParams:
    return init_params(cfg["policy"], feature_dim, cfg["hidden"], cfg["seed"])


def _train_config(cfg: dict) -> TrainConfig:
    """A training subcommand's ``TrainConfig``, with its ``policy`` and ``hidden`` checked
    as ``init_params`` checks them, so that a bad config fails before any input is read."""
    config = _from_config(TrainConfig, cfg)
    _checked_shapes(cfg["policy"], 1, cfg["hidden"])
    return config


def _log_inputs(cfg: dict) -> tuple:
    """The training log, dev set, initial policy and ``TrainConfig`` of a log-trained subcommand;
    the config is checked before any input is read."""
    config = _train_config(cfg)
    log = _read(parse_bandit_log, cfg["log"])
    dev = _read(read_supervised, cfg["dev"])
    if len(log) == 0:
        raise CliError("bandit log is empty")
    return log, dev, _initial_params(cfg, log.feature_dim), config


def _warn(stopped: str | None, run: str = "") -> None:
    """One ``warning:`` line on stderr for a run that diverged and kept its best checkpoint."""
    if stopped is not None:
        print(f"warning: {run}{stopped}", file=sys.stderr)


def _dev_report(dev: SupervisedSet):
    """The dev report of a policy's params, ranked by one ``RankIndex`` of ``dev``."""
    index = RankIndex(dev.query_ids, dev.product_ids, dev.labels)
    return lambda params: index.report(logit_margin(params, dev.contexts))


def _history(history: TrainHistory, numbers, dev: SupervisedSet):
    """The writer of ``history.tsv``: one row per checkpoint, of records seen, the
    ``numbers`` of its params, and the MAP, NDCG@10, average rank and average DCG of
    its dev report. A checkpoint holds its dev MAP and params alone, so every column
    but records seen is computed from its params when the file is written."""
    def write(fh):
        report = _dev_report(dev)
        for i, cp in enumerate(history.checkpoints):
            m = report(cp.params)
            row = {**numbers(cp.params), "map": m.map, "ndcg@10": m.ndcg_at[10],
                   "avg_rank": m.avg_rank, "avg_dcg": m.avg_dcg}
            if i == 0:
                fh.write("\t".join(["records_seen", *row]) + "\n")
            fh.write("\t".join([str(cp.records_seen), *map(repr, row.values())]) + "\n")

    return write


def cmd_train_crm(cfg: dict) -> dict:
    log, dev, params0, config = _log_inputs(cfg)
    params, history = train_crm(log, dev, params0, config)
    _warn(history.stopped)

    def numbers(params):
        report = lagrangian_risk(log, params, config.lam)
        return {"objective": report.estimate, "S": report.mean_importance_weight}

    return {"model.json": params.save, "history.tsv": _history(history, numbers, dev)}


def cmd_train_fullinfo(cfg: dict) -> dict:
    config = _train_config(cfg)
    train = _read(read_supervised, cfg["train"])
    dev = _read(read_supervised, cfg["dev"])
    if not train:
        raise CliError("training set is empty")
    params0 = _initial_params(cfg, train.feature_dim)
    params, history = train_full_info(train, dev, params0, config)
    _warn(history.stopped)
    return {
        "model.json": params.save,
        # a full-information run has no importance weights, so no S
        "history.tsv": _history(
            history, lambda p: {"objective": weighted_cross_entropy(train, p)}, dev),
    }


def cmd_lambda_sweep(cfg: dict) -> dict:
    log, dev, params0, config = _log_inputs(cfg)
    lam_star, params, runs = lambda_search(log, dev, params0, config,
                                           probe_epochs=cfg["probe_epochs"])
    for lam, _, history in runs:
        _warn(history.stopped, f"lambda {lam!r}: ")

    def write_sweep(fh):
        """Each probed lambda and its probe's S, which stepped lambda, then S and the
        dev MAP and NDCG@5 of its full run's best checkpoint, computed from its params."""
        report = _dev_report(dev)
        fh.write("lambda\tprobe_S\tS\tmap\tndcg@5\n")
        for lam, probe_S, history in runs:
            best = history.best().params
            m = report(best)
            row = (lam, probe_S, snips_denominator(log, best), m.map, m.ndcg_at[5])
            fh.write("\t".join(map(repr, row)) + "\n")

    return {
        "model.json": params.save,
        "sweep.tsv": write_sweep,
        "lambda.json": lambda fh: json.dump({"lambda": lam_star}, fh),
    }


def cmd_evaluate(cfg: dict) -> dict:
    params = _read(PolicyParams.load, cfg["model"])
    test = _read(read_supervised, cfg["test"])
    if not test:
        raise CliError("test set is empty")
    # the trec writers' id rule, before anything is scored, printed or written
    _check_ids((test.query_ids, test.product_ids), trec=True)
    _check_ids(([cfg["run_tag"]],), trec=True, name="run tag")
    index = RankIndex(test.query_ids, test.product_ids, test.labels, cfg["ks"])
    scores = logit_margin(params, test.contexts)
    metrics = index.report(scores)
    metrics.write(sys.stdout)
    return {
        "metrics.txt": metrics.write,
        "run.txt": lambda fh: index.write_trec_run(scores, cfg["run_tag"], fh),
        "qrels.txt": lambda fh: write_qrels(test.qrels(), fh),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditrank",
        description="Counterfactual learning-to-rank from logged bandit feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def int_list(text: str) -> list[int]:
        return [int(k) for k in text.split(",")]

    def add(name, fn, defaults, *options):
        """Subcommand ``name``: a flag for each required input, then one per option key."""
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--out", required=True)
        for key in [k for k, v in defaults.items() if v is None] + list(options):
            default = defaults[key]
            kind = int_list if key == "ks" else str if default is None else type(default)
            p.add_argument("--" + key.replace("_", "-"), type=kind)
        p.set_defaults(fn=fn, defaults=defaults)

    train_options = ("seed", "epochs", "eval_every")
    log_and_dev = {"log": None, "dev": None}
    add("simulate", cmd_simulate, _SIM_DEFAULTS, "seed", "n_interactions")
    add("aggregate", cmd_aggregate, {
        "impressions": None,
        "positives": None,
        "visibility_threshold": aggregation.DEFAULT_VISIBILITY_THRESHOLD,
    }, "visibility_threshold")
    add("train-crm", cmd_train_crm, {**log_and_dev, **_TRAIN_DEFAULTS}, "lambda", *train_options)
    add("train-fullinfo", cmd_train_fullinfo,
        {"train": None, "dev": None, **_TRAIN_DEFAULTS}, *train_options)
    add("lambda-sweep", cmd_lambda_sweep, {
        **log_and_dev,
        "probe_epochs": _library_default(lambda_search, "probe_epochs"),
        **_TRAIN_DEFAULTS,
    }, *train_options)
    add("evaluate", cmd_evaluate,
        {"model": None, "test": None, "ks": DEFAULT_KS, "run_tag": "banditrank"}, "ks")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Resolve the config, run the subcommand, write its outputs; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        # A diverging run ends in one ``non-finite logits`` error, not numpy warnings first.
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = _config(args)
            _finish(args, cfg, args.fn(cfg))
    except (ValueError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
