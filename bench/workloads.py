"""The benchmark's three workloads: ``search``, ``ingest`` and ``cli``.

Each workload has a timed ``setup`` that builds its inputs, an untimed
``prepare`` that computes reference values for the output checks, and a
``run`` that performs one pass of the timed job and then checks its
outputs outside the timed region. Library calls go through module
attributes (``training.lambda_search``), so the tracer's rebinding sees them.

Why these inputs:

- ``search`` and ``cli`` use fixed worlds and logs. The number of lambda
  probes, and with it the work, jumps between 1 and ``max_probes`` across
  worlds (on the criterion-7 world, 2 of 8 log seeds took 6 probes and
  5-6x the time; 1 of 8 CLI worlds took 10 probes and 9x the time), so a
  seeded world would measure the seed, not the code.
- ``ingest`` does the same work on any world, so its log and its event
  streams are drawn from the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from banditrank import aggregation, data, estimators, simulator, training
from banditrank.policy import PolicyParams, init_params
from oracles import brute_aggregate  # the tests' brute-force aggregation oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    """Outcome of one operation: a timed call or one CLI subprocess."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Pass:
    """One pass of a workload's job: its timed segments, as ``(wall_s,
    scaled_s)`` pairs from ``Clock.segment``, and its checked operations."""

    segments: list[tuple[float, float]]
    ops: list[Op]
    quality: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    # Peak RSS of the processes that did the job, where that is not the
    # benchmark's own process (the CLI children).
    peak_rss_mb: float | None = None

    @property
    def wall(self) -> float:
        return sum(w for w, _ in self.segments)

    @property
    def scaled(self) -> float:
        return sum(s for _, s in self.segments)


class WarningCounter(logging.Handler):
    """Counts warnings of one library logger instead of printing them."""

    def __init__(self, logger_name: str):
        super().__init__(logging.WARNING)
        self.count = 0
        logger = logging.getLogger(logger_name)
        logger.addHandler(self)
        logger.propagate = False

    def emit(self, record):
        self.count += 1


class Search:
    """In-process lambda search on the world of acceptance criterion 7."""

    config = training.TrainConfig(
        batch_size=256, epochs=10, learning_rate=0.01, seed=1,
        lam=0.5, eval_every=2000, max_probes=6,
    )
    probe_epochs = 2

    def __init__(self, work_dir: str, seed: int):
        pass  # fixed inputs: see the module docstring

    def setup(self):
        world = simulator.generate_world(simulator.SimConfig(100, 50, 10), seed=7)
        log = simulator.simulate_log(world, world.logging_policy, 30_000, seed=8)
        split = data.split_queries({q for q, _ in world.pair_ids()}, (0.6, 0.2, 0.2), 7)
        return {
            "world": world,
            "log": log,
            "dev": simulator.world_supervised(world, split.dev),
            "test": simulator.world_supervised(world, split.test),
            "p0": init_params("linear", 10, seed=0),
            "logger_risk": simulator.true_risk(world, world.logging_policy.params),
        }

    def prepare(self, inputs):
        inputs["logger_map"] = training.evaluate_policy(
            inputs["world"].logging_policy.params, inputs["test"]
        ).map

    def run(self, inputs, tracer, paused, clock) -> Pass:
        segments = []
        try:
            with clock.segment(segments):
                lam, params, _ = training.lambda_search(
                    inputs["log"], inputs["dev"], inputs["p0"], self.config,
                    probe_epochs=self.probe_epochs,
                )
        except Exception as exc:  # an operation that raises is a failed operation
            return Pass(segments, [Op("lambda_search", False, repr(exc))])
        with paused():
            risk = simulator.true_risk(inputs["world"], params)
            test_map = training.evaluate_policy(params, inputs["test"]).map
            S = estimators.snips_denominator(inputs["log"], params)
        problems = []
        if not 0.0 <= lam <= 1.0:
            problems.append(f"lambda* {lam!r} outside [0, 1]")
        if not risk < inputs["logger_risk"]:
            problems.append(f"true risk {risk:.6f} not below logger {inputs['logger_risk']:.6f}")
        if not test_map > inputs["logger_map"]:
            problems.append(f"test MAP {test_map:.6f} not above logger {inputs['logger_map']:.6f}")
        return Pass(
            segments,
            [Op("lambda_search", not problems, "; ".join(problems))],
            {"test_map": test_map, "true_risk": risk, "lambda_star": lam, "S": S},
        )

    def extras(self, inputs, paused) -> dict[str, float]:
        return {}


class Ingest:
    """In-process data stage: log write/parse, aggregation, supervised TSV."""

    n_queries, products_per_query = 1000, 20
    n_log = 60_000
    n_impressions = 600_000
    # About 30 impressions per pair, so 20 keeps almost every pair; the
    # library default of 50 would drop them all.
    visibility_threshold = 20
    # Chance that an impression is a positive is this times true relevance.
    positive_rate = 0.01

    def __init__(self, work_dir: str, seed: int):
        self.seed = seed
        self.log_path = os.path.join(work_dir, "log.jsonl")
        self.sup_path = os.path.join(work_dir, "supervised.tsv")
        self.warnings = WarningCounter("banditrank.aggregation")

    def setup(self):
        world = simulator.generate_world(
            simulator.SimConfig(self.n_queries, self.products_per_query, 10), seed=11
        )
        log = simulator.simulate_log(world, world.logging_policy, self.n_log, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        pairs = world.pair_ids()
        idx = rng.integers(0, world.n_pairs, size=self.n_impressions)
        clicked = rng.random(self.n_impressions) < self.positive_rate * world.true_relevance[idx]
        impressions = [pairs[i] for i in idx.tolist()]
        positives = [impressions[i] for i in np.flatnonzero(clicked).tolist()]
        shown: dict[str, set[str]] = {}
        for i in np.unique(idx).tolist():
            shown.setdefault(pairs[i][0], set()).add(pairs[i][1])
        return {
            "world": world,
            "log": log,
            "impressions": impressions,
            "positives": positives,
            "shown": shown,
            "contexts": dict(zip(pairs, world.contexts)),
            "logger_risk": simulator.true_risk(world, world.logging_policy.params),
        }

    def prepare(self, inputs):
        world = inputs["world"]
        split = data.split_queries({q for q, _ in world.pair_ids()}, (0.6, 0.2, 0.2), 11)
        inputs["logger_map"] = training.evaluate_policy(
            world.logging_policy.params, simulator.world_supervised(world, split.test)
        ).map
        inputs["reference"] = brute_aggregate(
            inputs["impressions"], inputs["positives"], self.visibility_threshold
        )

    def run(self, inputs, tracer, paused, clock) -> Pass:
        names = ["write_bandit_log", "parse_bandit_log", "aggregate_feedback",
                 "build_supervised", "write_supervised", "read_supervised"]
        out, done, segments = {}, 0, []
        self.warnings.count = 0
        try:
            # One timed segment per operation, so the host's speed is probed
            # between operations rather than only around the whole pass.
            with clock.segment(segments), open(self.log_path, "w", encoding="utf-8") as fh:
                data.write_bandit_log(inputs["log"], fh)
            done += 1
            with clock.segment(segments), open(self.log_path, "r", encoding="utf-8") as fh:
                out["parsed"] = data.parse_bandit_log(fh)
            done += 1
            with clock.segment(segments):
                out["table"] = aggregation.aggregate_feedback(
                    inputs["impressions"], inputs["positives"], self.visibility_threshold
                )
            done += 1
            with clock.segment(segments):
                out["rows"] = aggregation.build_supervised(
                    out["table"], inputs["shown"], inputs["contexts"], seed=self.seed
                )
            done += 1
            with clock.segment(segments), open(self.sup_path, "w", encoding="utf-8") as fh:
                data.write_supervised(out["rows"], fh)
            done += 1
            with clock.segment(segments), open(self.sup_path, "r", encoding="utf-8") as fh:
                out["back"] = data.read_supervised(fh)
        except Exception as exc:  # an operation that raises is a failed operation
            ops = [Op(n, True) for n in names[:done]] + [Op(names[done], False, repr(exc))]
            ops += [Op(n, False, f"skipped after {names[done]} failed") for n in names[done + 1:]]
            return Pass(segments, ops)
        with paused():
            checks = {
                "write_bandit_log": "",
                "parse_bandit_log": "" if out["parsed"] == inputs["log"]
                else "parse(write(log)) differs from the log",
                "aggregate_feedback": self._check_table(out["table"], inputs["reference"]),
                "build_supervised": self._check_rows(out["rows"], out["table"]),
                "write_supervised": "",
                "read_supervised": "" if out["back"] == out["rows"]
                else "read(write(rows)) differs from the rows",
            }
        return Pass(
            segments,
            [Op(n, not checks[n], checks[n]) for n in names],
            # Ingest trains no policy; it reports the logging policy's quality.
            {"test_map": inputs["logger_map"], "true_risk": inputs["logger_risk"]},
            {"queries_without_negatives": self.warnings.count,
             "supervised_rows": len(out["rows"]), "table_entries": len(out["table"])},
        )

    def extras(self, inputs, paused) -> dict[str, float]:
        """Growth exponent of build_supervised: log2 of its time on all
        queries over its time on the events of half of them."""
        half = {f"q{i}" for i in range(self.n_queries // 2)}
        times = []
        with paused():
            for keep in (lambda q: True, half.__contains__):
                table = aggregation.aggregate_feedback(
                    [e for e in inputs["impressions"] if keep(e[0])],
                    [e for e in inputs["positives"] if keep(e[0])],
                    self.visibility_threshold,
                )
                t0 = time.perf_counter()
                aggregation.build_supervised(table, inputs["shown"], inputs["contexts"],
                                             seed=self.seed)
                times.append(time.perf_counter() - t0)
        return {"aggregation.build_supervised.scaling": math.log2(times[0] / times[1])}

    @staticmethod
    def _check_table(table, reference) -> str:
        if set(table.entries) != set(reference):
            return f"table has {len(table)} pairs, oracle {len(reference)}"
        for pair, (rr, nrr, label) in reference.items():
            e = table[pair]
            if e.label != label or not (
                math.isclose(e.rr, rr, abs_tol=1e-12) and math.isclose(e.nrr, nrr, abs_tol=1e-12)
            ):
                return f"pair {pair}: {e} != oracle {(rr, nrr, label)}"
        return ""

    @staticmethod
    def _check_rows(rows, table) -> str:
        positives = {pair for pair, e in table.entries.items() if e.label > 0}
        seen = set()
        for r in rows:
            key = (r.query_id, r.product_id)
            if key not in table or table[key].label != r.label or table[key].nrr != r.nrr:
                return f"row {key} does not match the relevance table"
            seen.add(key)
        if not positives <= seen:
            return f"{len(positives - seen)} positive pairs missing from the rows"
        return ""


class Cli:
    """Subprocess chain simulate -> train-crm -> lambda-sweep -> evaluate."""

    world_seed = 0  # the CLI's default seed
    n_interactions = 30_000
    train_config = {"policy": "mlp", "hidden": 16, "learning_rate": 0.01}
    outputs = {
        "simulate": ["world.json", "log.jsonl", "dev.tsv", "test.tsv", "qrels.txt",
                     "logging_policy.json"],
        "train-crm": ["model.json", "history.tsv"],
        "lambda-sweep": ["model.json", "sweep.tsv", "lambda.json"],
        "evaluate": ["metrics.txt", "run.txt", "qrels.txt"],
    }
    timeout_s = 150

    def __init__(self, work_dir: str, seed: int):
        # fixed inputs, like Search: see the module docstring
        self.work = work_dir
        self.src = os.path.join(os.getcwd(), "src")
        self.log_digest = None

    def setup(self):
        world = simulator.generate_world(simulator.SimConfig(), seed=self.world_seed)
        log = simulator.simulate_log(
            world, world.logging_policy, self.n_interactions, self.world_seed + 1
        )
        sim_cfg = os.path.join(self.work, "simulate.json")
        train_cfg = os.path.join(self.work, "train.json")
        with open(sim_cfg, "w", encoding="utf-8") as fh:
            json.dump({"seed": self.world_seed, "n_interactions": self.n_interactions}, fh)
        with open(train_cfg, "w", encoding="utf-8") as fh:
            json.dump(self.train_config, fh)
        return {
            "world": world,
            "log": log,
            "sim_cfg": sim_cfg,
            "train_cfg": train_cfg,
            "logger_risk": simulator.true_risk(world, world.logging_policy.params),
        }

    def prepare(self, inputs):
        pass

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def steps(self, inputs, run_root):
        d = {name: os.path.join(run_root, name) for name in self.outputs}
        sim = d["simulate"]
        train_in = ["--config", inputs["train_cfg"], "--log", os.path.join(sim, "log.jsonl"),
                    "--dev", os.path.join(sim, "dev.tsv")]
        return d, [
            ("simulate", ["--config", inputs["sim_cfg"]]),
            ("train-crm", train_in),
            ("lambda-sweep", train_in),
            ("evaluate", ["--model", os.path.join(d["lambda-sweep"], "model.json"),
                          "--test", os.path.join(sim, "test.tsv")]),
        ]

    def run(self, inputs, tracer, paused, clock) -> Pass:
        run_root = os.path.join(self.work, "run")
        shutil.rmtree(run_root, ignore_errors=True)
        dirs, steps = self.steps(inputs, run_root)
        env = self.env()
        ops, segments, peak_kb = [], [], 0
        traced = tracer is not None and tracer.active
        for cmd, args in steps:
            argv = [cmd, *args, "--out", dirs[cmd]]
            # Every step runs through the shim, which reports the child's
            # peak memory, and its spans when traced.
            report = os.path.join(self.work, f"step-{cmd}.json")
            full = [sys.executable, os.path.join(BENCH_DIR, "cli_shim.py"), report,
                    "1" if traced else "0", *argv]
            with clock.segment(segments):
                start = time.perf_counter()
                try:
                    proc = subprocess.run(full, env=env, capture_output=True, text=True,
                                          timeout=self.timeout_s)
                    rc, err = proc.returncode, proc.stderr
                except subprocess.TimeoutExpired:
                    rc, err = -1, f"timed out after {self.timeout_s} s"
                end = time.perf_counter()
            step = {}
            if os.path.exists(report):
                with open(report, "r", encoding="utf-8") as fh:
                    step = json.load(fh)
                os.remove(report)
                peak_kb = max(peak_kb, step["peak_rss_kb"])
            if traced:
                parent = tracer.add(f"cli.{cmd}", start, end, rc != 0)
                tracer.adopt(step.get("spans", []), parent)
            ops.append(Op(cmd, rc == 0, "" if rc == 0 else f"exit {rc}: {err.strip()[-300:]}"))
            if rc != 0:
                ops += [Op(c, False, f"skipped after {cmd} failed") for c, _ in steps[len(ops):]]
                return Pass(segments, ops, peak_rss_mb=peak_kb / 1024.0)
        with paused():
            quality = self._check(inputs, dirs, ops)
        return Pass(segments, ops, quality, peak_rss_mb=peak_kb / 1024.0)

    def _check(self, inputs, dirs, ops) -> dict:
        by_name = {op.name: op for op in ops}

        def fail(cmd, detail):
            by_name[cmd].ok = False
            by_name[cmd].detail = (by_name[cmd].detail + "; " if by_name[cmd].detail else "") + detail

        for cmd, names in self.outputs.items():
            try:
                with open(os.path.join(dirs[cmd], "manifest.json"), "r", encoding="utf-8") as fh:
                    manifest = json.load(fh)
            except (OSError, ValueError) as exc:
                fail(cmd, f"manifest.json unreadable: {exc}")
                continue
            for name in names:
                path = manifest.get(name)
                if path is None or not os.path.isfile(path) or os.path.getsize(path) == 0:
                    fail(cmd, f"manifest does not list a non-empty {name}")
        quality = {}
        try:
            log_path = os.path.join(dirs["simulate"], "log.jsonl")
            with open(log_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if self.log_digest is None:
                with open(log_path, "r", encoding="utf-8") as fh:
                    if data.parse_bandit_log(fh) != inputs["log"]:
                        fail("simulate", "log.jsonl differs from the simulated log")
                    else:
                        self.log_digest = digest
            elif digest != self.log_digest:
                fail("simulate", "log.jsonl differs from the first pass")
            with open(os.path.join(dirs["lambda-sweep"], "lambda.json"), "r", encoding="utf-8") as fh:
                lam = float(json.load(fh)["lambda"])
            if not 0.0 <= lam <= 1.0:
                fail("lambda-sweep", f"lambda* {lam!r} outside [0, 1]")
            params = PolicyParams.load(os.path.join(dirs["lambda-sweep"], "model.json"))
            with open(os.path.join(dirs["evaluate"], "metrics.txt"), "r", encoding="utf-8") as fh:
                metrics = dict(line.rstrip("\n").split("\t") for line in fh if line.strip())
            quality = {
                "test_map": float(metrics["map"]),
                "true_risk": simulator.true_risk(inputs["world"], params),
                "lambda_star": lam,
                "S": estimators.snips_denominator(inputs["log"], params),
            }
        except (OSError, ValueError, KeyError) as exc:
            fail("evaluate", f"outputs unreadable: {exc!r}")
        return quality

    def extras(self, inputs, paused) -> dict[str, float]:
        """Median wall time of starting Python and importing banditrank.cli."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import banditrank.cli"], env=self.env(),
                           check=True, timeout=self.timeout_s)
            times.append(time.perf_counter() - start)
        return {"cli.startup_s": sorted(times)[1]}


WORKLOADS = {"search": Search, "ingest": Ingest, "cli": Cli}
