"""The benchmark's in-process workloads run one pass on this library and pass
their own output checks, and its tracer records the layers it claims to.
``bench/workloads.py`` and ``bench/tracer.py`` are imported as they are;
``Ingest`` and ``Cli`` are shrunk through subclasses."""

import contextlib
import importlib
import io
import logging
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def workloads():
    return bench_module("workloads")


@pytest.fixture
def tracer(monkeypatch):
    """The bench tracer module, with every library function it rebinds given
    back at teardown."""
    importlib.import_module("banditrank.cli")  # loads every module the tracer rebinds in
    for key, module in list(sys.modules.items()):
        if key == "banditrank" or key.startswith("banditrank."):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, attr, value)
    return bench_module("tracer")


class StubClock:
    """Times each segment with ``perf_counter`` alone, with no host-speed probe."""

    @contextlib.contextmanager
    def segment(self, segments):
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        segments.append((elapsed, elapsed))


def one_pass(workload):
    inputs = workload.setup()
    workload.prepare(inputs)
    return workload.run(inputs, None, contextlib.nullcontext, StubClock())


def test_search_pass(workloads, tmp_path):
    result = one_pass(workloads.Search(str(tmp_path), seed=1))
    assert result.ops and all(op.ok for op in result.ops), [op.detail for op in result.ops]


def test_ingest_pass(workloads, tmp_path):
    class SmallIngest(workloads.Ingest):
        n_queries, n_log, n_impressions = 50, 2_000, 30_000

    workload = SmallIngest(str(tmp_path), seed=1)
    logger = logging.getLogger("banditrank.aggregation")
    try:
        result = one_pass(workload)
    finally:  # give the library logger back to pytest's log capture
        logger.removeHandler(workload.warnings)
        logger.propagate = True
    assert [op.name for op in result.ops] == [
        "write_bandit_log", "parse_bandit_log", "aggregate_feedback",
        "build_supervised", "write_supervised", "read_supervised",
    ]
    assert all(op.ok for op in result.ops), [op.detail for op in result.ops]
    assert result.counts["supervised_rows"] > 0


def test_cli_pass(workloads, tmp_path):
    class SmallCli(workloads.Cli):
        n_interactions = 2_000

        def __init__(self, work_dir, seed):
            super().__init__(work_dir, seed)
            # the workload runs the CLI from ``src`` under the current directory
            self.src = str(BENCH.parent / "src")

    result = one_pass(SmallCli(str(tmp_path), seed=1))
    assert [op.name for op in result.ops] == ["simulate", "train-crm", "lambda-sweep", "evaluate"]
    assert all(op.ok for op in result.ops), [op.detail for op in result.ops]
    assert 0.0 < result.quality["test_map"] <= 1.0


def test_traced_training_spans(tracer):
    from banditrank import cli, estimators, simulator, training
    from banditrank.policy import init_params

    world = simulator.generate_world(simulator.SimConfig(10, 8, 3), seed=1)
    log = simulator.simulate_log(world, world.logging_policy, 600, seed=2)
    config = training.TrainConfig(batch_size=64, epochs=2, learning_rate=0.01, eval_every=200)
    traced = tracer.Tracer()
    traced.install()
    _, history = training.train_crm(log, simulator.world_supervised(world),
                                     init_params("linear", 3, seed=0), config)
    def numbers(p):  # one full pass per checkpoint, for its S and objective
        report = estimators.lagrangian_risk(log, p, config.lam)
        return {"S": report.mean_importance_weight, "objective": report.estimate}

    cli._history(history, numbers, simulator.world_supervised(world))(io.StringIO())
    traced.active = False
    spans = tracer.summarize(traced.spans, 0, len(traced.spans))
    steps = config.epochs * -(-len(log) // config.batch_size)
    assert spans["training.train_crm"]["calls"] == 1
    assert spans["training.adam_step"]["calls"] == steps
    assert spans["estimators.lagrangian_gradient"]["calls"] == steps
    assert spans["policy.batch_probabilities"]["calls"] == len(history.checkpoints) >= 3
    assert spans["estimators.lagrangian_risk"]["calls"] == len(history.checkpoints)
    for name in ("training.adam_step", "estimators.lagrangian_gradient",
                 "policy.batch_probabilities"):
        assert spans[name]["s"] > 0.0 and spans[name]["errors"] == 0
