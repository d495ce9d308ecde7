"""The benchmark's in-process workloads run one pass on this library and pass
their own output checks. ``bench/workloads.py`` is imported as it is;
``Ingest`` and ``Cli`` are shrunk through subclasses."""

import contextlib
import importlib
import logging
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


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
