import gc
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditrank.data import (
    BanditLog,
    BanditRecord,
    LogParseError,
    LogValidationError,
    SupervisedRecord,
    parse_bandit_log,
    read_supervised,
    split_queries,
    write_bandit_log,
    write_supervised,
)
from banditrank.estimators import snips
from banditrank.evaluation import write_qrels, write_trec_run
from banditrank.policy import PolicyParams, init_params
from banditrank.simulator import SimConfig, generate_world, load_world, save_world
from banditrank.training import TrainConfig, rank_records, train_crm, write_history
from conftest import random_log


def record_line(qid="q1", pid="p1", features=(0.5, -1.0), action=1, propensity=0.8, delta=0):
    return json.dumps(
        {
            "query_id": qid,
            "product_id": pid,
            "features": list(features),
            "action": action,
            "propensity": propensity,
            "delta": delta,
        }
    )


class TestParse:
    def test_single_record(self):
        log = parse_bandit_log(io.StringIO(record_line() + "\n"))
        assert len(log) == 1
        assert log.feature_dim == 2
        r = log[0]
        assert (r.query_id, r.product_id) == ("q1", "p1")
        assert (r.action, r.propensity, r.delta) == (1, 0.8, 0)
        np.testing.assert_array_equal(r.context, [0.5, -1.0])

    def test_meta_line(self):
        src = '{"_meta": {"source": "unit"}}\n' + record_line()
        log = parse_bandit_log(io.StringIO(src))
        assert log.metadata == {"source": "unit"}

    def test_zero_propensity_rejected(self):
        with pytest.raises(LogParseError, match="line 1"):
            parse_bandit_log(io.StringIO(record_line(propensity=0.0)))

    def test_tiny_propensity_rejected(self):
        with pytest.raises(LogParseError):
            parse_bandit_log(io.StringIO(record_line(propensity=1e-12)))

    def test_dimension_error_reports_line(self):
        lines = [record_line(), record_line(qid="q2"), record_line(qid="q3"),
                 record_line(qid="q4", features=(1.0, 2.0, 3.0))]
        with pytest.raises(LogParseError, match="line 4"):
            parse_bandit_log(io.StringIO("\n".join(lines)))

    def test_malformed_json(self):
        with pytest.raises(LogParseError, match="line 2"):
            parse_bandit_log(io.StringIO(record_line() + "\nnot json\n"))

    def test_bad_action(self):
        with pytest.raises(LogParseError):
            parse_bandit_log(io.StringIO(record_line(action=2)))


class TestRoundTrip:
    def roundtrip(self, log):
        buf = io.StringIO()
        n = write_bandit_log(log, buf)
        buf.seek(0)
        return n, parse_bandit_log(buf)

    def test_empty_log(self):
        log = BanditLog.from_records([], metadata={"source": "t"})
        buf = io.StringIO()
        assert write_bandit_log(log, buf) == 0
        assert "_meta" in buf.getvalue().splitlines()[0]

    def test_two_records(self):
        log = BanditLog.from_records(
            [
                BanditRecord("q1", "p1", np.array([0.1, 0.2]), 1, 0.8, 0),
                BanditRecord("q1", "p2", np.array([-0.3, 1.5]), 0, 0.25, 1),
            ],
            metadata={"source": "t"},
        )
        n, back = self.roundtrip(log)
        assert n == 2
        assert back == log

    def test_tiny_propensity_survives(self):
        log = BanditLog.from_records(
            [BanditRecord("q", "p", np.array([1.0]), 1, 1e-9, 1)]
        )
        _, back = self.roundtrip(log)
        assert back.propensities[0] == 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.integers(0, 1),
                st.floats(1e-6, 1.0, allow_nan=False),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_roundtrip_property(self, rows):
        records = [
            BanditRecord(f"q{i}", f"p{i}", np.array([x]), a, p, d)
            for i, (x, a, p, d) in enumerate(rows)
        ]
        log = BanditLog.from_records(records)
        _, back = self.roundtrip(log)
        assert back == log


class TestSupervisedFile:
    def test_roundtrip(self):
        records = [
            SupervisedRecord("q1", "p1", np.array([0.5, 2.0]), 4, 1.0),
            SupervisedRecord("q1", "p2", np.array([0.1, -1.0]), 2, 0.5),
            SupervisedRecord("q2", "p1", np.array([0.0, 0.0]), 0, 0.0),
        ]
        buf = io.StringIO()
        assert write_supervised(records, buf) == 3
        buf.seek(0)
        assert read_supervised(buf) == records
        assert not buf.closed  # a caller's stream is left open

    def test_label_nrr_consistency_enforced(self):
        with pytest.raises(LogValidationError):
            SupervisedRecord("q", "p", np.array([1.0]), 3, 0.5)


class TestFileHandles:
    def test_path_round_trips_close_their_files(self, tmp_path):
        log = random_log(30, 3, seed=0)
        params = init_params("linear", 3, seed=1)
        dev = [
            SupervisedRecord(q, p, log.contexts[i], 4 if i % 3 == 0 else 0,
                             1.0 if i % 3 == 0 else 0.0)
            for i, (q, p) in enumerate(dict.fromkeys(zip(log.query_ids, log.product_ids)))
        ]
        world = generate_world(SimConfig(2, 3, 2), seed=2)
        _, history = train_crm(log, dev, params, TrainConfig(epochs=1, eval_every=10))
        labels = {(r.query_id, r.product_id): r.label for r in dev}

        def path(name):
            return str(tmp_path / name)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            write_bandit_log(log, path("log.jsonl"))
            assert parse_bandit_log(path("log.jsonl")) == log
            write_supervised(dev, path("dev.tsv"))
            assert read_supervised(path("dev.tsv")) == dev
            params.save(path("model.json"))
            assert PolicyParams.load(path("model.json")) == params
            save_world(world, path("world.json"))
            assert load_world(path("world.json")).seed == 2
            write_history(history, path("history.tsv"))
            history.checkpoints[-1].dev_metrics.write(path("metrics.txt"))
            snips(log, params).write(path("snips.txt"))
            write_trec_run(rank_records(params, dev), "t", path("run.txt"))
            write_qrels(labels, path("qrels.txt"))
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        for name in ("history.tsv", "metrics.txt", "snips.txt", "run.txt", "qrels.txt"):
            assert (tmp_path / name).read_text().endswith("\n")


class TestSplitQueries:
    def test_paper_sizes(self):
        ids = {f"q{i}" for i in range(3060)}
        split = split_queries(ids, (0.6, 0.2, 0.2), seed=42)
        assert (len(split.train), len(split.dev), len(split.test)) == (1836, 612, 612)

    def test_small_exact(self):
        split = split_queries({f"q{i}" for i in range(10)}, (0.6, 0.2, 0.2), seed=1)
        assert (len(split.train), len(split.dev), len(split.test)) == (6, 2, 2)
        assert split.train | split.dev | split.test == {f"q{i}" for i in range(10)}

    def test_deterministic(self):
        ids = {f"q{i}" for i in range(57)}
        assert split_queries(ids, (0.6, 0.2, 0.2), 9) == split_queries(ids, (0.6, 0.2, 0.2), 9)

    def test_errors(self):
        with pytest.raises(ValueError):
            split_queries(set(), (0.6, 0.2, 0.2), 0)
        with pytest.raises(ValueError):
            split_queries({"a", "b", "c"}, (0.5, 0.2, 0.2), 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 200), st.integers(0, 2**32 - 1))
    def test_disjoint_cover_property(self, n, seed):
        ids = {f"q{i}" for i in range(n)}
        split = split_queries(ids, (0.6, 0.2, 0.2), seed)
        assert split.train | split.dev | split.test == ids
        assert not (split.train & split.dev)
        assert not (split.train & split.test)
        assert not (split.dev & split.test)
        # remainder goes to train
        assert len(split.dev) == int(n * 0.2)
        assert len(split.test) == int(n * 0.2)
