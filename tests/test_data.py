import argparse
import gc
import io
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from banditrank import cli, data
from banditrank.aggregation import aggregate_feedback
from banditrank.data import (
    BanditLog,
    LogParseError,
    LogValidationError,
    MIN_PROPENSITY,
    SupervisedSet,
    grade,
    grade_column,
    parse_bandit_log,
    read_supervised,
    split_queries,
    write_bandit_log,
    write_supervised,
)
from banditrank.estimators import lagrangian_risk, snips
from banditrank.evaluation import RankIndex, write_qrels
from banditrank.policy import PolicyParams, init_params, logit_margin
from banditrank.simulator import (
    SimConfig,
    generate_world,
    load_world,
    save_world,
    world_supervised,
)
from banditrank.training import TrainConfig, evaluate_policy, train_crm
from conftest import random_log, supervised
from reference import jsonl_lines, parse_lines, rows, tsv_lines


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
        r = rows(log)[0]
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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("action", 0.5), ("action", "1"), ("action", 2),
            ("delta", 2),
            ("propensity", 0), ("propensity", 1e-12), ("propensity", 1.5),
            ("propensity", "0.8"), ("propensity", None),
            ("features", [float("nan"), -1.0]), ("features", [0.5, "ab"]), ("features", "ab"),
            ("features", 5), ("features", None), ("features", [[1, 2]]),
            ("features", [0.5, -1.0, 2.0]), ("features", ["1", "2"]),
            ("action", True), ("propensity", True), ("delta", False), ("features", [True, 0.5]),
        ],
    )
    def test_bad_value_reports_its_line(self, key, value):
        bad = json.dumps({**json.loads(record_line(qid="q2")), key: value})
        src = "\n".join(['{"_meta": {"source": "unit"}}', record_line(), bad])
        with pytest.raises(LogParseError, match="line 3"):
            parse_bandit_log(io.StringIO(src))

    @pytest.mark.parametrize("first, second", [("propensity", "features"), ("delta", "action"),
                                               ("propensity 2.0", "no delta")])
    def test_first_bad_line_is_reported(self, first, second):
        record = json.loads(record_line())
        bad = {"propensity": {**record, "propensity": "0.8"}, "features": {**record, "features": "ab"},
               "delta": {**record, "delta": 2}, "action": {**record, "action": 0.5},
               # a bad value ahead of a format error
               "propensity 2.0": {**record, "propensity": 2.0},
               "no delta": {key: value for key, value in record.items() if key != "delta"}}
        lines = [record_line()] + [json.dumps(bad[case]) for case in (first, second)]
        for parse in (parse_bandit_log, parse_lines):
            with pytest.raises(LogParseError, match="line 2"):
                parse(io.StringIO("\n".join(lines)))

    def test_an_integer_past_the_digit_limit_is_invalid_json(self):
        line = record_line().replace("0.8", "1" + "0" * 5000)
        text = "\n".join([record_line(), line, record_line()])
        for parse in (parse_bandit_log, parse_lines):
            with pytest.raises(LogParseError, match="line 2: invalid JSON .*4300 digits"):
                parse(io.StringIO(text))

    def test_meta_must_be_an_object(self):
        with pytest.raises(LogParseError, match="line 1"):
            parse_bandit_log(io.StringIO('{"_meta": 5}\n' + record_line()))

    @pytest.mark.parametrize(
        "key, value, column, expected",
        [
            ("action", 1.0, "actions", 1), ("delta", 0.0, "deltas", 0),
            ("query_id", 7, "query_ids", "7"),
        ],
    )
    def test_still_accepted(self, key, value, column, expected):
        src = record_line() + "\n" + json.dumps({**json.loads(record_line()), key: value})
        assert getattr(parse_bandit_log(io.StringIO(src)), column)[1] == expected

    def test_meta_only_is_an_empty_log(self):
        log = parse_bandit_log(io.StringIO('{"_meta": {"source": "unit"}}\n'))
        assert len(log) == 0
        assert log.contexts.shape == (0, 0)
        assert log.metadata == {"source": "unit"}


class TestBanditLogColumns:
    @pytest.mark.parametrize(
        "column, values",
        [("actions", [0, 0.5]), ("deltas", [1, 0.7]), ("actions", [1, "1"]),
         ("propensities", [0.5, None]), ("contexts", [[1.0], [float("inf")]]),
         ("query_ids", ["q1", 7]), ("product_ids", ["p1", None])],
    )
    def test_bad_value_names_its_row(self, column, values):
        columns = {"query_ids": ["q1", "q2"], "product_ids": ["p1", "p2"],
                   "contexts": np.zeros((2, 1)), "actions": [1, 0],
                   "propensities": [0.5, 0.5], "deltas": [0, 1]}
        with pytest.raises(LogValidationError, match="row 1"):
            BanditLog(**{**columns, column: values})

    @pytest.mark.parametrize("metadata", [{"seed": 1}, {1: "a"}, {"source": None}])
    def test_metadata_must_map_str_to_str(self, metadata):
        # a str is what the log's file gives back for each key and value
        (key, value), = metadata.items()
        with pytest.raises(LogValidationError) as info:
            BanditLog(["q"], ["p"], np.zeros((1, 2)), [1], [0.5], [0], metadata=metadata)
        assert str(info.value) == f"metadata must map str to str, got {key!r}: {value!r}"

    def test_callers_arrays_stay_writable(self):
        contexts, propensities = np.zeros((2, 1)), np.array([0.5, 0.5])
        log = BanditLog(["q1", "q2"], ["p1", "p2"], contexts, [1, 0], propensities, [0, 1])
        contexts[0, 0] = 1.0
        propensities[0] = 0.25
        for column in (log.contexts, log.actions, log.propensities, log.deltas):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0


# The writers' block size while the byte-identity tests run, so that their
# lengths straddle block boundaries.
BLOCK = 3
BLOCK_LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


@st.composite
def pooled_tables(draw, id_texts=st.text("q\u00e9\u4e2d\U0001f600\"\\\n", max_size=3)):
    """``BanditLog`` arguments of 0 to 3 features: a context table of a small pool
    of rows that holds -0.0 and 0.0 twins, each record's index into it, with
    repeats, and ids drawn from ``id_texts`` (by default, mostly ones that json
    escapes), around BLOCK records."""
    n, d = draw(st.sampled_from(BLOCK_LENGTHS)), draw(st.integers(0, 3))
    value = st.sampled_from([0.0, -0.0, 0.1, -2.5, 1e16, 5e-324]) | st.floats(
        allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=3))
    pool += [[-x if x == 0 else x for x in row] for row in pool]  # each zero's sign flipped
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    ids = st.lists(id_texts, min_size=n, max_size=n)
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return dict(
        query_ids=draw(ids), product_ids=draw(ids),
        contexts=np.array(pool, dtype=np.float64).reshape(len(pool), d),
        actions=draw(bits),
        propensities=draw(st.lists(st.floats(MIN_PROPENSITY, 1.0), min_size=n, max_size=n)),
        deltas=draw(bits),
        metadata=draw(st.dictionaries(st.text(max_size=2), st.text(max_size=2), max_size=2)),
        context_rows=np.array(picks, dtype=np.int64),
    )


def one_row_per_record(columns):
    """``BanditLog`` arguments with the table gathered into one context row per record."""
    rows = columns["context_rows"]
    return {**columns, "contexts": columns["contexts"][rows], "context_rows": None}


@st.composite
def pooled_logs(draw, id_texts=st.text("q\u00e9\u4e2d\U0001f600\"\\\n", max_size=3)):
    """The logs of ``pooled_tables``, given one context row per record."""
    return BanditLog(**one_row_per_record(draw(pooled_tables(id_texts))))


# Propensities that the writer formats once each: values that repr writes in
# exponent form, 1.0, and each one's neighbour one ulp away.
POOLED_PROPENSITIES = [0.5, 0.1, 1e-09, 2.5e-07, 1e-05, 1.0]
POOLED_PROPENSITIES += [float(np.nextafter(x, 0.5)) for x in POOLED_PROPENSITIES if x != 0.5]


@st.composite
def pooled_propensity_logs(draw):
    """The logs of ``pooled_tables`` with propensities drawn, with repeats, from
    ``POOLED_PROPENSITIES``; an empty log has width 0, as its file reads back."""
    columns = draw(pooled_tables(st.text("qp01 ._-\u00e9", max_size=3)))
    n = len(columns["query_ids"])
    columns["propensities"] = draw(st.lists(st.sampled_from(POOLED_PROPENSITIES),
                                            min_size=n, max_size=n))
    if not n:
        columns["contexts"] = np.zeros((0, 0))
    return BanditLog(**columns)


class TestRoundTrip:
    def roundtrip(self, log):
        buf = io.StringIO()
        n = write_bandit_log(log, buf)
        buf.seek(0)
        return n, parse_bandit_log(buf)

    def test_empty_log(self):
        log = BanditLog([], [], np.zeros((0, 0)), [], [], [], metadata={"source": "t"})
        buf = io.StringIO()
        assert write_bandit_log(log, buf) == 0
        assert "_meta" in buf.getvalue().splitlines()[0]

    def test_two_records(self):
        log = BanditLog(
            ["q1", "q1"], ["p1", "p2"], np.array([[0.1, 0.2], [-0.3, 1.5]]),
            [1, 0], [0.8, 0.25], [0, 1], metadata={"source": "t"},
        )
        n, back = self.roundtrip(log)
        assert n == 2
        assert back == log

    def test_zero_width_log(self):
        log = BanditLog(["q1", "q2"], ["p1", "p2"], np.zeros((2, 0)), [1, 0], [0.5, 0.25], [0, 1])
        buf = io.StringIO()
        assert write_bandit_log(log, buf) == 2
        records = [json.loads(line) for line in buf.getvalue().splitlines()[1:]]
        assert [r["features"] for r in records] == [[], []]
        buf.seek(0)
        assert parse_bandit_log(buf) == log

    @settings(max_examples=60, deadline=None)
    @given(pooled_logs())
    def test_bytes_match_the_per_record_writer(self, log):
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_BLOCK_ROWS", BLOCK)
            write_bandit_log(log, buf)
        assert buf.getvalue() == "".join(jsonl_lines(log))

    @settings(max_examples=60, deadline=None)
    @given(pooled_propensity_logs())
    @example(BanditLog([], [], np.zeros((0, 0)), [], [], []))
    def test_repeated_propensities_keep_their_bytes(self, log):
        for block in (1, BLOCK, 256):
            buf = io.StringIO()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data, "_BLOCK_ROWS", block)
                write_bandit_log(log, buf)
                assert buf.getvalue() == "".join(jsonl_lines(log)), block
                buf.seek(0)
                back = parse_bandit_log(buf)
            assert back == log and back.propensities.tobytes() == log.propensities.tobytes()

    def test_tiny_propensity_survives(self):
        log = BanditLog(["q"], ["p"], np.array([[1.0]]), [1], [1e-9], [1])
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
        xs, actions, propensities, deltas = zip(*rows)
        log = BanditLog(
            [f"q{i}" for i in range(len(rows))], [f"p{i}" for i in range(len(rows))],
            np.array(xs)[:, None], actions, propensities, deltas,
        )
        _, back = self.roundtrip(log)
        assert back == log


@st.composite
def first_use_tables(draw):
    """``BanditLog`` arguments whose ids json writes as they stand and whose
    table rows are distinct and each first used in row order: the table that
    the bulk path builds back from the log's file."""
    columns = draw(pooled_tables(st.text("qp01 ._-", max_size=3)))
    pool, picks = columns["contexts"], columns["context_rows"].tolist()
    assume(picks)
    keys = [pool[i].tobytes() for i in picks]
    order = {key: row for row, key in enumerate(dict.fromkeys(keys))}
    table = np.frombuffer(b"".join(order)).reshape(len(order), pool.shape[1])
    return {**columns, "contexts": table, "context_rows": np.array([order[key] for key in keys])}


class TestContextTable:
    """A log given a context table and each record's row index is the log of its rows."""

    @settings(max_examples=60, deadline=None)
    @given(first_use_tables(), st.sampled_from([1, BLOCK, 256]))
    def test_parse_of_the_written_log_keeps_its_table_layout(self, columns, block):
        log = BanditLog(**columns)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_BLOCK_ROWS", block)
            buf = io.StringIO()
            write_bandit_log(log, buf)
            buf.seek(0)
            back = parse_bandit_log(buf)
        assert back.context_table.shape == log.context_table.shape
        assert back.context_table.tobytes() == log.context_table.tobytes()
        assert back.context_rows.tobytes() == log.context_rows.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(pooled_tables())
    def test_equals_the_log_of_its_rows(self, columns):
        log, flat = BanditLog(**columns), BanditLog(**one_row_per_record(columns))
        assert log == flat and flat == log
        assert log.contexts.tobytes() == flat.contexts.tobytes()  # -0.0 keeps its sign
        assert log.feature_dim == flat.feature_dim
        assert not log.contexts.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(pooled_tables())
    def test_writes_the_per_record_bytes_and_parses_back(self, columns):
        log = BanditLog(**columns)
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_BLOCK_ROWS", BLOCK)
            write_bandit_log(log, buf)
            assert buf.getvalue() == "".join(jsonl_lines(log))
            buf.seek(0)
            back = parse_bandit_log(buf)
        if len(log):  # a log without records reads back with width 0
            assert back == log and back.contexts.tobytes() == log.contexts.tobytes()
        else:
            assert len(back) == 0 and back.metadata == log.metadata

    @settings(max_examples=60, deadline=None)
    @given(pooled_tables(), st.data())
    def test_a_non_finite_table_row_is_reported_at_its_first_record(self, columns, draws):
        table, rows = columns["contexts"].copy(), columns["context_rows"].tolist()
        assume(rows and table.shape[1])
        bad = draws.draw(st.sampled_from(sorted(set(rows))))
        table[bad, draws.draw(st.integers(0, table.shape[1] - 1))] = draws.draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(LogValidationError, match=f"^row {rows.index(bad)}: context must be"):
            BanditLog(**{**columns, "contexts": table})

    def test_a_bad_row_that_no_record_uses_fails_the_table(self):
        with pytest.raises(LogValidationError, match=r"table row 1 .* got \[nan\], and no record"):
            BanditLog(["q"], ["p"], np.array([[0.5], [math.nan]]), [1], [0.5], [0], context_rows=[0])

    @settings(max_examples=60, deadline=None)
    @given(pooled_tables(), st.data())
    def test_a_bad_row_index_is_rejected_naming_its_row(self, columns, draws):
        rows, k = columns["context_rows"].tolist(), len(columns["contexts"])
        if draws.draw(st.booleans()) and rows:  # an index out of range
            row = draws.draw(st.integers(0, len(rows) - 1))
            rows[row] = draws.draw(st.sampled_from([k, k + 7, -1, -k - 1]))
            message = f"^row {row}: context row {rows[row]} is not a row of the {k}-row table"
        else:  # one index too few or too many
            row = len(rows)
            rows = rows[:-1] if draws.draw(st.booleans()) and rows else rows + [0]
            message = f"^row {min(row, len(rows))}: context_rows has length {len(rows)}"
        with pytest.raises(LogValidationError, match=message):
            BanditLog(**{**columns, "context_rows": rows})

    def test_row_indices_must_be_integers(self):
        with pytest.raises(LogValidationError, match="context_rows must be a flat array of integers"):
            BanditLog(["q"], ["p"], np.zeros((1, 1)), [1], [0.5], [0], context_rows=[0.0])

    def test_callers_table_and_rows_stay_writable(self):
        table, rows = np.zeros((2, 1)), np.array([1, 0, 1])
        log = BanditLog(["q"] * 3, ["p"] * 3, table, [1, 0, 1], [0.5] * 3, [0, 1, 0],
                        context_rows=rows)
        table[0, 0], rows[1] = 1.0, 1
        for column in (log.context_table, log.context_rows, log.contexts):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0


def traced_memory(call):
    """The traced memory that ``call`` holds on return, with what it returns, and
    its peak while it runs above that."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held, peak - held


class TestPeakMemory:
    """No full-log pass, write or parse holds one context row per record. On a
    30k-record log of 5k distinct rows of 10 features, each holds less than the
    2.4 MB of one n x d float64 array on return, and peaks less than that above
    it. The parse returns the log itself, about 2 MB of columns, which is why its
    peak is taken above what it returns."""

    n, k, d = 30_000, 5_000, 10

    @pytest.fixture(scope="class")
    def log_and_text(self):
        rng = np.random.default_rng(3)
        rows = np.concatenate([rng.permutation(self.k), rng.integers(0, self.k, self.n - self.k)])
        log = BanditLog([f"q{i // 50}" for i in rows], [f"p{i % 50}" for i in rows],
                        rng.standard_normal((self.k, self.d)), rng.integers(0, 2, self.n),
                        rng.uniform(0.1, 1.0, self.n), rng.integers(0, 2, self.n),
                        context_rows=rows)
        buf = io.StringIO()
        write_bandit_log(log, buf)
        return log, buf.getvalue()

    @pytest.mark.parametrize("step", ["lagrangian_risk", "write_bandit_log",
                                      "parse_bandit_log"])
    def test_below_one_n_by_d_array(self, log_and_text, step):
        log, text = log_and_text

        class Discard:
            def write(self, text):
                pass

            def flush(self):
                pass

        stream = io.StringIO(text)
        calls = {
            "lagrangian_risk": lambda: lagrangian_risk(log, init_params("mlp", self.d, 16), 0.5),
            "write_bandit_log": lambda: write_bandit_log(log, Discard()),
            "parse_bandit_log": lambda: parse_bandit_log(stream),
        }
        held, peak = traced_memory(calls[step])
        assert held < self.n * self.d * 8 and peak < self.n * self.d * 8


# Texts of each field that the equivalence property writes into record lines:
# the writer's numbers and others json reads, and values the parse must reject.
NUMBER_TEXTS = ["0.5", "1", "0", "-0.0", "5e-324", "1E2", "1e400", "-1e400", "1" + "0" * 400,
                "NaN", "Infinity", "true", "null", '"1"', "[1]", "[", "01", "1.", "-", "1.2.3"]
FIELD_TEXTS = {
    "query_id": ['"q"', '"q\\u00e9"', '"q\u00e9"', '"a\\"b"', '"\\t"', '"q\x01"', '"\x7f "',
                 "7", "null", '["q"]'],
    "action": ["0", "1", "2", "-0", "1.0", "true", "false", '"1"', "null"],
    "propensity": ["0.5", "1", "0.25e1", "5e-324", "1e400", "1" + "0" * 5000, *NUMBER_TEXTS],
}
FIELD_TEXTS["product_id"] = FIELD_TEXTS["query_id"]
FIELD_TEXTS["delta"] = FIELD_TEXTS["action"]
KEYS = ["query_id", "product_id", "features", "action", "propensity", "delta"]
# (key order, colon, comma) of a record line: the writer's, then others json reads
SHAPES = [(KEYS, ": ", ", "), (KEYS[::-1], ": ", ", "), (KEYS, " : ", " ,  "), (KEYS, ":", ",")]
# The texts of ``record_line()``'s fields
WRITTEN = {key: json.dumps(value) for key, value in json.loads(record_line()).items()}
ODD_LINES = ["\n", "  \t\n", "\u00a0\n", "not json\n", "[1, 2]\n", '{"_meta": {"a": 1}}\n',
             '{"query_id": "q"}\n', '{"query_id": "q", "features": [true]}\n']


def record_text(texts, order=KEYS, colon=": ", comma=", "):
    """A record line, without its end, holding each field's text of ``texts``."""
    return "{" + comma.join(f'"{key}"{colon}{texts[key]}' for key in order) + "}"


@st.composite
def mutated_log_texts(draw):
    """``write_bandit_log`` output with lines changed: record fields replaced by
    other texts, keys reordered or spaced, CRLF or spaces at line ends, and odd
    lines put in or in place of record lines."""
    log = draw(pooled_logs(st.sampled_from(["q1", "q2", "p1"]) | st.text("q\u00e9\"\\", max_size=2)))
    buf = io.StringIO()
    write_bandit_log(log, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    for row in reversed(range(len(log))):
        fate = draw(st.sampled_from(["keep"] * 6 + ["field"] * 3 + ["shape", "replace", "insert"]))
        if fate in ("field", "shape"):
            texts = {"query_id": json.dumps(log.query_ids[row]),
                     "product_id": json.dumps(log.product_ids[row]),
                     "features": json.dumps(log.contexts[row].tolist()),
                     "action": str(log.actions[row]),
                     "propensity": repr(log.propensities[row].item()),
                     "delta": str(log.deltas[row])}
            if fate == "field":
                key = draw(st.sampled_from(KEYS + ["features", "propensity"] * 2))
                if key == "features":
                    width = draw(st.sampled_from([log.feature_dim] * 3 + [log.feature_dim + 1]))
                    numbers = draw(st.lists(st.sampled_from(NUMBER_TEXTS), min_size=width,
                                            max_size=width))
                    texts[key] = "[" + ", ".join(numbers) + "]"
                else:
                    texts[key] = draw(st.sampled_from(FIELD_TEXTS[key]))
            shape = draw(st.sampled_from(SHAPES if fate == "shape" else SHAPES[:1]))
            lines[row + 1] = record_text(texts, *shape) + draw(st.sampled_from(["\n", "\r\n", " \n"]))
        elif fate == "replace":
            lines[row + 1] = draw(st.sampled_from(ODD_LINES))
        elif fate == "insert":
            lines.insert(row + 1, draw(st.sampled_from(ODD_LINES)))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")
    return "".join(lines)


def parse_outcome(parse, text):
    """The log ``parse`` reads from ``text`` with the bytes of its float columns,
    or the type, message and line number of the exception it raises."""
    try:
        log = parse(io.StringIO(text))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return log, log.contexts.tobytes(), log.propensities.tobytes()


class TestBlockParse:
    """``parse_bandit_log`` reads in blocks and gives what ``reference.parse_lines`` gives."""

    @settings(max_examples=200, deadline=None)
    @given(mutated_log_texts())
    # a bulk line of the wrong width, reported as json read it: 1, not 1.0
    @example("\n".join(['{"_meta": {}}', record_line(),
                        record_text({**WRITTEN, "features": "[0.5, 0.5, 1]"})]))
    # no _meta line: the first block is one run in the writer's shape, and the
    # next run holds a row of the wrong width
    @example("\n".join([record_line(), record_line(qid="q2"), record_line(qid="q3"),
                        record_line(features=[1.0]), record_line(qid="q3", features=[0.25, 2.0])]))
    # a blank first line
    @example("\n".join(["", record_line(), record_line(qid="q2"), record_line(features=[0.0, 1.0])]))
    # a block whose last line alone is odd (its id is escaped): a bulk run, then
    # that line on its own, both over the same contexts
    @example("\n".join(['{"_meta": {}}', record_line(), record_line(features=[-0.0, 1.0]),
                        record_line(), record_line(features=[-0.0, 1.0]), record_line(qid="q\u00e9"),
                        record_line(features=[-0.0, 1.0])]))
    # an odd line between two bulk runs of one block
    @example("\n".join(['{"_meta": {}}', record_line(), record_line(qid="q\u00e9", features=[0.0, 1.0]),
                        record_line(features=[0.0, 1.0])]))
    def test_matches_the_per_line_parser(self, text):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_BLOCK_ROWS", BLOCK)
            assert parse_outcome(parse_bandit_log, text) == parse_outcome(parse_lines, text)

    def test_every_field_text_in_the_writers_shape(self):
        # one line at a time, so that the bulk path meets each text the regex lets by
        cases = [(key, text) for key, texts in FIELD_TEXTS.items() for text in texts]
        cases += [("features", f"[{text}, 0.5]") for text in NUMBER_TEXTS]
        for key, text in cases:
            lines = ['{"_meta": {}}', record_line(), record_text({**WRITTEN, key: text}),
                     record_line(qid="q2")]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data, "_BLOCK_ROWS", BLOCK)
                outcome = parse_outcome(parse_bandit_log, "\n".join(lines))
            assert outcome == parse_outcome(parse_lines, "\n".join(lines)), (key, text)

    @pytest.mark.parametrize("last", ["propensity", "features", "json", "nan"])
    @pytest.mark.parametrize("first", ["propensity", "features", "json", "nan"])
    def test_bad_lines_either_side_of_a_block_boundary(self, last, first):
        # lines 1-3 are one block and lines 4-6 the next
        bad = {"propensity": record_line(propensity=2.0), "features": record_line(features=[1.0]),
               "json": record_line().replace("0.8", "0.8.1"),
               "nan": record_line(features=[float("nan"), 1.0])}
        text = "\n".join(['{"_meta": {}}', record_line(), bad[last], bad[first], record_line(),
                          record_line()])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_BLOCK_ROWS", BLOCK)
            outcome = parse_outcome(parse_bandit_log, text)
        assert outcome == parse_outcome(parse_lines, text)
        assert outcome[0] is LogParseError and outcome[2] in (3, 4)

    # Lines that a block's one match must not take for writer lines, put in among
    # writer lines; "" puts in nothing, so its blocks hold writer lines alone
    NEAR_WRITTEN = {
        "text after the brace": record_line() + " x\n",
        "space after the brace": record_line() + " \n",
        "two records on one line": record_line() + record_line(qid="q2") + "\n",
        "CRLF": record_line(qid="q2") + "\r\n",
        "blank line": "\n",
        "writer lines only": "",
    }

    @pytest.mark.parametrize("block", [BLOCK, 256])
    @pytest.mark.parametrize("kind", NEAR_WRITTEN)
    def test_a_block_is_matched_in_one_call_only_if_its_lines_are_writer_lines(self, kind,
                                                                              block):
        written = [record_line(qid=f"q{i}") + "\n" for i in range(2 * BLOCK)]
        for at in range(len(written) + 1):
            lines = [*written[:at], self.NEAR_WRITTEN[kind], *written[at:]]
            # and with the last line's end cut off
            for text in ("".join(lines), "".join(lines).removesuffix("\n")):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(data, "_BLOCK_ROWS", block)
                    outcome = parse_outcome(parse_bandit_log, text)
                assert outcome == parse_outcome(parse_lines, text), (at, text)

    @staticmethod
    def written(log):
        buf = io.StringIO()
        write_bandit_log(log, buf)
        return buf.getvalue()

    def test_records_read_line_by_line_share_table_rows(self):
        # json writes "q\u00e9", an escape, so that every line is parsed on its own
        n, k = 3000, 100
        rng = np.random.default_rng(0)
        log = BanditLog(["q\u00e9"] * n, [f"p{i % k}" for i in range(n)],
                        rng.standard_normal((k, 4)), rng.integers(0, 2, n),
                        rng.uniform(0.1, 1.0, n), rng.integers(0, 2, n),
                        context_rows=np.arange(n) % k)
        back = parse_bandit_log(io.StringIO(self.written(log)))
        assert back == log
        assert back.context_table.shape == (k, 4)

    def test_both_paths_over_shared_contexts(self):
        # each context, -0.0 and 0.0 twins among them, on bulk and per-line records:
        # ids that json writes as they stand or escaped ("q\u00e9"), switching at
        # each record and at each block's worth of records
        n, k = 2000, 101
        rng = np.random.default_rng(1)
        table = rng.standard_normal((k, 3))
        table[0], table[1] = 0.0, -0.0
        for stride in (1, BLOCK):
            log = BanditLog([("q1", "q\u00e9")[i // stride % 2] for i in range(n)], ["p"] * n,
                            table, rng.integers(0, 2, n), rng.uniform(0.1, 1.0, n),
                            rng.integers(0, 2, n), context_rows=np.arange(n) % k)
            text = self.written(log)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data, "_BLOCK_ROWS", BLOCK)
                outcome = parse_outcome(parse_bandit_log, text)
            assert outcome == parse_outcome(parse_lines, text)
            assert outcome[0] == log
            # one row for a context's text and one for its float bytes, at most:
            # more than k rows shows that both keys were used
            assert k < len(outcome[0].context_table) <= 2 * k

    def test_an_odd_line_leaves_the_rest_of_its_block_on_the_bulk_path(self):
        # one escaped id (json writes "q\u00e9") among 2000 records over k contexts
        n, k = 2000, 101
        rng = np.random.default_rng(2)
        log = BanditLog(["q1"] * 300 + ["q\u00e9"] + ["q1"] * (n - 301), ["p"] * n,
                        rng.standard_normal((k, 3)), rng.integers(0, 2, n),
                        rng.uniform(0.1, 1.0, n), rng.integers(0, 2, n),
                        context_rows=np.arange(n) % k)
        back = parse_bandit_log(io.StringIO(self.written(log)))
        assert back == log
        # the text-keyed table and a second row for the odd line's float bytes
        assert len(back.context_table) == k + 1
        assert back.context_table[:k].tobytes() == log.context_table.tobytes()

    def test_peak_memory_is_no_higher_than_the_per_line_parse(self):
        # 20k records over 2k distinct (query, product) pairs, each with one context
        rng = np.random.default_rng(0)
        pair = rng.integers(0, 2000, 20_000)
        log = BanditLog([f"q{i // 20}" for i in pair], [f"p{i % 20}" for i in pair],
                        rng.standard_normal((2000, 10))[pair], rng.integers(0, 2, 20_000),
                        rng.uniform(0.1, 1.0, 20_000), rng.integers(0, 2, 20_000))
        buf = io.StringIO()
        write_bandit_log(log, buf)

        def peak(parse):
            stream = io.StringIO(buf.getvalue())
            gc.collect()
            tracemalloc.start()
            try:
                return parse(stream), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (back, peak_blocks), (_, peak_lines) = peak(parse_bandit_log), peak(parse_lines)
        assert back == log
        assert peak_blocks <= peak_lines


@st.composite
def supervised_sets(draw, lengths=st.integers(0, 8)):
    """Random rows labelled by the rule, with 0 to 3 features each; possibly no rows."""
    n, d = draw(lengths), draw(st.integers(0, 3))
    ids = st.lists(st.text("pq01", max_size=3), min_size=n, max_size=n)
    nrr = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    contexts = draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d),
        min_size=n, max_size=n,
    ))
    return SupervisedSet(draw(ids), draw(ids), np.array(contexts, dtype=np.float64).reshape(n, d),
                         nrr)


class TestSupervisedFile:
    def test_roundtrip(self):
        records = supervised([
            ("q1", "p1", np.array([0.5, 2.0]), 4, 1.0),
            ("q1", "p2", np.array([0.1, -1.0]), 2, 0.5),
            ("q2", "p1", np.array([0.0, 0.0]), 0, 0.0),
        ])
        buf = io.StringIO()
        assert write_supervised(records, buf) == 3
        buf.seek(0)
        assert read_supervised(buf) == records
        assert not buf.closed  # a caller's stream is left open

    @pytest.mark.parametrize(
        "row", ["q2\tp1\tx\t0.5\t1.0", "q2\tp1\t2\t0.5\tab", "q2\tp1\t3\t0.5\t1.0",
                "q2\tp1\t2\t0.5\tnan", "q2\tp1\t2\t0.5\t-inf", "q2\tp1\t4\t1.5\t1.0",
                "q2\tp1\t0\t-0.25\t1.0", "q2\tp1\t2\t0.5"]
    )
    def test_bad_row_reports_its_line(self, row):
        src = "query_id\tproduct_id\tlabel\tnrr\tf0\nq1\tp1\t4\t1.0\t0.5\n" + row + "\n"
        with pytest.raises(LogParseError, match="line 3"):
            read_supervised(io.StringIO(src))

    def test_label_nrr_consistency_enforced(self):
        src = "query_id\tproduct_id\tlabel\tnrr\tf0\nq\tp\t3\t0.5\t1.0\n"
        with pytest.raises(LogValidationError,
                           match=r"^line 2: label 3 inconsistent with nrr 0.5 \(expected 2\)$"):
            read_supervised(io.StringIO(src))

    @pytest.mark.parametrize("first, second, line", [
        ("q1\tp1\t3\t1.0\t0.0", "q2\tp2\t2\t1.5\t0.0", "line 2: label 3 inconsistent"),
        ("q1\tp1\t3\t1.0\t0.0", "q2\tp2\t2\t0.5\tinf", "line 2: label 3 inconsistent"),
        ("q1\tp1\t4\t1.5\t0.0", "q2\tp2\t3\t0.5\t0.0", "line 2: nrr must lie in"),
        ("q1\tp1\t4\t1.0\tnan", "q2\tp2\t3\t0.5\t0.0", "line 2: context must be"),
        ("q1\tp1\t3\t1.5\t0.0", "q2\tp2\t3\t0.5\t0.0", "line 2: nrr must lie in"),
    ])
    def test_first_bad_line_by_either_rule_is_reported(self, first, second, line):
        # a label the set does not derive and a row the set rejects: the earlier line
        # wins, and on one line the row's own error, as its label has no rate to check
        src = f"query_id\tproduct_id\tlabel\tnrr\tf0\n{first}\n{second}\n"
        with pytest.raises(LogParseError, match=f"^{line}"):
            read_supervised(io.StringIO(src))

    @settings(max_examples=50, deadline=None)
    @given(supervised_sets())
    def test_roundtrip_property(self, dataset):
        buf = io.StringIO()
        assert write_supervised(dataset, buf) == len(dataset)
        buf.seek(0)
        assert read_supervised(buf) == dataset

    @settings(max_examples=50, deadline=None)
    @given(supervised_sets(st.sampled_from(BLOCK_LENGTHS)))
    def test_bytes_match_the_per_row_writer(self, dataset):
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_BLOCK_ROWS", BLOCK)
            write_supervised(dataset, buf)
        assert buf.getvalue() == "".join(tsv_lines(dataset))

    @pytest.mark.parametrize("column", ["query_id", "product_id"])
    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb", "\r\n"])
    def test_an_id_that_tsv_cannot_hold_fails_before_any_line(self, column, bad):
        ids = {"query_id": ["q1", "q2", "q3"], "product_id": ["p1", "p2", "p3"]}
        ids[column][1] = bad
        rows = SupervisedSet(ids["query_id"], ids["product_id"], np.zeros((3, 1)), [0.0] * 3)
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"^row 1: id {re.escape(repr(bad))} holds a tab"):
            write_supervised(rows, buf)
        assert buf.getvalue() == ""

    def test_header_only_file_is_an_empty_set(self):
        back = read_supervised(io.StringIO("query_id\tproduct_id\tlabel\tnrr\tf0\tf1\n"))
        assert len(back) == 0
        assert back.contexts.shape == (0, 2)


class TestSupervisedSetColumns:
    @pytest.mark.parametrize(
        "column, values",
        [("contexts", [[1.0], [float("inf")]]), ("contexts", [[1.0], [1.0, 2.0]]),
         ("nrr", [1.0, 1.5]), ("nrr", [1.0, None]), ("nrr", [1.0, -0.25]),
         ("nrr", [1.0, "1.0"]), ("nrr", [1.0, float("nan")]), ("nrr", [1.0, float("inf")]),
         ("query_ids", ["q1", 7]), ("product_ids", ["p1", b"p2"])],
    )
    def test_bad_value_names_its_row(self, column, values):
        columns = {"query_ids": ["q1", "q2"], "product_ids": ["p1", "p2"],
                   "contexts": np.zeros((2, 1)), "nrr": [1.0, 1.0]}
        with pytest.raises(LogValidationError, match="row 1"):
            SupervisedSet(**{**columns, column: values})

    def test_first_bad_row_is_reported(self):
        # line 2's label breaks the rule, line 3's nrr lies outside [0, 1]
        src = ("query_id\tproduct_id\tlabel\tnrr\tf0\n"
               "q1\tp1\t3\t1.0\t0.0\nq2\tp2\t4\t1.5\t0.0\n")
        with pytest.raises(LogValidationError, match="line 2"):
            read_supervised(io.StringIO(src))

    def test_columns_are_read_only(self):
        dataset = supervised([("q", "p", np.zeros(1), 4, 1.0)])
        for column in (dataset.contexts, dataset.labels, dataset.nrr):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0


class TestRowSets:
    """What ``BanditLog`` and ``SupervisedSet`` share: lengths, equality and ``feature_dim``."""

    def log(self, **changes):
        columns = {"query_ids": ["q1", "q2"], "product_ids": ["p1", "p2"],
                   "contexts": np.zeros((2, 3)), "actions": [1, 0],
                   "propensities": [0.5, 0.5], "deltas": [0, 1], "metadata": {"source": "t"}}
        return BanditLog(**{**columns, **changes})

    def rows(self, **changes):
        columns = {"query_ids": ["q1", "q2"], "product_ids": ["p1", "p2"],
                   "contexts": np.zeros((2, 3)), "nrr": [1.0, 0.0]}
        return SupervisedSet(**{**columns, **changes})

    @pytest.mark.parametrize("column", ["product_ids", "contexts", "actions", "deltas"])
    def test_log_column_of_another_length(self, column):
        with pytest.raises(LogValidationError, match=f"^{column} has length 1, expected 2$"):
            self.log(**{column: getattr(self.log(), column)[:1]})

    @pytest.mark.parametrize("column", ["product_ids", "contexts", "nrr"])
    def test_set_column_of_another_length(self, column):
        with pytest.raises(LogValidationError, match=f"^{column} has length 1, expected 2$"):
            self.rows(**{column: getattr(self.rows(), column)[:1]})

    def test_feature_dim(self):
        assert self.log().feature_dim == self.rows().feature_dim == 3

    @pytest.mark.parametrize("change", [
        {"product_ids": ["p1", "p3"]}, {"contexts": np.ones((2, 3))}, {"actions": [1, 1]},
        {"propensities": [0.5, 0.25]}, {"deltas": [1, 1]}, {"metadata": {"source": "u"}},
    ])
    def test_logs_differing_in_one_column_are_unequal(self, change):
        assert self.log() == self.log()
        assert self.log(**change) != self.log()

    @pytest.mark.parametrize("change", [
        {"query_ids": ["q1", "q1"]}, {"contexts": np.ones((2, 3))},
        {"nrr": [0.7, 0.0]},
    ])
    def test_sets_differing_in_one_column_are_unequal(self, change):
        assert self.rows() == self.rows()
        assert self.rows(**change) != self.rows()

    def test_a_log_is_never_a_set(self):
        assert self.log() != self.rows() and self.rows() != self.log()


def near_a_boundary(k, offset):
    """k/4 moved by ``offset``: an int counts ulps, a float is added; kept in [0, 1]."""
    nrr = k / 4
    if isinstance(offset, int):
        for _ in range(abs(offset)):
            nrr = math.nextafter(nrr, math.copysign(math.inf, offset))
    else:
        nrr += offset
    return min(max(nrr, 0.0), 1.0)


class TestGrade:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(-4, 4))
    def test_a_few_ulps_from_a_grade_boundary(self, k, ulps):
        nrr = k / 4
        for _ in range(abs(ulps)):
            nrr = math.nextafter(nrr, math.copysign(math.inf, ulps))
        assert grade(min(max(nrr, 0.0), 1.0)) == k

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(0.0, 1.0),
        st.builds(near_a_boundary, st.integers(0, 4), st.one_of(
            st.integers(-4, 4), st.sampled_from([1e-13, -1e-13, 1e-9, -1e-9]),
            st.floats(-2e-9, 2e-9))),
    ), max_size=40))
    @example([5e-324, 1e-300, 0.25 + 1e-13, 0.25 - 1e-13, 0.5 + 1e-9, 0.5 - 1e-9,
              math.nextafter(0.75, 1.0), math.nextafter(0.75, 0.0), 1.0 - 1e-13, 1e-13])
    def test_column_rule_is_grade_entry_by_entry(self, values):
        labels = grade_column(np.array(values, dtype=np.float64))
        assert labels.dtype == np.int64
        assert labels.tolist() == [grade(v) for v in values]

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(1, 60), st.integers(0, 60), st.integers(1, 60))
    def test_aggregation_and_constructor_apply_the_rule(self, nrr, seen, clicked, seen_best):
        # one query: pair b sets the maximum rate, so pair a's nrr is its rate over b's
        impressions = [("q", "a")] * seen + [("q", "b")] * seen_best
        positives = [("q", "a")] * min(clicked, seen) + [("q", "b")] * seen_best
        for entry in aggregate_feedback(impressions, positives, 1).entries.values():
            assert entry.label == grade(entry.nrr)
        assert SupervisedSet(["q"], ["p"], np.zeros((1, 0)), [nrr]).labels.tolist() == [grade(nrr)]
        src = f"query_id\tproduct_id\tlabel\tnrr\nq\tp\t{grade(nrr) + 1}\t{nrr!r}\n"
        with pytest.raises(LogValidationError, match="inconsistent"):
            read_supervised(io.StringIO(src))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_python_round_keeps_a_numpy_rounded_rate(self, nrr):
        # so the simulator may round its rates with numpy and grade them with ``grade``
        rounded = float(np.round(nrr, 12))
        assert round(rounded, 12) == rounded

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
    def test_simulator_labels_follow_the_rule(self, seed, top_fraction):
        world = generate_world(SimConfig(3, 8, 2), seed)
        dataset = world_supervised(world, top_fraction=top_fraction)
        assert dataset.labels.tolist() == [grade(x) for x in dataset.nrr.tolist()]
        assert list(dataset.qrels().values()) == dataset.labels.tolist()


class TestFileHandles:
    def test_path_round_trips_close_their_files(self, tmp_path):
        log = random_log(30, 3, seed=0)
        params = init_params("linear", 3, seed=1)
        dev = supervised([
            (q, p, log.contexts[i], 4 if i % 3 == 0 else 0, 1.0 if i % 3 == 0 else 0.0)
            for i, (q, p) in enumerate(dict.fromkeys(zip(log.query_ids, log.product_ids)))
        ])
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
            history_tsv = cli._history(
                history, lambda p: {"objective": lagrangian_risk(log, p, 0.5).estimate}, dev)
            # the CLI opens and closes each output file it writes
            cli._finish(argparse.Namespace(out=str(tmp_path)), {}, {"history.tsv": history_tsv})
            evaluate_policy(history.checkpoints[-1].params, dev).write(path("metrics.txt"))
            snips(log, params).write(path("snips.txt"))
            RankIndex(dev.query_ids, dev.product_ids, dev.labels).write_trec_run(
                logit_margin(params, dev.contexts), "t", path("run.txt"))
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

    @pytest.mark.parametrize("ratios", [(math.nan, 0.2, 0.2), (0.6, math.nan, 0.2),
                                        (0.6, 0.2, math.nan), (0.0, 0.5, 0.5), (1.2, -0.1, -0.1)])
    def test_a_ratio_that_is_not_positive_is_rejected(self, ratios):
        with pytest.raises(ValueError, match="ratios must be three positive numbers"):
            split_queries({"a", "b", "c"}, ratios, 0)

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
