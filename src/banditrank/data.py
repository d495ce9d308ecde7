"""Data models and file formats for logged bandit feedback and supervised labels.

Both kinds of data are held column-wise: a ``BanditLog`` (contexts, actions,
propensities, losses) and a ``SupervisedSet`` (contexts, graded labels and
the normalized relevance rates they come from). A log's records repeat the
same query-product contexts, so it holds each distinct context row once: a
table ``context_table`` (k, d) and each record's row index ``context_rows``
(n,). Its ``contexts`` (n, d) is a computed copy; the simulator, the reader
and the writer, the estimators and the trainers all work on the table. These
two and ``aggregation.RelevanceTable`` are row sets, whose constructors make one
shared check of their rows, which names the first bad one; the readers report
it by line. ``grade`` is the one graded-label rule, ceil(4 * nrr), and
``grade_column`` applies it to a whole array at once. The supervised set and
the table derive their labels from their nrr column with it, and the
supervised reader checks a file's label column against them.

Bandit logs are UTF-8 line-delimited JSON. Each record line is exactly
``json.dumps`` with its default separators of a dict with keys ``query_id``,
``product_id``, ``features``, ``action``, ``propensity``, ``delta`` in that
order; ``tests/reference.jsonl_lines`` pins these bytes. An optional first line
holding ``{"_meta": {...}}`` carries log metadata.

The writer formats each table row, each distinct id and each distinct
propensity once. The reader takes ``_BLOCK_ROWS`` lines at a time. A block
whose every line has the writer's exact shape, with ids that need no escape and
numbers in number characters only, is matched in one call, one match per line;
any other block is matched line by line. In each block, a run of lines of that
shape takes the bulk path as a whole if one ``json.loads`` decodes its new
features texts, each once, into rows of the log's width, and its propensities;
every other line is parsed on its own. Either way a record takes its row of
the one context table by a key, its features text on the bulk path, else their
float bytes, so a context holds at most two rows. Both paths give the same log,
or the same error at the same line, as ``tests/reference.parse_lines``, the
per-line parser.

Supervised data is a tab-separated file with a header row:
``query_id  product_id  label  nrr  f0 ... f{d-1}``.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby, islice
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# Propensities below this are treated as logging errors and rejected outright
# rather than clipped; a silently tiny propensity would dominate the
# importance-weighted estimators.
MIN_PROPENSITY = 1e-9


class LogValidationError(ValueError):
    """A record violates the bandit-log invariants; ``row`` is the first offending row, if any."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.message, self.row = message, row


class LogParseError(LogValidationError):
    """A line of a log file could not be parsed."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_REAL_KINDS = "biuf"  # numpy dtype kinds of bool, signed int, unsigned int and float


def _column(values, ndim: int, ok, dtype, name: str, rule: str,
            rows: np.ndarray | None = None) -> np.ndarray | LogValidationError:
    """``values`` as a ``dtype`` array of rows (numbers, or flat vectors if a row has
    ``ndim`` 1) whose every element passes ``ok``, or the error naming the first row
    that breaks ``rule``. Rows are judged one by one if the column is not a real array.

    With ``rows``, valid indices into ``values``, ``values`` is a table and row i of
    the column is ``values[rows[i]]``: a bad table row is reported at the first row
    that uses it, and one that no row uses fails the column as a whole.
    """
    try:
        col = np.asarray(values)
    except ValueError:  # rows of different lengths
        col = None
    if col is not None and col.ndim == 1 + ndim and col.dtype.kind in _REAL_KINDS:
        good = ok(col)
        if good.all():
            return col.astype(dtype, copy=False)
        bad = ~good.reshape(len(col), -1).all(axis=1)
        if rows is None:
            row = int(np.argmax(bad))
            return LogValidationError(f"{name} {rule}, got {col[row].tolist()!r}", row)
        if not bad[rows].any():
            unused = int(np.argmax(bad))
            raise LogValidationError(f"{name} table row {unused} {rule}, got "
                                     f"{col[unused].tolist()!r}, and no record uses it")
        row = int(np.argmax(bad[rows]))
        return LogValidationError(f"{name} {rule}, got {col[rows[row]].tolist()!r}", row)
    if rows is not None:
        values = [values[i] for i in rows.tolist()]
    for row, value in enumerate(values):
        try:
            item = np.asarray(value)
        except ValueError:  # a ragged nested list
            break
        shape = item.shape if row == 0 else shape
        if (item.ndim != ndim or item.shape != shape
                or item.dtype.kind not in _REAL_KINDS or not ok(item).all()):
            break
    else:  # every row passes alone, so the column's shape or type is at fault
        raise LogValidationError(f"{name} column is not a real array of {1 + ndim} dimensions")
    return LogValidationError(f"{name} {rule}, got {value!r}", row)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view: a caller's own array is kept without a copy and stays writable."""
    view = array.view()
    view.setflags(write=False)
    return view


def _row_index(rows, n: int, k: int) -> np.ndarray:
    """``rows`` as n indices into a table of k rows; a bad index is an error naming its row."""
    col = np.asarray(rows)
    if col.ndim != 1 or (col.size and col.dtype.kind not in "iu"):
        raise LogValidationError("context_rows must be a flat array of integers")
    if len(col) != n:
        raise LogValidationError(f"context_rows has length {len(col)}, expected {n}", min(len(col), n))
    bad = (col < 0) | (col >= k)
    if bad.any():
        row = int(np.argmax(bad))
        raise LogValidationError(f"context row {col[row]} is not a row of the {k}-row table", row)
    return col.astype(np.intp, copy=False)


# A column's rule: (name, dimensions of one row, test of each element, dtype,
# name in messages, what the rule asks). The row sets with contexts state them first.
_CONTEXTS = ("contexts", 1, np.isfinite, np.float64, "context",
             "must be a flat list of finite numbers as long as the first")


class _RowSet:
    """Rows held column-wise: ``query_ids`` and ``product_ids`` lists of strings,
    then one read-only array per entry of ``_COLUMNS``.

    ``_store`` is the one check of the columns; a failure names the first
    offending row across every column.
    """

    def _store(self, query_ids, product_ids, columns, rows=None) -> list[np.ndarray]:
        """Check ``columns`` against ``_COLUMNS``, keep the ids and return read-only
        columns. With ``rows``, each row's checked index into it, the first column
        is a table."""
        n = len(query_ids)
        names = ["product_ids", *(spec[0] for spec in self._COLUMNS)]
        sized = [product_ids, *columns]
        if rows is not None:
            sized[1] = rows  # the table may hold any number of rows
        for name, col in zip(names, sized):
            if len(col) != n:
                raise LogValidationError(f"{name} has length {len(col)}, expected {n}")
        checked = [_column(columns[0], *self._COLUMNS[0][1:], rows=rows)]
        checked += [_column(col, *spec[1:]) for spec, col in zip(self._COLUMNS[1:], columns[1:])]
        failures = [col for col in checked if isinstance(col, LogValidationError)]
        for name, ids in (("query_id", query_ids), ("product_id", product_ids)):
            try:
                "".join(ids)  # the fastest test that every id is a str
            except TypeError:
                row = next(row for row, x in enumerate(ids) if not isinstance(x, str))
                failures.append(LogValidationError(f"{name} must be a string, got {ids[row]!r}", row))
        if failures:
            raise min(failures, key=lambda exc: exc.row)
        self.query_ids = list(query_ids)
        self.product_ids = list(product_ids)
        return list(map(_read_only, checked))

    def __len__(self) -> int:
        return len(self.query_ids)

    def __eq__(self, other) -> bool:
        """Equal ids, array columns and any other attribute (a log's ``metadata``)."""
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(map(_same, vars(self).values(), vars(other).values()))


def _same(mine, theirs) -> bool:
    return np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs


class BanditLog(_RowSet):
    """An immutable collection of bandit records, stored column-wise.

    Each distinct context row is held once: ``context_table`` (k, d) holds the
    rows and ``context_rows`` (n,) each record's index into it. ``contexts``
    is a computed (n, d) copy of the records' rows; the estimators and
    trainers work on the table. The other columns (``actions``,
    ``propensities``, ``deltas``) are numpy arrays too, so whole logs are
    handled without per-record Python overhead.

    Given ``contexts`` alone, they are the table and record i uses row i.
    Given ``context_rows`` too, ``contexts`` is the table. ``metadata`` maps
    str to str, as the log's file gives it back. The constructor is
    the one check of the record invariants; a failure names the first
    offending record, and a bad table row is reported at the first record
    that uses it.
    """

    _COLUMNS = (
        _CONTEXTS,
        ("actions", 0, lambda x: (x == 0) | (x == 1), np.int64, "action", "must be 0 or 1"),
        ("propensities", 0, lambda x: (x >= MIN_PROPENSITY) & (x <= 1.0), np.float64,
         "propensity", f"must be a number in [{MIN_PROPENSITY}, 1]"),
        ("deltas", 0, lambda x: (x == 0) | (x == 1), np.int64, "delta", "must be 0 or 1"),
    )

    def __init__(
        self,
        query_ids: Sequence[str],
        product_ids: Sequence[str],
        contexts: np.ndarray,
        actions: np.ndarray,
        propensities: np.ndarray,
        deltas: np.ndarray,
        metadata: dict[str, str] | None = None,
        context_rows: Sequence[int] | None = None,
    ):
        self.metadata = dict(metadata or {})
        for key, value in self.metadata.items():
            if not (isinstance(key, str) and isinstance(value, str)):
                raise LogValidationError(f"metadata must map str to str, got {key!r}: {value!r}")
        rows = None if context_rows is None else _row_index(context_rows, len(query_ids),
                                                              len(contexts))
        self.context_table, self.actions, self.propensities, self.deltas = self._store(
            query_ids, product_ids, (contexts, actions, propensities, deltas), rows=rows)
        self.context_rows = _read_only(np.arange(len(self)) if rows is None else rows)

    @property
    def contexts(self) -> np.ndarray:
        """Each record's context, (n, d): a read-only copy gathered from the table."""
        return _read_only(self.context_table[self.context_rows])

    @property
    def feature_dim(self) -> int:
        return self.context_table.shape[1]

    def __eq__(self, other) -> bool:
        """Equal ids, columns and metadata, and every record's context equal,
        however each log's table holds the rows."""
        if not isinstance(other, BanditLog):
            return NotImplemented
        mine, theirs = dict(vars(self)), dict(vars(other))
        (table, rows), (their_table, their_rows) = [
            (attrs.pop("context_table"), attrs.pop("context_rows")) for attrs in (mine, theirs)]
        if (len(self) != len(other) or self.feature_dim != other.feature_dim
                or not all(map(_same, mine.values(), theirs.values()))):
            return False
        # a block of records at a time, so that no (n, d) copy is made
        return all(np.array_equal(table[rows[start:start + _BLOCK_ROWS]],
                                  their_table[their_rows[start:start + _BLOCK_ROWS]])
                   for start in range(0, len(self), _BLOCK_ROWS))


# ceil(4 * nrr) is taken after rounding nrr to 12 decimals, so a rate that
# should sit exactly on a grade boundary does not jump a grade from float noise.
NRR_DECIMALS = 12


def grade(nrr: float) -> int:
    """The 5-point label of a normalized relevance rate: ceil(4 * nrr) after
    Python's ``round`` to ``NRR_DECIMALS`` places, so 0 -> 0 and 1 -> 4."""
    return math.ceil(4.0 * round(nrr, NRR_DECIMALS))


def grade_column(nrr: np.ndarray) -> np.ndarray:
    """``grade`` of each entry of a float64 array of rates in [0, 1], as int64.

    numpy takes ceil(4 * nrr). ``grade`` rounds nrr to ``NRR_DECIMALS`` places
    first, which moves 4 * nrr by less than 1e-11, so the two can differ only
    next to an integer that 4 * nrr does not equal: ``grade`` itself labels
    every entry within 1e-9 of one. Where 4 * nrr is an integer, both give it.
    """
    scaled = 4.0 * nrr
    labels = np.ceil(scaled).astype(np.int64)
    nearest = np.rint(scaled)
    for i in np.flatnonzero((np.abs(scaled - nearest) <= 1e-9) & (scaled != nearest)).tolist():
        labels[i] = grade(float(nrr[i]))
    return labels


class SupervisedRow(NamedTuple):
    """What iterating a ``SupervisedSet`` yields for each of its rows."""

    query_id: str
    product_id: str
    label: int
    nrr: float


class SupervisedSet(_RowSet):
    """Query-product pairs with a normalized relevance rate and its 5-point
    graded label, stored column-wise like ``BanditLog``.

    Columns: ``query_ids``, ``product_ids``, read-only arrays ``contexts``
    (n, d), ``nrr`` and ``labels``. The constructor is the one check of the
    row invariants (finite contexts of one width, nrr in [0, 1]); a failure
    names the first offending row. The labels are derived from the nrr
    column by ``grade_column``.
    """

    _COLUMNS = (
        _CONTEXTS,
        ("nrr", 0, lambda x: (x >= 0.0) & (x <= 1.0), np.float64, "nrr", "must lie in [0, 1]"),
    )

    def __init__(self, query_ids: Sequence[str], product_ids: Sequence[str],
                 contexts: np.ndarray, nrr: Sequence[float]):
        self.contexts, self.nrr = self._store(query_ids, product_ids, (contexts, nrr))
        self.labels = _read_only(grade_column(self.nrr))

    @property
    def feature_dim(self) -> int:
        return self.contexts.shape[1]

    def __iter__(self) -> Iterator[SupervisedRow]:
        return map(SupervisedRow, self.query_ids, self.product_ids,
                   self.labels.tolist(), self.nrr.tolist())

    def qrels(self) -> dict[tuple[str, str], int]:
        """Each row's label by its (query_id, product_id) pair."""
        return dict(zip(zip(self.query_ids, self.product_ids), self.labels.tolist()))


@dataclass(frozen=True)
class QuerySplit:
    """Disjoint train/dev/test query-id sets covering the input queries, built by
    ``split_queries``."""

    train: frozenset[str]
    dev: frozenset[str]
    test: frozenset[str]


@contextmanager
def open_text(target: IO[str] | str, mode: str = "r") -> Iterator[IO[str]]:
    """Yield a UTF-8 text stream for a path or a caller's open text stream.

    A path is opened in ``mode`` and closed on exit. A caller's stream is
    passed through and left open; in write mode it is flushed on exit.
    """
    if isinstance(target, str):
        with open(target, mode, encoding="utf-8") as fh:
            yield fh
        return
    yield target
    if "w" in mode:
        target.flush()


_RECORD_KEYS = {"query_id", "product_id", "features", "action", "propensity", "delta"}

# The writers format and write this many rows at a time (one ``tolist()`` of each
# column and one ``write`` per block), and the bandit-log reader reads this many
# lines at a time (one ``json.loads`` per run of bulk lines). Larger blocks gain no
# time and hold more memory: reading a 30k-record log peaks 1.1 MB higher at 1,024.
_BLOCK_ROWS = 256

# A record line as ``json.dumps`` of the record's dict gives it. Ids and features
# are filled in already JSON-encoded, and so is the propensity; ``%d`` writes an
# int as json does.
_RECORD_LINE = ('{"query_id": %s, "product_id": %s, "features": %s, '
                '"action": %d, "propensity": %s, "delta": %d}\n')

# The lines of ``_RECORD_LINE``'s shape that the reader's bulk path takes: ids
# with no escape or control character, which json would read as they stand, and
# features and propensity written with number characters only, the propensity
# with a point or an exponent, so that json reads it as a float. The features'
# brackets are their own two, so each captured piece is one JSON value or none.
# No piece holds a line end, so each match is a whole line, anchored by ``^`` and
# ``$``: ``fullmatch`` tests one line, and ``findall`` over a block of lines finds
# one match per line if and only if every line is in this shape.
_WRITTEN_RECORD = re.compile(
    r'^\{"query_id": "([^"\\\x00-\x1f]*)", "product_id": "([^"\\\x00-\x1f]*)", '
    r'"features": (\[[-+.0-9eE, ]*\]), "action": ([01]), '
    r'"propensity": ([-+0-9]*[.eE][-+.0-9eE]*), "delta": ([01])\}$\n?', re.M)


_BIT = {"0": 0, "1": 1}.__getitem__  # an action or delta field of ``_WRITTEN_RECORD``


def _read_run(groups: list[tuple], row_of: dict, table: array, width, share) -> tuple | None:
    """The log's width (None before any record) and the record columns of a run of
    lines' ``_WRITTEN_RECORD`` groups if one ``json.loads`` decodes its propensities
    and its features texts not in ``row_of`` into float rows of that width, which
    are then added to ``row_of`` and ``table``; else None."""
    qids, pids, texts, actions, propensities, deltas = zip(*groups)
    new = [text for text in dict.fromkeys(texts) if text not in row_of]
    try:  # bad JSON, an integer past Python's digit limit or past a float's range
        values = json.loads("[" + ",".join([*new, *propensities]) + "]")
        width = len(values[0]) if width is None else width
        if any(len(row) != width for row in values[:len(new)]):
            return None
        new_rows = array("d", [x for row in values[:len(new)] for x in row])
    except (ValueError, OverflowError):
        return None
    row_of.update(zip(new, range(len(row_of), len(row_of) + len(new))))
    table.extend(new_rows)
    return width, (map(share, qids, qids), map(share, pids, pids), map(row_of.__getitem__, texts),
                   map(_BIT, actions), values[len(new):], map(_BIT, deltas))


def parse_bandit_log(source: IO | str) -> BanditLog:
    """Parse a line-delimited bandit log straight into a table of its distinct
    context rows and the other columns; a row that ``BanditLog`` rejects is
    reported by its line number. The module docstring says which lines take
    the bulk path."""
    with open_text(source) as stream:
        metadata, columns, rows, line_nos, error = _read_log(stream)
    try:
        log = BanditLog(*columns, metadata, rows)
    except LogValidationError as exc:
        raise LogParseError(exc.message, line_nos[exc.row]) from exc
    if error is not None:
        raise error
    return log


def _read_log(stream: IO[str]) -> tuple[dict[str, str], list, np.ndarray, array,
                                          LogParseError | None]:
    """The metadata, the ``BanditLog`` columns with the contexts as a table, each
    record's row of it, each record's line number and the format error that ended
    the reading, if any. Each record looks up or adds its row in one key-to-row
    index, in line order: by its features text if it was read in a bulk run, else
    by their float bytes. The index is freed on return, before ``BanditLog`` runs.

    Features that no table row can hold end the reading as the table's last row,
    as json read them, in a list of rows. The records before them or before a
    format error go to ``BanditLog`` all the same, so that a bad value on an
    earlier line is the one reported.
    """
    metadata: dict[str, str] = {}
    query_ids, product_ids, line_nos = [], [], array("q")
    # The bulk path's numbers, held compactly. A record read on its own may hold
    # values of any type, which lists keep for BanditLog to judge.
    actions, propensities, deltas = array("q"), array("d"), array("q")
    share = {}.setdefault  # equal ids share one str
    # The flat table of context rows, each record's row and the key-to-row index
    table, rows, row_of = array("d"), array("q"), {}
    width, contexts, error, end = None, None, None, 0  # end: the lines read so far
    while (error is None and contexts is None
           and (block := list(islice(stream, _BLOCK_ROWS)))):
        start = end  # the lines before the block
        groups = _WRITTEN_RECORD.findall("".join(block))
        if len(groups) != len(block):
            groups = [match and match.groups() for match in map(_WRITTEN_RECORD.fullmatch, block)]
        for shaped, run in groupby(groups, bool):
            run = list(run)
            first, end = end + 1, end + len(run)
            taken = shaped and _read_run(run, row_of, table, width, share)
            if taken:
                width, bulk = taken
                for column, values in zip((query_ids, product_ids, rows, actions, propensities,
                                           deltas, line_nos), (*bulk, range(first, end + 1))):
                    column.extend(values)
                continue
            for line_no, line in enumerate(block[first - 1 - start:end - start], first):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = _parse_line(line, line_no)
                except LogParseError as exc:
                    error = exc
                    break
                if "_meta" in obj:
                    metadata = {str(k): str(v) for k, v in obj["_meta"].items()}
                    continue
                if isinstance(actions, array):
                    actions, propensities, deltas = list(actions), list(propensities), list(deltas)
                query_id, product_id = str(obj["query_id"]), str(obj["product_id"])
                features = obj["features"]
                if width is None:
                    width = len(features) if isinstance(features, list) else 0
                key = None
                if isinstance(features, list) and len(features) == width:
                    try:
                        features = array("d", features)
                        key = features.tobytes()
                    except (TypeError, OverflowError):
                        pass
                if key is None:
                    # No table row can hold these features, so the log is invalid
                    # here or earlier: BanditLog names the first bad row.
                    contexts = [*np.frombuffer(table).reshape(len(row_of), width), features]
                row = row_of.get(key)
                if row is None:
                    row = row_of[key] = len(row_of)
                    if contexts is None:
                        table.extend(features)
                query_ids.append(share(query_id, query_id))
                product_ids.append(share(product_id, product_id))
                actions.append(obj["action"])
                propensities.append(obj["propensity"])
                deltas.append(obj["delta"])
                line_nos.append(line_no)
                rows.append(row)
                if contexts is not None:
                    break
            if error is not None or contexts is not None:
                break
    if contexts is None:
        contexts = np.frombuffer(table).reshape(len(row_of), width or 0)
    return metadata, [query_ids, product_ids, contexts, actions, propensities, deltas], \
        np.frombuffer(rows, dtype=np.int64), line_nos, error


def _parse_line(line: str, line_no: int) -> dict:
    """A line's JSON object, a ``_meta`` one checked; a format error raises ``LogParseError``."""
    try:
        obj = json.loads(line)
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise LogParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no) from exc
    if not isinstance(obj, dict):
        raise LogParseError("expected a JSON object", line_no)
    if "_meta" in obj:
        if line_no != 1:
            raise LogParseError("metadata line only allowed first", line_no)
        if not isinstance(obj["_meta"], dict):
            raise LogParseError("_meta must be a JSON object", line_no)
        return obj
    missing = _RECORD_KEYS - obj.keys()
    if missing:
        raise LogParseError(f"missing keys {sorted(missing)}", line_no)
    for key in ("features", "action", "propensity", "delta"):
        values = obj[key] if isinstance(obj[key], list) else [obj[key]]
        if any(isinstance(value, bool) for value in values):
            raise LogParseError(f"{key} holds a JSON boolean", line_no)
    return obj


def write_bandit_log(log: BanditLog, sink: IO | str) -> int:
    """Write a bandit log; numeric fields keep full precision (repr round-trip).

    Each context-table row, each distinct id and each distinct propensity is
    formatted once. No record line carries the log's width, so a log without
    records reads back with width 0.
    """
    # repr of a finite float is json's, and equal propensities are one float (none
    # is zero). The texts are made a block at a time and held as bytes of one width,
    # each record's index in the smallest type, and the values freed before the table
    # is formatted: a str per value and an intp per record would hold about one
    # context row per record where every propensity is distinct.
    values, propensity_of = np.unique(log.propensities, return_inverse=True)
    propensity_of = propensity_of.astype(np.min_scalar_type(len(values)))
    propensities = np.concatenate([np.zeros(0, "S1"), *(
        np.array(list(map(repr, values[start:start + _BLOCK_ROWS].tolist())), "S")
        for start in range(0, len(values), _BLOCK_ROWS))])
    del values
    # A block of rows at a time, as a tolist() of the whole table lifts the write's
    # peak memory above the parse's; str of a list of finite floats is json.dumps's.
    table = log.context_table
    texts = [str(row) for start in range(0, len(table), _BLOCK_ROWS)
             for row in table[start:start + _BLOCK_ROWS].tolist()]
    ids = {i: json.dumps(i) for i in {*log.query_ids, *log.product_ids}}
    with open_text(sink, "w") as out:
        out.write(json.dumps({"_meta": log.metadata}) + "\n")
        for start in range(0, len(log), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            records = zip(map(ids.__getitem__, log.query_ids[block]),
                          map(ids.__getitem__, log.product_ids[block]),
                          map(texts.__getitem__, log.context_rows[block].tolist()),
                          log.actions[block].tolist(),
                          map(bytes.decode, propensities[propensity_of[block]].tolist()),
                          log.deltas[block].tolist())
            out.write("".join([_RECORD_LINE % record for record in records]))
    return len(log)


def _check_ids(columns: Sequence[Sequence[str]], trec: bool = False, name: str = "id") -> None:
    """Fail before a writer writes a line on the first string of ``columns``, row by
    row, that breaks its field: in TSV a tab or a line end (universal newlines split
    at "\\r" too), in trec_eval whitespace or no character at all."""
    pattern, rule = ((r"\s|^$", "is empty or holds whitespace, unfit for trec_eval") if trec
                     else (r"[\t\n\r]", "holds a tab or a line end, unfit for TSV"))
    breaks = re.compile(pattern).search
    if any(breaks("".join(ids)) or trec and "" in ids for ids in columns if ids):
        row, bad = next((row, i) for row, ids in enumerate(zip(*columns)) for i in ids if breaks(i))
        raise LogValidationError(f"{name} {bad!r} {rule}", row)


def write_supervised(rows: SupervisedSet, sink: IO | str) -> int:
    """Write supervised rows as TSV with a header row. An id that holds a tab or a
    line end fails, naming its row, before any line is written."""
    _check_ids((rows.query_ids, rows.product_ids))
    header = ["query_id", "product_id", "label", "nrr"]
    header += [f"f{j}" for j in range(rows.contexts.shape[1])]
    with open_text(sink, "w") as out:
        out.write("\t".join(header) + "\n")
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            columns = zip(rows.query_ids[block], rows.product_ids[block],
                          rows.labels[block].tolist(), rows.nrr[block].tolist(),
                          rows.contexts[block].tolist())
            out.write("".join([
                "\t".join([query_id, product_id, str(label), repr(nrr), *map(repr, context)]) + "\n"
                for query_id, product_id, label, nrr, context in columns
            ]))
    return len(rows)


def read_supervised(source: IO | str) -> SupervisedSet:
    """Read the TSV format of ``write_supervised`` straight into columns; a row
    that ``SupervisedSet`` rejects, or whose label is not the set's, is reported
    by its line number, the first such row by either rule."""
    query_ids, product_ids, labels, line_nos = [], [], [], []
    # Each row's nrr and features go to one flat buffer, (n, 1 + d) once reshaped.
    flat = array("d")
    with open_text(source) as stream:
        header = stream.readline().rstrip("\n").split("\t")
        if header[:4] != ["query_id", "product_id", "label", "nrr"]:
            raise LogParseError(f"unexpected supervised header {header[:4]}", 1)
        for line_no, line in enumerate(stream, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != len(header):
                raise LogParseError(f"expected {len(header)} columns, got {len(cols)}", line_no)
            try:
                labels.append(int(cols[2]))
                flat.fromlist(list(map(float, cols[3:])))
            except ValueError as exc:
                raise LogParseError(str(exc), line_no) from exc
            query_ids.append(cols[0])
            product_ids.append(cols[1])
            line_nos.append(line_no)
    values = np.frombuffer(flat).reshape(len(line_nos), len(header) - 3)
    nrr, contexts = values[:, 0], np.ascontiguousarray(values[:, 1:])
    try:
        rows, error = SupervisedSet(query_ids, product_ids, contexts, nrr), None
    except LogValidationError as exc:
        rows, error = None, exc
    # every row before a rejected one has a valid nrr, so its label is checked first
    expected = (grade_column(nrr[:error.row]) if error else rows.labels).tolist()
    if labels[:len(expected)] != expected:
        row = next(i for i, (a, b) in enumerate(zip(labels, expected)) if a != b)
        raise LogParseError(f"label {labels[row]} inconsistent with nrr {float(nrr[row])} "
                            f"(expected {expected[row]})", line_nos[row])
    if error:
        raise LogParseError(error.message, line_nos[error.row]) from error
    return rows


def split_queries(
    query_ids: Iterable[str], ratios: tuple[float, float, float], seed: int
) -> QuerySplit:
    """Randomly split query ids into train/dev/test by the given ratios.

    Dev and test sizes are floor-rounded; the remainder goes to train.
    Deterministic for a fixed seed regardless of input ordering.
    """
    ids = sorted(set(query_ids))
    if not ids:
        raise ValueError("query set must be non-empty")
    if len(ratios) != 3 or not all(r > 0 for r in ratios):
        raise ValueError(f"ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    n = len(ids)
    n_dev = int(math.floor(n * ratios[1]))
    n_test = int(math.floor(n * ratios[2]))
    n_train = n - n_dev - n_test
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    shuffled = [ids[i] for i in perm]
    return QuerySplit(
        train=frozenset(shuffled[:n_train]),
        dev=frozenset(shuffled[n_train : n_train + n_dev]),
        test=frozenset(shuffled[n_train + n_dev :]),
    )
