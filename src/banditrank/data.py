"""Data models and file formats for logged bandit feedback and supervised labels.

Bandit logs are UTF-8 line-delimited JSON, one record per line with keys
``query_id``, ``product_id``, ``features``, ``action``, ``propensity``,
``delta``. An optional first line holding ``{"_meta": {...}}`` carries log
metadata. Supervised data is a tab-separated file with a header row:
``query_id  product_id  label  nrr  f0 ... f{d-1}``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

# Propensities below this are treated as logging errors and rejected outright
# rather than clipped; a silently tiny propensity would dominate the
# importance-weighted estimators.
MIN_PROPENSITY = 1e-9


class LogValidationError(ValueError):
    """A record violates the bandit-log invariants."""


class LogParseError(LogValidationError):
    """A line of a log file could not be parsed."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DimensionError(LogValidationError):
    """Feature vector length disagrees with the declared dimension."""


def _check_context(values, feature_dim: int | None = None) -> np.ndarray:
    ctx = np.asarray(values, dtype=np.float64)
    if ctx.ndim != 1:
        raise LogValidationError(f"context must be a flat vector, got shape {ctx.shape}")
    if not np.all(np.isfinite(ctx)):
        raise LogValidationError("context contains non-finite values")
    if feature_dim is not None and ctx.shape[0] != feature_dim:
        raise DimensionError(
            f"context has length {ctx.shape[0]}, expected {feature_dim}"
        )
    return ctx


@dataclass(frozen=True)
class BanditRecord:
    """One logged interaction: context, logged action, its propensity, binary loss."""

    query_id: str
    product_id: str
    context: np.ndarray
    action: int
    propensity: float
    delta: int

    def __post_init__(self):
        object.__setattr__(self, "context", _check_context(self.context))
        if self.action not in (0, 1):
            raise LogValidationError(f"action must be 0 or 1, got {self.action!r}")
        if self.delta not in (0, 1):
            raise LogValidationError(f"delta must be 0 or 1, got {self.delta!r}")
        if not (MIN_PROPENSITY <= self.propensity <= 1.0):
            raise LogValidationError(
                f"propensity must lie in [{MIN_PROPENSITY}, 1], got {self.propensity!r}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BanditRecord):
            return NotImplemented
        return (
            self.query_id == other.query_id
            and self.product_id == other.product_id
            and self.action == other.action
            and self.delta == other.delta
            and self.propensity == other.propensity
            and np.array_equal(self.context, other.context)
        )


class BanditLog:
    """An immutable collection of bandit records, stored column-wise.

    Columns (``contexts``, ``actions``, ``propensities``, ``deltas``) are
    numpy arrays so the estimators and trainers can work on whole logs
    without per-record Python overhead.
    """

    def __init__(
        self,
        query_ids: Sequence[str],
        product_ids: Sequence[str],
        contexts: np.ndarray,
        actions: np.ndarray,
        propensities: np.ndarray,
        deltas: np.ndarray,
        metadata: dict[str, str] | None = None,
    ):
        n = len(query_ids)
        contexts = np.asarray(contexts, dtype=np.float64)
        if contexts.ndim != 2 or contexts.shape[0] != n:
            raise LogValidationError(
                f"contexts must be ({n}, d), got shape {contexts.shape}"
            )
        actions = np.asarray(actions, dtype=np.int64)
        propensities = np.asarray(propensities, dtype=np.float64)
        deltas = np.asarray(deltas, dtype=np.int64)
        for name, col in (("product_ids", product_ids), ("actions", actions),
                          ("propensities", propensities), ("deltas", deltas)):
            if len(col) != n:
                raise LogValidationError(f"{name} has length {len(col)}, expected {n}")
        if not np.all(np.isfinite(contexts)):
            raise LogValidationError("contexts contain non-finite values")
        if not np.all((actions == 0) | (actions == 1)):
            raise LogValidationError("actions must be 0 or 1")
        if not np.all((deltas == 0) | (deltas == 1)):
            raise LogValidationError("deltas must be 0 or 1")
        if n and not np.all((propensities >= MIN_PROPENSITY) & (propensities <= 1.0)):
            raise LogValidationError("propensities must lie in (0, 1]")
        self.query_ids = list(query_ids)
        self.product_ids = list(product_ids)
        self.contexts = contexts
        self.actions = actions
        self.propensities = propensities
        self.deltas = deltas
        self.metadata = dict(metadata or {})
        for arr in (self.contexts, self.actions, self.propensities, self.deltas):
            arr.setflags(write=False)

    @property
    def feature_dim(self) -> int:
        return self.contexts.shape[1]

    @classmethod
    def from_records(
        cls, records: Iterable[BanditRecord], metadata: dict[str, str] | None = None
    ) -> "BanditLog":
        records = list(records)
        if records:
            d = records[0].context.shape[0]
            for i, r in enumerate(records):
                if r.context.shape[0] != d:
                    raise DimensionError(
                        f"record {i} has feature length {r.context.shape[0]}, expected {d}"
                    )
            contexts = np.stack([r.context for r in records])
        else:
            contexts = np.zeros((0, 0))
        return cls(
            query_ids=[r.query_id for r in records],
            product_ids=[r.product_id for r in records],
            contexts=contexts,
            actions=np.array([r.action for r in records], dtype=np.int64),
            propensities=np.array([r.propensity for r in records], dtype=np.float64),
            deltas=np.array([r.delta for r in records], dtype=np.int64),
            metadata=metadata,
        )

    def __len__(self) -> int:
        return len(self.query_ids)

    def __iter__(self) -> Iterator[BanditRecord]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> BanditRecord:
        return BanditRecord(
            query_id=self.query_ids[i],
            product_id=self.product_ids[i],
            context=self.contexts[i],
            action=int(self.actions[i]),
            propensity=float(self.propensities[i]),
            delta=int(self.deltas[i]),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BanditLog):
            return NotImplemented
        return (
            self.query_ids == other.query_ids
            and self.product_ids == other.product_ids
            and np.array_equal(self.contexts, other.contexts)
            and np.array_equal(self.actions, other.actions)
            and np.array_equal(self.propensities, other.propensities)
            and np.array_equal(self.deltas, other.deltas)
            and self.metadata == other.metadata
        )


@dataclass(frozen=True)
class SupervisedRecord:
    """Query-product pair with a 5-point graded label and its normalized rate."""

    query_id: str
    product_id: str
    context: np.ndarray
    label: int
    nrr: float

    def __post_init__(self):
        object.__setattr__(self, "context", _check_context(self.context))
        if not 0.0 <= self.nrr <= 1.0:
            raise LogValidationError(f"nrr must lie in [0, 1], got {self.nrr!r}")
        expected = math.ceil(4.0 * round(self.nrr, 12))
        if self.label != expected:
            raise LogValidationError(
                f"label {self.label} inconsistent with nrr {self.nrr} (expected {expected})"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupervisedRecord):
            return NotImplemented
        return (
            self.query_id == other.query_id
            and self.product_id == other.product_id
            and self.label == other.label
            and self.nrr == other.nrr
            and np.array_equal(self.context, other.context)
        )


@dataclass(frozen=True)
class QuerySplit:
    """Disjoint train/dev/test query-id sets covering the input queries."""

    train: frozenset[str]
    dev: frozenset[str]
    test: frozenset[str]

    def __post_init__(self):
        if self.train & self.dev or self.train & self.test or self.dev & self.test:
            raise ValueError("query splits must be pairwise disjoint")


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


def parse_bandit_log(source: IO | str) -> BanditLog:
    """Parse a line-delimited bandit log; reject any invalid record loudly."""
    metadata: dict[str, str] = {}
    records: list[BanditRecord] = []
    feature_dim: int | None = None
    with open_text(source) as stream:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogParseError(f"invalid JSON ({exc.msg})", line_no) from exc
            if not isinstance(obj, dict):
                raise LogParseError("expected a JSON object", line_no)
            if "_meta" in obj:
                if line_no != 1:
                    raise LogParseError("metadata line only allowed first", line_no)
                metadata = {str(k): str(v) for k, v in obj["_meta"].items()}
                continue
            missing = _RECORD_KEYS - obj.keys()
            if missing:
                raise LogParseError(f"missing keys {sorted(missing)}", line_no)
            try:
                context = _check_context(obj["features"], feature_dim)
                record = BanditRecord(
                    query_id=str(obj["query_id"]),
                    product_id=str(obj["product_id"]),
                    context=context,
                    action=obj["action"],
                    propensity=obj["propensity"],
                    delta=obj["delta"],
                )
            except DimensionError as exc:
                raise LogParseError(str(exc), line_no) from exc
            except LogValidationError as exc:
                raise LogParseError(str(exc), line_no) from exc
            if feature_dim is None:
                feature_dim = context.shape[0]
            records.append(record)
    return BanditLog.from_records(records, metadata=metadata)


def write_bandit_log(log: BanditLog, sink: IO | str) -> int:
    """Write a bandit log; numeric fields keep full precision (repr round-trip)."""
    with open_text(sink, "w") as out:
        out.write(json.dumps({"_meta": log.metadata}) + "\n")
        for i in range(len(log)):
            obj = {
                "query_id": log.query_ids[i],
                "product_id": log.product_ids[i],
                "features": [float(x) for x in log.contexts[i]],
                "action": int(log.actions[i]),
                "propensity": float(log.propensities[i]),
                "delta": int(log.deltas[i]),
            }
            out.write(json.dumps(obj) + "\n")
    return len(log)


def write_supervised(records: Sequence[SupervisedRecord], sink: IO | str) -> int:
    """Write supervised records as TSV with a header row."""
    if records:
        d = records[0].context.shape[0]
    else:
        d = 0
    header = ["query_id", "product_id", "label", "nrr"] + [f"f{j}" for j in range(d)]
    with open_text(sink, "w") as out:
        out.write("\t".join(header) + "\n")
        for r in records:
            row = [r.query_id, r.product_id, str(r.label), repr(float(r.nrr))]
            row += [repr(float(x)) for x in r.context]
            out.write("\t".join(row) + "\n")
    return len(records)


def read_supervised(source: IO | str) -> list[SupervisedRecord]:
    """Read supervised records from the TSV format written by write_supervised."""
    records = []
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
                raise LogParseError(
                    f"expected {len(header)} columns, got {len(cols)}", line_no
                )
            records.append(
                SupervisedRecord(
                    query_id=cols[0],
                    product_id=cols[1],
                    label=int(cols[2]),
                    nrr=float(cols[3]),
                    context=np.array([float(x) for x in cols[4:]]),
                )
            )
    return records


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
    if any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be positive, got {ratios}")
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
