"""Independent brute-force evaluators used as test oracles.

They live apart from ``oracles.py``, which the benchmark imports; see its
docstring.

Everything here is written directly from the defining formulas, one record
at a time, with no shared code paths with the library being tested, except
that ``parse_lines`` builds its log with the library's ``BanditLog`` and so
shares its check of the rows, ``unflatten``, ``init_params_by_kind`` and
``adam_step_arrays`` return the library's ``PolicyParams``,
``adam_step_arrays`` reads its Adam constants, and
``lambda_search_by_probes`` trains with the library's public ``train_crm``
and takes each probe's S from ``estimators.snips_denominator``.
"""

import dataclasses
import json
import math
from array import array
from typing import NamedTuple

import numpy as np

from banditrank import estimators, training
from banditrank.data import BanditLog, LogParseError, LogValidationError
from banditrank.policy import PolicyParams


class Record(NamedTuple):
    """One logged interaction, as the oracles read it."""

    query_id: str
    product_id: str
    context: np.ndarray
    action: int
    propensity: float
    delta: int


def rows(log):
    """The records of a ``BanditLog``, one per row of its columns."""
    return [
        Record(*fields)
        for fields in zip(log.query_ids, log.product_ids, log.contexts, log.actions.tolist(),
                          log.propensities.tolist(), log.deltas.tolist())
    ]


def jsonl_lines(log):
    """The lines of a ``BanditLog``'s file as the per-record writer wrote them:
    the ``_meta`` line, then one ``json.dumps`` of each record's dict."""
    lines = [json.dumps({"_meta": log.metadata}) + "\n"]
    rows = zip(log.query_ids, log.product_ids, log.contexts, log.actions.tolist(),
               log.propensities.tolist(), log.deltas.tolist())
    for query_id, product_id, context, action, propensity, delta in rows:
        obj = {
            "query_id": query_id,
            "product_id": product_id,
            "features": context.tolist(),
            "action": action,
            "propensity": propensity,
            "delta": delta,
        }
        lines.append(json.dumps(obj) + "\n")
    return lines


def parse_lines(lines):
    """A ``BanditLog`` from the lines of a log file, one ``json.loads`` per line.

    This is the per-line parser that the block parser replaced, kept as it
    stood, plus three rules: a JSON boolean is not a number; an integer past
    Python's digit limit is invalid JSON; and a format error (invalid JSON, not
    an object, a misplaced or bad ``_meta``, missing keys, a boolean) ends the
    reading, but the records before it are checked first, so that an earlier
    line's bad value is the one reported. Its errors, their messages and their
    line numbers are the ones the block parser must give.
    """
    metadata = {}
    query_ids, product_ids, actions, propensities, deltas, line_nos = [], [], [], [], [], []
    flat, width, contexts, error = array("d"), None, None, None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            error = LogParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no)
            break
        if not isinstance(obj, dict):
            error = LogParseError("expected a JSON object", line_no)
            break
        if "_meta" in obj:
            if line_no != 1:
                error = LogParseError("metadata line only allowed first", line_no)
                break
            if not isinstance(obj["_meta"], dict):
                error = LogParseError("_meta must be a JSON object", line_no)
                break
            metadata = {str(k): str(v) for k, v in obj["_meta"].items()}
            continue
        missing = {"query_id", "product_id", "features", "action", "propensity", "delta"} - obj.keys()
        if missing:
            error = LogParseError(f"missing keys {sorted(missing)}", line_no)
            break
        booleans = [key for key in ("features", "action", "propensity", "delta")
                    if any(isinstance(value, bool)
                           for value in (obj[key] if isinstance(obj[key], list) else [obj[key]]))]
        if booleans:
            error = LogParseError(f"{booleans[0]} holds a JSON boolean", line_no)
            break
        query_ids.append(str(obj["query_id"]))
        product_ids.append(str(obj["product_id"]))
        actions.append(obj["action"])
        propensities.append(obj["propensity"])
        deltas.append(obj["delta"])
        line_nos.append(line_no)
        features = obj["features"]
        if width is None:
            width = len(features) if isinstance(features, list) else 0
        start = len(flat)
        try:
            if isinstance(features, list) and len(features) == width:
                flat.extend(features)
                continue
        except (TypeError, OverflowError):
            del flat[start:]
        contexts = [*np.frombuffer(flat).reshape(len(line_nos) - 1, width), features]
        break
    if contexts is None:
        contexts = np.frombuffer(flat).reshape(len(line_nos), width or 0)
    try:
        log = BanditLog(query_ids, product_ids, contexts, actions, propensities, deltas, metadata)
    except LogValidationError as exc:
        raise LogParseError(exc.message, line_nos[exc.row]) from exc
    if error is not None:
        raise error
    return log


def tsv_lines(rows):
    """The lines of a ``SupervisedSet``'s file as the per-row writer wrote them:
    the header, then each row's ids, label, ``repr`` of nrr and of each feature."""
    header = ["query_id", "product_id", "label", "nrr"]
    header += [f"f{j}" for j in range(rows.contexts.shape[1])]
    lines = ["\t".join(header) + "\n"]
    columns = zip(rows.query_ids, rows.product_ids, rows.labels.tolist(), rows.nrr.tolist(),
                  rows.contexts)
    for query_id, product_id, label, nrr, context in columns:
        lines.append("\t".join([query_id, product_id, str(label), repr(nrr),
                                 *map(repr, context.tolist())]) + "\n")
    return lines


def flatten(params):
    """Every array of a ``PolicyParams``, raveled into one vector."""
    return np.concatenate([a.ravel() for a in params.arrays])


def split(params, flat):
    """The values of ``flat``, a vector laid out like ``params.flat``, as one array
    per array of ``params``, in its shape."""
    out, i = [], 0
    for a in params.arrays:
        out.append(np.asarray(flat[i : i + a.size]).reshape(a.shape).copy())
        i += a.size
    return out


def unflatten(params, flat):
    """A ``PolicyParams`` shaped like ``params`` holding the values of ``flat``."""
    return PolicyParams(params.kind, split(params, flat))


def init_params_by_kind(kind, feature_dim, hidden=0, seed=0):
    """The seeded init written out kind by kind: weights ~ N(0, 1/fan_in), drawn
    first layer first, and zero biases. ``init_params`` must draw the same bytes."""
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
    rng = np.random.default_rng(seed)
    if kind == "linear":
        w = rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(2, feature_dim))
        return PolicyParams("linear", [w, np.zeros(2)])
    if kind == "mlp":
        if hidden < 1:
            raise ValueError(f"hidden must be >= 1 for mlp, got {hidden}")
        w1 = rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(hidden, feature_dim))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(2, hidden))
        return PolicyParams("mlp", [w1, np.zeros(hidden), w2, np.zeros(2)])
    raise ValueError(f"unknown policy kind {kind!r}")


def brute_snips(records, prob_fn):
    """sum(delta * w) / sum(w) with w = prob_fn(record) / propensity."""
    num = 0.0
    den = 0.0
    for r in records:
        w = prob_fn(r) / r.propensity
        num += r.delta * w
        den += w
    return num / den


def brute_ips(records, prob_fn):
    total = 0.0
    for r in records:
        total += r.delta * prob_fn(r) / r.propensity
    return total / len(records)


def brute_ea(records, prob_fn):
    groups = {}
    for r in records:
        key = (r.query_id, r.product_id, r.action)
        groups.setdefault(key, []).append(r)
    total = 0.0
    for rs in groups.values():
        delta_bar = sum(r.delta for r in rs) / len(rs)
        total += delta_bar * prob_fn(rs[0])
    return total


def brute_mean_weight(records, prob_fn):
    return sum(prob_fn(r) / r.propensity for r in records) / len(records)


def brute_lagrangian(records, prob_fn, lam):
    total = 0.0
    for r in records:
        total += (r.delta - lam) * prob_fn(r) / r.propensity
    return total / len(records)


def finite_difference_gradient(f, flat_params, h=1e-5):
    """Central differences of a scalar function of a flat parameter vector."""
    grad = []
    for i in range(len(flat_params)):
        up = list(flat_params)
        down = list(flat_params)
        up[i] += h
        down[i] -= h
        grad.append((f(up) - f(down)) / (2 * h))
    return grad


# --- trec_eval-style metric evaluation -------------------------------------
# Follows the conventions of the trec_eval tool: binary relevance is
# grade > 0; queries with no relevant item are dropped from the averages;
# ndcg_cut uses exponential gains here to match the library's convention
# (the checked-in fixture is binary-graded, where exponential and linear
# gains coincide).


def trec_eval_map(run, qrels):
    vals = []
    for q, ranking in run.items():
        rels = [qrels.get((q, d), 0) > 0 for d in ranking]
        n_rel = sum(rels)
        if n_rel == 0:
            continue
        hits, ap = 0, 0.0
        for i, r in enumerate(rels):
            if r:
                hits += 1
                ap += hits / (i + 1)
        vals.append(ap / n_rel)
    return sum(vals) / len(vals)


def trec_eval_mrr(run, qrels):
    vals = []
    for q, ranking in run.items():
        for i, d in enumerate(ranking):
            if qrels.get((q, d), 0) > 0:
                vals.append(1.0 / (i + 1))
                break
    return sum(vals) / len(vals)


def trec_eval_p_at(run, qrels, k):
    vals = []
    for q, ranking in run.items():
        if not any(qrels.get((q, d), 0) > 0 for d in ranking):
            continue
        vals.append(sum(qrels.get((q, d), 0) > 0 for d in ranking[:k]) / k)
    return sum(vals) / len(vals)


def trec_eval_ndcg_at(run, qrels, k):
    vals = []
    for q, ranking in run.items():
        grades = [qrels.get((q, d), 0) for d in ranking]
        if not any(g > 0 for g in grades):
            continue
        dcg = sum(
            (2**g - 1) / math.log2(i + 2) for i, g in enumerate(grades[:k])
        )
        ideal = sorted(grades, reverse=True)
        idcg = sum(
            (2**g - 1) / math.log2(i + 2) for i, g in enumerate(ideal[:k])
        )
        vals.append(dcg / idcg if idcg > 0 else 0.0)
    return sum(vals) / len(vals)


def loop_rank_metrics(runs, labels, ks):
    """Every field of ``rank_metrics``, one query and one item at a time.

    ``runs`` is a list of (query_id, [product_id, ...]) rankings. Sums run
    left to right over each list, as Python's ``sum`` adds, and averages
    use ``np.mean``, so the library's vectorised metrics must match these
    values exactly, not just within a tolerance.
    """
    def dcg(grades, k):
        return sum((2**g - 1) / np.log2(i + 2) for i, g in enumerate(grades[:k]))

    ap, rr, ranks, dcgs = [], [], [], []
    p_at = {k: [] for k in ks}
    ndcg_at = {k: [] for k in ks}
    for q, ranking in runs:
        grades = [labels.get((q, d), 0) for d in ranking]
        rels = [g > 0 for g in grades]
        n_rel = sum(rels)
        if n_rel == 0:
            continue
        for k in ks:
            p_at[k].append(sum(rels[:k]) / k)
        hits, precisions = 0, []
        for i, r in enumerate(rels):
            if r:
                hits += 1
                precisions.append(hits / (i + 1))
                ranks.append(i + 1)
        ap.append(sum(precisions) / n_rel)
        rr.append(1.0 / (rels.index(True) + 1))
        ideal = sorted(grades, reverse=True)
        for k in ks:
            idcg = dcg(ideal, k)
            ndcg_at[k].append(dcg(grades, k) / idcg if idcg > 0 else 0.0)
        dcgs.append(dcg(grades, len(grades)))
    return {
        "map": float(np.mean(ap)),
        "mrr": float(np.mean(rr)),
        "p_at": {k: float(np.mean(v)) for k, v in p_at.items()},
        "ndcg_at": {k: float(np.mean(v)) for k, v in ndcg_at.items()},
        "avg_rank": float(np.mean(ranks)),
        "avg_dcg": float(np.mean(dcgs)),
        "n_queries": len(runs),
    }


class ArrayAdamState(NamedTuple):
    """Adam's moments as one array per parameter array, and the step count."""

    m: list
    v: list
    t: int


def adam_step_arrays(params, g, state, config):
    """The bias-corrected Adam update made array by array, with the same
    signature as ``training.adam_step``: it splits the gradient ``g``, laid out
    like ``params.flat``, into one array per parameter array.

    ``state`` is an ``ArrayAdamState``, or any state with ``t == 0``, from
    which the moments start at zero.
    """
    if state.t == 0:
        zeros = [np.zeros_like(a) for a in params.arrays]
        state = ArrayAdamState(zeros, zeros, 0)
    b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
    t = state.t + 1
    grads = split(params, g)
    new_m, new_v, new_arrays = [], [], []
    for p, g, m, v in zip(params.arrays, grads, state.m, state.v):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_arrays.append(p - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return PolicyParams(params.kind, new_arrays), ArrayAdamState(new_m, new_v, t)


def lambda_search_by_probes(train_log, dev, params0, config, probe_epochs=2):
    """``training.lambda_search`` as two rounds of ``training.train_crm`` calls:
    every probe first, each a run of ``probe_epochs`` epochs from ``params0``,
    then one full run of ``config.epochs`` epochs per probed lambda. The same
    10% step on S, the same stopping rule, the same choice of lambda, and the
    same ``(lambda, probe S, history)`` of each full run, in probe order."""
    if probe_epochs < 1:
        raise ValueError(f"probe_epochs must be >= 1, got {probe_epochs}")
    rng = np.random.default_rng(config.seed)
    lam = float(rng.uniform(0.0, 1.0))
    probed, probe_S = [], []
    for _ in range(config.max_probes):
        probed.append(lam)
        probe_cfg = dataclasses.replace(config, lam=lam, epochs=probe_epochs)
        _, probe_history = training.train_crm(train_log, dev, params0, probe_cfg)
        S = estimators.snips_denominator(train_log, probe_history.best().params)
        probe_S.append(S)
        if 0.95 <= S <= 1.05:
            break
        lam = lam * 0.9 if S > 1.0 else min(1.0, lam * 1.1)
        if lam in probed:
            break

    runs = [(lam_j, S_j, training.train_crm(train_log, dev, params0,
                                            dataclasses.replace(config, lam=lam_j))[1])
            for lam_j, S_j in zip(probed, probe_S)]
    lam_star, _, chosen = max(runs, key=lambda run: run[2].best().dev_map)
    return lam_star, chosen.best().params, runs
