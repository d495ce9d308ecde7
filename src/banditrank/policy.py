"""Stochastic binary-action policies with a softmax output.

A policy scores a context with two logits (one per action) and turns them
into action probabilities via a numerically stabilized softmax. Two scorer
families are supported: a linear map and a one-hidden-layer tanh network.
Analytic gradients of the action probability with respect to every
parameter are provided for importance-weighted training.
"""

from __future__ import annotations

import json
from typing import IO, Sequence

import numpy as np

from banditrank.data import open_text


class PolicyParams:
    """Parameters of a binary-action scorer.

    ``kind`` is ``"linear"`` (weights 2xd, bias 2) or ``"mlp"`` (hidden
    weights hxd, hidden bias h, output weights 2xh, output bias 2).
    Instances are treated as immutable; training produces new instances.
    """

    def __init__(self, kind: str, arrays: Sequence[np.ndarray]):
        if kind not in ("linear", "mlp"):
            raise ValueError(f"unknown policy kind {kind!r}")
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        if kind == "linear":
            if len(arrays) != 2:
                raise ValueError("linear policy needs [weights, bias]")
            w, b = arrays
            if w.ndim != 2 or w.shape[0] != 2 or b.shape != (2,):
                raise ValueError(f"bad linear shapes {[a.shape for a in arrays]}")
        else:
            if len(arrays) != 4:
                raise ValueError("mlp policy needs [w1, b1, w2, b2]")
            w1, b1, w2, b2 = arrays
            h = w1.shape[0]
            if (
                w1.ndim != 2
                or b1.shape != (h,)
                or w2.shape != (2, h)
                or b2.shape != (2,)
            ):
                raise ValueError(f"bad mlp shapes {[a.shape for a in arrays]}")
        for a in arrays:
            if not np.all(np.isfinite(a)):
                raise ValueError("policy parameters must be finite")
            a.setflags(write=False)
        self.kind = kind
        self.arrays = tuple(arrays)

    @property
    def feature_dim(self) -> int:
        return self.arrays[0].shape[1]

    @property
    def hidden(self) -> int:
        return self.arrays[0].shape[0] if self.kind == "mlp" else 0

    def replace_arrays(self, arrays: Sequence[np.ndarray]) -> "PolicyParams":
        return PolicyParams(self.kind, arrays)

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays])

    def unflatten(self, flat: np.ndarray) -> "PolicyParams":
        out, i = [], 0
        for a in self.arrays:
            out.append(np.asarray(flat[i : i + a.size]).reshape(a.shape).copy())
            i += a.size
        return self.replace_arrays(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicyParams):
            return NotImplemented
        return self.kind == other.kind and all(
            np.array_equal(a, b) for a, b in zip(self.arrays, other.arrays)
        )

    def save(self, sink: IO | str) -> None:
        obj = {
            "kind": self.kind,
            "feature_dim": self.feature_dim,
            "hidden": self.hidden,
            "arrays": [[float(x) for x in a.ravel()] for a in self.arrays],
            "shapes": [list(a.shape) for a in self.arrays],
        }
        with open_text(sink, "w") as out:
            json.dump(obj, out)

    @classmethod
    def load(cls, source: IO | str) -> "PolicyParams":
        with open_text(source) as stream:
            obj = json.load(stream)
        arrays = [
            np.array(flat, dtype=np.float64).reshape(shape)
            for flat, shape in zip(obj["arrays"], obj["shapes"])
        ]
        return cls(obj["kind"], arrays)


def init_params(
    kind: str, feature_dim: int, hidden: int = 0, seed: int = 0
) -> PolicyParams:
    """Seeded init: weights ~ N(0, 1/fan_in), biases zero."""
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


def _check_batch(params: PolicyParams, contexts: np.ndarray) -> np.ndarray:
    X = np.asarray(contexts, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != params.feature_dim:
        raise ValueError(
            f"context dimension {X.shape[1]} does not match policy dimension "
            f"{params.feature_dim}"
        )
    return X


def _forward(params: PolicyParams, X: np.ndarray):
    """Return (logits, hidden activations or None) for a batch of contexts."""
    if params.kind == "linear":
        w, b = params.arrays
        return X @ w.T + b, None
    w1, b1, w2, b2 = params.arrays
    H = np.tanh(X @ w1.T + b1)
    return H @ w2.T + b2, H


def _finite_logits(params: PolicyParams, contexts: np.ndarray) -> np.ndarray:
    logits, _ = _forward(params, _check_batch(params, contexts))
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits")
    return logits


def batch_probabilities(params: PolicyParams, contexts: np.ndarray) -> np.ndarray:
    """Action probabilities for a batch of contexts, shape (m, 2)."""
    logits = _finite_logits(params, contexts)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def logit_margin(params: PolicyParams, contexts: np.ndarray) -> np.ndarray:
    """Show-minus-hide logit z1 - z0 per context, shape (m,).

    p1 = sigmoid(z1 - z0), so the margin orders contexts like p1 does, but
    it stays distinct where p1 rounds to exactly 1.0 (margins above ~37).
    """
    logits = _finite_logits(params, contexts)
    return logits[:, 1] - logits[:, 0]


def logit_backprop(
    params: PolicyParams, X: np.ndarray, dlogits: np.ndarray
) -> list[np.ndarray]:
    """Backpropagate a gradient at the logits to all parameters.

    X is (m, d), dlogits is (m, 2); returns arrays matching params.arrays,
    summed over the batch.
    """
    if params.kind == "linear":
        return [dlogits.T @ X, dlogits.sum(axis=0)]
    w1, b1, w2, b2 = params.arrays
    H = np.tanh(X @ w1.T + b1)
    d_w2 = dlogits.T @ H
    d_b2 = dlogits.sum(axis=0)
    dH = dlogits @ w2
    dZ = dH * (1.0 - H * H)
    return [dZ.T @ X, dZ.sum(axis=0), d_w2, d_b2]


def weighted_prob_gradient(
    params: PolicyParams,
    contexts: np.ndarray,
    actions: np.ndarray,
    coeffs: np.ndarray,
) -> list[np.ndarray]:
    """Sum over a batch of coeff_i * grad pi(a_i | c_i)."""
    X = _check_batch(params, contexts)
    actions = np.asarray(actions, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    P = batch_probabilities(params, X)
    m = X.shape[0]
    onehot = np.zeros((m, 2))
    onehot[np.arange(m), actions] = 1.0
    p_a = P[np.arange(m), actions]
    dlogits = (coeffs * p_a)[:, None] * (onehot - P)
    return logit_backprop(params, X, dlogits)
