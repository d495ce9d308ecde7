"""Stochastic binary-action policies with a softmax output.

A policy scores a context with two logits (one per action) and turns them
into action probabilities via a numerically stabilized softmax. Two scorer
families are supported: a linear map and a one-hidden-layer tanh network.
Analytic gradients of the action probability with respect to every
parameter are provided for importance-weighted training.
"""

from __future__ import annotations

import json
from typing import IO, Callable, Sequence

import numpy as np

from banditrank.data import open_text


class NonFiniteError(FloatingPointError, ValueError):
    """Logits or policy parameters that are not finite, as a diverging run makes them."""


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
                raise NonFiniteError("policy parameters must be finite")
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
        """The parameters ``save`` wrote; a file that holds no model raises ``ValueError``."""
        with open_text(source) as stream:
            obj = json.load(stream)
        if not isinstance(obj, dict) or not {"kind", "arrays", "shapes"} <= obj.keys():
            raise ValueError("not a model: expected a JSON object with keys kind, arrays, shapes")
        try:
            arrays = [
                np.array(flat, dtype=np.float64).reshape(shape)
                for flat, shape in zip(obj["arrays"], obj["shapes"])
            ]
        except TypeError as exc:
            raise ValueError(f"not a model: arrays and shapes must be lists ({exc})") from exc
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


def _forward(params: PolicyParams, contexts: np.ndarray):
    """One forward pass over a batch of contexts.

    Returns the checked batch X (m, d), its finite logits (m, 2) and, for an
    MLP, the hidden activations (m, h) that the backward pass reuses.
    """
    X = np.asarray(contexts, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != params.feature_dim:
        raise ValueError(f"context dimension {X.shape[1]} does not match policy "
                         f"dimension {params.feature_dim}")
    if params.kind == "linear":
        w, b = params.arrays
        logits, H = X @ w.T + b, None
    else:
        w1, b1, w2, b2 = params.arrays
        H = np.tanh(X @ w1.T + b1)
        logits = H @ w2.T + b2
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError("non-finite logits")
    return X, logits, H


def _softmax(logits: np.ndarray) -> np.ndarray:
    # Two logits per row: slices beat a reduction over axis 1 several times over.
    e = np.exp(logits - np.maximum(logits[:, :1], logits[:, 1:]))
    return e / (e[:, :1] + e[:, 1:])


def batch_probabilities(params: PolicyParams, contexts: np.ndarray) -> np.ndarray:
    """Action probabilities for a batch of contexts, shape (m, 2)."""
    return _softmax(_forward(params, contexts)[1])


def logit_margin(params: PolicyParams, contexts: np.ndarray) -> np.ndarray:
    """Show-minus-hide logit z1 - z0 per context, shape (m,).

    p1 = sigmoid(z1 - z0), so the margin orders contexts like p1 does, but
    it stays distinct where p1 rounds to exactly 1.0 (margins above ~37).
    """
    logits = _forward(params, contexts)[1]
    return logits[:, 1] - logits[:, 0]


def logit_gradient(
    params: PolicyParams, contexts: np.ndarray, classes: np.ndarray, dlogits: Callable
) -> list[np.ndarray]:
    """One forward and one backward pass over a batch.

    ``dlogits(P, onehot)`` gives the gradient at the logits, shape (m, 2),
    from the batch's action probabilities P and the one-hot rows of
    ``classes``. Returns arrays matching params.arrays, summed over the batch.
    """
    X, logits, H = _forward(params, contexts)
    P = _softmax(logits)
    onehot = np.zeros_like(P)
    onehot[np.arange(len(P)), np.asarray(classes, dtype=np.int64)] = 1.0
    G = dlogits(P, onehot)
    if params.kind == "linear":
        return [G.T @ X, G.sum(axis=0)]
    dZ = (G @ params.arrays[2]) * (1.0 - H * H)
    return [dZ.T @ X, dZ.sum(axis=0), G.T @ H, G.sum(axis=0)]


def weighted_prob_gradient(
    params: PolicyParams,
    contexts: np.ndarray,
    actions: np.ndarray,
    coeffs: np.ndarray,
) -> list[np.ndarray]:
    """Sum over a batch of coeff_i * grad pi(a_i | c_i).

    At the logits, grad pi(a|c) is pi(a|c) * (onehot(a) - P).
    """
    actions = np.asarray(actions, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    rows = np.arange(len(actions))
    return logit_gradient(params, contexts, actions,
                          lambda P, onehot: (coeffs * P[rows, actions])[:, None] * (onehot - P))
