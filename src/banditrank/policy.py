"""Stochastic binary-action policies with a softmax output.

A policy scores a context with two logits (one per action) and turns them
into action probabilities via a numerically stabilized softmax. Two scorer
families are supported: a linear map and a one-hidden-layer tanh network;
``_shapes`` is the one statement of each family's parameter arrays.
Analytic gradients of the action probability with respect to every
parameter are provided for importance-weighted training, each as one vector
laid out like ``PolicyParams.flat``.

Inside a pass, a batch of m contexts has action-major logits and
probabilities, each (2, m) with row c for action c, so that the softmax and
the gradient at the logits run over two contiguous rows of m entries. The
products that read them take the layout of a C-ordered (m, 2) array, which
keeps their bits; every public result is (m, 2) or (m,).
"""

from __future__ import annotations

import json
from typing import IO, Callable, Sequence

import numpy as np

from banditrank.data import open_text


class NonFiniteError(FloatingPointError, ValueError):
    """Logits or policy parameters that are not finite, as a diverging run makes them."""


class PolicyParams:
    """Parameters of a binary-action scorer, held as one read-only float64 vector.

    ``kind`` is ``"linear"`` or ``"mlp"``, with the arrays ``_shapes`` lists.
    ``flat`` holds every parameter, array after array, each raveled in C
    order; ``arrays`` are read-only views of it in those shapes. Instances
    are immutable; training produces new instances.
    """

    def __init__(self, kind: str, arrays: Sequence[np.ndarray]):
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        shapes = [a.shape for a in arrays]
        first = shapes[0] if shapes else ()
        # the first weights are (rows, feature_dim); an MLP's rows are its hidden width,
        # and a policy with no features or no hidden units is refused as init_params does
        hidden, feature_dim = first if len(first) == 2 else (0, 0)
        if shapes != _shapes(kind, feature_dim, hidden) or min(hidden, feature_dim) < 1:
            raise ValueError(f"bad {kind} shapes {shapes}")
        ends = np.cumsum([a.size for a in arrays]).tolist()
        layout = tuple(zip([0, *ends], ends, shapes))
        self._hold(kind, layout, np.concatenate([a.ravel() for a in arrays]))

    def _hold(self, kind: str, layout: tuple, flat: np.ndarray) -> "PolicyParams":
        """Hold ``flat``, a fresh float64 vector, as arrays at ``layout``'s (start, end, shape)."""
        if not np.isfinite(flat).all():
            raise NonFiniteError("policy parameters must be finite")
        flat.setflags(write=False)
        self.kind, self._layout, self.flat = kind, layout, flat
        self.arrays = tuple(flat[start:end].reshape(shape) for start, end, shape in layout)
        return self

    def _replace_flat(self, flat: np.ndarray) -> "PolicyParams":
        """This kind and these shapes, checked once already, holding the fresh vector ``flat``."""
        return object.__new__(PolicyParams)._hold(self.kind, self._layout, flat)

    @property
    def feature_dim(self) -> int:
        return self.arrays[0].shape[1]

    @property
    def hidden(self) -> int:
        return self.arrays[0].shape[0] if self.kind == "mlp" else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicyParams):
            return NotImplemented
        return ((self.kind, self._layout) == (other.kind, other._layout)
                and np.array_equal(self.flat, other.flat))

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
        """The parameters ``save`` wrote: one list of JSON numbers (no booleans) and one list
        of integers per array. A file that holds no model raises ``ValueError``."""
        with open_text(source) as stream:
            obj = json.load(stream)
        if not isinstance(obj, dict) or not {"kind", "arrays", "shapes"} <= obj.keys():
            raise ValueError("not a model: expected a JSON object with keys kind, arrays, shapes")
        values, shapes = obj["arrays"], obj["shapes"]
        if not (isinstance(values, list) and isinstance(shapes, list)
                and len(values) == len(shapes)):
            raise ValueError("not a model: arrays and shapes must be lists of equal length")
        for i, (array, shape) in enumerate(zip(values, shapes)):
            numbers = isinstance(array, list) and all(type(x) in (int, float) for x in array)
            if not (numbers and isinstance(shape, list) and all(type(n) is int for n in shape)):
                raise ValueError(f"not a model: array {i} must be a list of numbers "
                                 f"and its shape a list of integers")
        try:
            arrays = [np.array(array, dtype=np.float64).reshape(shape)
                      for array, shape in zip(values, shapes)]
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"not a model: {exc}") from exc
        return cls(obj["kind"], arrays)


def _shapes(kind: str, feature_dim: int, hidden: int) -> list[tuple[int, ...]]:
    """The array shapes of a ``kind`` policy, layer by layer, each weights before its bias."""
    if kind == "linear":
        return [(2, feature_dim), (2,)]
    if kind == "mlp":
        return [(hidden, feature_dim), (hidden,), (2, hidden), (2,)]
    raise ValueError(f"unknown policy kind {kind!r}")


def _checked_shapes(kind: str, feature_dim: int, hidden: int) -> list[tuple[int, ...]]:
    """``_shapes`` of a policy that ``init_params`` builds; sizes or a kind that no policy
    has raise ``ValueError``, with no array made."""
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
    if kind == "mlp" and hidden < 1:
        raise ValueError(f"hidden must be >= 1 for mlp, got {hidden}")
    return _shapes(kind, feature_dim, hidden)


def init_params(
    kind: str, feature_dim: int, hidden: int = 0, seed: int = 0
) -> PolicyParams:
    """Seeded init: weights (rows, fan_in) ~ N(0, 1/fan_in), drawn in layer order; biases zero."""
    shapes = _checked_shapes(kind, feature_dim, hidden)
    rng = np.random.default_rng(seed)
    return PolicyParams(kind, [
        rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape) if len(shape) == 2
        else np.zeros(shape)
        for shape in shapes
    ])


def _forward(params: PolicyParams, contexts: np.ndarray):
    """One forward pass over a batch of contexts.

    Returns the checked batch X (m, d); its finite logits, action-major: Z (2, m),
    whose row c holds every context's logit of action c; and, for an MLP, the
    hidden activations H (m, h) that the backward pass reuses.
    """
    X = np.asarray(contexts, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != params.feature_dim:
        raise ValueError(f"context dimension {X.shape[1]} does not match policy "
                         f"dimension {params.feature_dim}")
    if len(X) == 1:
        # BLAS takes a matrix-vector kernel for one row, which rounds unlike the
        # matrix-matrix kernel of a larger batch: compute the row twice, keep one.
        _, Z, H = _forward(params, np.repeat(X, 2, axis=0))
        return X, Z[:, :1], None if H is None else H[:1]
    if params.kind == "linear":
        (w, b), H = params.arrays, None
    else:
        w1, b1, w, b = params.arrays
        H = X @ w1.T
        H += b1
        np.tanh(H, out=H)
    Z = np.empty((2, len(X)))
    # the product (X or H) @ w.T, written through Z's transpose: the same BLAS call and bits
    np.matmul(X if H is None else H, w.T, out=Z.T)
    np.add(Z, b[:, None], out=Z)
    if not np.isfinite(Z).all():
        raise NonFiniteError("non-finite logits")
    return X, Z, H


# far below the largest float (1.8e308), so that no rounding of a bounded sum reaches it
_LOGIT_BOUND = 1e300


def _logits_bounded(params: PolicyParams, x_max: float) -> bool:
    """Whether the logits of any contexts whose entries lie within ±``x_max`` are
    proved finite, with no forward pass.

    Parameters are finite, so a pre-activation is at most Σ|w|·x_max + |b| in size;
    an MLP's tanh units lie in [−1, 1], so its logits are at most Σ|w₂| + |b₂|. The
    proof holds when every such bound is below ``_LOGIT_BOUND``; False proves nothing.
    """
    w, b = params.arrays[:2]
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN bound fails
        bounds = [np.abs(w).sum(axis=1) * x_max + np.abs(b)]
        if params.kind == "mlp":
            w2, b2 = params.arrays[2:]
            bounds.append(np.abs(w2).sum(axis=1) + np.abs(b2))
    return all(bound.max() < _LOGIT_BOUND for bound in bounds)


def _softmax(Z: np.ndarray) -> np.ndarray:
    """The action probabilities of action-major logits Z (2, m), in Z's layout."""
    # each entry's arithmetic is that of a row of two logits, run over two rows of m
    e = np.subtract(Z, np.maximum(Z[0], Z[1]))
    np.exp(e, out=e)
    return np.divide(e, np.add(e[0], e[1]), out=e)


def batch_probabilities(params: PolicyParams, contexts: np.ndarray) -> np.ndarray:
    """Action probabilities for a batch of contexts, shape (m, 2): the transpose of
    the action-major (2, m) array."""
    return _softmax(_forward(params, contexts)[1]).T


def logit_margin(params: PolicyParams, contexts: np.ndarray) -> np.ndarray:
    """Show-minus-hide logit z1 - z0 per context, shape (m,).

    p1 = sigmoid(z1 - z0), so the margin orders contexts like p1 does, but
    it stays distinct where p1 rounds to exactly 1.0 (margins above ~37).
    """
    Z = _forward(params, contexts)[1]
    return Z[1] - Z[0]


_ONE_HOT = np.eye(2)  # column c is the one-hot of class c


def _length_error(contexts, **columns) -> ValueError:
    """The error for per-record columns, some of which do not hold one entry per row
    of ``contexts``, a batch or a single context: it names the first such column."""
    rows = len(contexts) if np.ndim(contexts) > 1 else 1
    name, shape = next((name, np.shape(c)) for name, c in columns.items()
                       if np.shape(c) != (rows,))
    return ValueError(f"{name} of shape {shape} for a batch of {rows} rows")


def logit_gradient(
    params: PolicyParams, contexts: np.ndarray, classes: np.ndarray, dlogits: Callable
) -> np.ndarray:
    """One forward and one backward pass over a batch of m contexts.

    ``dlogits(P, onehot, out)`` writes the gradient at the logits into ``out``.
    All three are action-major, (2, m) with row c for action c: P holds the
    batch's action probabilities and ``onehot`` the one-hot columns of
    ``classes``, one class, 0 or 1, per context: an int64 array is read as it is,
    and any other array of numbers holds values equal to 0 or 1, so that the floats
    0.0 and 1.0 and the booleans are classes, while 0.5 or 1.7, which a cast to
    int64 would truncate, is refused by a ``ValueError`` that names its row, as a
    class outside {0, 1} is. ``out`` is the transpose of a C-ordered
    (m, 2) array G, the layout whose products and sums the backward pass
    reads. Returns the gradient summed over the batch, laid out like
    ``params.flat``.
    """
    given = np.asarray(classes)
    if given.dtype == np.int64:
        outside = given >> 1  # nonzero outside {0, 1}: np.take would wrap -1 and -2
    elif given.dtype.kind in "biuf":
        outside = (given != 0) & (given != 1)
    else:
        raise ValueError(f"classes must be numbers, got dtype {given.dtype}")
    if np.count_nonzero(outside):
        row = np.flatnonzero(outside)[0]
        raise ValueError(f"class {given.ravel()[row]} at row {row}: classes must be 0 or 1")
    classes = given.astype(np.int64, copy=False)
    X, Z, H = _forward(params, contexts)
    if classes.shape != (len(X),):
        raise _length_error(X, classes=classes)
    G = np.empty((len(X), 2))
    dlogits(_softmax(Z), np.take(_ONE_HOT, classes, axis=1), G.T)
    grad = np.empty(params.flat.size)
    parts = [grad[start:end].reshape(shape) for start, end, shape in params._layout]
    if params.kind == "mlp":
        dZ = G @ params.arrays[2]
        dZ *= 1.0 - H * H
        np.matmul(dZ.T, X, out=parts[0])
        np.sum(dZ, axis=0, out=parts[1])
    np.matmul(G.T, X if H is None else H, out=parts[-2])
    # G's column sums as G.sum(axis=0) adds them, in sequence from +0.0: here in
    # sequence from the first entry, then plus +0.0, which turns only a -0.0 into +0.0
    np.add(np.add.accumulate(G.T, axis=1)[:, -1], 0.0, out=parts[-1])
    return grad


def weighted_prob_gradient(
    params: PolicyParams,
    contexts: np.ndarray,
    actions: np.ndarray,
    coeffs: np.ndarray,
) -> np.ndarray:
    """Sum over a batch of coeff_i * grad pi(a_i | c_i), laid out like ``params.flat``.

    At the logits, grad pi(a|c) is pi(a|c) * (onehot(a) - P).
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)

    def dlogits(P, onehot, out):
        if coeffs.shape != (P.shape[1],):
            raise _length_error(contexts, coefficients=coeffs)
        np.multiply(onehot - P, coeffs * np.where(onehot[1], P[1], P[0]), out=out)

    return logit_gradient(params, contexts, actions, dlogits)
