"""The policy's forward and backward pass as it stood while it held logits row-major.

Logits (m, 2), the softmax on (m, 2) slices, one-hot rows taken by class, and
the gradient concatenated from ``G.T @ X`` and ``G.sum(axis=0)``: the
library's action-major pass must give these bytes. Only ``PolicyParams``,
read for its kind and arrays, is shared with the library.

These oracles live apart from ``oracles.py`` because the benchmark imports
that module, compiled from source in every run, and a larger file raises its
peak resident memory.
"""

import numpy as np

_ONE_HOT_ROWS = np.eye(2)  # row c is the one-hot row of class c


def row_major_forward(params, contexts):
    """The batch X (m, d), its logits (m, 2) and, for an MLP, its hidden layer (m, h)."""
    X = np.asarray(contexts, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if len(X) == 1:
        # one row would take BLAS's matrix-vector kernel: compute it twice, keep one
        _, logits, H = row_major_forward(params, np.repeat(X, 2, axis=0))
        return X, logits[:1], None if H is None else H[:1]
    if params.kind == "linear":
        w, b = params.arrays
        return X, X @ w.T + b, None
    w1, b1, w2, b2 = params.arrays
    H = np.tanh(X @ w1.T + b1)
    return X, H @ w2.T + b2, H


def row_major_softmax(logits):
    """Action probabilities (m, 2) of logits (m, 2), from slices of the two columns."""
    e = np.exp(logits - np.maximum(logits[:, :1], logits[:, 1:]))
    return e / (e[:, :1] + e[:, 1:])


def row_major_probabilities(params, contexts):
    return row_major_softmax(row_major_forward(params, contexts)[1])


def row_major_margin(params, contexts):
    logits = row_major_forward(params, contexts)[1]
    return logits[:, 1] - logits[:, 0]


def row_major_logit_gradient(params, contexts, classes, dlogits):
    """The gradient laid out like ``params.flat``, from ``dlogits(P, onehot)``, which
    returns the gradient at the logits G (m, 2) from P (m, 2) and one-hot rows."""
    X, logits, H = row_major_forward(params, contexts)
    P = row_major_softmax(logits)
    onehot = np.take(_ONE_HOT_ROWS, np.asarray(classes, dtype=np.int64), axis=0)
    G = dlogits(P, onehot)
    if params.kind == "linear":
        return np.concatenate([(G.T @ X).ravel(), G.sum(axis=0)])
    dZ = (G @ params.arrays[2]) * (1.0 - H * H)
    return np.concatenate([(dZ.T @ X).ravel(), dZ.sum(axis=0), (G.T @ H).ravel(), G.sum(axis=0)])


def coefficient_dlogits(actions, coeffs):
    """The CRM and EA gradient at the logits: coeff_i * pi(a_i|c_i) * (onehot(a_i) - P_i)."""
    rows = np.arange(len(actions))
    return lambda P, onehot: (coeffs * P[rows, actions])[:, None] * (onehot - P)


def cross_entropy_dlogits(weights):
    """The full-information gradient at the logits: w_i * (P_i - onehot(y_i)) / m."""
    wb = weights[:, None]
    return lambda P, onehot: wb * (P - onehot) / len(weights)
