"""Softmax cross-entropy, log-sum-exp stabilized."""

from __future__ import annotations

import numpy as np

__all__ = ["cross_entropy"]


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    Returns (loss, dlogits) with dlogits = (softmax - onehot) / B.
    """
    if logits.ndim != 2 or logits.shape[0] != len(labels):
        raise ValueError(f"logits {logits.shape} inconsistent with {len(labels)} labels")
    b, classes = logits.shape
    check_labels(labels, classes)
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -float(logp[np.arange(b), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits.astype(logits.dtype)


def check_labels(labels: np.ndarray, classes: int):
    """Reject labels that are not an integer array in [0, classes)."""
    if not (isinstance(labels, np.ndarray) and np.issubdtype(labels.dtype, np.integer)):
        raise ValueError(f"labels must be an integer array, got {labels!r}")
    if labels.min() < 0 or labels.max() >= classes:
        bad = labels[(labels < 0) | (labels >= classes)]
        raise ValueError(f"labels {bad.tolist()} lie outside [0, {classes})")
