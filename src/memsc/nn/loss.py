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
    if labels.min() < 0 or labels.max() >= classes:
        bad = labels[(labels < 0) | (labels >= classes)]
        raise ValueError(f"labels {bad.tolist()} lie outside [0, {classes})")
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -float(logp[np.arange(b), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits.astype(logits.dtype)
