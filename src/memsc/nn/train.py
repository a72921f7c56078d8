"""Mini-batch training loop routing every trainable tensor through the
configured update path, with per-minibatch metrics logging.

Batches come from a seeded per-epoch shuffle, and only full batches
train: the trailing partial batch is dropped (the 60k corpus at batch 256
gives exactly 234) and a set smaller than one batch is rejected. Each
tensor's update draws from a substream labelled (tensor name, global
step), so results are reproducible regardless of update order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .._checks import is_int
from ..optimizer import OptimizerConfig, update_tensor
from ..rng import RngState
from .data import Dataset
from .loss import cross_entropy
from .network import Network

__all__ = ["TrainProtocol", "MetricsRecord", "MetricsLog", "train", "evaluate"]


@dataclass(frozen=True)
class TrainProtocol:
    epochs: int = 1
    batch_size: int = 256
    seed: int = 0
    # None resolves to the default cadence: every minibatch in 1-epoch
    # runs, otherwise end-of-epoch only. 0 forces end-of-epoch only.
    eval_every: int | None = None
    run_id: str = "run"

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if not is_int(self.seed):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.eval_every is not None and (not is_int(self.eval_every) or self.eval_every < 0):
            raise ValueError(f"eval_every must be None or an int >= 0, got {self.eval_every!r}")

    def resolved_eval_every(self) -> int:
        if self.eval_every is None:
            return 1 if self.epochs == 1 else 0
        return self.eval_every


@dataclass(frozen=True)
class MetricsRecord:
    """One minibatch step. e_grad_stat is the step's E: the mean on-cell
    probability (clip(g)+1)/2 of its encoded gradients over every parameter."""

    run_id: str
    epoch: int
    minibatch: int
    train_loss: float
    test_accuracy: float | None
    e_grad_stat: float
    wall_time_s: float


@dataclass(frozen=True)
class MetricsLog:
    """The records of one run, one per minibatch step, in step order."""

    records: tuple[MetricsRecord, ...] = ()

    def final_accuracy(self) -> float:
        acc = [r.test_accuracy for r in self.records if r.test_accuracy is not None]
        if not acc:
            raise ValueError("no accuracy was logged")
        return acc[-1]

    def __len__(self):
        return len(self.records)


def _batches(order: np.ndarray, batch_size: int):
    nb = order.size // batch_size  # drop the trailing partial batch
    return order[: nb * batch_size].reshape(nb, batch_size)


# Images per evaluation forward: 64 was the fastest of 16, 32, 64 and 128
# when timing evaluate on 1024 images (see CHANGES.md for the sweep).
EVAL_CHUNK = 64


def evaluate(net: Network, dataset: Dataset) -> float:
    """Fraction of examples whose argmax logit matches the label.

    The set runs through ``net.forward(x, training=False)`` in chunks of
    EVAL_CHUNK images (the last may be partial); a Network runs each chunk
    in its batch-innermost eval layout. Eval-mode layers treat images
    independently, so the chunk size moves logits only by float rounding;
    it sets the memory traffic, since at 512 images per forward every
    activation goes out to main memory and back.
    """
    if len(dataset) == 0:
        raise ValueError("evaluation set is empty")
    hits = 0
    for lo in range(0, len(dataset), EVAL_CHUNK):
        x = dataset.images[lo : lo + EVAL_CHUNK]
        logits, _ = net.forward(x, training=False)
        hits += int((logits.argmax(axis=1) == dataset.labels[lo : lo + EVAL_CHUNK]).sum())
    return hits / len(dataset)


def train(
    net: Network,
    train_set: Dataset,
    test_set: Dataset,
    opt_cfg: OptimizerConfig,
    protocol: TrainProtocol,
) -> MetricsLog:
    """Train in place and return the per-minibatch metrics log."""
    if len(train_set) < protocol.batch_size:
        raise ValueError(f"training set holds {len(train_set)} examples, "
                         f"fewer than one batch of {protocol.batch_size}")
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    root = RngState(protocol.seed)
    records = []
    velocities: dict[str, np.ndarray] = {}
    eval_every = protocol.resolved_eval_every()
    start = time.perf_counter()
    step = 0

    for epoch in range(1, protocol.epochs + 1):
        order = root.split("shuffle", epoch).generator.permutation(len(train_set))
        batches = _batches(order, protocol.batch_size)
        for minibatch, idx in enumerate(batches, start=1):
            step += 1
            x, y = train_set.images[idx], train_set.labels[idx]
            logits, caches = net.forward(x, training=True)
            loss, dlogits = cross_entropy(logits, y)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite loss at step {step}")
            grads = net.backward(caches, dlogits)

            e_sum = 0.0
            n_elems = 0
            for name, param in net.params().items():
                stream = root.split("update", name, step)
                new_param, new_vel, e_grad = update_tensor(
                    param, grads[name], opt_cfg, stream, velocity=velocities.get(name)
                )
                param[...] = new_param
                if new_vel is not None:
                    velocities[name] = new_vel
                e_sum += e_grad * param.size
                n_elems += param.size

            last_of_epoch = minibatch == len(batches)
            want_eval = (eval_every > 0 and minibatch % eval_every == 0) or last_of_epoch
            records.append(
                MetricsRecord(
                    run_id=protocol.run_id,
                    epoch=epoch,
                    minibatch=minibatch,
                    train_loss=loss,
                    test_accuracy=evaluate(net, test_set) if want_eval else None,
                    e_grad_stat=e_sum / n_elems,
                    wall_time_s=time.perf_counter() - start,
                )
            )
    return MetricsLog(tuple(records))
