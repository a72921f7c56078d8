"""Mini-batch training loop routing every trainable tensor through the
configured update path, with per-minibatch metrics logging.

Batches are drawn from a seeded per-epoch shuffle; the trailing partial
batch is dropped (one epoch of the 60k corpus at batch 256 is exactly 234
mini-batches). Each tensor's update draws from a substream labelled
(tensor name, global step), so results are reproducible regardless of
update order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..optimizer import OptimizerConfig, update_tensor
from ..rng import RngState
from .data import Dataset
from .loss import cross_entropy
from .network import Network

__all__ = ["TrainProtocol", "MetricsRecord", "MetricsLog", "train", "evaluate"]


@dataclass
class TrainProtocol:
    epochs: int = 1
    batch_size: int = 256
    seed: int = 0
    # None resolves to the default cadence: every minibatch in 1-epoch
    # runs, otherwise end-of-epoch only. 0 forces end-of-epoch only.
    eval_every: int | None = None
    run_id: str = "run"

    def resolved_eval_every(self) -> int:
        if self.eval_every is None:
            return 1 if self.epochs == 1 else 0
        return self.eval_every


@dataclass
class MetricsRecord:
    run_id: str
    epoch: int
    minibatch: int
    train_loss: float
    test_accuracy: float | None
    e_grad_stat: float | None
    wall_time_s: float


@dataclass
class MetricsLog:
    records: list = field(default_factory=list)

    def append(self, record: MetricsRecord):
        self.records.append(record)

    def final_accuracy(self) -> float:
        acc = [r.test_accuracy for r in self.records if r.test_accuracy is not None]
        if not acc:
            raise ValueError("no accuracy was logged")
        return acc[-1]

    def __len__(self):
        return len(self.records)


def _batches(order: np.ndarray, batch_size: int):
    n = order.size
    if n <= batch_size:
        return order[None, :]
    nb = n // batch_size  # drop the trailing partial batch
    return order[: nb * batch_size].reshape(nb, batch_size)


# Images per evaluation forward: small enough that each layer's output is
# still in a core's L2 cache when the next layer reads it.
EVAL_CHUNK = 32


def evaluate(net: Network, dataset: Dataset) -> float:
    """Fraction of examples whose argmax logit matches the label.

    The set runs through the network in chunks of EVAL_CHUNK images (the
    last may be partial). Eval-mode layers treat images independently, so
    the chunk size moves logits only by float rounding; it sets the memory
    traffic, since at 512 images per forward every activation goes out to
    main memory and back.
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
    if len(train_set) == 0:
        raise ValueError("training set is empty")
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    root = RngState(protocol.seed)
    log = MetricsLog()
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
            log.append(
                MetricsRecord(
                    run_id=protocol.run_id,
                    epoch=epoch,
                    minibatch=minibatch,
                    train_loss=loss,
                    test_accuracy=evaluate(net, test_set) if want_eval else None,
                    e_grad_stat=e_sum / n_elems if step == 1 else None,
                    wall_time_s=time.perf_counter() - start,
                )
            )
    return log
