"""Training-loop behavior on the synthetic corpus (fast, seeded)."""

import dataclasses

import numpy as np
import pytest

from memsc.nn import (
    TrainProtocol,
    evaluate,
    reduced_network,
    synthetic_dataset,
    table1_network,
    train,
)
from memsc.nn.train import EVAL_CHUNK
from memsc.optimizer import OptimizerConfig
from memsc.rng import RngState


@pytest.fixture(scope="module")
def blobs():
    return synthetic_dataset(768, seed=100), synthetic_dataset(256, seed=101)


def test_float_baseline_learns_synthetic(blobs):
    train_set, test_set = blobs
    net = table1_network(RngState(1))
    cfg = OptimizerConfig(mode="sgd", eta=0.5, exec_mode="float")
    log = train(net, train_set, test_set, cfg, TrainProtocol(epochs=2, batch_size=128, seed=7))
    assert log.final_accuracy() >= 0.85
    assert log.records[0].train_loss > log.records[-1].train_loss


def test_binomial_sc_learns_synthetic(blobs):
    train_set, test_set = blobs
    net = table1_network(RngState(2))
    cfg = OptimizerConfig(mode="sgd", eta=0.5, n_bit=16384, exec_mode="binomial")
    log = train(net, train_set, test_set, cfg, TrainProtocol(epochs=2, batch_size=128, seed=8))
    assert log.final_accuracy() >= 0.80


def test_momentum_binomial_runs(blobs):
    train_set, test_set = blobs
    net = table1_network(RngState(3))
    cfg = OptimizerConfig(mode="momentum", eta=0.5, gamma=0.9, n_bit=16384,
                          exec_mode="binomial")
    log = train(net, train_set, test_set, cfg,
                TrainProtocol(epochs=1, batch_size=128, seed=9, eval_every=0))
    assert 0.0 <= log.final_accuracy() <= 1.0
    assert all(np.abs(p).max() <= 1.0 for p in net.params().values())


def test_binomial_mode_determinism(blobs):
    train_set, test_set = blobs
    cfg = OptimizerConfig(mode="sgd", eta=0.5, n_bit=4096, exec_mode="binomial")
    logs = []
    for _ in range(2):
        net = table1_network(RngState(5))
        logs.append(
            train(net, train_set, test_set, cfg,
                  TrainProtocol(epochs=1, batch_size=128, seed=11, eval_every=2))
        )
    a, b = logs
    assert len(a) == len(b)
    for ra, rb in zip(a.records, b.records):
        # wall time is the only nondeterministic field
        da = dataclasses.asdict(ra)
        db = dataclasses.asdict(rb)
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db


def test_eval_cadence_default_one_epoch(blobs):
    train_set, test_set = blobs
    net = table1_network(RngState(6))
    cfg = OptimizerConfig(exec_mode="float")
    log = train(net, train_set.subset(256), test_set.subset(64), cfg,
                TrainProtocol(epochs=1, batch_size=128, seed=3))
    # default cadence in 1-epoch mode: accuracy on every minibatch
    assert all(r.test_accuracy is not None for r in log.records)
    assert log.records[0].e_grad_stat is not None
    assert all(r.e_grad_stat is None for r in log.records[1:])


def test_eval_cadence_multi_epoch(blobs):
    train_set, test_set = blobs
    net = table1_network(RngState(7))
    cfg = OptimizerConfig(exec_mode="float")
    log = train(net, train_set.subset(256), test_set.subset(64), cfg,
                TrainProtocol(epochs=2, batch_size=128, seed=3))
    # default cadence in multi-epoch mode: end of each epoch only
    evals = [r for r in log.records if r.test_accuracy is not None]
    assert len(evals) == 2
    assert all(r.minibatch == 2 for r in evals)


def test_minibatch_indices_contiguous(blobs):
    train_set, test_set = blobs
    net = table1_network(RngState(8))
    log = train(net, train_set.subset(300), test_set.subset(64),
                OptimizerConfig(exec_mode="float"),
                TrainProtocol(epochs=2, batch_size=100, seed=1, eval_every=0))
    per_epoch = {}
    for r in log.records:
        per_epoch.setdefault(r.epoch, []).append(r.minibatch)
    for epoch, mbs in per_epoch.items():
        assert mbs == list(range(1, len(mbs) + 1))


def test_empty_dataset_rejected(blobs):
    _, test_set = blobs
    empty = synthetic_dataset(1, seed=0).subset(0)
    empty = dataclasses.replace(empty, images=empty.images[:0], labels=empty.labels[:0])
    net = table1_network(RngState(9))
    with pytest.raises(ValueError):
        train(net, empty, test_set, OptimizerConfig(exec_mode="float"), TrainProtocol())


def test_empty_test_set_rejected(blobs):
    train_set, test_set = blobs
    empty = dataclasses.replace(test_set, images=test_set.images[:0], labels=test_set.labels[:0])
    net = table1_network(RngState(9))
    with pytest.raises(ValueError, match="evaluation set is empty"):
        evaluate(net, empty)
    with pytest.raises(ValueError, match="test set is empty"):
        train(net, train_set.subset(128), empty, OptimizerConfig(exec_mode="float"),
              TrainProtocol())


def test_evaluate_constant_predictor():
    test_set = synthetic_dataset(400, seed=44)
    net = reduced_network(RngState(10))

    class AlwaysZero:
        input_shape = (1, 28, 28)

        def forward(self, x, training=False):
            logits = np.zeros((x.shape[0], 10))
            logits[:, 0] = 1.0
            return logits, []

    acc = evaluate(AlwaysZero(), test_set)
    expected = np.mean(test_set.labels == 0)
    assert acc == pytest.approx(expected, abs=1e-12)


def test_evaluate_scale_invariance(blobs):
    _, test_set = blobs
    net = table1_network(RngState(11))
    base = evaluate(net, test_set.subset(128))

    logits_ref, _ = net.forward(test_set.images[:128], training=False)
    scaled = (3.7 * logits_ref).argmax(axis=1)
    assert np.array_equal(scaled, logits_ref.argmax(axis=1))
    assert 0.0 <= base <= 1.0


def test_evaluate_chunks_match_one_forward(blobs):
    # 100 images end in a partial chunk; chunking must not change a prediction
    train_set, test_set = blobs
    assert len(test_set) >= 100 and 100 % EVAL_CHUNK != 0
    images = test_set.subset(100)
    net = table1_network(RngState(12))
    train(net, train_set.subset(256), images, OptimizerConfig(exec_mode="float"),
          TrainProtocol(epochs=1, batch_size=128, seed=12, eval_every=0))
    logits, _ = net.forward(images.images, training=False)
    assert evaluate(net, images) == np.mean(logits.argmax(axis=1) == images.labels)
