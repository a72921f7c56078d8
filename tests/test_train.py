"""Training-loop behavior on the synthetic corpus (fast, seeded)."""

import dataclasses
import importlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from memsc import optimizer
from memsc.nn import (
    Network,
    TrainProtocol,
    evaluate,
    reduced_network,
    synthetic_dataset,
    table1_network,
    train,
)
from memsc.nn.layers import MaxPool2x2
from memsc.nn.train import EVAL_CHUNK, MetricsLog, MetricsRecord
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


def test_momentum_binomial_learns_synthetic(blobs):
    train_set, test_set = blobs
    net = table1_network(RngState(3))
    cfg = OptimizerConfig(mode="momentum", eta=0.25, gamma=0.5, n_bit=16384,
                          exec_mode="binomial")
    log = train(net, train_set, test_set, cfg, TrainProtocol(epochs=2, batch_size=128, seed=9))
    assert log.final_accuracy() >= 0.80


def test_a_law_added_to_the_table_runs_in_train(blobs, monkeypatch):
    # no patch of update_tensor: the table is the seam
    train_set, test_set = blobs
    shapes = []

    def clamped(x, n_bit, rng):
        shapes.append(x.shape)
        return np.clip(x, -0.5, 0.5)

    monkeypatch.setitem(optimizer.MUX_LAWS, "clamped", clamped)
    net = table1_network(RngState(4))
    log = train(net, train_set.subset(256), test_set.subset(64),
                OptimizerConfig(eta=0.5, exec_mode="clamped"),
                TrainProtocol(epochs=1, batch_size=128, seed=3, eval_every=0))
    assert importlib.import_module("memsc.nn.train").update_tensor is optimizer.update_tensor
    params = net.params()
    assert len(log) == 2 and shapes == [p.shape for p in params.values()] * 2
    assert all(np.abs(p).max() <= 0.5 for p in params.values())


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


def test_eval_cadence_default_one_epoch(blobs, monkeypatch):
    train_set, test_set = blobs
    net = table1_network(RngState(6))
    cfg = OptimizerConfig(exec_mode="float")
    # record each update call's (E, size) to rebuild every step's E
    train_module = importlib.import_module("memsc.nn.train")
    update = train_module.update_tensor
    calls = []

    def spy(params, grads, *args, **kwargs):
        out = update(params, grads, *args, **kwargs)
        calls.append((out[2], params.size))
        return out

    monkeypatch.setattr(train_module, "update_tensor", spy)
    log = train(net, train_set.subset(256), test_set.subset(64), cfg,
                TrainProtocol(epochs=1, batch_size=128, seed=3))
    # default cadence in 1-epoch mode: accuracy on every minibatch
    assert all(r.test_accuracy is not None for r in log.records)
    # every record carries its own step's size-weighted E; step 1's value
    # matches the one recorded before the BN-fed biases went, taken over the
    # tensors kept (on one host; float32 conv GEMMs may differ in the low
    # bits elsewhere)
    per_step = len(net.params())
    assert len(calls) == per_step * len(log)
    for k, record in enumerate(log.records):
        step = calls[k * per_step : (k + 1) * per_step]
        want = sum(e * size for e, size in step) / sum(size for _, size in step)
        assert record.e_grad_stat == want
    assert log.records[0].e_grad_stat == pytest.approx(0.49983302159371557, rel=1e-6)


def test_metrics_record_is_frozen(blobs):
    train_set, test_set = blobs
    log = train(table1_network(RngState(6)), train_set.subset(128), test_set.subset(32),
                OptimizerConfig(exec_mode="float"), TrainProtocol(batch_size=128))
    with pytest.raises(dataclasses.FrozenInstanceError):
        log.records[0].e_grad_stat = None
    # the log is a value too: train builds its tuple of records once
    assert isinstance(log.records, tuple) and len(log) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        log.records = ()
    assert not hasattr(log, "append")


@pytest.mark.parametrize("bad", [
    dict(batch_size=0),
    dict(batch_size=-5),
    dict(batch_size=2.0),
    dict(batch_size=True),
    dict(epochs=0),
    dict(epochs=1.5),
    dict(epochs=-1),
    dict(eval_every=-2),
    dict(eval_every=0.5),
    dict(run_id=123),
    dict(run_id=None),
    dict(run_id=b"run"),
])
def test_train_protocol_rejects_bad_settings(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        TrainProtocol(**bad)


@pytest.mark.parametrize("seed", [2.9, 2.0, True, "2", None])
def test_train_protocol_rejects_non_int_seed(seed):
    # int(2.9) would train with seed 2
    with pytest.raises(ValueError, match="seed"):
        TrainProtocol(seed=seed)
    assert TrainProtocol(seed=np.int64(2)).seed == 2


def test_train_protocol_accepts_good_settings():
    for good in (dict(), dict(epochs=3, batch_size=1, eval_every=0),
                 dict(eval_every=None), dict(batch_size=np.int64(32), eval_every=5)):
        TrainProtocol(**good)


def test_train_protocol_is_frozen():
    # assignment would bypass __post_init__'s checks; replace re-runs them
    protocol = TrainProtocol()
    with pytest.raises(dataclasses.FrozenInstanceError):
        protocol.batch_size = 0
    assert protocol == TrainProtocol()
    with pytest.raises(ValueError, match="batch_size"):
        dataclasses.replace(protocol, batch_size=0)
    with pytest.raises(ValueError, match="eval_every"):
        dataclasses.replace(protocol, eval_every=-1)
    assert dataclasses.replace(protocol, epochs=2).epochs == 2


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
    net = table1_network(RngState(9))
    with pytest.raises(ValueError):
        train(net, empty, test_set, OptimizerConfig(exec_mode="float"), TrainProtocol())


@pytest.mark.parametrize("n, batch_size", [(127, 128), (1, 2)])
def test_training_set_smaller_than_one_batch_rejected(blobs, n, batch_size):
    # only full batches train, so a set below one batch would train nothing
    train_set, test_set = blobs
    net = table1_network(RngState(9))
    with pytest.raises(ValueError, match=f"holds {n} examples, fewer than one batch"):
        train(net, train_set.subset(n), test_set.subset(32), OptimizerConfig(exec_mode="float"),
              TrainProtocol(batch_size=batch_size))


def test_empty_test_set_rejected(blobs):
    train_set, test_set = blobs
    empty = dataclasses.replace(test_set, images=test_set.images[:0], labels=test_set.labels[:0])
    net = table1_network(RngState(9))
    with pytest.raises(ValueError, match="evaluation set is empty"):
        evaluate(net, empty)
    with pytest.raises(ValueError, match="test set is empty"):
        train(net, train_set.subset(128), empty, OptimizerConfig(exec_mode="float"),
              TrainProtocol(batch_size=128))


def test_non_finite_loss_stops_training_before_any_update():
    digits = synthetic_dataset(8, seed=0, classes=3, size=6)
    images = digits.images.copy()
    images[3, 0, 2, 2] = np.nan
    net = reduced_network(RngState(4))
    before = {name: p.copy() for name, p in net.params().items()}
    with pytest.raises(FloatingPointError, match="non-finite loss at step 1"):
        train(net, dataclasses.replace(digits, images=images), digits,
              OptimizerConfig(exec_mode="float"), TrainProtocol(batch_size=8))
    assert all(np.array_equal(p, before[name]) for name, p in net.params().items())


def test_final_accuracy_needs_a_logged_accuracy():
    record = MetricsRecord("r", 1, 1, 2.3, None, 0.5, 0.0)
    for log in (MetricsLog(), MetricsLog((record,))):
        with pytest.raises(ValueError, match="no accuracy was logged"):
            log.final_accuracy()


def test_network_without_trainable_tensors_rejected():
    # the step's E averages over every trained element, of which there are none
    digits = synthetic_dataset(8, seed=0, size=4)
    net = Network([MaxPool2x2()], (1, 4, 4))
    with pytest.raises(ValueError, match="no trainable tensors"):
        train(net, digits, digits, OptimizerConfig(exec_mode="float"), TrainProtocol(batch_size=4))


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


def test_labels_outside_the_networks_classes_rejected():
    # the 10-class test set scored 0.1875 on the 3-class net: training labels
    # passed cross_entropy's check, and held-out ones were never checked
    train_set = synthetic_dataset(64, seed=0, classes=3, size=6)
    run = (OptimizerConfig(exec_mode="float"), TrainProtocol(batch_size=32))
    wide = synthetic_dataset(16, seed=3, classes=10, size=6)
    with pytest.raises(ValueError, match=r"labels \[8, 8, 8, 5, 3, 4, 6, 4\] lie outside \[0, 3\)"):
        evaluate(reduced_network(RngState(0)), wide)
    with pytest.raises(ValueError, match=r"lie outside \[0, 3\)"):
        train(reduced_network(RngState(0)), train_set, wide, *run)
    # in-range labels score as before the check
    narrow = synthetic_dataset(16, seed=3, classes=3, size=6)
    net = reduced_network(RngState(0))
    log = train(net, train_set, narrow, *run)
    logits, _ = net.forward(narrow.images, training=False)
    assert log.final_accuracy() == evaluate(net, narrow) == np.mean(
        logits.argmax(axis=1) == narrow.labels)


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


def spy_on_layers(net, calls):
    """Wrap each layer's forward/backward on the instance, as the bench's tracer does.

    Each call appends (layer name, method, training); backward has no
    training flag, so it records None.
    """
    for layer in net.layers:
        def forward(*args, _name=layer.name, _forward=layer.forward, **kwargs):
            training = args[1] if len(args) > 1 else kwargs.get("training", False)
            calls.append((_name, "forward", training))
            return _forward(*args, **kwargs)

        def backward(*args, _name=layer.name, _backward=layer.backward, **kwargs):
            calls.append((_name, "backward", None))
            return _backward(*args, **kwargs)

        layer.forward, layer.backward = forward, backward


def test_training_and_evaluation_run_through_layer_forward_backward(blobs):
    # the per-layer counters of a traced run wrap exactly these methods
    train_set, test_set = blobs
    net = table1_network(RngState(13))
    images = test_set.subset(EVAL_CHUNK + 1)  # two evaluation chunks
    calls = []
    spy_on_layers(net, calls)
    train(net, train_set.subset(128), images, OptimizerConfig(exec_mode="float"),
          TrainProtocol(batch_size=128, seed=13, eval_every=0))
    # one training step, then one evaluation at the end of the epoch
    step = {(layer.name, method, training): n for layer in net.layers
            for method, training, n in (("forward", True, 1), ("backward", None, 1),
                                        ("forward", False, 2))}
    assert Counter(calls) == step
    calls.clear()
    evaluate(net, images)
    assert Counter(calls) == {(layer.name, "forward", False): 2 for layer in net.layers}


def test_training_step_memory_stays_near_one_set_of_activations():
    # conv1's im2col columns at batch 256, (1*5*5, 24*24*256) float32, were
    # the largest array of a step. The peak read 6.8x these bytes when a
    # step's caches lived through the next forward and conv caches held
    # the columns, and 2.8x when a step freed its caches and conv backward
    # rebuilt the whole columns, and 1.6x once conv built one band of rows
    # of columns at a time, ReLU and BatchNorm backward wrote into da, and
    # pooling cached a one-byte code. It reads 1.35x now that each pool
    # comes before its ReLU and BatchNorm backward holds one chunk buffer;
    # the peak sits in bn1's backward.
    train_set, test_set = synthetic_dataset(512, seed=14), synthetic_dataset(64, seed=15)
    net = table1_network(RngState(14))
    tracemalloc.start()
    try:
        train(net, train_set, test_set, OptimizerConfig(),
              TrainProtocol(batch_size=256, seed=14, eval_every=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    conv1_cols_bytes = 25 * (24 * 24 * 256) * 4
    assert peak <= 1.5 * conv1_cols_bytes
