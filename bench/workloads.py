"""The benchmark's workloads: set-up, the timed loop, audits and metrics.

A workload runs *episodes*: one ``train()`` call of a fixed number of
minibatches on a fresh network, or one sweep over the array-generation
grid. Every episode of a run repeats the same seeded computation, so the
quality outputs are those of the first episode and every later episode
must reproduce them bit for bit. Episodes are repeated until the run's
time has passed, which keeps quality metrics independent of host speed.

Host time is measured with no wrappers installed. In a traced run the
episodes alternate between untraced and traced; the traced ones give the
per-layer metrics and the pair gives the tracing overhead.

Host speed on a shared machine drifts by up to 2x over minutes. A fixed
probe runs between episodes, and each episode's end-to-end host times are
rescaled to a host on which the probe takes PROBE_NOMINAL_MS; raw values
stay in the report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import gate
from spans import Tracer
from memsc import crossbar, sc
from memsc.device import DeviceParams
from memsc.nn import (
    TrainProtocol,
    cross_entropy,
    reduced_network,
    synthetic_dataset,
    table1_network,
    train,
)
from memsc.optimizer import OptimizerConfig, update_tensor
from memsc.rng import RngState

LAYERS = ("conv1", "bn1", "relu1", "pool1", "conv2", "bn2", "relu2", "pool2",
          "fc1", "bn3", "relu3", "fc2")

# Each workload fixes its tail percentile, and a run times at least enough
# steps to leave TAIL_BEYOND samples beyond it.
TAIL_BEYOND = 10
# final_train_loss averages the losses of this many last steps.
LAST_LOSSES = 4
PROBE_NOMINAL_MS = 10.0
PROBE_PARTS = 5


@dataclass(frozen=True)
class TrainingSpec:
    """``train()`` on synthetic data; one episode is one epoch of ``steps``."""

    name: str
    network: str  # "table1" or "reduced"
    batch: int
    steps: int
    test_images: int
    tail_pct: float
    image_size: int = 28
    classes: int = 10
    exec_mode: str = "binomial"
    mode: str = "sgd"
    n_bit: int = 16384
    eval_every: int | None = 0


@dataclass(frozen=True)
class ArraySpec:
    """In-array and LFSR stream generation over a grid of target probabilities."""

    name: str
    tail_pct: float
    grid: tuple = tuple(round(0.05 * i, 2) for i in range(1, 20))
    n_bit: int = 16384
    jitter: float = 0.6


WORKLOADS = {
    spec.name: spec
    for spec in (
        TrainingSpec("cnn_binomial", "table1", batch=256, steps=16, test_images=512,
                     tail_pct=90.0),
        TrainingSpec("cnn_float_eval", "table1", batch=256, steps=6, test_images=1024,
                     tail_pct=75.0, exec_mode="float", eval_every=None),
        TrainingSpec("bitexact_momentum", "reduced", batch=32, steps=8, test_images=256,
                     tail_pct=90.0, image_size=6, classes=3, exec_mode="bitexact",
                     mode="momentum"),
        ArraySpec("array_gen", tail_pct=98.0),
    )
}

# (name, unit, better); the BENCHMARK.json lists must name exactly these.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_tail", "ms", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    *((f"layers.{l}.{kind}_ms", "ms", "lower") for l in LAYERS
      for kind in ("fwd", "bwd", "eval_fwd")),
    ("network.forward_ms", "ms", "lower"),
    ("network.backward_ms", "ms", "lower"),
    ("network.self_ms", "ms", "lower"),
    ("loss.cross_entropy_ms", "ms", "lower"),
    ("optimizer.update_ms", "ms", "lower"),
    ("optimizer.update_ns_per_elem", "ns", "lower"),
    ("optimizer.calls_per_step", "count", "lower"),
    ("sc.encode_us", "us", "lower"),
    ("sc.xnor_mul_us", "us", "lower"),
    ("sc.scaled_add_us", "us", "lower"),
    ("sc.decode_us", "us", "lower"),
    ("sc.encode_calls_per_step", "count", "lower"),
    ("sc.bits_encoded_per_step", "count", "lower"),
    ("rng.substreams_per_step", "count", "lower"),
    ("rng.generator_init_us", "us", "lower"),
    ("device.pulse_width_for_us", "us", "lower"),
    ("device.switch_probability_us", "us", "lower"),
    ("crossbar.generate_stream_ms", "ms", "lower"),
    ("crossbar.power_report_us", "us", "lower"),
    ("crossbar.p_err.ideal.p10", "fraction", "lower"),
    ("crossbar.p_err.ideal.p90", "fraction", "higher"),
    ("crossbar.p_err.jitter.p10", "fraction", "lower"),
    ("crossbar.p_err.jitter.p90", "fraction", "higher"),
    ("crossbar.sim_read_power_uw", "uW", "lower"),
    ("crossbar.sim_area_mm2", "mm2", "lower"),
    ("sc.lfsr_stream_ms", "ms", "lower"),
    ("sc.lfsr.p_err", "fraction", "lower"),
    ("data.synthetic_dataset_s", "s", "lower"),
    ("train.evaluate_ms", "ms", "lower"),
    ("train.eval_images_per_s", "1/s", "higher"),
    ("train.eval_share", "fraction", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def host_probe_ms() -> float:
    """Host ms for fixed single-threaded work like the workloads' own.

    The mix is substream seeding (sha256 and SeedSequence, as RngState
    does), Bernoulli draws packed into bytes, a small matrix product and
    an interpreter loop. It runs in PROBE_PARTS equal parts and returns the
    median part times the part count, so that one stall of the core does
    not stretch it. It stays off multi-threaded BLAS for the same reason.
    """
    a = np.random.default_rng(0).random((64, 64))
    parts = []
    for part in range(PROBE_PARTS):
        t0 = time.perf_counter()
        x = a
        for i in range(12):
            digest = hashlib.sha256(repr(("probe", part, i)).encode()).digest()
            seed = np.random.SeedSequence(int.from_bytes(digest[:16], "little"))
            np.packbits(np.random.default_rng(seed).random(16384) < 0.3)
            x = np.tanh(x @ a * 0.01)
        acc = 0
        for i in range(10000):
            acc ^= i & 15
        parts.append(time.perf_counter() - t0)
    return float(np.median(parts)) * PROBE_PARTS * 1e3


def tail_samples_needed(tail_pct: float) -> int:
    """Samples needed so that TAIL_BEYOND of them lie beyond the percentile."""
    return math.ceil(TAIL_BEYOND / (1.0 - tail_pct / 100.0) - 1e-9)


def _seeds(seed: int) -> dict:
    """Independent sub-seeds; the held-out set gets its own, as in the tests."""
    roles = ("train", "test", "net", "run", "lfsr")
    return {role: int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            for i, role in enumerate(roles)}


@dataclass
class Episode:
    step_ms: np.ndarray
    items: int
    signature: tuple
    wall_s: float = 0.0
    speed: float = 1.0  # host-time scale to the reference host speed
    traced: bool = False
    out: object = None


@dataclass
class Result:
    """What one measured run produced, before set-up time and memory are added."""

    e2e: dict
    per_layer: dict
    named: dict  # workload-specific metrics: name -> (value, unit, better)
    checks: list
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class TrainingState:
    spec: TrainingSpec
    seeds: dict
    train_set: object
    test_set: object
    cfg: OptimizerConfig
    protocol: TrainProtocol
    dataset_s: float

    def new_net(self):
        build = table1_network if self.spec.network == "table1" else reduced_network
        return build(RngState(self.seeds["net"]))


@dataclass
class ArrayState:
    spec: ArraySpec
    seeds: dict
    ideal: DeviceParams
    jittered: DeviceParams
    tile: crossbar.TileConfig
    plan: crossbar.ArrayPlan
    registers: tuple
    dataset_s: float = 0.0


def setup(spec, seed: int):
    """Generate inputs, build the model and warm every code path once."""
    seeds = _seeds(seed)
    if isinstance(spec, ArraySpec):
        registers = np.random.SeedSequence(seeds["lfsr"]).generate_state(len(spec.grid))
        state = ArrayState(
            spec, seeds,
            ideal=DeviceParams(cell_jitter=0.0),
            jittered=DeviceParams(cell_jitter=spec.jitter),
            tile=crossbar.TileConfig(),
            plan=crossbar.plan_array(spec.n_bit, 2),
            registers=tuple(int(r) % 0xFFFF + 1 for r in registers),
        )
        _sweep_point(state, 0, RngState(seeds["run"]).split("warm-up"))
        return state

    t0 = time.perf_counter()
    shape = dict(classes=spec.classes, size=spec.image_size)
    train_set = synthetic_dataset(spec.batch * spec.steps, seed=seeds["train"], **shape)
    test_set = synthetic_dataset(spec.test_images, seed=seeds["test"], **shape)
    dataset_s = time.perf_counter() - t0
    state = TrainingState(
        spec, seeds, train_set, test_set,
        cfg=OptimizerConfig(mode=spec.mode, exec_mode=spec.exec_mode, n_bit=spec.n_bit),
        protocol=TrainProtocol(epochs=1, batch_size=spec.batch, seed=seeds["run"],
                               eval_every=spec.eval_every, run_id=spec.name),
        dataset_s=dataset_s,
    )
    # The first steps of a process run 2-4x slower than the steady state.
    train(state.new_net(), train_set.subset(2 * spec.batch), test_set, state.cfg,
          state.protocol)
    return state


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

def _module_targets():
    """Public functions wrapped in a traced episode, at the name their caller uses."""
    nn_train = importlib.import_module("memsc.nn.train")
    optimizer = importlib.import_module("memsc.optimizer")
    return [
        (nn_train, "cross_entropy", "loss.cross_entropy", None),
        (nn_train, "update_tensor", "optimizer.update", lambda a, k: np.size(a[0])),
        (nn_train, "evaluate", "train.evaluate", lambda a, k: len(a[1])),
        (optimizer, "encode", "sc.encode", lambda a, k: a[1]),
        (optimizer, "xnor_mul", "sc.xnor_mul", None),
        (optimizer, "scaled_add", "sc.scaled_add", None),
        (optimizer, "decode", "sc.decode", None),
        (RngState, "split", "rng.split", None),
        (RngState, "generator", "rng.generator", None),
        (crossbar, "pulse_width_for", "device.pulse_width_for", None),
        (crossbar, "switch_probability", "device.switch_probability", None),
        (crossbar, "generate_stream", "crossbar.generate_stream", None),
        (crossbar, "power_report", "crossbar.power_report", None),
        (sc, "lfsr_stream", "sc.lfsr_stream", None),
    ]


def _forward_name(prefix, eval_name, train_name):
    def name(args, kwargs):
        training = args[1] if len(args) > 1 else kwargs.get("training", False)
        return f"{prefix}.{train_name if training else eval_name}"
    return name


def _network_targets(net):
    targets = [
        (net, "forward", _forward_name("network", "eval_forward", "forward"), None),
        (net, "backward", "network.backward", None),
    ]
    for layer in net.layers:
        prefix = f"layers.{layer.name}"
        targets.append((layer, "forward", _forward_name(prefix, "eval_fwd", "fwd"), None))
        targets.append((layer, "backward", f"{prefix}.bwd", None))
    return targets


def _train_episode(state: TrainingState, tracer) -> Episode:
    net = state.new_net()
    targets = _module_targets() + _network_targets(net)
    with tracer.patched(targets) if tracer else nullcontext():
        log = train(net, state.train_set, state.test_set, state.cfg, state.protocol)
    wall = np.array([r.wall_time_s for r in log.records])
    losses = tuple(r.train_loss for r in log.records)
    signature = (losses, log.final_accuracy(),
                 tuple(float(p.sum()) for p in net.params().values()))
    return Episode(np.diff(wall, prepend=0.0) * 1e3, len(log) * state.spec.batch,
                   signature, out=(net, log))


def _sweep_point(state: ArrayState, i: int, root: RngState) -> dict:
    spec = state.spec
    p, n = spec.grid[i], spec.n_bit
    ideal, _ = crossbar.generate_stream(p, n, state.ideal, state.tile, root.split("ideal", i),
                                        sc.Priori.UNIPOLAR)
    jittered, _ = crossbar.generate_stream(p, n, state.jittered, state.tile,
                                           root.split("jitter", i), sc.Priori.UNIPOLAR)
    lfsr = sc.lfsr_stream(p, n, sc.Priori.UNIPOLAR, sc.LfsrState(register=state.registers[i]))
    counts = (ideal.popcount(), jittered.popcount(), lfsr.popcount())
    report = crossbar.power_report(state.plan, e_grad=counts[0] / n, e_weight=counts[1] / n)
    return {"counts": counts, "power_w": report.total_power_w, "area_mm2": report.total_area_mm2}


def _array_episode(state: ArrayState, tracer) -> Episode:
    root = RngState(state.seeds["run"])
    points, step_ms = [], []
    with tracer.patched(_module_targets()) if tracer else nullcontext():
        for i in range(len(state.spec.grid)):
            t0 = time.perf_counter()
            points.append(_sweep_point(state, i, root))
            step_ms.append((time.perf_counter() - t0) * 1e3)
    signature = tuple((pt["counts"], pt["power_w"]) for pt in points)
    return Episode(np.array(step_ms), 3 * state.spec.n_bit * len(points), signature, out=points)


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------

def _timed_loop(episode, seconds: float, min_steps: int, tracer):
    """Run episodes until ``seconds`` passed and ``min_steps`` untraced steps were timed.

    With a tracer, episodes alternate untraced/traced and end on a pair.
    The host probe runs before every episode and after the last; an
    episode's speed is PROBE_NOMINAL_MS over the mean of its two probes.
    Returns (episodes in run order, failures, probe_ms).
    """
    episodes, failures, probe_ms = [], [], []
    host_probe_ms()  # the first call in a process can take 50x longer
    start = time.perf_counter()
    while True:
        probe_ms.append(host_probe_ms())
        use_tracer = tracer is not None and len(episodes) % 2 == 1
        t0 = time.perf_counter()
        try:
            ep = episode(tracer if use_tracer else None)
        except (FloatingPointError, ValueError) as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            break
        ep.wall_s = time.perf_counter() - t0
        ep.traced = use_tracer
        episodes.append(ep)
        timed = sum(e.step_ms.size for e in episodes if not e.traced)
        if time.perf_counter() - start >= seconds and (
                len(episodes) % 2 == 0 if tracer else timed >= min_steps):
            break
    probe_ms.append(host_probe_ms())
    for i, ep in enumerate(episodes):
        ep.speed = 2 * PROBE_NOMINAL_MS / (probe_ms[i] + probe_ms[i + 1])
    return episodes, failures, probe_ms


def _step_stats(episodes, spec) -> tuple[dict, dict]:
    """Step statistics at the reference host speed, and the raw ones in details."""
    raw_steps = np.concatenate([e.step_ms for e in episodes])
    steps = np.concatenate([e.step_ms * e.speed for e in episodes])
    items = sum(e.items for e in episodes)
    raw = {
        "step_ms_p50": float(np.percentile(raw_steps, 50)),
        "step_ms_tail": float(np.percentile(raw_steps, spec.tail_pct)),
        "items_per_s": items / sum(e.wall_s for e in episodes),
    }
    e2e = {
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_tail": float(np.percentile(steps, spec.tail_pct)),
        "items_per_s": items / sum(e.wall_s * e.speed for e in episodes),
    }
    details = {"raw": raw, "step_samples": int(steps.size), "step_ms_tail_pct": spec.tail_pct,
               "samples_beyond_tail": int((steps > e2e["step_ms_tail"]).sum()),
               "episodes": len(episodes)}
    return e2e, details


def _per_step(stats, steps):
    return stats.total_s * 1e3 / steps


def _per_call_us(stats):
    return stats.total_s * 1e6 / stats.calls if stats.calls else 0.0


def _per_layer(tracer, untraced, traced, dataset_s, sim: dict) -> dict:
    steps = sum(e.step_ms.size for e in traced)
    wall = sum(e.wall_s for e in traced)
    get = tracer.get
    out = {}
    for l in LAYERS:
        for kind in ("fwd", "bwd", "eval_fwd"):
            out[f"layers.{l}.{kind}_ms"] = _per_step(get(f"layers.{l}.{kind}"), steps)
    network = [get(n) for n in ("network.forward", "network.backward", "network.eval_forward")]
    update, evaluate, encode = get("optimizer.update"), get("train.evaluate"), get("sc.encode")
    out.update({
        "network.forward_ms": _per_step(network[0], steps),
        "network.backward_ms": _per_step(network[1], steps),
        "network.self_ms": sum(s.self_s for s in network) * 1e3 / steps,
        "loss.cross_entropy_ms": _per_step(get("loss.cross_entropy"), steps),
        "optimizer.update_ms": _per_step(update, steps),
        "optimizer.update_ns_per_elem":
            update.total_s * 1e9 / update.units if update.units else 0.0,
        "optimizer.calls_per_step": update.calls / steps,
        "sc.encode_us": _per_call_us(encode),
        "sc.xnor_mul_us": _per_call_us(get("sc.xnor_mul")),
        "sc.scaled_add_us": _per_call_us(get("sc.scaled_add")),
        "sc.decode_us": _per_call_us(get("sc.decode")),
        "sc.encode_calls_per_step": encode.calls / steps,
        "sc.bits_encoded_per_step": encode.units / steps,
        "rng.substreams_per_step": get("rng.split").calls / steps,
        "rng.generator_init_us": _per_call_us(get("rng.generator")),
        "device.pulse_width_for_us": _per_call_us(get("device.pulse_width_for")),
        "device.switch_probability_us": _per_call_us(get("device.switch_probability")),
        "crossbar.generate_stream_ms": _per_call_us(get("crossbar.generate_stream")) / 1e3,
        "crossbar.power_report_us": _per_call_us(get("crossbar.power_report")),
        "sc.lfsr_stream_ms": _per_call_us(get("sc.lfsr_stream")) / 1e3,
        "data.synthetic_dataset_s": dataset_s,
        "train.evaluate_ms": _per_call_us(evaluate) / 1e3,
        "train.eval_images_per_s": evaluate.units / evaluate.total_s if evaluate.calls else 0.0,
        "train.eval_share": evaluate.total_s / wall,
    })
    for key in ("crossbar.p_err.ideal.p10", "crossbar.p_err.ideal.p90",
                "crossbar.p_err.jitter.p10", "crossbar.p_err.jitter.p90",
                "crossbar.sim_read_power_uw", "crossbar.sim_area_mm2", "sc.lfsr.p_err"):
        out[key] = sim.get(key, 0.0)
    plain = np.median(np.concatenate([e.step_ms * e.speed for e in untraced]))
    with_spans = np.median(np.concatenate([e.step_ms * e.speed for e in traced]))
    out["trace.overhead_pct"] = float((with_spans / plain - 1.0) * 100.0)
    return out


# ---------------------------------------------------------------------------
# Workload-specific outputs and checks
# ---------------------------------------------------------------------------

def _grads(net, x, y):
    logits, caches = net.forward(x, training=True)
    _, dlogits = cross_entropy(logits, y)
    return net.backward(caches, dlogits)


def _update_audit(state: TrainingState, net) -> tuple[float, float]:
    """One stream update of every tensor against the float rule.

    Returns (RMS of stream minus float update, its binomial-law bound).
    """
    cfg, b = state.cfg, state.spec.batch
    images, labels = state.train_set.images, state.train_set.labels
    g_prev = _grads(net, images[b:2 * b], labels[b:2 * b])
    grads = _grads(net, images[:b], labels[:b])
    float_cfg = dataclasses.replace(cfg, exec_mode="float")
    root = RngState(state.seeds["run"]).split("audit")
    columns = []  # (stream update, float update, law mean, law sigma) per tensor
    for name, theta in net.params().items():
        theta = theta.astype(float)
        g_c = np.clip(grads[name], cfg.clip_lo, cfg.clip_hi)
        v = np.clip(cfg.eta * np.clip(g_prev[name], cfg.clip_lo, cfg.clip_hi), -1.0, 1.0)
        stream = update_tensor(theta, grads[name], cfg, root.split(name), velocity=v)[0]
        exact = update_tensor(theta, grads[name], float_cfg, root.split(name), velocity=v)[0]
        law = gate.momentum_update_law(theta, v, g_c, cfg.eta, cfg.gamma, cfg.n_bit)
        columns.append([a.ravel() for a in (stream, exact, *law)])
    stream, exact, mean, sigma = (np.concatenate(c) for c in zip(*columns))
    rmse = math.sqrt(float(np.mean((stream - exact) ** 2)))
    return rmse, gate.update_rmse_bound(exact, mean, sigma)


def _training_outputs(state: TrainingState, episodes, failures):
    spec = state.spec
    first_log = episodes[0].out[1]
    losses = [r.train_loss for r in first_log.records]
    named = {
        "final_train_loss": (float(np.mean(losses[-LAST_LOSSES:])), "nats", "lower"),
        "test_accuracy": (first_log.final_accuracy(), "fraction", "higher"),
    }
    checks = [gate.finite_losses([r.train_loss for e in episodes for r in e.out[1].records]),
              gate.episodes_repeat([e.signature for e in episodes])]
    if spec.exec_mode != "float":
        checks.append(gate.params_in_unit_range(episodes[-1].out[0].params()))
    if spec.exec_mode == "bitexact" and not failures:
        rmse, bound = _update_audit(state, episodes[-1].out[0])
        named["sc_update_rmse"] = (rmse, "1", "lower")
        named["sc_update_rmse_bound"] = (bound, "1", "lower")
        checks.append(gate.update_rmse_within_law(rmse, bound))
    return named, checks, {}


def _array_outputs(state: ArrayState, episodes, failures):
    spec = state.spec
    points = episodes[0].out
    grid = np.array(spec.grid)
    counts = np.array([pt["counts"] for pt in points], dtype=float)  # (grid, generator)
    frac = counts / spec.n_bit
    err = frac - grid[:, None]
    named = {"stream_p_abs_err": (float(np.abs(err).mean()), "fraction", "lower")}
    sim = {"crossbar.sim_read_power_uw": float(np.mean([pt["power_w"] for pt in points]) * 1e6),
           "crossbar.sim_area_mm2": float(points[0]["area_mm2"]),
           "sc.lfsr.p_err": float(np.abs(err[:, 2]).mean())}
    for label, col in (("ideal", 0), ("jitter", 1)):
        for p in (0.1, 0.9):
            if p in spec.grid:
                key = f"crossbar.p_err.{label}.p{round(p * 100)}"
                sim[key] = float(err[spec.grid.index(p), col])
    calibration = crossbar.power_report(crossbar.plan_array(16384, 2),
                                        e_grad=gate.CALIBRATION_E_GRAD,
                                        e_weight=gate.CALIBRATION_E_WEIGHT)
    checks = [gate.on_fraction_within_binomial(counts[:, 0], spec.n_bit, grid),
              gate.power_at_calibration(calibration),
              gate.episodes_repeat([e.signature for e in episodes])]
    return named, checks, sim


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def measure(state, seconds: float, trace: bool) -> Result:
    """Time the workload for ``seconds``, check its outputs, collect its metrics."""
    spec = state.spec
    training = isinstance(spec, TrainingSpec)
    run_episode = _train_episode if training else _array_episode
    tracer = Tracer() if trace else None
    all_episodes, failures, probe_ms = _timed_loop(
        lambda tr: run_episode(state, tr), seconds, tail_samples_needed(spec.tail_pct), tracer)
    untraced = [e for e in all_episodes if not e.traced]
    traced = [e for e in all_episodes if e.traced]
    attempted = sum(e.step_ms.size for e in all_episodes) + len(failures)
    probe = {"host_probe_ms": float(np.median(probe_ms)), "host_probes": len(probe_ms)}
    if not untraced:
        return Result({}, {}, {}, [], attempted, len(failures),
                      {"failures": failures, **probe})

    e2e, details = _step_stats(untraced, spec)
    details.update(probe)
    outputs = _training_outputs if training else _array_outputs
    named, checks, sim = outputs(state, all_episodes, failures)
    throughput = "train_images_per_s" if training else "stream_bits_per_s"
    named[throughput] = (e2e["items_per_s"], "1/s", "higher")
    per_layer = _per_layer(tracer, untraced, traced, state.dataset_s, sim) if traced else {}
    details["failures"] = failures
    failed = len(failures) + sum(not c.passed for c in checks)
    return Result(e2e, per_layer, named, checks, attempted + len(checks), failed, details)
