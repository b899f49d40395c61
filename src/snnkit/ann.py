"""Constrained ANN training and ANN-to-SNN conversion.

The ANN mirrors the spiking network's layer stack with ReLU activations, no
bias terms anywhere, average pooling, and dropout as the only regularizer.
Backpropagation is hand-coded. Conversion copies the trained weights,
calibrates one firing threshold per layer from the percentile of its input
distribution (collected front-to-back while earlier layers already spike),
scales the thresholds, and starts every leak at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network
from .errors import CalibrationError, ConfigurationError, ContractViolation, NumericalError, TrainingError
from .errors import require, require_count
from .network import NetworkSpec
from .neuron import LayerParams, NeuronState, lif_step


@dataclass
class CalibrationConfig:
    percentile: float = 99.7
    num_images: int = 512
    scaling: float = 0.4
    calib_timesteps: int = 100

    def __post_init__(self):
        require_count("calibration.num_images", self.num_images)
        require_count("calibration.calib_timesteps", self.calib_timesteps)
        require("calibration.percentile", self.percentile, 0 < self.percentile <= 100, "in (0, 100]")
        require("calibration.scaling", self.scaling, self.scaling > 0, "positive")


@dataclass
class AnnTrainConfig:
    epochs: int = 30
    base_lr: float = 0.01
    batch_size: int = 64
    momentum: float = 0.9

    def __post_init__(self):
        require_count("ann_train.epochs", self.epochs)
        require_count("ann_train.batch_size", self.batch_size)
        require("ann_train.base_lr", self.base_lr, self.base_lr > 0, "positive")
        require("ann_train.momentum", self.momentum, 0 <= self.momentum < 1, "in [0, 1)")


def default_lr_schedule(epochs: int, base_lr: float = 0.01):
    """Initial LR decayed by 0.1 at 60%, 80%, and 90% of the epoch budget."""
    marks = sorted({int(epochs * f) for f in (0.6, 0.8, 0.9)})

    def lr_at(epoch: int) -> float:
        lr = base_lr
        for m in marks:
            if epoch >= m > 0:
                lr *= 0.1
        return lr

    return lr_at


def init_ann(spec: NetworkSpec, rng: np.random.Generator) -> list:
    """Fan-in variance-scaling uniform initialization: one bias-free weight tensor per weighted layer."""
    weights = []
    for shape in spec.weight_shapes():
        fan_in = int(np.prod(shape[1:]))
        limit = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=shape).astype(np.float32))
    return weights


def ann_forward(spec: NetworkSpec, weights: list, x: np.ndarray, train: bool = False, rng=None):
    """ReLU network forward pass; returns logits and the backward cache."""
    masks = network.sample_dropout_masks(spec, len(x), rng, np.result_type(x, *weights)) if train else None
    unfolded, active = [], []
    for i, stage in enumerate(spec.stages):
        cols = network.unfold(stage, network.apply_pre(stage, x, masks))
        pre = network.current(stage, weights[i], cols)
        unfolded.append(cols)
        if i == len(weights) - 1:
            return pre, (masks, unfolded, active)
        active.append(pre > 0)
        x = np.maximum(pre, 0.0)


def ann_backward(spec: NetworkSpec, weights: list, cache, dlogits: np.ndarray):
    """Hand-coded backward pass; returns one gradient per weighted layer."""
    masks, unfolded, active = cache
    grads = [None] * len(weights)
    d = dlogits
    for i in range(len(weights) - 1, -1, -1):
        stage = spec.stages[i]
        grads[i] = network.weight_grad(stage, d, unfolded[i])
        if i:  # nothing reads the first layer's input adjoint
            d = network.pre_adjoint(stage, network.input_adjoint(stage, weights[i], d), masks) * active[i - 1]
    return grads


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean CE loss (computed in float64) and its gradient w.r.t. the logits."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = -np.log(np.maximum(probs[np.arange(n), labels], 1e-300)).mean()
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    return float(loss), (dlogits / n).astype(logits.dtype)


def ann_accuracy(spec: NetworkSpec, weights: list, images: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy (percent) of the ReLU network, 256 images per forward pass."""
    hits = 0
    batch = 256
    for s in range(0, len(images), batch):
        logits, _ = ann_forward(spec, weights, images[s : s + batch])
        hits += int((np.argmax(logits, axis=1) == labels[s : s + batch]).sum())
    return 100.0 * hits / len(images)


def ann_train(
    spec: NetworkSpec,
    images: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    rng: np.random.Generator,
    lr_schedule=None,
    batch_size: int = 64,
    momentum: float = 0.9,
):
    """SGD-with-momentum training of the constrained ReLU network.

    Returns (weights, history) where history holds the per-epoch mean loss.
    """
    weights = init_ann(spec, rng)
    if lr_schedule is None:
        lr_schedule = default_lr_schedule(epochs)
    velocity = [np.zeros_like(w) for w in weights]
    history = {"loss": []}
    n = len(images)
    for epoch in range(epochs):
        lr = lr_schedule(epoch)
        order = rng.permutation(n)
        losses = []
        for s in range(0, n, batch_size):
            idx = order[s : s + batch_size]
            try:
                logits, cache = ann_forward(spec, weights, images[idx], train=True, rng=rng)
                loss, dlogits = softmax_cross_entropy(logits, labels[idx])
            except NumericalError as exc:
                raise TrainingError(f"ANN training diverged at epoch {epoch}: {exc}") from exc
            if not math.isfinite(loss):
                raise TrainingError(f"ANN training diverged at epoch {epoch}: loss={loss}")
            grads = ann_backward(spec, weights, cache, dlogits)
            for w, g, v in zip(weights, grads, velocity):
                v *= momentum
                v += g
                w -= lr * v
            losses.append(loss)
        history["loss"].append(float(np.mean(losses)))
    return weights, history


def percentile_nearest_rank(values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile of a sample: the ceil(p/100 * n)-th order statistic."""
    values = np.asarray(values).ravel()
    n = values.size
    if n == 0:
        raise CalibrationError("percentile of an empty sample")
    k = max(1, math.ceil(p / 100.0 * n))
    return float(np.partition(values, k - 1)[k - 1])


class _TopCollector:
    """Streaming keeper of the top-m values of a sample of known total size.

    The nearest-rank percentile at rank k equals the smallest of the largest
    m = n - k + 1 values, so only that many are held after each ``add``. The
    top-m multiset does not depend on the order the values arrive in.
    """

    def __init__(self, total_n: int, p: float):
        if total_n <= 0:
            raise CalibrationError("percentile collector needs a positive sample size")
        k = max(1, math.ceil(p / 100.0 * total_n))
        self.keep = total_n - k + 1
        self.total_n = total_n
        self.seen = 0
        self._top = np.empty(0, dtype=np.float32)

    def add(self, chunk: np.ndarray):
        chunk = np.asarray(chunk, dtype=np.float32).ravel()
        self.seen += chunk.size
        if self._top.size == self.keep:  # a value <= the kept minimum cannot enter; NaN still does
            chunk = chunk[~(chunk <= self._top.min())]
        merged = np.concatenate([self._top, chunk])
        if merged.size > self.keep:
            merged = np.partition(merged, merged.size - self.keep)[-self.keep :]
        self._top = merged

    def result(self) -> float:
        if self.seen != self.total_n:
            raise ContractViolation(f"collector saw {self.seen} values, expected {self.total_n}")
        return float(self._top.min())


class _BitTrain:
    """One chunk's spike train, held at one bit per neuron and step."""

    def __init__(self):
        self.rows = []

    def append(self, spikes: np.ndarray):
        self.shape, self.dtype = spikes.shape, spikes.dtype
        self.rows.append(np.packbits(spikes != 0, axis=None))

    def __getitem__(self, t: int) -> np.ndarray:
        bits = np.unpackbits(self.rows[t], count=math.prod(self.shape))
        return bits.reshape(self.shape).astype(self.dtype)


def calibrate_thresholds(weights: list, spec: NetworkSpec, sample_images: np.ndarray, cfg: CalibrationConfig):
    """Sequential front-to-back percentile calibration of per-layer thresholds.

    Layer l's threshold is the percentile of the input currents it receives
    while layers 0..l-1 run as standard multi-spike LIF neurons with their
    already-calibrated thresholds and unit leak, all driven by direct
    encoding for ``cfg.calib_timesteps`` steps. The sample is every image
    passed in; ``cfg.num_images`` is how many the caller draws.

    The layers are calibrated in one layer-major pass. Once layer l's
    threshold is known, one sweep over the sample runs its LIF neurons and
    feeds layer l+1's currents to that layer's percentile collector. The
    sweep recomputes layer l's currents from the spike train of layer l-1
    (layer 0's from the sample frame, once per chunk), so that train is the
    only thing held for the whole sample: one bit per neuron, image and
    step. The sweep builds layer l's train in its place, one 64-image chunk
    at a time; besides the trains, one chunk's neuron state, updated in place,
    and one step's currents are live.
    """
    stages = spec.stages
    counts = spec.neuron_counts()
    steps = cfg.calib_timesteps
    chunk = 64  # images simulated together
    frames = [sample_images[s : s + chunk] for s in range(0, len(sample_images), chunk)]

    def current(l, x):
        return network.input_current(stages[l], weights[l], network.apply_pre(stages[l], x, None))

    def collector(l):
        return _TopCollector(counts[l] * len(sample_images) * steps, cfg.percentile)

    top = collector(0)
    for frame in frames:
        drive = current(0, frame)
        for _ in range(steps):
            top.add(drive)
    trains = []  # per chunk, the spike train of the layer below the one being run
    thresholds = []
    for l in range(len(stages)):
        value = top.result()
        if not value > 0:
            raise CalibrationError(
                f"layer {l} received a degenerate input distribution (percentile {value}); "
                "earlier layers may never spike"
            )
        thresholds.append(value)
        if l + 1 == len(stages):
            break
        params = LayerParams(weights[l], value, 1.0)
        top = collector(l + 1)
        below, trains = trains, []
        for frame in frames:
            train = below.pop(0) if l else None  # freed once this chunk has run
            drive = None if l else current(0, frame)  # layer 0 reads the same frame at every step
            state = NeuronState.zeros((len(frame),) + stages[l].out_shape)
            trains.append(_BitTrain())
            for t in range(steps):
                if l:
                    drive = current(l, train[t])
                state, spikes = lif_step(state, params, drive, out=state)
                trains[-1].append(spikes)
                top.add(current(l + 1, spikes))
    return thresholds


def convert(weights: list, thresholds: list, cfg: CalibrationConfig):
    """Copy ANN weights into spiking layers with scaled thresholds and unit leak."""
    if len(thresholds) != len(weights):
        raise ConfigurationError("one calibrated threshold per weighted layer is required")
    return [
        LayerParams(weights=w.copy(), threshold=cfg.scaling * v, leak=1.0)
        for w, v in zip(weights, thresholds)
    ]
