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

    The nearest-rank percentile at rank k is the smallest of the largest
    m = n - k + 1 values, in any arrival order. Once m are kept, a value <=
    their minimum cannot enter; the others wait and merge in by m at a time
    (or when ``_top`` is read), so small chunks cost no more than large ones.
    With ``repeats`` = s, a value added stands for s equal ones: the result
    is the smallest of the largest (n - k) // s + 1 values added.
    """

    def __init__(self, total_n: int, p: float, repeats: int = 1):
        if total_n <= 0:
            raise CalibrationError("percentile collector needs a positive sample size")
        k = max(1, math.ceil(p / 100.0 * total_n))
        self.keep = (total_n - k) // repeats + 1
        self.total_n, self.repeats = total_n, repeats
        self.seen, self._waiting, self._waiting_n = 0, [], 0
        self._top = np.empty(0, dtype=np.float32)

    @property
    def _top(self) -> np.ndarray:  # the largest ``keep`` values added so far
        if self._waiting:
            self._merge()
        return self._kept

    @_top.setter
    def _top(self, values: np.ndarray):
        self._kept = values
        self._floor = values.min() if values.size == self.keep else None  # NaN once NaN is kept: nothing is skipped

    def _merge(self):
        merged = np.concatenate([self._kept, *self._waiting])
        self._waiting, self._waiting_n = [], 0
        self._top = merged if merged.size <= self.keep else np.partition(merged, merged.size - self.keep)[-self.keep :]

    def add(self, chunk: np.ndarray):
        chunk = np.asarray(chunk, dtype=np.float32).ravel()
        self.seen += chunk.size * self.repeats
        if self._floor is not None:  # a value <= the kept minimum cannot enter; NaN still does
            chunk = chunk[~(chunk <= self._floor)]
        self._waiting.append(chunk)
        self._waiting_n += chunk.size
        if self._waiting_n >= self.keep:
            self._merge()

    def result(self) -> float:
        if self.seen != self.total_n:
            raise ContractViolation(f"collector saw {self.seen} values, expected {self.total_n}")
        return float(self._top.min())


def calibrate_thresholds(weights: list, spec: NetworkSpec, sample_images: np.ndarray, cfg: CalibrationConfig):
    """Sequential front-to-back percentile calibration of per-layer thresholds.

    Layer l's threshold is the percentile of the input currents it receives
    while layers 0..l-1 run as standard multi-spike LIF neurons with their
    already-calibrated thresholds and unit leak, all driven by direct
    encoding for ``cfg.calib_timesteps`` steps. The sample is every image
    passed in; ``cfg.num_images`` is how many the caller draws.

    The layers are calibrated in one layer-major pass over the blocks of
    ``network.forward``: once layer l's threshold is known, one sweep runs
    its LIF neurons (a conv layer one ``network.conv_blocks`` block at a time
    through all steps) and feeds layer l+1's currents, fc ones on the whole
    sample, to its collector. Each sweep recomputes its currents from the
    lower layer's spike train (layer 0's from the frame, once per block),
    and that train, one bit per neuron, image and step, is all it holds.
    """
    stages = spec.stages
    counts = spec.neuron_counts()
    steps = cfg.calib_timesteps
    n = len(sample_images)
    split, blocks = network.conv_blocks(spec, n, weights[0].dtype)

    def current(l, x):
        return network.input_current(stages[l], weights[l], network.apply_pre(stages[l], x, None))

    def unpack(trains, l, t):
        """Step t of layer l's spike train, held as one block of bits per entry of ``trains``, as one array."""
        bits = np.concatenate([train[t] for train in trains])
        spikes = np.unpackbits(bits, axis=1, count=counts[l]).reshape((len(bits),) + stages[l].out_shape)
        return spikes.astype(np.float32)  # the neuron state's dtype, and so its spikes'

    top = _TopCollector(counts[0] * n * steps, cfg.percentile, repeats=steps)
    for rows in blocks or [slice(0, n)]:
        top.add(current(0, sample_images[rows]))
    below = []  # per block, the spike train of the layer below the one being run
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
        top = _TopCollector(counts[l + 1] * n * steps, cfg.percentile)
        trains = []
        for rows in blocks if l < split else [slice(0, n)]:
            source, below = (below[:1], below[1:]) if l < split else (below, [])  # a conv layer reads its own block
            frame = None if l else current(0, sample_images[rows])  # layer 0 reads the same frame at every step
            state = NeuronState.zeros((rows.stop - rows.start,) + stages[l].out_shape)
            trains.append([])
            for t in range(steps):
                drive = current(l, unpack(source, l - 1, t)) if l else frame
                state, spikes = lif_step(state, params, drive, out=state)
                trains[-1].append(np.packbits(spikes.reshape(len(spikes), -1) != 0, axis=1))  # a row per image
                if l + 1 != split:
                    top.add(current(l + 1, spikes))
        if l + 1 == split:  # fc currents on the whole sample: a GEMM's rounding depends on its row count
            for t in range(steps):
                top.add(current(l + 1, unpack(trains, l, t)))
        below = trains
    return thresholds


def convert(weights: list, thresholds: list, cfg: CalibrationConfig):
    """Copy ANN weights into spiking layers with scaled thresholds and unit leak."""
    if len(thresholds) != len(weights):
        raise ConfigurationError("one calibrated threshold per weighted layer is required")
    return [
        LayerParams(weights=w.copy(), threshold=cfg.scaling * v, leak=1.0)
        for w, v in zip(weights, thresholds)
    ]
