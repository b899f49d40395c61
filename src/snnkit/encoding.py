"""Pixel-to-spike input encoders: hybrid single-spike, direct, and Poisson rate.

The hybrid scheme presents the analog frame at timestep 1 and a one-spike-per-
pixel raster over timesteps 2..T, with brighter pixels spiking earlier. Direct
encoding reapplies the analog frame as input current at every timestep. Rate
encoding draws independent Bernoulli spikes with per-pixel probability equal
to the [0,1] intensity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EncodingError

HYBRID = "hybrid"
DIRECT = "direct"
RATE = "rate"
ENCODERS = (HYBRID, DIRECT, RATE)
# Encodings whose first layer reads the analog frame, charged as one dense MAC pass.
ANALOG_INPUT = (HYBRID, DIRECT)


@dataclass(frozen=True)
class IntensityRange:
    """Dataset-wide intensity bounds used by the hybrid firing-time map."""

    i_min: float
    i_max: float

    def __post_init__(self):
        if self.i_max < self.i_min:
            raise EncodingError(f"intensity range has i_max {self.i_max} < i_min {self.i_min}")

    @classmethod
    def from_images(cls, images) -> "IntensityRange":
        """Bounds over an image collection (computed after normalization)."""
        arr = np.asarray(images)
        return cls(float(arr.min()), float(arr.max()))


@dataclass
class SpikeInputSequence:
    """Per-sample network input over T timesteps.

    ``spikes`` is indexed by timestep-1 and holds binary values; hybrid mode
    leaves the t=1 slice empty because that step carries the analog frame.
    Arrays may carry a leading batch axis; the encoders are elementwise so a
    stack of images encodes exactly like each image separately.
    """

    mode: str
    total_timesteps: int
    analog_frame: np.ndarray | None = None
    spikes: np.ndarray | None = None

    @property
    def analog_steps(self) -> range:
        """Timesteps that present the analog frame: t=1 for hybrid, every t for direct, none for rate."""
        if self.mode not in ANALOG_INPUT:
            return range(0)
        last = self.total_timesteps if self.mode == DIRECT else 1
        return range(1, last + 1)

    @property
    def pixel_shape(self) -> tuple:
        if self.analog_frame is not None:
            return self.analog_frame.shape
        return self.spikes.shape[1:]

    def input_at(self, t: int) -> np.ndarray:
        """Input current presented to the first layer at timestep t (1-based)."""
        if not 1 <= t <= self.total_timesteps:
            raise EncodingError(f"timestep {t} outside [1, {self.total_timesteps}]")
        return self.analog_frame if t in self.analog_steps else self.spikes[t - 1]


def _firing_times(intensity: np.ndarray, rng: IntensityRange, total_timesteps: int) -> np.ndarray:
    if total_timesteps < 2:
        raise EncodingError(f"hybrid encoding needs at least 2 timesteps, got {total_timesteps}")
    if rng.i_max <= rng.i_min:
        raise EncodingError("degenerate intensity range: i_max == i_min; widen the range")
    t = float(total_timesteps)
    raw = t + (2.0 - t) / (rng.i_max - rng.i_min) * (np.asarray(intensity, dtype=np.float64) - rng.i_min)
    # nearest integer, halves rounded away from zero
    rounded = np.sign(raw) * np.floor(np.abs(raw) + 0.5)
    return np.clip(rounded, 2, total_timesteps).astype(np.int64)


def compute_firing_time(intensity: float, rng: IntensityRange, total_timesteps: int) -> int:
    """Spike time in [2, T] for one pixel; brighter pixels map to earlier steps."""
    return int(_firing_times(np.float64(intensity), rng, total_timesteps))


def encode_hybrid(image, intensity_range: IntensityRange, total_timesteps: int) -> SpikeInputSequence:
    """Analog frame at t=1 plus exactly one spike per pixel in t=2..T."""
    image = np.asarray(image)
    times = _firing_times(image, intensity_range, total_timesteps)
    spikes = np.zeros((total_timesteps,) + image.shape, dtype=image.dtype)
    for t in range(2, total_timesteps + 1):
        spikes[t - 1] = times == t
    return SpikeInputSequence(HYBRID, total_timesteps, analog_frame=image, spikes=spikes)


def encode_direct(image, total_timesteps: int) -> SpikeInputSequence:
    """Analog pixel values applied as input current at every timestep."""
    if total_timesteps < 1:
        raise EncodingError("direct encoding needs at least 1 timestep")
    return SpikeInputSequence(DIRECT, total_timesteps, analog_frame=np.asarray(image))


def encode_poisson_rate(image, total_timesteps: int, rng: np.random.Generator) -> SpikeInputSequence:
    """Bernoulli spike train with per-step probability equal to the intensity."""
    image = np.asarray(image)
    if image.size and (image.min() < 0.0 or image.max() > 1.0):
        raise EncodingError("rate encoding requires intensities in [0, 1]")
    dtype = image.dtype if image.dtype.kind == "f" else np.float32
    draws = rng.random((total_timesteps,) + image.shape)
    spikes = (draws < image).astype(dtype)
    return SpikeInputSequence(RATE, total_timesteps, spikes=spikes)
