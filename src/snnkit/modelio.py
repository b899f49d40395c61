"""Binary container for layer parameters.

Layout (little-endian): magic "SNNP", u32 version, u32 layer count, then per
layer a u32 ndim, u32 dims, float32 threshold, float32 leak, and the raw
float32 weight bytes in row-major order. Round-trips are bit-exact.
Artifacts are written through ``atomic_write``, so a reader never sees a
half-written file.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .data import open_input, read_exact, require_end
from .errors import ConfigurationError, IngestionError
from .neuron import LayerParams

MAGIC = b"SNNP"
VERSION = 1


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temp file beside ``path`` that replaces ``path`` only when the block completes.

    If the block raises, the temp file is removed and any earlier file at
    ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_params(path, params: list):
    for i, p in enumerate(params):  # a threshold that float32 rounds to 0 or inf would not load back
        with np.errstate(over="ignore"):
            stored = np.float32(p.threshold)
        if not 0 < stored < np.inf:
            raise ConfigurationError(f"cannot write {path}: layer {i}'s threshold {p.threshold} is {stored} in float32")
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for p in params:
            w = np.ascontiguousarray(p.weights, dtype=np.float32)
            fh.write(struct.pack("<I", w.ndim))
            fh.write(struct.pack(f"<{w.ndim}I", *w.shape))
            fh.write(struct.pack("<ff", np.float32(p.threshold), np.float32(p.leak)))
            fh.write(w.tobytes())


def load_params(path) -> list:
    with open_input(path, "model file") as fh:
        magic = read_exact(fh, 4, path, "magic")
        if magic != MAGIC:
            raise IngestionError(f"{path}: bad model magic {magic!r} at byte offset 0")
        version, count = struct.unpack("<II", read_exact(fh, 8, path, "header"))
        if version != VERSION:
            raise IngestionError(f"{path}: unsupported model version {version}")
        params = []
        for _ in range(count):
            ndim = struct.unpack("<I", read_exact(fh, 4, path, "ndim"))[0]
            shape = struct.unpack(f"<{ndim}I", read_exact(fh, 4 * ndim, path, "shape"))
            if 0 in shape:  # numpy refuses a zero-sized shape whose other dims overflow
                raise IngestionError(f"{path}: layer {len(params)} has an empty weight shape {shape}")
            threshold, leak = struct.unpack("<ff", read_exact(fh, 8, path, "scalars"))
            raw = read_exact(fh, 4 * math.prod(shape), path, "weights")
            weights = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
            try:
                params.append(LayerParams(weights=weights, threshold=float(threshold), leak=float(leak)))
            except ConfigurationError as exc:  # a threshold or leak out of range
                raise IngestionError(f"{path}: layer {len(params)}: {exc}") from exc
        require_end(fh, path)
    return params
