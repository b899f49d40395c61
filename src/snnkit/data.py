"""Dataset ingestion and the synthetic desk-scale digit corpus.

Readers cover the IDX binary format (big-endian, magic 0x00000803 for image
tensors and 0x00000801 for label vectors) and the CIFAR-10 binary format
(records of one label byte plus 3072 pixel bytes). Images come out as
float32 in [0,1]; per-channel standardization statistics are computed on the
training split and applied to both splits. The synthetic generator renders
jittered 5x7-font digit glyphs so the full pipeline can be exercised without
any external download.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import IngestionError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073


@dataclass
class Dataset:
    """Both splits in raw [0,1] and standardized form, plus the statistics."""

    train_images01: np.ndarray
    train_labels: np.ndarray
    test_images01: np.ndarray
    test_labels: np.ndarray
    channel_mean: np.ndarray
    channel_std: np.ndarray
    train_images: np.ndarray = None
    test_images: np.ndarray = None

    def __post_init__(self):
        mean = self.channel_mean.reshape(1, -1, 1, 1)
        std = self.channel_std.reshape(1, -1, 1, 1)
        if self.train_images is None:
            self.train_images = ((self.train_images01 - mean) / std).astype(np.float32)
        if self.test_images is None:
            self.test_images = ((self.test_images01 - mean) / std).astype(np.float32)


def normalize_dataset(train01, train_labels, test01, test_labels) -> Dataset:
    mean = train01.mean(axis=(0, 2, 3))
    std = np.maximum(train01.std(axis=(0, 2, 3)), 1e-8)
    return Dataset(
        train_images01=train01,
        train_labels=train_labels,
        test_images01=test01,
        test_labels=test_labels,
        channel_mean=mean.astype(np.float32),
        channel_std=std.astype(np.float32),
    )


def open_input(path, what: str):
    """Open ``path`` for binary reading; a directory or an unreadable path is an IngestionError."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read {what}: {exc.strerror or exc}") from exc


def read_exact(fh, count, path, what):
    """Read ``count`` bytes, after checking that the file still holds that many.

    Checking first keeps a corrupt size field from asking for a huge read.
    """
    offset = fh.tell()
    left = os.fstat(fh.fileno()).st_size - offset
    if count > left:
        raise IngestionError(
            f"{path}: truncated while reading {what} at byte offset {offset} ({count} bytes declared, {left} left)"
        )
    return fh.read(count)


def require_end(fh, path):
    """Reject bytes after the last field a header declared."""
    if fh.read(1):
        raise IngestionError(f"{path}: trailing bytes at byte offset {fh.tell() - 1}")


def read_idx_images(path) -> np.ndarray:
    """Parse an IDX image tensor into float32 [N,1,rows,cols] scaled to [0,1]."""
    with open_input(path, "IDX image file") as fh:
        magic = struct.unpack(">I", read_exact(fh, 4, path, "magic"))[0]
        if magic != IDX_IMAGE_MAGIC:
            raise IngestionError(f"{path}: bad image magic 0x{magic:08x} at byte offset 0")
        n, rows, cols = struct.unpack(">III", read_exact(fh, 12, path, "dimensions"))
        raw = read_exact(fh, n * rows * cols, path, "pixel data")
        require_end(fh, path)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, rows, cols)
    return pixels.astype(np.float32) / 255.0


def read_idx_labels(path, num_classes: int = 10) -> np.ndarray:
    with open_input(path, "IDX label file") as fh:
        magic = struct.unpack(">I", read_exact(fh, 4, path, "magic"))[0]
        if magic != IDX_LABEL_MAGIC:
            raise IngestionError(f"{path}: bad label magic 0x{magic:08x} at byte offset 0")
        n = struct.unpack(">I", read_exact(fh, 4, path, "count"))[0]
        raw = read_exact(fh, n, path, "labels")
        require_end(fh, path)
    labels = np.frombuffer(raw, dtype=np.uint8)
    bad = np.nonzero(labels >= num_classes)[0]
    if bad.size:
        raise IngestionError(
            f"{path}: label {labels[bad[0]]} out of range at byte offset {8 + int(bad[0])}"
        )
    return labels.astype(np.int64)


def write_idx_images(path, images01: np.ndarray):
    """Inverse of read_idx_images, for building desk datasets and fixtures."""
    n, _, rows, cols = images01.shape
    pixels = np.clip(np.round(images01 * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())


def write_idx_labels(path, labels: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def read_cifar_binary(paths, num_classes: int = 10):
    """Parse one or more CIFAR-10 binary files into ([N,3,32,32], labels)."""
    images = []
    labels = []
    for path in paths:
        with open_input(path, "CIFAR file") as fh:
            raw = fh.read()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES:
            raise IngestionError(
                f"{path}: size {len(raw)} is not a whole number of {CIFAR_RECORD_BYTES}-byte "
                f"records; truncated at byte offset {len(raw) - len(raw) % CIFAR_RECORD_BYTES}"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        lab = records[:, 0]
        bad = np.nonzero(lab >= num_classes)[0]
        if bad.size:
            raise IngestionError(
                f"{path}: label {lab[bad[0]]} out of range at byte offset "
                f"{int(bad[0]) * CIFAR_RECORD_BYTES}"
            )
        images.append(records[:, 1:].reshape(-1, 3, 32, 32))
        labels.append(lab.astype(np.int64))
    return np.concatenate(images).astype(np.float32) / 255.0, np.concatenate(labels)


# 5x7 digit glyphs for the synthetic corpus.
_GLYPHS = [
    ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
]


# Glyph pixels are 4x4 blocks, 4% of them drop out, and the background noise is uniform in [0, 0.08).
_SCALE, _GLYPH_DROPOUT, _NOISE = 4, 0.04, 0.08


def _glyph_masks() -> np.ndarray:
    masks = np.zeros((10, 7 * _SCALE, 5 * _SCALE), dtype=np.float32)
    for digit, rows in enumerate(_GLYPHS):
        coarse = np.array([[c == "1" for c in row] for row in rows], dtype=np.float32)
        masks[digit] = np.kron(coarse, np.ones((_SCALE, _SCALE), dtype=np.float32))
    return masks


def synthetic_digits(n_train: int, n_test: int, seed: int, size: int = 28):
    """Deterministic digit-classification corpus of jittered glyph renderings.

    Each sample places a scaled 5x7 digit glyph at a random offset in a
    ``size`` x ``size`` image, with intensity jitter, random glyph-pixel
    dropout, and background noise. Classes cycle round-robin so both splits
    stay balanced.
    """
    rng = np.random.default_rng(seed)
    masks = _glyph_masks()
    gh, gw = masks.shape[1:]
    if gh > size or gw > size:
        raise IngestionError(f"glyph {gh}x{gw} does not fit into a {size}x{size} image")

    def render(n, offset):
        images = np.zeros((n, 1, size, size), dtype=np.float32)
        labels = (np.arange(n) + offset) % 10
        for i in range(n):
            digit = labels[i]
            glyph = masks[digit] * (rng.random((gh, gw)) >= _GLYPH_DROPOUT)
            base = rng.uniform(0.6, 0.95)
            glyph = glyph * (base + rng.uniform(-0.06, 0.06, size=(gh, gw)))
            top = rng.integers(0, size - gh + 1)
            left = rng.integers(0, size - gw + 1)
            canvas = rng.uniform(0.0, _NOISE, size=(size, size)).astype(np.float32)
            region = canvas[top : top + gh, left : left + gw]
            canvas[top : top + gh, left : left + gw] = np.maximum(region, glyph)
            images[i, 0] = np.clip(canvas, 0.0, 1.0)
        perm = rng.permutation(n)
        return images[perm], labels[perm].astype(np.int64)

    train_images, train_labels = render(n_train, 0)
    test_images, test_labels = render(n_test, 3)
    return train_images, train_labels, test_images, test_labels


def write_synthetic_idx(directory, n_train: int, n_test: int, seed: int):
    """Materialize the synthetic corpus as the four standard IDX files."""
    os.makedirs(directory, exist_ok=True)
    tr_x, tr_y, te_x, te_y = synthetic_digits(n_train, n_test, seed)
    paths = {
        "train_images": os.path.join(directory, "train-images.idx3-ubyte"),
        "train_labels": os.path.join(directory, "train-labels.idx1-ubyte"),
        "test_images": os.path.join(directory, "test-images.idx3-ubyte"),
        "test_labels": os.path.join(directory, "test-labels.idx1-ubyte"),
    }
    write_idx_images(paths["train_images"], tr_x)
    write_idx_labels(paths["train_labels"], tr_y)
    write_idx_images(paths["test_images"], te_x)
    write_idx_labels(paths["test_labels"], te_y)
    return paths
