import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from snnkit import data, modelio
from snnkit.errors import IngestionError
from snnkit.neuron import LayerParams


class TestIdx:
    def test_image_round_trip(self, tmp_path, rng):
        images = rng.random((10, 1, 28, 28)).astype(np.float32)
        path = tmp_path / "imgs.idx3-ubyte"
        data.write_idx_images(path, images)
        back = data.read_idx_images(path)
        assert back.shape == (10, 1, 28, 28)
        assert back.min() >= 0.0 and back.max() <= 1.0
        np.testing.assert_allclose(back, np.round(images * 255) / 255, atol=1e-6)

    def test_label_round_trip(self, tmp_path):
        labels = np.array([0, 3, 9, 1], dtype=np.int64)
        path = tmp_path / "labels.idx1-ubyte"
        data.write_idx_labels(path, labels)
        np.testing.assert_array_equal(data.read_idx_labels(path), labels)

    def test_truncated_images_name_offset(self, tmp_path):
        path = tmp_path / "bad.idx3-ubyte"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 5, 28, 28))
            fh.write(b"\x00" * 100)
        with pytest.raises(IngestionError, match="byte offset"):
            data.read_idx_images(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx3-ubyte"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(IngestionError, match="magic"):
            data.read_idx_images(path)

    def test_declared_size_beyond_the_file_is_ingestion_error(self, tmp_path):
        path = tmp_path / "huge.idx3-ubyte"
        path.write_bytes(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 0xFFFFFFFF, 0xFFFFFFFF, 16) + b"\x00" * 8)
        with pytest.raises(IngestionError, match="pixel data at byte offset 16"):
            data.read_idx_images(path)

    def test_path_naming_a_directory_is_ingestion_error(self, tmp_path):
        with pytest.raises(IngestionError, match="cannot read IDX image file"):
            data.read_idx_images(tmp_path)
        with pytest.raises(IngestionError, match="cannot read IDX label file"):
            data.read_idx_labels(tmp_path)

    def test_labels_beyond_the_declared_count_are_rejected(self, tmp_path):
        path = tmp_path / "labels.idx1-ubyte"
        path.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 2) + bytes([1, 0, 2]))
        with pytest.raises(IngestionError, match="trailing bytes at byte offset 10"):
            data.read_idx_labels(path)

    def test_label_out_of_range_offset(self, tmp_path):
        path = tmp_path / "labels.idx1-ubyte"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">II", data.IDX_LABEL_MAGIC, 3))
            fh.write(bytes([1, 11, 2]))
        with pytest.raises(IngestionError, match="offset 9"):
            data.read_idx_labels(path, num_classes=10)


class TestCifarBinary:
    def test_parse_shapes(self, tmp_path, rng):
        n = 7
        records = np.zeros((n, data.CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] = np.arange(n) % 10
        records[:, 1:] = rng.integers(0, 256, size=(n, 3072))
        path = tmp_path / "batch.bin"
        path.write_bytes(records.tobytes())
        images, labels = data.read_cifar_binary([path])
        assert images.shape == (n, 3, 32, 32)
        np.testing.assert_array_equal(labels, np.arange(n) % 10)
        assert images.max() <= 1.0

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(b"\x00" * (data.CIFAR_RECORD_BYTES + 10))
        with pytest.raises(IngestionError, match="byte offset"):
            data.read_cifar_binary([path])

    def test_label_out_of_range(self, tmp_path):
        record = bytes([12]) + b"\x00" * 3072
        path = tmp_path / "batch.bin"
        path.write_bytes(record)
        with pytest.raises(IngestionError, match="out of range"):
            data.read_cifar_binary([path])

    def test_path_naming_a_directory_is_ingestion_error(self, tmp_path):
        with pytest.raises(IngestionError, match="cannot read CIFAR file"):
            data.read_cifar_binary([tmp_path])


def small_valid_inputs(directory):
    """One small valid byte string per binary format, each with the reader that parses it."""
    model_path = directory / "model.bin"
    modelio.save_params(
        model_path,
        [
            LayerParams(np.arange(6, dtype=np.float32).reshape(2, 3), 0.5, 1.0),
            LayerParams(np.ones((1, 1, 2, 2), dtype=np.float32), 0.25, 0.9),
        ],
    )
    return {
        "idx-images": (struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 2, 3, 3) + bytes(range(18)), data.read_idx_images),
        "idx-labels": (struct.pack(">II", data.IDX_LABEL_MAGIC, 3) + bytes([1, 0, 2]), data.read_idx_labels),
        "cifar": ((bytes([3]) + bytes(range(256)) * 12) * 2, lambda path: data.read_cifar_binary([path])),
        "model": (model_path.read_bytes(), modelio.load_params),
    }


@pytest.fixture(scope="module")
def corrupt_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corrupt")
    return directory, small_valid_inputs(directory)


# Model layout: 12-byte header, then layer 0's ndim (12), dims (16, 20),
# threshold (24) and leak (28). Leak 1.0 is 00 00 80 3f in little-endian.
@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["idx-images", "idx-labels", "cifar", "model"]),
    cut=st.booleans(),
    offset=st.integers(0, 2 * data.CIFAR_RECORD_BYTES),
    bit=st.integers(0, 7),
)
@example(kind="model", cut=False, offset=27, bit=7)  # threshold 0.5 -> -0.5
@example(kind="model", cut=False, offset=28, bit=0)  # leak 1.0 -> just above 1
@example(kind="model", cut=False, offset=15, bit=6)  # ndim 2 -> 0x40000002
@example(kind="model", cut=False, offset=12, bit=2)  # ndim 2 -> 6: dims (2, 3, 0, 0x3f000000, 0, ...)
def test_cut_or_bit_flipped_input_parses_or_is_ingestion_error(corrupt_dir, kind, cut, offset, bit):
    directory, inputs = corrupt_dir
    blob, reader = inputs[kind]
    offset %= len(blob)
    if cut:
        blob = blob[:offset]
    else:
        blob = blob[:offset] + bytes([blob[offset] ^ (1 << bit)]) + blob[offset + 1 :]
    path = directory / f"{kind}.bin"
    path.write_bytes(blob)
    try:
        reader(path)
    except IngestionError:
        pass


class TestNormalization:
    def test_pixel_255_maps_through_channel_stats(self, tmp_path):
        images01 = np.zeros((4, 1, 2, 2), dtype=np.float32)
        images01[0, 0, 0, 0] = 1.0  # pixel byte 255
        labels = np.zeros(4, dtype=np.int64)
        ds = data.normalize_dataset(images01, labels, images01.copy(), labels.copy())
        mean = images01.mean()
        std = images01.std()
        expected = (1.0 - mean) / std
        assert ds.train_images[0, 0, 0, 0] == pytest.approx(expected, rel=1e-5)

    def test_statistics_come_from_train_split(self, rng):
        train = rng.random((10, 1, 4, 4)).astype(np.float32)
        test = rng.random((5, 1, 4, 4)).astype(np.float32) + 5.0
        ds = data.normalize_dataset(train, np.zeros(10, np.int64), test, np.zeros(5, np.int64))
        assert ds.channel_mean[0] == pytest.approx(train.mean(), rel=1e-5)
        assert abs(ds.train_images.mean()) < 1e-5
        assert ds.test_images.mean() > 1.0  # shifted split stays shifted


class TestSyntheticDigits:
    def test_deterministic(self):
        a = data.synthetic_digits(50, 20, seed=9)
        b = data.synthetic_digits(50, 20, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_shapes_and_balance(self):
        tr_x, tr_y, te_x, te_y = data.synthetic_digits(100, 40, seed=1)
        assert tr_x.shape == (100, 1, 28, 28)
        assert te_x.shape == (40, 1, 28, 28)
        assert set(np.bincount(tr_y, minlength=10)) == {10}
        assert set(np.bincount(te_y, minlength=10)) == {4}
        assert tr_x.min() >= 0.0 and tr_x.max() <= 1.0

    def test_idx_materialization(self, tmp_path):
        paths = data.write_synthetic_idx(tmp_path / "ds", 30, 10, seed=2)
        images = data.read_idx_images(paths["train_images"])
        labels = data.read_idx_labels(paths["train_labels"])
        assert images.shape == (30, 1, 28, 28)
        assert labels.shape == (30,)
