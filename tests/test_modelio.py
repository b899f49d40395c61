import struct

import numpy as np
import pytest

from snnkit import modelio
from snnkit.errors import IngestionError
from snnkit.neuron import LayerParams


def sample_params(rng):
    return [
        LayerParams(rng.normal(size=(4, 1, 3, 3)).astype(np.float32), 1.25, 0.9),
        LayerParams(rng.normal(size=(5, 16)).astype(np.float32), 0.4, 1.0),
    ]


def test_round_trip_is_bit_exact(tmp_path, rng):
    params = sample_params(rng)
    path = tmp_path / "model.bin"
    modelio.save_params(path, params)
    back = modelio.load_params(path)
    assert len(back) == 2
    for a, b in zip(params, back):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.weights.shape == b.weights.shape
        assert np.float32(a.threshold) == np.float32(b.threshold)
        assert np.float32(a.leak) == np.float32(b.leak)


def test_save_load_save_is_identical(tmp_path, rng):
    params = sample_params(rng)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    modelio.save_params(p1, params)
    modelio.save_params(p2, modelio.load_params(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(IngestionError, match="magic"):
        modelio.load_params(path)


def test_truncation_names_offset(tmp_path, rng):
    params = sample_params(rng)
    path = tmp_path / "model.bin"
    modelio.save_params(path, params)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(IngestionError, match="byte offset"):
        modelio.load_params(path)


def one_layer_model(ndim, dims, threshold=0.5, leak=1.0, payload=b""):
    header = modelio.MAGIC + struct.pack("<II", modelio.VERSION, 1)
    layer = struct.pack(f"<I{len(dims)}Iff", ndim, *dims, threshold, leak)
    return header + layer + payload


@pytest.mark.parametrize(
    "blob,message",
    [
        (one_layer_model(0x7FFFFFFF, ()), "shape"),
        (one_layer_model(2, (0xFFFFFFFF, 0xFFFFFFFF), payload=bytes(16)), "weights"),
        (one_layer_model(2, (0xFFFFFFFF, 2), payload=bytes(16)), "weights"),
        (one_layer_model(1, (2,), threshold=-0.5, payload=bytes(8)), "threshold must be positive"),
        (one_layer_model(1, (2,), threshold=float("inf"), payload=bytes(8)), "threshold must be positive and finite"),
        (one_layer_model(1, (2,), leak=1.5, payload=bytes(8)), "leak must lie"),
    ],
    ids=["ndim", "dims-overflow", "dims-huge", "negative-threshold", "infinite-threshold", "leak-above-1"],
)
def test_corrupt_header_is_ingestion_error(tmp_path, blob, message):
    path = tmp_path / "model.bin"
    path.write_bytes(blob)
    with pytest.raises(IngestionError, match=message):
        modelio.load_params(path)


def test_trailing_garbage_rejected(tmp_path, rng):
    path = tmp_path / "model.bin"
    modelio.save_params(path, sample_params(rng))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(IngestionError, match="trailing"):
        modelio.load_params(path)


def test_failed_save_keeps_the_earlier_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "model.bin"
    modelio.save_params(path, sample_params(rng))
    before = path.read_bytes()
    real_pack = modelio.struct.pack
    calls = []

    def pack_then_fail(*args):
        calls.append(args)
        if len(calls) == 4:
            raise OSError("disk full")
        return real_pack(*args)

    monkeypatch.setattr(modelio.struct, "pack", pack_then_fail)
    with pytest.raises(OSError, match="disk full"):
        modelio.save_params(path, sample_params(rng))
    assert len(calls) == 4
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]
