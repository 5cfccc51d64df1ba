"""Checkpoint serialization: bitwise round trips and corruption handling,
plus the strict/prefixed state-restore rules built on top of it."""

import struct

import numpy as np
import pytest

from fusionlab.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from fusionlab.encoder import DESK, build_encoder
from fusionlab.params import Module, load_state, state_dict


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "enc/w": rng.normal(size=(3, 4)).astype(np.float32),
        "enc/b": rng.normal(size=4),  # float64
        "scalarish": np.array(2.5, dtype=np.float32),
        "deep/nested/name": rng.normal(size=(2, 2, 2)).astype(np.float32),
    }


def test_round_trip_is_bitwise(tmp_path):
    path = tmp_path / "model.ffck"
    tensors = sample_tensors()
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(tensors)  # order preserved
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "x.ffck", {"a": np.zeros(3, dtype=np.int64)})


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ffck"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = tmp_path / "x.ffck"
    path.write_bytes(MAGIC + struct.pack("<I", 99) + struct.pack("<I", 0))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "x.ffck"
    save_checkpoint(path, sample_tensors())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_trailing_garbage_detected(tmp_path):
    path = tmp_path / "x.ffck"
    save_checkpoint(path, sample_tensors())
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_duplicate_names_detected(tmp_path):
    path = tmp_path / "x.ffck"
    save_checkpoint(path, {"a": np.zeros(2, dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    # bump the declared count and replay the single record twice
    record = blob[12:]
    blob[8:12] = struct.pack("<I", 2)
    path.write_bytes(bytes(blob) + bytes(record))
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(path)


def test_encoder_state_round_trip_is_bitwise(tmp_path):
    enc = build_encoder(DESK, seed=3)
    path = tmp_path / "enc.ffck"
    save_checkpoint(path, state_dict(enc))
    fresh = build_encoder(DESK, seed=4)
    loaded = load_state(fresh, load_checkpoint(path))
    assert loaded == len(fresh.parameters())
    for name, p in fresh.parameters().items():
        assert p.value.data.tobytes() == enc.parameters()[name].value.data.tobytes()


class _Pair(Module):
    def __init__(self):
        super().__init__()
        self.w = self.param("w", np.ones((2, 2)))
        self.b = self.param("b", np.zeros(2))


def test_load_state_strict_coverage():
    m = _Pair()
    with pytest.raises(KeyError):
        load_state(m, {"w": np.ones((2, 2))})  # missing b
    with pytest.raises(KeyError):
        load_state(m, {"w": np.ones((2, 2)), "b": np.zeros(2), "extra": np.zeros(1)})
    with pytest.raises(ValueError):
        load_state(m, {"w": np.ones((2, 3)), "b": np.zeros(2)})


def test_load_state_prefix_selects_submodule_keys():
    m = _Pair()
    state = {
        "encoder/w": np.full((2, 2), 7.0),
        "encoder/b": np.full(2, 3.0),
        "head/w": np.zeros((5, 5)),  # outside the prefix: ignored
    }
    assert load_state(m, state, prefix="encoder") == 2
    np.testing.assert_array_equal(m.w.value.data, np.full((2, 2), 7.0))


def test_load_state_casts_to_parameter_dtype():
    enc = build_encoder(DESK, seed=0)
    state = {k: v.astype(np.float64) for k, v in state_dict(enc).items()}
    fresh = build_encoder(DESK, seed=1)
    load_state(fresh, state)
    assert all(p.value.dtype == np.float32 for p in fresh.parameters().values())


def test_failed_write_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    from pathlib import Path

    path = tmp_path / "checkpoint.ffck"
    save_checkpoint(path, sample_tensors())
    before = path.read_bytes()

    def torn_write(self, data):
        with open(self, "wb") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"other": np.ones(64, dtype=np.float32)})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.ffck"]

    fresh = tmp_path / "fresh" / "checkpoint.ffck"
    fresh.parent.mkdir()
    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(OSError):
        save_checkpoint(fresh, sample_tensors())
    monkeypatch.undo()
    assert list(fresh.parent.iterdir()) == []
