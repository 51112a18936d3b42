import errno
import json
import struct

import numpy as np
import pytest

from radl import checkpoint
from radl.checkpoint import MAGIC, load_tensors, save_tensors
from radl.cli import RunConfig, _load_checkpoint, _save_checkpoint
from radl.errors import MalformedDoc
from radl.pipeline import init_denoiser, params_to_dict


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.w": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7),
        "scalar": np.array(1.25),
    }
    path = tmp_path / "t.ckpt"
    save_tensors(path, tensors, {"step": 3})
    loaded, meta = load_tensors(path)
    assert meta == {"step": 3}
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        assert np.array_equal(loaded[name], tensors[name])


def test_header_layout(tmp_path):
    path = tmp_path / "t.ckpt"
    save_tensors(path, {"x": np.arange(6.0).reshape(2, 3)}, {})
    data = path.read_bytes()
    assert data[:5] == MAGIC == b"RADL1"
    (hlen,) = struct.unpack_from("<Q", data, 5)
    header = json.loads(data[13 : 13 + hlen].decode("utf-8"))
    info = header["tensors"]["x"]
    assert info["shape"] == [2, 3]
    assert info["offset"] == 0
    # payload is little-endian float64, C order
    payload = np.frombuffer(data[13 + hlen :], dtype="<f8")
    assert np.array_equal(payload, np.arange(6.0))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE1" + b"\x00" * 32)
    with pytest.raises(MalformedDoc, match="magic"):
        load_tensors(path)


def test_denoiser_params_round_trip(tmp_path):
    params = init_denoiser(3, d=8, image_size=16, t_train=20)
    path = tmp_path / "model.ckpt"
    cfg = RunConfig(d=8, image_size=16, t_train=20)
    _save_checkpoint(path, params, 0, cfg)
    restored, _, _, _ = _load_checkpoint(path, cfg)
    orig = params_to_dict(params)
    back = params_to_dict(restored)
    assert set(orig) == set(back)
    for name in orig:
        assert np.array_equal(orig[name], back[name]), name


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_tensors(path, {"x": np.arange(6.0)}, {})
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(MalformedDoc, match="outside the payload"):
        load_tensors(path)


@pytest.mark.parametrize("damage, message", [
    ("no_tensor", "enc1.w"),
    ("no_meta_key", "t_train"),
    ("schema", "schema"),
])
def test_loader_rejects_incomplete_checkpoint(tmp_path, damage, message):
    path = tmp_path / "model.ckpt"
    _save_checkpoint(path, init_denoiser(0, d=4, image_size=8, t_train=12), 0, RunConfig())
    tensors, meta = load_tensors(path)
    if damage == "no_tensor":
        del tensors["enc1.w"]
    elif damage == "no_meta_key":
        del meta["t_train"]
    else:
        del meta["schema"]
    save_tensors(path, tensors, meta)
    with pytest.raises(MalformedDoc, match=message):
        _load_checkpoint(path, RunConfig(d=4, image_size=8, t_train=12))


def test_failed_write_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    # `radl --resume x.ckpt train` whose checkpoint is x.ckpt overwrites the
    # only copy of its state: a write that fails part way must leave it whole
    path = tmp_path / "model.ckpt"
    save_tensors(path, {"x": np.arange(4.0)}, {"step": 1})

    class FullDisk:
        """A file whose writes fail once 100 bytes are in."""

        def __init__(self, fh):
            self.fh, self.written = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.written += len(data)
            if self.written > 100:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(checkpoint, "open", lambda p, mode: FullDisk(open(p, mode)), raising=False)
    with pytest.raises(OSError):
        save_tensors(path, {"x": np.arange(400.0)}, {"step": 2})
    monkeypatch.undo()
    tensors, meta = load_tensors(path)
    assert meta == {"step": 1}
    assert np.array_equal(tensors["x"], np.arange(4.0))
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
