"""Unit tests for checkpoint serialization, hashing and integrity checks."""

import hashlib
import json

import numpy as np
import pytest

from xopd_lab.autodiff import Tensor
from xopd_lab.checkpoint import load_checkpoint, params_hash, save_checkpoint
from xopd_lab.errors import CheckpointError


def checkpoint_hash(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def params():
    rng = np.random.default_rng(0)
    return {
        "w": Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True),
        "b": Tensor(rng.normal(0, 1, (4,)), requires_grad=True),
        "scalar": Tensor(np.asarray(2.5), requires_grad=True),
    }


def test_round_trip_exact(params, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, meta={"kind": "test", "step": 7})
    back, meta = load_checkpoint(path)
    assert meta == {"kind": "test", "step": 7}
    assert set(back) == set(params)
    for name, p in params.items():
        np.testing.assert_array_equal(back[name].data, p.data)
        assert back[name].data.dtype == np.float64


def test_save_is_byte_deterministic(params, tmp_path):
    save_checkpoint(tmp_path / "a.ckpt", params)
    save_checkpoint(tmp_path / "b.ckpt", params)
    assert checkpoint_hash(tmp_path / "a.ckpt") == checkpoint_hash(tmp_path / "b.ckpt")


def test_hash_independent_of_insertion_order(params, tmp_path):
    reordered = dict(reversed(list(params.items())))
    save_checkpoint(tmp_path / "a.ckpt", params)
    save_checkpoint(tmp_path / "b.ckpt", reordered)
    assert checkpoint_hash(tmp_path / "a.ckpt") == checkpoint_hash(tmp_path / "b.ckpt")
    assert params_hash(params) == params_hash(reordered)


def test_params_hash_sensitive_to_values_and_names(params):
    h0 = params_hash(params)
    bumped = dict(params, w=Tensor(params["w"].data + 1e-12))
    assert params_hash(bumped) != h0
    renamed = {("w2" if k == "w" else k): v for k, v in params.items()}
    assert params_hash(renamed) != h0


def test_loaded_params_are_independent_copies(params, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params)
    back, _ = load_checkpoint(path)
    back["w"].data[0, 0] += 1.0  # must not raise (writable) ...
    again, _ = load_checkpoint(path)
    np.testing.assert_array_equal(again["w"].data, params["w"].data)  # ... or persist


def _saved(params, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, meta={"kind": "test"})
    return path


def test_header_records_payload_size_and_hash(params, tmp_path):
    path = _saved(params, tmp_path)
    raw = path.read_bytes()
    header_line, payload = raw.split(b"\n", 1)
    header = json.loads(header_line)
    assert header["payload_bytes"] == len(payload) == sum(p.data.size * 8 for p in params.values())
    assert header["payload_sha256"] == hashlib.sha256(payload).hexdigest()


def test_truncated_file_is_rejected(params, tmp_path):
    path = _saved(params, tmp_path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckpointError, match="bytes"):
        load_checkpoint(path)


def test_garbage_file_is_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(bytes(range(256)) * 4)
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(path)


def test_flipped_payload_byte_is_rejected(params, tmp_path):
    path = _saved(params, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="SHA-256"):
        load_checkpoint(path)


def test_header_without_integrity_fields_is_rejected(params, tmp_path):
    path = _saved(params, tmp_path)
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    del header["payload_sha256"]
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_is_rejected_by_name(params, tmp_path, bad):
    # A valid hash does not make the weights usable: NaN or inf is refused on load.
    params["w"].data[1, 2] = bad
    path = _saved(params, tmp_path)
    with pytest.raises(CheckpointError, match="parameter w holds NaN or inf"):
        load_checkpoint(path)
