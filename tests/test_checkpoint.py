"""Unit tests for checkpoint serialization, hashing and integrity checks."""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_ENTRY = st.fixed_dictionaries(
    {}, optional={"name": _VALUE, "shape": _VALUE | st.lists(st.integers(-2, 5), max_size=3),
                  "offset": _VALUE | st.integers(-16, 64)}
)


def _with_valid_hash(entries, meta, payload: bytes) -> bytes:
    """A header whose payload size and SHA-256 hold, so the entries reach the parser."""
    header = {"params": entries, "meta": meta, "payload_bytes": len(payload),
              "payload_sha256": hashlib.sha256(payload).hexdigest()}
    return json.dumps(header).encode() + b"\n" + payload


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=80),
    st.builds(_with_valid_hash, st.lists(_ENTRY, max_size=3) | _VALUE, _VALUE, st.binary(max_size=48)),
))
@example(b"[" * 100_000)
@example(b"1" * 5_000)
@example(_with_valid_hash([{"name": "w", "shape": [float("inf")], "offset": 0}], {}, b""))
def test_any_checkpoint_bytes_give_params_or_a_checkpoint_error(raw):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.ckpt"
        path.write_bytes(raw)
        try:
            params, _ = load_checkpoint(path)
        except CheckpointError:
            return
    assert all(np.all(np.isfinite(t.data)) for t in params.values())
