"""Unit tests for the synthetic paired corpus and the speech codec."""

import dataclasses
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from xopd_lab.corpus import (
    EOS,
    FAMILIES,
    LABEL_IDS,
    N_LABELS,
    TOKEN_TO_ID,
    VOCAB,
    PairedExample,
    SpeechCodec,
    build_dataset,
    decode_speech,
    encode_speech,
    encode_text,
    generate_task,
    load_dataset,
    pretraining_batch,
    save_dataset,
)
from xopd_lab.errors import (
    ConfigurationError,
    DataError,
    FramingError,
    GenerationQualityError,
    VocabError,
)

from oracles import naive_answer, naive_decode_speech, naive_read_label


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

def test_noiseless_round_trip_every_token():
    codec = SpeechCodec(noise_rate=0.0)
    ids = list(range(codec.text_vocab_size))
    frames = encode_speech(codec, ids)
    assert decode_speech(codec, frames) == ids


def test_patterns_pairwise_distinct_in_every_frame(codec):
    pats = codec._patterns
    V, F = pats.shape
    for i in range(V):
        agree = (pats == pats[i]).sum(axis=1)
        agree[i] = 0
        assert agree.max() == 0, f"token {i} shares a frame coordinate"


def test_single_corrupted_frame_always_recovers():
    codec = SpeechCodec(noise_rate=0.0)
    F, S = codec.frames_per_token, codec.speech_vocab_size
    rng = np.random.default_rng(0)
    for token in range(codec.text_vocab_size):
        frames = encode_speech(codec, [token])
        pos = int(rng.integers(0, F))
        frames[pos] = int(rng.integers(0, S))
        assert decode_speech(codec, frames) == [token]


def test_label_round_trip_without_noise():
    codec = SpeechCodec(noise_rate=0.0)
    text = encode_text(["label", "?", "3", "a", "7"])
    for label in range(N_LABELS):
        frames = encode_speech(codec, text, label=label)
        decoded = decode_speech(codec, frames)
        assert decoded == text
        assert naive_read_label(codec, frames, decoded) == label


def test_label_survives_default_noise_most_of_the_time(codec):
    rng = np.random.default_rng(1)
    text = encode_text(["label", "?", "1", "2", "3", "4", "5"])
    hits = sum(
        naive_read_label(codec, encode_speech(codec, text, label=2, rng=rng), text) == 2
        for _ in range(200)
    )
    assert hits >= 180


def test_noise_requires_rng(codec):
    with pytest.raises(DataError):
        encode_speech(SpeechCodec(noise_rate=0.1), [5, 6])


def test_decode_rejects_partial_frame_groups(codec):
    with pytest.raises(FramingError):
        decode_speech(codec, [1, 2])


def test_codec_validates_noise_rate_and_multipliers():
    with pytest.raises(ConfigurationError):
        SpeechCodec(noise_rate=1.5)
    # Every frame redrawn at random: the round-trip filter rejects nearly every example.
    with pytest.raises(ConfigurationError, match="noise_rate"):
        SpeechCodec(noise_rate=1.0)
    with pytest.raises(ConfigurationError, match="multiplier 5"):
        SpeechCodec(speech_vocab_size=65)  # 5 not invertible mod 65
    with pytest.raises(ConfigurationError, match="frames_per_token"):
        SpeechCodec(frames_per_token=4)  # only three (multiplier, offset) pairs


@st.composite
def _codec_and_frames(draw):
    """A noiseless codec of any allowed shape, a token list, an optional
    label and a list of (frame index, value) corruptions."""
    F = draw(st.integers(1, 3))
    V = draw(st.integers(2, 64))
    # Odd and not a multiple of 3 or 5, so every multiplier is invertible.
    S = draw(st.integers(V, 130).filter(lambda s: math.gcd(s, 30) == 1))
    codec = SpeechCodec(frames_per_token=F, speech_vocab_size=S, text_vocab_size=V, noise_rate=0.0)
    tokens = draw(st.lists(st.integers(0, V - 1), max_size=12))
    label = draw(st.none() | st.integers(0, N_LABELS - 1))
    n = len(tokens) * F
    hits = []
    if n:
        hits = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, S - 1)), max_size=n))
    return codec, tokens, label, hits


@settings(max_examples=300, deadline=None)
@given(_codec_and_frames())
def test_codec_matches_the_closed_form_and_the_naive_decoder(case):
    codec, tokens, label, hits = case
    F, S = codec.frames_per_token, codec.speech_vocab_size
    frames = encode_speech(codec, tokens, label=label)
    want = []
    for t in tokens:
        group = [(a * t + b) % S for a, b in zip(codec.multipliers, codec.offsets)]
        if label is not None:
            group[-1] = (group[-1] + 1 + label) % S
        want += group
    assert frames == want
    for i, value in hits:
        frames[i] = value
    assert decode_speech(codec, frames) == naive_decode_speech(codec, frames)


def test_codec_round_trips_through_manifest(codec):
    ds = build_dataset({"INSTRUCTION": (4, 2, 2)}, codec, seed=0)
    recorded = ds.manifest["codec"]
    settable = {f.name for f in dataclasses.fields(SpeechCodec)}
    assert SpeechCodec(**{k: v for k, v in recorded.items() if k in settable}) == codec
    # The frame code the codec derives is recorded too, for readers outside
    # the package.
    assert recorded["multipliers"] == list(codec.multipliers)
    assert recorded["offsets"] == list(codec.offsets)
    assert recorded["n_labels"] == codec.n_labels == N_LABELS


# ---------------------------------------------------------------------------
# Text vocab and task generators
# ---------------------------------------------------------------------------

def _tokens(ids: list[int]) -> list[str]:
    return [VOCAB[i] for i in ids]


def test_text_vocab_round_trip():
    toks = ["(", "3", "+", "4", ")", "mod", "5", "="]
    assert _tokens(encode_text(toks)) == toks
    with pytest.raises(VocabError):
        encode_text(["notatoken"])


def test_reasoning_answers_match_python_semantics():
    rng = np.random.default_rng(2)
    for _ in range(200):
        prompt, answer, label = generate_task("REASONING", int(rng.integers(1, 3)), rng)
        toks = _tokens(prompt)
        expr = "".join(toks[:-3]).replace("mod", "%")
        want = eval(expr) % int(toks[-2])  # noqa: S307 - trusted generated tokens
        assert _tokens(answer) == list(str(want))
        assert label is None


def test_instruction_answers_sorted_reversed_repeated():
    rng = np.random.default_rng(4)
    forms = set()
    for _ in range(200):
        prompt, answer, label = generate_task("INSTRUCTION", int(rng.integers(1, 3)), rng)
        toks = _tokens(prompt)
        forms.add(toks[0])
        assert _tokens(answer) == naive_answer(toks, None)
        assert label is None
    assert forms == {"sort", "rev", "repeat"}


def test_acoustic_answer_is_label_token_only():
    rng = np.random.default_rng(3)
    prompt, answer, label = generate_task("ACOUSTIC", 2, rng)
    assert answer == [LABEL_IDS[label]]
    assert _tokens(answer) == naive_answer(_tokens(prompt), label)
    # The text prompt itself carries zero bits about the label.
    assert not set(prompt) & set(LABEL_IDS)


def test_generate_task_validates_family_and_difficulty():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        generate_task("REASONING", 0, rng)
    with pytest.raises(ConfigurationError):
        generate_task("INSTRUCTION", 9, rng)
    with pytest.raises(ConfigurationError):
        generate_task("POETRY", 1, rng)


def test_pretraining_batch_deterministic_and_order_free():
    a = pretraining_batch(seed=5, step=10, size=16)
    _ = pretraining_batch(seed=5, step=99, size=16)  # interleaved call
    b = pretraining_batch(seed=5, step=10, size=16)
    assert [e.to_json() for e in a] == [e.to_json() for e in b]
    c = pretraining_batch(seed=6, step=10, size=16)
    assert [e.to_json() for e in a] != [e.to_json() for e in c]
    assert all(e.speech_prompt == [] for e in a)
    fams = {e.family for e in a}
    assert fams == {"REASONING", "INSTRUCTION", "ACOUSTIC"}
    for e in a:
        if e.family == "ACOUSTIC":
            # Text scaffold: the answer token is present in the prompt.
            assert e.reference_answer[0] in e.text_prompt


# ---------------------------------------------------------------------------
# Dataset construction
# ---------------------------------------------------------------------------

SIZES = {f: (12, 4, 4) for f in FAMILIES}


def test_build_dataset_fills_quotas_and_is_deterministic(codec):
    d1 = build_dataset(SIZES, codec, seed=9)
    d2 = build_dataset(SIZES, codec, seed=9)
    for split in ("train", "val", "test"):
        assert [e.to_json() for e in d1.splits[split]] == [
            e.to_json() for e in d2.splits[split]
        ]
    assert d1.manifest == d2.manifest
    for fam in FAMILIES:
        assert len(d1.split_family("train", fam)) == 12
        assert len(d1.split_family("val", fam)) == 4
        assert len(d1.split_family("test", fam)) == 4


def test_build_dataset_seed_changes_content(codec):
    d1 = build_dataset(SIZES, codec, seed=1)
    d2 = build_dataset(SIZES, codec, seed=2)
    assert [e.to_json() for e in d1.splits["train"]] != [
        e.to_json() for e in d2.splits["train"]
    ]


def test_admitted_examples_satisfy_round_trip_invariant(codec):
    ds = build_dataset(SIZES, codec, seed=3)
    for split in ds.splits.values():
        for ex in split:
            assert naive_decode_speech(codec, ex.speech_prompt) == ex.text_prompt
            assert _tokens(ex.reference_answer) == naive_answer(_tokens(ex.text_prompt), ex.label)


def test_splits_disjoint_by_text_prompt(codec):
    ds = build_dataset(SIZES, codec, seed=4)
    seen = set()
    for split in ds.splits.values():
        for ex in split:
            key = tuple(ex.text_prompt)
            assert key not in seen
            seen.add(key)


def test_zero_noise_means_zero_rejection():
    quiet = SpeechCodec(noise_rate=0.0)
    ds = build_dataset(SIZES, quiet, seed=0)
    assert ds.manifest["rejected"] == 0
    assert ds.manifest["rejection_rate"] == 0.0


def test_excessive_noise_raises_generation_quality_error():
    loud = SpeechCodec(noise_rate=0.45)
    with pytest.raises(GenerationQualityError):
        build_dataset({"REASONING": (20, 5, 5)}, loud, seed=0)


def test_save_load_round_trip(codec, tmp_path):
    ds = build_dataset(SIZES, codec, seed=7)
    manifest = save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert back.manifest == manifest
    for split in ("train", "val", "test"):
        assert [e.to_json() for e in back.splits[split]] == [
            e.to_json() for e in ds.splits[split]
        ]


def _flip_byte(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def _drop_line(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _append_garbage(path):
    path.write_text(path.read_text() + "{not json\n")


def _forget_hashes(path):
    manifest = json.loads(path.read_text())
    del manifest["file_hashes"]
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("name,damage", [
    ("train.jsonl", _flip_byte),
    ("train.jsonl", _drop_line),
    ("val.jsonl", _append_garbage),
    ("manifest.json", _append_garbage),
    ("manifest.json", _forget_hashes),
], ids=["flipped-byte", "dropped-line", "garbage-json", "garbage-manifest", "no-file-hashes"])
def test_load_rejects_a_damaged_dataset(codec, tmp_path, name, damage):
    save_dataset(build_dataset(SIZES, codec, seed=7), tmp_path)
    damage(tmp_path / name)
    with pytest.raises(DataError, match=name):
        load_dataset(tmp_path)


def test_load_rejects_a_malformed_example_even_with_a_matching_hash(codec, tmp_path):
    save_dataset(build_dataset(SIZES, codec, seed=7), tmp_path)
    body = b'{"example_id": "x"}\n'
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["file_hashes"]["test"] = hashlib.sha256(body).hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "test.jsonl").write_bytes(body)
    with pytest.raises(DataError, match="malformed example"):
        load_dataset(tmp_path)


def _rewrite(root, name: str, body: bytes) -> None:
    """Replace one dataset file, re-hashing a split so the body reaches the parser."""
    if name != "manifest.json":
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["file_hashes"][name.removesuffix(".jsonl")] = hashlib.sha256(body).hexdigest()
        (root / "manifest.json").write_text(json.dumps(manifest))
    (root / name).write_bytes(body)


@pytest.mark.parametrize("change,named", [
    ({"difficulty": "1"}, "difficulty has the wrong type"),
    ({"text_prompt": [5, 6.0]}, "text_prompt has the wrong type"),
    ({"label": True}, "label has the wrong type"),
    ({"family": "POETRY"}, "unknown family 'POETRY'"),
    ({"text_prompt": [5, 999]}, "text id outside [0, 64)"),
    ({"reference_answer": [-1]}, "text id outside [0, 64)"),
    ({"speech_prompt": [64, 1, 2]}, "speech frame outside [0, 64)"),
    # A dataset saved before examples lost their always-zero error rate.
    ({"round_trip_error_rate": 0.0}, "round_trip_error_rate"),
], ids=["difficulty", "text_prompt-float", "label-bool", "family", "prompt-id", "answer-id", "frame",
        "old-format"])
def test_load_rejects_an_example_the_models_cannot_read(codec, tmp_path, change, named):
    save_dataset(build_dataset(SIZES, codec, seed=7), tmp_path)
    lines = (tmp_path / "test.jsonl").read_text().splitlines(keepends=True)
    lines[2] = json.dumps({**json.loads(lines[2]), **change}) + "\n"
    _rewrite(tmp_path, "test.jsonl", "".join(lines).encode())
    with pytest.raises(DataError) as exc:
        load_dataset(tmp_path)
    message = str(exc.value)
    assert message.startswith(f"{tmp_path / 'test.jsonl'}:3: malformed example") and named in message


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("saved")
    save_dataset(build_dataset({"REASONING": (2, 1, 1), "ACOUSTIC": (1, 1, 1)}, SpeechCodec(), seed=0), d)
    return {p.name: p.read_bytes() for p in d.iterdir()}


_FIELDS = [f.name for f in dataclasses.fields(PairedExample)]
_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=5,
)
_GOOD = {"example_id": "x", "family": "REASONING", "difficulty": 1, "text_prompt": [5],
         "speech_prompt": [1, 2, 3], "reference_answer": [6], "label": None}
# A sound example with up to two fields replaced, or a subset of fields.
_EXAMPLE_LINE = st.one_of(
    st.dictionaries(st.sampled_from(_FIELDS), _VALUE, max_size=2).map(lambda d: {**_GOOD, **d}),
    st.fixed_dictionaries({}, optional={name: _VALUE for name in _FIELDS}),
).map(lambda d: json.dumps(d).encode())
_LINES = st.lists(st.binary(max_size=30) | _EXAMPLE_LINE, min_size=1, max_size=3).map(b"\n".join)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["manifest.json", "train.jsonl", "test.jsonl"]), st.binary(max_size=60) | _LINES)
@example("manifest.json", b"[" * 100_000)
@example("manifest.json", b"1" * 5_000)
@example("test.jsonl", b"[" * 100_000)
@example("test.jsonl", b"1" * 5_000)
def test_any_dataset_bytes_give_a_dataset_or_a_data_error(saved_dataset, name, body):
    # Split bodies are re-hashed in the manifest, so they reach the parser.
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        for file, raw in saved_dataset.items():
            (root / file).write_bytes(raw)
        _rewrite(root, name, body)
        try:
            ds = load_dataset(root)
        except DataError:
            return
    for ex in (e for split in ds.splits.values() for e in split):
        assert ex.family in FAMILIES
        assert all(0 <= i < len(VOCAB) for i in ex.text_prompt + ex.reference_answer)
        assert all(0 <= f < 64 for f in ex.speech_prompt)


def test_save_is_byte_stable(codec, tmp_path):
    ds = build_dataset(SIZES, codec, seed=8)
    m1 = save_dataset(ds, tmp_path / "a")
    m2 = save_dataset(build_dataset(SIZES, codec, seed=8), tmp_path / "b")
    assert m1["file_hashes"] == m2["file_hashes"]


def test_build_dataset_rejects_unknown_family(codec):
    with pytest.raises(ConfigurationError):
        build_dataset({"POETRY": (1, 1, 1)}, codec, seed=0)


# build_dataset and PipelineConfig share one sizes rule, corpus.check_sizes.
@pytest.mark.parametrize("sizes", [
    {"REASONING": (2,)},
    {"REASONING": (2, 1, 1, 5)},
    {"REASONING": (1.5, 0, 0)},
], ids=["one-count", "four-counts", "float-count"])
def test_build_dataset_refuses_malformed_counts(codec, sizes):
    with pytest.raises(ConfigurationError, match="sizes"):
        build_dataset(sizes, codec, seed=0)
