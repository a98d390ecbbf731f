"""Synthetic paired text / speech-surrogate corpus.

Text prompts come from three task families:

* REASONING    - chained modular arithmetic, e.g. ``( 3 + 4 ) mod 5 =`` -> ``2``
* INSTRUCTION  - formatted-output commands (sort / reverse / repeat)
* ACOUSTIC     - recover a prosody label that is embedded only in the
                 speech channel; the text prompt carries zero bits about it.

The speech surrogate is a discrete frame code: each text token expands to
``F`` frames through a fixed bijective-per-coordinate pattern table, with
per-frame substitution noise and an optional label perturbation on the last
frame of every token. Decoding is majority vote against the pattern table,
so the round trip is exactly checkable and the single-corrupted-frame case
always recovers.

Admission has one rule: an example enters the dataset only if its speech
decodes to exactly its text prompt. Each task computes its reference answer
from the values it draws.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    FramingError,
    GenerationQualityError,
    VocabError,
    check_field_types,
    is_int,
)

FAMILIES = ("REASONING", "INSTRUCTION", "ACOUSTIC")

PAD, BOS, EOS, SEP = 0, 1, 2, 3

_DIGITS = [str(d) for d in range(10)]
_ITEMS = list("abcdef")
_LABELS = [f"L{i}" for i in range(4)]

VOCAB: list[str] = (
    ["<pad>", "<bos>", "<eos>", "<sep>"]
    + _DIGITS
    + ["+", "-", "(", ")", "mod", "="]
    + ["sort", "rev", "repeat"]
    + _ITEMS
    + ["label", "?"]
    + _LABELS
)
# Pad out to a round vocab size; unused ids keep the model config honest.
VOCAB += [f"<unk{i}>" for i in range(len(VOCAB), 64)]

TOKEN_TO_ID = {tok: i for i, tok in enumerate(VOCAB)}
LABEL_IDS = [TOKEN_TO_ID[t] for t in _LABELS]
N_LABELS = len(_LABELS)


def encode_text(tokens: list[str]) -> list[int]:
    try:
        return [TOKEN_TO_ID[t] for t in tokens]
    except KeyError as e:
        raise VocabError(f"unknown token {e.args[0]!r}") from e


# ---------------------------------------------------------------------------
# Speech surrogate codec
# ---------------------------------------------------------------------------

MULTIPLIERS = (1, 5, 9)
OFFSETS = (0, 17, 40)


@dataclass
class SpeechCodec:
    """Discrete frame code standing in for a TTS/ASR round trip.

    Token ``t`` maps to frames ``(a_i * t + b_i) mod speech_vocab_size``,
    where ``(a_i, b_i)`` are the first ``frames_per_token`` (at most 3)
    pairs of ``MULTIPLIERS`` and ``OFFSETS``. With multipliers invertible
    mod speech_vocab_size >= text_vocab_size each coordinate is injective,
    so any two tokens differ in every frame and majority decode survives one
    corrupted frame per token. ``multipliers``, ``offsets`` and ``n_labels``
    are derived attributes, not fields; the dataset manifest records them.
    """

    frames_per_token: int = 3
    speech_vocab_size: int = 64
    text_vocab_size: int = 64
    noise_rate: float = 0.08

    def __post_init__(self) -> None:
        check_field_types(self)
        F, S, V = self.frames_per_token, self.speech_vocab_size, self.text_vocab_size
        if not 1 <= F <= len(MULTIPLIERS):
            raise ConfigurationError(
                f"frames_per_token must be in [1, {len(MULTIPLIERS)}], got {F}"
            )
        # At 1.0 every frame is redrawn at random, so the round-trip filter
        # rejects nearly every example.
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigurationError(f"noise_rate must be in [0, 1), got {self.noise_rate!r}")
        if S < V:
            raise ConfigurationError("speech vocab must cover the text vocab for injective frames")
        self.multipliers, self.offsets, self.n_labels = MULTIPLIERS[:F], OFFSETS[:F], N_LABELS
        for a in self.multipliers:
            if np.gcd(a, S) != 1:
                raise ConfigurationError(f"multiplier {a} not invertible mod {S}")
        self._patterns = (np.outer(np.arange(V), self.multipliers) + self.offsets) % S  # (V, F)


def encode_speech(
    codec: SpeechCodec,
    text: list[int],
    label: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Expand tokens to frames, embed the optional label, then add noise."""
    S = codec.speech_vocab_size
    ids = np.asarray(text, dtype=np.int64)
    if ids.size and not (0 <= ids.min() and ids.max() < codec.text_vocab_size):
        raise VocabError(f"token ids {text} outside vocab of size {codec.text_vocab_size}")
    frames = codec._patterns[ids]  # (T, F), a fresh copy
    if label is not None:
        if not 0 <= label < N_LABELS:
            raise DataError(f"label {label} outside [0, {N_LABELS})")
        frames[:, -1] = (frames[:, -1] + 1 + label) % S
    frames = frames.reshape(-1)
    if codec.noise_rate > 0.0:
        if rng is None:
            raise DataError("noise_rate > 0 requires an rng")
        hit = rng.random(frames.size) < codec.noise_rate
        frames = np.where(hit, rng.integers(0, S, size=frames.size), frames)
    return frames.tolist()


def decode_speech(codec: SpeechCodec, frames: list[int]) -> list[int]:
    """Majority-vote decode: each frame group becomes the token whose pattern
    it matches in the most frames, ties going to the lowest id."""
    F = codec.frames_per_token
    if len(frames) % F != 0:
        raise FramingError(f"{len(frames)} frames is not a multiple of F={F}")
    groups = np.asarray(frames, dtype=np.int64).reshape(-1, 1, F)
    return np.argmax((groups == codec._patterns).sum(axis=2), axis=1).tolist()


# ---------------------------------------------------------------------------
# Task generators
# ---------------------------------------------------------------------------

# Difficulty ranges the lab draws from, per family.
DEFAULT_DIFFICULTY = {"REASONING": (1, 2), "INSTRUCTION": (1, 2), "ACOUSTIC": (1, 3)}

# REASONING moduli and operand ceiling at difficulty 1 and 2; small
# structured moduli keep the family masterable by the desk-scale models.
_MODULI = {1: (2, 3, 5), 2: (2, 3, 5, 7)}
_OPERAND_MAX = {1: 4, 2: 9}

# Tokens an ACOUSTIC prompt carries after 'label ?'.
_CARRIERS = _DIGITS + _ITEMS


def _draw_carriers(rng: np.random.Generator, n: int) -> list[str]:
    return [_CARRIERS[int(i)] for i in rng.integers(0, len(_CARRIERS), size=n)]


def generate_task(
    family: str, difficulty: int, rng: np.random.Generator
) -> tuple[list[int], list[int], int | None]:
    """Return (prompt ids, answer ids, optional prosody label)."""
    if family not in DEFAULT_DIFFICULTY:
        raise ConfigurationError(f"unknown task family {family!r}")
    lo, hi = DEFAULT_DIFFICULTY[family]
    if not lo <= difficulty <= hi:
        raise ConfigurationError(f"{family} difficulty {difficulty} outside {lo}..{hi}")
    if family == "REASONING":
        pool = _MODULI[difficulty]
        m = int(pool[rng.integers(0, len(pool))])
        a, b = (int(rng.integers(0, _OPERAND_MAX[difficulty] + 1)) for _ in range(2))
        op = rng.choice(["+", "-"])
        prompt = encode_text(["(", str(a), op, str(b), ")", "mod", str(m), "="])
        return prompt, encode_text(list(str((a + b if op == "+" else a - b) % m))), None
    if family == "INSTRUCTION":
        form = rng.choice(["sort", "rev", "repeat"], p=[0.45, 0.45, 0.1])
        if form == "repeat":
            item = rng.choice(_ITEMS)
            count = int(rng.integers(2, 5))
            return encode_text(["repeat", item, str(count)]), encode_text([item] * count), None
        digits = [str(int(d)) for d in rng.integers(0, 10, size=difficulty + 2)]
        # Single-character digits: a string sort is a numeric sort.
        answer = sorted(digits) if form == "sort" else digits[::-1]
        return encode_text([form] + digits), encode_text(answer), None
    label = int(rng.integers(0, N_LABELS))
    prompt = encode_text(["label", "?"] + _draw_carriers(rng, difficulty + 3))
    return prompt, [LABEL_IDS[label]], label


def _label_echo_task(rng: np.random.Generator) -> tuple[list[int], list[int], int]:
    """'label ? c1 .. L .. ck' -> 'L': emit the label token among carriers."""
    carriers = _draw_carriers(rng, int(rng.integers(4, 7)))
    lab = int(rng.integers(0, N_LABELS))
    n_marks = 1 + int(rng.integers(0, 3))
    for pos in rng.choice(len(carriers), size=min(n_marks, len(carriers)), replace=False):
        carriers[int(pos)] = _LABELS[lab]
    return encode_text(["label", "?"] + carriers), [LABEL_IDS[lab]], lab


PRETRAIN_DIFFICULTY = (1, 2)


def pretraining_batch(seed: int, step: int, size: int) -> list["PairedExample"]:
    """Fresh text-only (prompt -> answer) tasks for teacher pretraining.

    Streams REASONING, INSTRUCTION and ACOUSTIC label-echo tasks in a
    6:1:1 mix (three of every four slots are REASONING; the fourth
    alternates between the other two) under a deterministic per-step seed,
    so the stream is independent of call order. The speech channel is left
    empty: the teacher is text-only.
    """
    rng = np.random.default_rng([seed, 0x517E, step])
    lo, hi = PRETRAIN_DIFFICULTY
    out = []
    for j in range(size):
        if j % 4 != 3:
            fam = "REASONING"
        elif (j // 4) % 2 == 0:
            fam = "INSTRUCTION"
        else:
            fam = "ACOUSTIC"
        difficulty = int(rng.integers(lo, hi + 1))
        if fam == "ACOUSTIC":
            # Text scaffold of the acoustic task: the label token appears
            # among the carriers and the model must echo it. This makes
            # label tokens reachable outputs for the pretrained backbone,
            # which the student's speech pathway later exploits.
            prompt, answer, label = _label_echo_task(rng)
        else:
            prompt, answer, label = generate_task(fam, difficulty, rng)
        out.append(
            PairedExample(
                example_id=f"pretrain-{step}-{j}",
                family=fam,
                difficulty=difficulty,
                text_prompt=prompt,
                speech_prompt=[],
                reference_answer=answer,
                label=label,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Paired examples and dataset construction
# ---------------------------------------------------------------------------

@dataclass
class PairedExample:
    example_id: str
    family: str
    difficulty: int
    text_prompt: list[int]
    speech_prompt: list[int]
    reference_answer: list[int]
    label: int | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "PairedExample":
        return cls(**json.loads(line))


@dataclass
class Dataset:
    splits: dict[str, list[PairedExample]]
    manifest: dict

    def split_family(self, split: str, family: str) -> list[PairedExample]:
        return [e for e in self.splits[split] if e.family == family]

    def alignment_set(self, split: str = "train") -> list[PairedExample]:
        """The REASONING+INSTRUCTION pairs used by every training method."""
        return [e for e in self.splits[split] if e.family != "ACOUSTIC"]


def check_sizes(sizes) -> None:
    """Raise ConfigurationError unless ``sizes`` maps known families to 3
    non-negative integer (train, val, test) counts with a positive sum."""
    if not isinstance(sizes, dict) or not set(sizes) <= set(FAMILIES):
        raise ConfigurationError(f"sizes must map families {FAMILIES} to counts, got {sizes!r}")
    for fam, counts in sizes.items():
        if not (
            isinstance(counts, (list, tuple)) and len(counts) == 3
            and all(is_int(c) and c >= 0 for c in counts) and sum(counts) >= 1
        ):
            raise ConfigurationError(
                f"sizes[{fam!r}] must be 3 non-negative (train, val, test) counts "
                f"with a positive sum, got {counts!r}"
            )


def build_dataset(sizes: dict[str, tuple[int, int, int]], codec: SpeechCodec, seed: int) -> Dataset:
    """Generate deterministic train/val/test splits, admitting an example
    only if its speech decodes to exactly its text prompt.

    Per-example seeds derive from (seed, family index, candidate index), so
    generation order and parallel schedule cannot change the content. Splits
    are disjoint by text-prompt identity.
    """
    check_sizes(sizes)
    splits: dict[str, list[PairedExample]] = {"train": [], "val": [], "test": []}
    seen_prompts: set[tuple[int, ...]] = set()
    attempts = 0
    rejected = 0

    for fam_idx, fam in enumerate(FAMILIES):
        if fam not in sizes:
            continue
        quota = dict(zip(("train", "val", "test"), sizes[fam]))
        order = [s for s in ("train", "val", "test") if quota[s] > 0]
        cand = 0
        lo, hi = DEFAULT_DIFFICULTY[fam]
        while order:
            rng = np.random.default_rng([seed, fam_idx, cand])
            cand += 1
            if cand > 200 * sum(sizes[fam]) + 1000:
                raise GenerationQualityError(f"could not fill quotas for {fam}")
            difficulty = int(rng.integers(lo, hi + 1))
            prompt, answer, label = generate_task(fam, difficulty, rng)
            key = tuple(prompt)
            if key in seen_prompts:
                continue
            attempts += 1
            frames = encode_speech(codec, prompt, label=label, rng=rng)
            if decode_speech(codec, frames) != prompt:
                rejected += 1
                continue
            seen_prompts.add(key)
            split = order[0]
            ex = PairedExample(
                example_id=f"{fam.lower()}-{cand - 1:06d}",
                family=fam,
                difficulty=difficulty,
                text_prompt=prompt,
                speech_prompt=frames,
                reference_answer=answer,
                label=label,
            )
            splits[split].append(ex)
            quota[split] -= 1
            if quota[split] == 0:
                order.pop(0)

    rejection_rate = rejected / attempts if attempts else 0.0
    if rejection_rate > 0.5:
        raise GenerationQualityError(
            f"rejection rate {rejection_rate:.1%} > 50%: noise_rate too high for this frame code"
        )
    manifest = {
        "seed": seed,
        "sizes": {k: list(v) for k, v in sizes.items()},
        "difficulty_ranges": {k: list(v) for k, v in DEFAULT_DIFFICULTY.items()},
        "codec": {
            "frames_per_token": codec.frames_per_token,
            "speech_vocab_size": codec.speech_vocab_size,
            "text_vocab_size": codec.text_vocab_size,
            "noise_rate": codec.noise_rate,
            "n_labels": codec.n_labels,
            "multipliers": list(codec.multipliers),
            "offsets": list(codec.offsets),
        },
        "counts": {s: len(v) for s, v in splits.items()},
        "attempts": attempts,
        "rejected": rejected,
        "rejection_rate": rejection_rate,
        "vocab_size": len(VOCAB),
    }
    return Dataset(splits=splits, manifest=manifest)


def save_dataset(dataset: Dataset, out_dir: str | Path) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for split, examples in dataset.splits.items():
        path = out_dir / f"{split}.jsonl"
        body = "".join(e.to_json() + "\n" for e in examples)
        path.write_text(body)
        hashes[split] = hashlib.sha256(body.encode()).hexdigest()
    manifest = dict(dataset.manifest, file_hashes=hashes)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _read(path: Path) -> bytes:
    if not path.exists():
        raise DataError(f"missing dataset file: {path}")
    return path.read_bytes()


def _checked_example(line: str, speech_vocab_size: int) -> PairedExample:
    """Parse one saved example; raise TypeError or ValueError unless the
    models can read it: declared field types, a known family, text ids in
    the vocabulary and frames in the codec's speech vocabulary."""
    def ids(v) -> bool:
        return isinstance(v, list) and all(is_int(i) for i in v)

    ex = PairedExample.from_json(line)
    typed = {
        "example_id": isinstance(ex.example_id, str),
        "family": isinstance(ex.family, str),
        "difficulty": is_int(ex.difficulty),
        "text_prompt": ids(ex.text_prompt),
        "speech_prompt": ids(ex.speech_prompt),
        "reference_answer": ids(ex.reference_answer),
        "label": ex.label is None or is_int(ex.label),
    }
    wrong = [name for name, ok in typed.items() if not ok]
    if wrong:
        raise TypeError(f"{wrong[0]} has the wrong type: {getattr(ex, wrong[0])!r}")
    if ex.family not in FAMILIES:
        raise ValueError(f"unknown family {ex.family!r}")
    if not all(0 <= i < len(VOCAB) for i in ex.text_prompt + ex.reference_answer):
        raise ValueError(f"text id outside [0, {len(VOCAB)})")
    if not all(0 <= f < speech_vocab_size for f in ex.speech_prompt):
        raise ValueError(f"speech frame outside [0, {speech_vocab_size})")
    return ex


def load_dataset(in_dir: str | Path) -> Dataset:
    """Load what save_dataset wrote, checking each split against the
    manifest's SHA-256 and each example as ``_checked_example`` does; a
    damaged or malformed file raises DataError naming the file (and line)."""
    in_dir = Path(in_dir)
    path = in_dir / "manifest.json"
    try:
        manifest = json.loads(_read(path))
        hashes = {split: manifest["file_hashes"][split] for split in ("train", "val", "test")}
        speech_vocab_size = manifest["codec"]["speech_vocab_size"]
        if not is_int(speech_vocab_size):
            raise TypeError(f"codec speech_vocab_size {speech_vocab_size!r} is not an integer")
    except (ValueError, RecursionError, TypeError, KeyError) as e:
        raise DataError(f"{path}: not a dataset manifest ({type(e).__name__}: {e})") from None
    splits = {}
    for split, digest in hashes.items():
        path = in_dir / f"{split}.jsonl"
        body = _read(path)
        if hashlib.sha256(body).hexdigest() != digest:
            raise DataError(f"{path}: SHA-256 does not match the manifest")
        splits[split] = []
        for n, line in enumerate(body.splitlines(), 1):
            try:
                splits[split].append(_checked_example(line.decode(), speech_vocab_size))
            except (ValueError, RecursionError, TypeError) as e:
                raise DataError(f"{path}:{n}: malformed example ({type(e).__name__}: {e})") from None
    return Dataset(splits=splits, manifest=manifest)
