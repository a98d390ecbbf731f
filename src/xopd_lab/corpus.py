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

Admission mirrors a WER filter: an example enters the dataset only if its
round-trip token error rate is at or below the threshold and the answer
recomputed from the decoded prompt matches the reference answer.
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
DIGIT_IDS = [TOKEN_TO_ID[d] for d in _DIGITS]
ITEM_IDS = [TOKEN_TO_ID[c] for c in _ITEMS]
LABEL_IDS = [TOKEN_TO_ID[t] for t in _LABELS]
N_LABELS = len(_LABELS)


def encode_text(tokens: list[str]) -> list[int]:
    try:
        return [TOKEN_TO_ID[t] for t in tokens]
    except KeyError as e:
        raise VocabError(f"unknown token {e.args[0]!r}") from e


def decode_text(ids: list[int]) -> list[str]:
    return [VOCAB[i] for i in ids]


# ---------------------------------------------------------------------------
# Speech surrogate codec
# ---------------------------------------------------------------------------

@dataclass
class SpeechCodec:
    """Discrete frame code standing in for a TTS/ASR round trip.

    Token ``t`` maps to frames ``(a_i * t + b_i) mod speech_vocab_size``.
    With odd multipliers and speech_vocab_size >= text_vocab_size each
    coordinate is injective, so any two tokens differ in every frame and
    majority decode survives one corrupted frame per token.
    """

    frames_per_token: int = 3
    speech_vocab_size: int = 64
    text_vocab_size: int = 64
    noise_rate: float = 0.08
    n_labels: int = N_LABELS
    multipliers: tuple[int, ...] = (1, 5, 9)
    offsets: tuple[int, ...] = (0, 17, 40)

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigurationError(f"noise_rate must be in [0,1], got {self.noise_rate}")
        if len(self.multipliers) != self.frames_per_token or len(self.offsets) != self.frames_per_token:
            raise ConfigurationError("need one (multiplier, offset) pair per frame")
        if self.speech_vocab_size < self.text_vocab_size:
            raise ConfigurationError("speech vocab must cover the text vocab for injective frames")
        for a in self.multipliers:
            if np.gcd(a, self.speech_vocab_size) != 1:
                raise ConfigurationError(f"multiplier {a} not invertible mod {self.speech_vocab_size}")
        V, F, S = self.text_vocab_size, self.frames_per_token, self.speech_vocab_size
        t = np.arange(V)
        self._patterns = np.stack(
            [(a * t + b) % S for a, b in zip(self.multipliers, self.offsets)], axis=1
        )  # (V, F)

    def frame_pattern(self, token: int) -> list[int]:
        if not 0 <= token < self.text_vocab_size:
            raise VocabError(f"token id {token} outside vocab of size {self.text_vocab_size}")
        return [int(x) for x in self._patterns[token]]


def encode_speech(
    codec: SpeechCodec,
    text: list[int],
    label: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Expand tokens to frames, embed the optional label, then add noise."""
    F, S = codec.frames_per_token, codec.speech_vocab_size
    frames = []
    for t in text:
        pat = codec.frame_pattern(t)
        if label is not None:
            if not 0 <= label < codec.n_labels:
                raise DataError(f"label {label} outside [0, {codec.n_labels})")
            pat[F - 1] = (pat[F - 1] + 1 + label) % S
        frames.extend(pat)
    if codec.noise_rate > 0.0:
        if rng is None:
            raise DataError("noise_rate > 0 requires an rng")
        frames = np.asarray(frames)
        hit = rng.random(len(frames)) < codec.noise_rate
        noise = rng.integers(0, S, size=len(frames))
        frames = list(np.where(hit, noise, frames).astype(int))
    return [int(f) for f in frames]


def decode_speech(codec: SpeechCodec, frames: list[int]) -> tuple[list[int], list[int]]:
    """Majority-vote decode; returns (tokens, positions with imperfect votes)."""
    F = codec.frames_per_token
    if len(frames) % F != 0:
        raise FramingError(f"{len(frames)} frames is not a multiple of F={F}")
    tokens: list[int] = []
    flagged: list[int] = []
    arr = np.asarray(frames).reshape(-1, F)
    for pos, group in enumerate(arr):
        scores = (codec._patterns == group).sum(axis=1)
        best = int(np.argmax(scores))  # argmax ties break toward lowest id
        tokens.append(best)
        if scores[best] < F:
            flagged.append(pos)
    return tokens, flagged


# ---------------------------------------------------------------------------
# Task generators
# ---------------------------------------------------------------------------

# Moduli pools by difficulty; small structured moduli keep the low
# difficulties masterable by the desk-scale models.
_EASY_MODULI = (2, 3, 5)
_MID_MODULI = (2, 3, 5, 7)

# Operand ceiling at difficulty 1 (range widens with difficulty).
_EASY_OPERAND_MAX = 4


def generate_task(
    family: str, difficulty: int, rng: np.random.Generator
) -> tuple[list[int], list[int], int | None]:
    """Return (prompt ids, answer ids, optional prosody label)."""
    if family == "REASONING":
        if not 1 <= difficulty <= 4:
            raise ConfigurationError(f"REASONING difficulty {difficulty} outside 1..4")
        # Small structured moduli at low difficulty keep the family learnable
        # by the desk-scale models; higher difficulties open the full range.
        if difficulty == 1:
            pool = _EASY_MODULI
        elif difficulty == 2:
            pool = _MID_MODULI
        else:
            pool = tuple(range(2, 10))
        m = int(pool[rng.integers(0, len(pool))])
        # Difficulty widens the operand range first (1 -> 2), then lengthens
        # the chain (3+): 2 terms below difficulty 3, then difficulty terms.
        hi = _EASY_OPERAND_MAX if difficulty == 1 else 9
        n_terms = 2 if difficulty <= 2 else difficulty
        operands = [int(rng.integers(0, hi + 1)) for _ in range(n_terms)]
        ops = [rng.choice(["+", "-"]) for _ in range(n_terms - 1)]
        tokens = ["(", str(operands[0])]
        for op, val in zip(ops, operands[1:]):
            tokens += [op, str(val)]
        tokens += [")", "mod", str(m), "="]
        prompt = encode_text(tokens)
        answer = reasoning_answer(prompt)
        assert answer is not None
        return prompt, answer, None
    if family == "INSTRUCTION":
        if not 1 <= difficulty <= 4:
            raise ConfigurationError(f"INSTRUCTION difficulty {difficulty} outside 1..4")
        form = rng.choice(["sort", "rev", "repeat"], p=[0.45, 0.45, 0.1])
        if form == "repeat":
            item = rng.choice(_ITEMS)
            count = int(rng.integers(2, 5))
            prompt = encode_text(["repeat", item, str(count)])
        else:
            k = difficulty + 2
            digits = [str(int(d)) for d in rng.integers(0, 10, size=k)]
            prompt = encode_text([form] + digits)
        answer = instruction_answer(prompt)
        assert answer is not None
        return prompt, answer, None
    if family == "ACOUSTIC":
        if not 1 <= difficulty <= 8:
            raise ConfigurationError(f"ACOUSTIC difficulty {difficulty} outside 1..8")
        label = int(rng.integers(0, N_LABELS))
        pool = _DIGITS + _ITEMS
        carriers = [pool[int(i)] for i in rng.integers(0, len(pool), size=difficulty + 3)]
        prompt = encode_text(["label", "?"] + carriers)
        return prompt, [LABEL_IDS[label]], label
    raise ConfigurationError(f"unknown task family {family!r}")


def reasoning_answer(prompt: list[int]) -> list[int] | None:
    """Evaluate a '( a op b ... ) mod m =' prompt; None if malformed."""
    toks = decode_text(prompt)
    try:
        if toks[0] != "(" or toks[-1] != "=" or toks[-3] != "mod" or toks[-4] != ")":
            return None
        body, m = toks[1:-4], int(toks[-2])
        if m < 1:
            return None
        acc = int(body[0])
        for i in range(1, len(body), 2):
            op, val = body[i], int(body[i + 1])
            if op == "+":
                acc += val
            elif op == "-":
                acc -= val
            else:
                return None
        return encode_text([c for c in str(acc % m)])
    except (ValueError, IndexError):
        return None


def instruction_answer(prompt: list[int]) -> list[int] | None:
    toks = decode_text(prompt)
    try:
        cmd, rest = toks[0], toks[1:]
        if cmd == "sort":
            return encode_text(sorted(rest, key=int)) if rest else None
        if cmd == "rev":
            return encode_text(list(reversed(rest))) if rest else None
        if cmd == "repeat":
            item, count = rest
            if item not in _ITEMS:
                return None
            return encode_text([item] * int(count))
        return None
    except (ValueError, IndexError):
        return None


def answer_for_prompt(family: str, prompt: list[int], label: int | None) -> list[int] | None:
    """Canonical answer implied by a (possibly decoded) prompt."""
    if family == "REASONING":
        return reasoning_answer(prompt)
    if family == "INSTRUCTION":
        return instruction_answer(prompt)
    if family == "ACOUSTIC":
        # The answer rides the speech label channel, not the token content.
        if label is None or not 0 <= label < N_LABELS:
            return None
        return [LABEL_IDS[label]]
    raise ConfigurationError(f"unknown task family {family!r}")


def _label_echo_task(rng: np.random.Generator) -> tuple[list[int], list[int], int]:
    """'label ? c1 .. L .. ck' -> 'L': emit the label token among carriers."""
    pool = _DIGITS + _ITEMS
    carriers = [pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(4, 7)))]
    lab = int(rng.integers(0, N_LABELS))
    n_marks = 1 + int(rng.integers(0, 3))
    for pos in rng.choice(len(carriers), size=min(n_marks, len(carriers)), replace=False):
        carriers[int(pos)] = _LABELS[lab]
    return encode_text(["label", "?"] + carriers), [LABEL_IDS[lab]], lab


PRETRAIN_DIFFICULTY = (1, 2)


def pretraining_batch(seed: int, step: int, size: int) -> list["PairedExample"]:
    """Fresh text-only (prompt -> answer) tasks for teacher pretraining.

    Streams from the REASONING/INSTRUCTION generators (3:1 mix) under a
    deterministic per-step seed, so the stream is independent of call
    order. The speech channel is left empty: the teacher is text-only.
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
                round_trip_error_rate=0.0,
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
    round_trip_error_rate: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "PairedExample":
        return cls(**json.loads(line))


DEFAULT_DIFFICULTY = {"REASONING": (1, 2), "INSTRUCTION": (1, 2), "ACOUSTIC": (1, 3)}
# Largest share of prompt tokens an admitted example's speech may misdecode.
FILTER_THRESHOLD = 0.05


@dataclass
class Dataset:
    splits: dict[str, list[PairedExample]]
    manifest: dict

    def split_family(self, split: str, family: str) -> list[PairedExample]:
        return [e for e in self.splits[split] if e.family == family]

    def alignment_set(self, split: str = "train") -> list[PairedExample]:
        """The REASONING+INSTRUCTION pairs used by every training method."""
        return [e for e in self.splits[split] if e.family != "ACOUSTIC"]


def build_dataset(sizes: dict[str, tuple[int, int, int]], codec: SpeechCodec, seed: int) -> Dataset:
    """Generate deterministic train/val/test splits with the round-trip filter.

    Per-example seeds derive from (seed, family index, candidate index), so
    generation order and parallel schedule cannot change the content. Splits
    are disjoint by text-prompt identity.
    """
    for fam, counts in sizes.items():
        if fam not in FAMILIES:
            raise ConfigurationError(f"unknown family {fam!r}")
        if any(c < 0 for c in counts) or sum(counts) < 1:
            raise ConfigurationError(f"sizes for {fam} must be >= 1 in total")

    splits: dict[str, list[PairedExample]] = {"train": [], "val": [], "test": []}
    seen_prompts: set[tuple[int, ...]] = set()
    attempts = 0
    rejected = 0
    invariance_failures = 0

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
            decoded, _ = decode_speech(codec, frames)
            mismatches = sum(1 for a, b in zip(decoded, prompt) if a != b)
            rtr = mismatches / len(prompt)
            if rtr > FILTER_THRESHOLD:
                rejected += 1
                continue
            if answer_for_prompt(fam, decoded, label) != answer:
                invariance_failures += 1
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
                round_trip_error_rate=rtr,
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
        "filter_threshold": FILTER_THRESHOLD,
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
        "invariance_failures": invariance_failures,
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


def load_dataset(in_dir: str | Path) -> Dataset:
    """Load what save_dataset wrote, checking each split against the
    manifest's SHA-256; a damaged or malformed file raises DataError."""
    in_dir = Path(in_dir)
    path = in_dir / "manifest.json"
    try:
        manifest = json.loads(_read(path))
        hashes = {split: manifest["file_hashes"][split] for split in ("train", "val", "test")}
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError, KeyError) as e:
        raise DataError(f"{path}: not a dataset manifest ({type(e).__name__}: {e})") from None
    splits = {}
    for split, digest in hashes.items():
        path = in_dir / f"{split}.jsonl"
        body = _read(path)
        if hashlib.sha256(body).hexdigest() != digest:
            raise DataError(f"{path}: SHA-256 does not match the manifest")
        try:
            splits[split] = [PairedExample.from_json(line) for line in body.decode().splitlines()]
        except (UnicodeDecodeError, json.JSONDecodeError, TypeError) as e:
            raise DataError(f"{path}: malformed example ({type(e).__name__}: {e})") from None
    return Dataset(splits=splits, manifest=manifest)
