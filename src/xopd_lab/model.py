"""Tiny decoder-only transformers: a text-only teacher and a dual-input student.

Both share one backbone architecture (token + position embeddings, pre-LN
blocks with causal attention and a GELU MLP, final LN, linear head over the
text vocabulary). The student additionally owns a speech-frame embedding
table ("tower") and a linear adapter pooling each token's frame embeddings into the
backbone's embedding space; completions are always text tokens.

Sequence layout for conditioning: ``<bos> PROMPT <sep> COMPLETION``, where
PROMPT is either text-token embeddings or adapted speech-frame embeddings.

This module also holds the types the other modules share: the modality
names, ``Prompt`` and the sampled ``Trajectory``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import BOS, EOS, SEP
from .errors import (
    CheckpointError,
    ConfigurationError,
    FramingError,
    LengthError,
    ModalityError,
    UsageError,
)

INIT_STD = 0.02

TEXT = "TEXT"
SPEECH = "SPEECH"
MODALITIES = (TEXT, SPEECH)


@dataclass
class ModelConfig:
    text_vocab_size: int = 64
    speech_vocab_size: int = 64
    embed_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_seq_len: int = 256
    frames_per_token: int = 3
    speech_embed_dim: int = 32

    def __post_init__(self) -> None:
        counts = (
            self.text_vocab_size,
            self.speech_vocab_size,
            self.embed_dim,
            self.n_layers,
            self.n_heads,
            self.max_seq_len,
            self.frames_per_token,
            self.speech_embed_dim,
        )
        if any(c < 1 for c in counts):
            raise ConfigurationError("all model config counts must be >= 1")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigurationError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}"
            )


@dataclass
class Prompt:
    modality: str  # TEXT or SPEECH
    tokens: list[int]  # text-token ids, or speech-frame ids for SPEECH


@dataclass
class Trajectory:
    """One sampled completion with log-probs recorded at sampling time."""

    example_id: str
    conditioning_modality: str
    tokens: list[int]
    logp_old: list[float]  # unadjusted log pi_old(y_t | ., y_<t)
    finished: bool

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.logp_old) or not self.tokens:
            raise UsageError("trajectory needs >= 1 token with matching logp_old")


def _normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def init_backbone_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    d, V = cfg.embed_dim, cfg.text_vocab_size
    p: dict[str, Tensor] = {
        "tok_emb": _normal(rng, (V, d)),
        "pos_emb": _normal(rng, (cfg.max_seq_len, d)),
    }
    for i in range(cfg.n_layers):
        h = f"h{i}"
        p[f"{h}.ln1.g"] = Tensor(np.ones(d), requires_grad=True)
        p[f"{h}.ln1.b"] = Tensor(np.zeros(d), requires_grad=True)
        for w in ("wq", "wk", "wv", "wo"):
            p[f"{h}.attn.{w}"] = _normal(rng, (d, d))
        p[f"{h}.ln2.g"] = Tensor(np.ones(d), requires_grad=True)
        p[f"{h}.ln2.b"] = Tensor(np.zeros(d), requires_grad=True)
        p[f"{h}.mlp.w1"] = _normal(rng, (d, 4 * d))
        p[f"{h}.mlp.b1"] = Tensor(np.zeros(4 * d), requires_grad=True)
        p[f"{h}.mlp.w2"] = _normal(rng, (4 * d, d))
        p[f"{h}.mlp.b2"] = Tensor(np.zeros(d), requires_grad=True)
    p["lnf.g"] = Tensor(np.ones(d), requires_grad=True)
    p["lnf.b"] = Tensor(np.zeros(d), requires_grad=True)
    # Zero head: a fresh model is exactly uniform over the vocabulary.
    p["head.w"] = Tensor(np.zeros((d, V)), requires_grad=True)
    return p


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    *lead, L, d = x.shape
    hd = d // n_heads
    x = ad.reshape(x, (*lead, L, n_heads, hd))
    axes = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
    return ad.permute(x, axes)  # (..., H, L, hd)


def _merge_heads(x: Tensor) -> Tensor:
    *lead, H, L, hd = x.shape
    axes = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
    x = ad.permute(x, axes)  # (..., L, H, hd)
    return ad.reshape(x, (*lead, L, H * hd))


def backbone_logits(params: dict[str, Tensor], cfg: ModelConfig, emb: Tensor) -> Tensor:
    """Run the transformer over embedded inputs (..., L, d) -> (..., L, V)."""
    L = emb.shape[-2]
    if L > cfg.max_seq_len:
        raise LengthError(f"sequence length {L} exceeds max_seq_len {cfg.max_seq_len}")
    pos = ad.embedding(params["pos_emb"], np.arange(L))
    x = ad.add(emb, pos)
    for i in range(cfg.n_layers):
        h = f"h{i}"
        a = ad.layer_norm(x, params[f"{h}.ln1.g"], params[f"{h}.ln1.b"])
        q = _split_heads(ad.matmul(a, params[f"{h}.attn.wq"]), cfg.n_heads)
        k = _split_heads(ad.matmul(a, params[f"{h}.attn.wk"]), cfg.n_heads)
        v = _split_heads(ad.matmul(a, params[f"{h}.attn.wv"]), cfg.n_heads)
        attn = _merge_heads(ad.causal_attention(q, k, v))
        x = ad.add(x, ad.matmul(attn, params[f"{h}.attn.wo"]))
        m = ad.layer_norm(x, params[f"{h}.ln2.g"], params[f"{h}.ln2.b"])
        m = ad.gelu(ad.add(ad.matmul(m, params[f"{h}.mlp.w1"]), params[f"{h}.mlp.b1"]))
        m = ad.add(ad.matmul(m, params[f"{h}.mlp.w2"]), params[f"{h}.mlp.b2"])
        x = ad.add(x, m)
    x = ad.layer_norm(x, params["lnf.g"], params["lnf.b"])
    return ad.matmul(x, params["head.w"])


class TeacherModel:
    """Text-only decoder; rejects speech prompts."""

    kind = "teacher"

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int) -> "TeacherModel":
        rng = np.random.default_rng([seed, 0x7E4])
        return cls(cfg, init_backbone_params(cfg, rng))

    def backbone_params(self) -> dict[str, Tensor]:
        return self.params

    def embed_sequence(self, prompt: Prompt, completion: list[int]) -> tuple[Tensor, int]:
        """Embed <bos> prompt <sep> completion; returns (emb, sep index)."""
        if prompt.modality != TEXT:
            raise ModalityError("teacher consumes text prompts only")
        ids = [BOS] + list(prompt.tokens) + [SEP] + list(completion)
        emb = ad.embedding(self.params["tok_emb"], np.asarray(ids))
        return emb, 1 + len(prompt.tokens)


class StudentModel(TeacherModel):
    """Dual-input decoder: text via the shared backbone embedding, speech
    via tower + adapter. Completion tokens are always text."""

    kind = "student"

    BACKBONE_EXTRA = ("tower.emb", "adapter.w", "adapter.b")

    def backbone_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if k not in self.BACKBONE_EXTRA}

    def speech_params(self) -> dict[str, Tensor]:
        return {k: self.params[k] for k in self.BACKBONE_EXTRA}

    def embed_sequence(self, prompt: Prompt, completion: list[int]) -> tuple[Tensor, int]:
        if prompt.modality == TEXT:
            return super().embed_sequence(prompt, completion)
        if prompt.modality != SPEECH:
            raise ModalityError(f"unknown modality {prompt.modality!r}")
        F = self.cfg.frames_per_token
        if len(prompt.tokens) % F != 0:
            raise FramingError(
                f"speech prompt of {len(prompt.tokens)} frames is not a multiple of F={F}"
            )
        n_tok = len(prompt.tokens) // F
        # Pool each token's F frame embeddings into one backbone position.
        tower = ad.embedding(self.params["tower.emb"], np.asarray(prompt.tokens))
        tower = ad.reshape(tower, (n_tok, F * self.cfg.speech_embed_dim))
        adapted = ad.add(ad.matmul(tower, self.params["adapter.w"]), self.params["adapter.b"])
        pre = ad.embedding(self.params["tok_emb"], np.asarray([BOS]))
        post = ad.embedding(self.params["tok_emb"], np.asarray([SEP] + list(completion)))
        emb = ad.concat_rows([pre, adapted, post])
        return emb, 1 + n_tok


def init_student_from_teacher(teacher: TeacherModel, cfg: ModelConfig, seed: int) -> StudentModel:
    """Copy the teacher backbone; draw tower/adapter from the seed."""
    if cfg.embed_dim != teacher.cfg.embed_dim or cfg.text_vocab_size != teacher.cfg.text_vocab_size:
        raise ConfigurationError("student config incompatible with teacher backbone")
    params = {
        name: Tensor(t.data.copy(), requires_grad=True) for name, t in teacher.params.items()
    }
    rng = np.random.default_rng([seed, 0x5107])
    params["tower.emb"] = _normal(rng, (cfg.speech_vocab_size, cfg.speech_embed_dim))
    params["adapter.w"] = _normal(rng, (cfg.frames_per_token * cfg.speech_embed_dim, cfg.embed_dim))
    params["adapter.b"] = Tensor(np.zeros(cfg.embed_dim), requires_grad=True)
    return StudentModel(cfg, params)


def _decode_step(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    x: np.ndarray,
    caches: list[dict[str, np.ndarray]],
) -> np.ndarray:
    """Advance the incremental decoder by T new rows.

    x: (B, T, d) embedded new positions (token + position embedding already
    added). caches holds per-layer key/value tensors (B, H, S, hd) for the S
    positions already consumed; they are extended in place. Returns the
    next-token logits for the final new row, shape (B, V).
    """
    B, T, d = x.shape
    H = cfg.n_heads
    hd = d // H
    inv_sqrt = 1.0 / math.sqrt(hd)
    for i in range(cfg.n_layers):
        h = f"h{i}"
        c = caches[i]
        a = ad.np_layer_norm(x, params[f"{h}.ln1.g"].data, params[f"{h}.ln1.b"].data)[0]
        q = (a @ params[f"{h}.attn.wq"].data).reshape(B, T, H, hd).transpose(0, 2, 1, 3)
        k = (a @ params[f"{h}.attn.wk"].data).reshape(B, T, H, hd).transpose(0, 2, 1, 3)
        v = (a @ params[f"{h}.attn.wv"].data).reshape(B, T, H, hd).transpose(0, 2, 1, 3)
        c["k"] = np.concatenate([c["k"], k], axis=2) if "k" in c else k
        c["v"] = np.concatenate([c["v"], v], axis=2) if "v" in c else v
        S = c["k"].shape[2]
        scores = (q @ c["k"].transpose(0, 1, 3, 2)) * inv_sqrt  # (B, H, T, S)
        if T > 1:
            mask = np.where(np.tril(np.ones((T, T), dtype=bool)), 0.0, ad.MASK_NEG)
            scores = scores + np.concatenate(
                [np.zeros((T, S - T)), mask], axis=1
            )
        ctx = ad.np_softmax(scores) @ c["v"]  # (B, H, T, hd)
        ctx = ctx.transpose(0, 2, 1, 3).reshape(B, T, d)
        x = x + ctx @ params[f"{h}.attn.wo"].data
        m = ad.np_layer_norm(x, params[f"{h}.ln2.g"].data, params[f"{h}.ln2.b"].data)[0]
        m = ad.np_gelu(m @ params[f"{h}.mlp.w1"].data + params[f"{h}.mlp.b1"].data)[0]
        x = x + (m @ params[f"{h}.mlp.w2"].data + params[f"{h}.mlp.b2"].data)
    last = ad.np_layer_norm(x[:, -1, :], params["lnf.g"].data, params["lnf.b"].data)[0]
    return last @ params["head.w"].data


def _shape_groups(prompts: list[Prompt]) -> list[list[int]]:
    """Prompt indices grouped by (modality, length), groups in first-seen order."""
    groups: dict[tuple[str, int], list[int]] = {}
    for i, p in enumerate(prompts):
        groups.setdefault((p.modality, len(p.tokens)), []).append(i)
    return list(groups.values())


def _decode_batch(
    model: TeacherModel,
    prompts: list[Prompt],
    max_new: int,
    temperature: float = 1.0,
    rngs: list[np.random.Generator] | None = None,
) -> tuple[list[list[int]], list[bool], np.ndarray | None]:
    """Incremental decoding with per-layer key/value caches.

    All prompts must share one modality and length (callers group). With no
    ``rngs`` every row takes the argmax and nothing is recorded. With one rng
    per row, rows are sampled at ``temperature`` and the third return value
    is a (B, max_new) array of each chosen token's unadjusted log-prob (zero
    past a completion's end). Completions keep the terminating <eos> when
    emitted; the flags say which did.
    """
    tok_emb = model.params["tok_emb"].data
    pos_emb = model.params["pos_emb"].data
    caches: list[dict[str, np.ndarray]] = [{} for _ in range(model.cfg.n_layers)]
    with ad.no_grad():
        embs = [model.embed_sequence(p, [])[0].data for p in prompts]
    batch = np.stack(embs)  # (B, L0, d)
    B, L0 = batch.shape[:2]
    if L0 + max_new > model.cfg.max_seq_len:
        raise LengthError(
            f"prompt length {L0} + max_new {max_new} exceeds max_seq_len {model.cfg.max_seq_len}"
        )
    logits = _decode_step(model.params, model.cfg, batch + pos_emb[:L0], caches)
    outs: list[list[int]] = [[] for _ in prompts]
    done = np.zeros(B, dtype=bool)
    logps = None if rngs is None else np.zeros((B, max_new))
    for step in range(max_new):
        live = np.flatnonzero(~done)
        nxt = np.zeros(B, dtype=np.int64)
        if rngs is None:
            nxt[live] = np.argmax(logits[live], axis=-1)
        else:
            for b in live:
                p = ad.np_softmax(logits[b] / temperature)
                nxt[b] = rngs[b].choice(len(p), p=p)
            # logp_old: the chosen token's log-prob under the unadjusted
            # logits it was drawn from, whatever the temperature.
            lp = ad.np_log_softmax(logits)
            logps[live, step] = lp[live, nxt[live]]
        for b in live:
            outs[b].append(int(nxt[b]))
        done[live] = nxt[live] == EOS
        if done.all() or step == max_new - 1:
            break
        rows = (tok_emb[nxt] + pos_emb[L0 + step])[:, None, :]
        logits = _decode_step(model.params, model.cfg, rows, caches)
    return outs, [bool(f) for f in done], logps


def sample_completions_batch(
    model: TeacherModel,
    units: list[tuple[Prompt, np.random.Generator]],
    temperature: float,
    max_new: int,
) -> list[Trajectory]:
    """Ancestral sampling until <eos> or max_new tokens, one rng per unit.

    Decoding runs incrementally with key/value caches, grouped by prompt
    shape; each unit consumes its rng independently of grouping, so tokens
    do not depend on which units share a batch. Each token's log-prob under
    the unadjusted model (logp_old, defining pi_old) is read from the decode
    logits it was drawn from. A teacher-forced recomputation, or a call with
    other units in the batch, agrees with it to rounding (within 1e-12), not
    bit for bit.
    """
    if temperature <= 0:
        raise ConfigurationError(f"temperature must be > 0, got {temperature}")
    if max_new < 1:
        raise ConfigurationError("max_new must be >= 1")
    prompts = [p for p, _ in units]
    results: list[Trajectory | None] = [None] * len(units)
    for idxs in _shape_groups(prompts):
        outs, finished, logps = _decode_batch(
            model, [prompts[i] for i in idxs], max_new, temperature, [units[i][1] for i in idxs]
        )
        for b, i in enumerate(idxs):
            n = len(outs[b])
            results[i] = Trajectory(
                example_id="",
                conditioning_modality=prompts[i].modality,
                tokens=outs[b],
                logp_old=logps[b, :n].tolist(),
                finished=finished[b],
            )
    return results  # type: ignore[return-value]


def greedy_decode_batch(
    model: TeacherModel, prompts: list[Prompt], max_new: int
) -> list[list[int]]:
    """Deterministic argmax decoding, batched over prompts of equal shape.

    Token choices do not depend on which prompts share a batch. Returns
    tokens without the terminating <eos>.
    """
    results: list[list[int] | None] = [None] * len(prompts)
    for idxs in _shape_groups(prompts):
        outs, finished, _ = _decode_batch(model, [prompts[i] for i in idxs], max_new)
        for b, i in enumerate(idxs):
            results[i] = outs[b][:-1] if finished[b] else outs[b]
    return results  # type: ignore[return-value]


def padded_log_probs(
    model: TeacherModel, items: list[tuple[Prompt, list[int]]]
) -> tuple[Tensor, list[int]]:
    """Teacher-forced log-softmax over many (prompt, completion) pairs.

    The package's one teacher-forced pass: one padded, batched backbone
    pass. Returns log-probs of shape (B, Lmax, V) and each item's <sep>
    index: row ``seps[i] + t`` of item ``i`` is the distribution of its
    completion token ``t``.
    """
    embs, seps = [], []
    for prompt, completion in items:
        e, sep = model.embed_sequence(prompt, completion)
        embs.append(e)
        seps.append(sep)
    return ad.log_softmax(backbone_logits(model.params, model.cfg, ad.stack_pad(embs))), seps


def batched_completion_logps(
    model: TeacherModel, items: list[tuple[Prompt, list[int]]]
) -> tuple[Tensor, np.ndarray]:
    """Per-token completion log-probs for many (prompt, completion) pairs.

    Runs one padded, batched backbone pass with gradients. Returns a flat
    tensor of log-probs (ordered by item, then position) and a parallel
    integer array mapping each entry to its item index.
    """
    if not items:
        raise ModalityError("batched_completion_logps given no items")
    logp, seps = padded_log_probs(model, items)
    b_idx, l_idx, v_idx = [], [], []
    for i, (_, completion) in enumerate(items):
        for t, tok in enumerate(completion):
            b_idx.append(i)
            l_idx.append(seps[i] + t)
            v_idx.append(tok)
    return ad.gather_bld(logp, b_idx, l_idx, v_idx), np.asarray(b_idx, dtype=np.int64)


def save_model(model: TeacherModel, path: str | Path) -> None:
    meta = {"kind": model.kind, "config": asdict(model.cfg)}
    save_checkpoint(path, model.params, meta)


def load_model(path: str | Path) -> TeacherModel:
    params, meta = load_checkpoint(path)
    try:
        cfg = ModelConfig(**meta["config"])
        kind = meta["kind"]
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: not a model checkpoint ({type(e).__name__}: {e})") from None
    if kind == "student":
        return StudentModel(cfg, params)
    return TeacherModel(cfg, params)
