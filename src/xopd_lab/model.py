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
    check_field_types,
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
        check_field_types(self)
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


def prompt_for(ex, modality: str) -> Prompt:
    """The prompt a model reading ``modality`` gets from paired example
    ``ex``: its ``text_prompt`` for TEXT, its ``speech_prompt`` for SPEECH."""
    return Prompt(modality, ex.text_prompt if modality == TEXT else ex.speech_prompt)


@dataclass
class Trajectory:
    """One sampled completion with log-probs recorded at sampling time."""

    conditioning_modality: str
    tokens: list[int]
    logp_old: list[float]  # sampling log pi_old(y_t | ., y_<t)

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.logp_old) or not self.tokens:
            raise UsageError("trajectory needs >= 1 token with matching logp_old")

    @property
    def finished(self) -> bool:
        """Whether sampling ended at <eos> rather than at the token budget."""
        return self.tokens[-1] == EOS


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


def backbone_logits(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    emb: Tensor,
    rows: list[np.ndarray],
    caches: list[list[dict[str, Tensor]]] | None = None,
) -> Tensor:
    """Run the transformer over packed embedded rows (N, d) -> logits (N, V).

    The package's one transformer forward. ``rows`` holds one (B, L) row
    index per attention batch (see ``autodiff.RowIndex``): entry [s, l] is
    the row of ``emb`` at sequence s's position l, -1 past its end, and one
    call may carry several batches. The embeddings, layer norms, GELU and
    the wo, MLP and head products run once per row, however many positions
    share it. Each batch is padded to its (B, L, d) once per layer for the
    q, k and v products and ``causal_attention``, whose causal mask keeps a
    sequence's real rows from seeing its padding at the end; ``matmul``'s
    backward runs on the padded layout, so results and gradients are bit
    for bit the padded batch's. With ``caches`` (one list of per-layer dicts
    per batch, used by the decoder) a batch's rows are its newest positions:
    each layer's keys and values for the earlier ones come from its cache,
    which is extended in place.
    """
    caches = caches or [None] * len(rows)
    starts = [c[0]["k"].shape[1] if c and c[0] else 0 for c in caches]
    L = max(start + r.shape[1] for start, r in zip(starts, rows))
    if L > cfg.max_seq_len:
        raise LengthError(f"sequence length {L} exceeds max_seq_len {cfg.max_seq_len}")
    idx = ad.RowIndex(rows, starts)
    x = ad.add(emb, ad.embedding(params["pos_emb"], idx.position))
    for i in range(cfg.n_layers):
        h = f"h{i}"
        a = ad.layer_norm(x, params[f"{h}.ln1.g"], params[f"{h}.ln1.b"])
        attn = []
        for b, cache in enumerate(caches):
            ab = ad.pad_rows(a, idx, b)
            q, k, v = (ad.matmul(ab, params[f"{h}.attn.{w}"]) for w in ("wq", "wk", "wv"))
            if cache is not None:
                c = cache[i]
                k = c["k"] = Tensor(np.concatenate([c["k"].data, k.data], 1)) if "k" in c else k
                v = c["v"] = Tensor(np.concatenate([c["v"].data, v.data], 1)) if "v" in c else v
            attn.append(ad.causal_attention(q, k, v, cfg.n_heads))
        x = ad.add(x, ad.matmul(ad.unpad_rows(attn, idx), params[f"{h}.attn.wo"], idx))
        m = ad.layer_norm(x, params[f"{h}.ln2.g"], params[f"{h}.ln2.b"])
        m = ad.gelu(ad.matmul(m, params[f"{h}.mlp.w1"], idx, params[f"{h}.mlp.b1"]))
        x = ad.add(x, ad.matmul(m, params[f"{h}.mlp.w2"], idx, params[f"{h}.mlp.b2"]))
    x = ad.layer_norm(x, params["lnf.g"], params["lnf.b"])
    return ad.matmul(x, params["head.w"], idx)


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


def check_backbone(teacher: TeacherModel, cfg: ModelConfig) -> None:
    """Refuse a student ``cfg`` whose backbone fields differ from the
    teacher's, so the student's text behaviour is the teacher's."""
    for name, value in asdict(cfg).items():
        theirs = getattr(teacher.cfg, name)
        if value != theirs and name not in ("speech_vocab_size", "frames_per_token", "speech_embed_dim"):
            raise ConfigurationError(f"student {name} {value} differs from the teacher backbone's {theirs}")


def init_student_from_teacher(teacher: TeacherModel, cfg: ModelConfig, seed: int) -> StudentModel:
    """Copy the teacher backbone; draw tower/adapter from the seed. Every
    backbone field of ``cfg`` must equal the teacher's (``check_backbone``)."""
    check_backbone(teacher, cfg)
    params = {
        name: Tensor(t.data.copy(), requires_grad=True) for name, t in teacher.params.items()
    }
    rng = np.random.default_rng([seed, 0x5107])
    params["tower.emb"] = _normal(rng, (cfg.speech_vocab_size, cfg.speech_embed_dim))
    params["adapter.w"] = _normal(rng, (cfg.frames_per_token * cfg.speech_embed_dim, cfg.embed_dim))
    params["adapter.b"] = Tensor(np.zeros(cfg.embed_dim), requires_grad=True)
    return StudentModel(cfg, params)


def _draw(logits: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """One token per row of ``logits``, drawn from the row's softmax with the
    row's rng by ``rng.choice(V, p=p)``'s own recipe: the normalised cumsum,
    one ``rng.random()`` and a right-sided search. So the index and the rng's
    state equal those of that call."""
    cdf = np.cumsum(ad.np_softmax(logits), axis=1)
    cdf /= cdf[:, -1:]
    u = np.array([rng.random() for rng in rngs])
    # A row's cdf is sorted, so this counts what searchsorted(side="right") finds.
    return (cdf <= u[:, None]).sum(axis=1)


def _decode(
    model: TeacherModel,
    prompts: list[Prompt],
    max_new: int,
    rngs: list[np.random.Generator] | None = None,
) -> list[tuple[list[int], list[float]]]:
    """Incremental decoding: ``backbone_logits`` with per-layer key/value caches.

    Prompts of one (modality, length) form one attention batch with its own
    caches, and every batch steps in lockstep: one ``backbone_logits`` call
    per step. The first call prefills each batch's distinct prompts once,
    and every copy of a prompt starts from its keys, values and logits.
    After each step the rows that emitted <eos> retire: they leave the next
    input and their batch's cached keys and values, so no step computes a
    finished row. With no ``rngs`` every live row takes the argmax; with one
    rng per prompt, all live rows are drawn at once at temperature 1 (see
    ``_draw``). A non-finite logit raises ``FloatingPointError``. Returns
    (tokens, logps) per prompt, in prompt order: tokens keep the
    terminating <eos> when emitted, and logps holds each chosen token's
    log-prob under the logits it was chosen from.
    """
    if max_new < 1:
        raise ConfigurationError("max_new must be >= 1")
    groups: dict[tuple[str, int], dict[tuple[int, ...], list[int]]] = {}
    for i, p in enumerate(prompts):
        groups.setdefault((p.modality, len(p.tokens)), {}).setdefault(tuple(p.tokens), []).append(i)
    outs: list[list[int]] = [[] for _ in prompts]
    logps: list[list[float]] = [[] for _ in prompts]
    with ad.no_grad():
        # Per batch: row j decodes prompts[live[j]], a copy of distinct prompt src[j].
        embs, rows, srcs, live, n = [], [], [], [], 0
        for copies in groups.values():
            e = [model.embed_sequence(prompts[c[0]], [])[0].data for c in copies.values()]
            rows.append(n + np.arange(len(e) * len(e[0])).reshape(len(e), -1))
            srcs.append(np.repeat(np.arange(len(copies)), [len(c) for c in copies.values()]))
            live.append(np.concatenate(list(copies.values())))
            embs += e
            n += rows[-1].size
        caches = [[{} for _ in range(model.cfg.n_layers)] for _ in rows]
        logits = backbone_logits(model.params, model.cfg, Tensor(np.concatenate(embs)), rows, caches).data
        logits = logits[np.concatenate([r[src, -1] for r, src in zip(rows, srcs)])]
        for cache, src in zip(caches, srcs):
            for c in cache:
                c["k"], c["v"] = Tensor(c["k"].data[src]), Tensor(c["v"].data[src])
        for step in range(max_new):
            if not np.isfinite(logits).all():
                raise FloatingPointError("decoder logits contain non-finite values")
            order = np.concatenate(live)
            if rngs is None:
                nxt = logits.argmax(axis=1)
            else:
                nxt = _draw(logits, [rngs[i] for i in order])
            lp = ad.np_log_softmax(logits)[np.arange(order.size), nxt]
            for i, t, logp in zip(order, nxt, lp):
                outs[i].append(int(t))
                logps[i].append(float(logp))
            going = nxt != EOS
            if step == max_new - 1 or not going.any():
                break
            for b, keep in enumerate(np.split(going, np.cumsum([x.size for x in live])[:-1])):
                if not keep.all():
                    live[b] = live[b][keep]
                    for c in caches[b]:
                        c["k"], c["v"] = Tensor(c["k"].data[keep]), Tensor(c["v"].data[keep])
            caches = [c for c, x in zip(caches, live) if x.size]
            live = [x for x in live if x.size]
            sizes = np.array([x.size for x in live])
            rows = [(off + np.arange(k))[:, None] for off, k in zip(np.cumsum(sizes) - sizes, sizes)]
            emb = ad.embedding(model.params["tok_emb"], nxt[going])
            logits = backbone_logits(model.params, model.cfg, emb, rows, caches).data
    return list(zip(outs, logps))


def sample_completions_batch(
    model: TeacherModel,
    units: list[tuple[Prompt, np.random.Generator]],
    max_new: int,
) -> list[Trajectory]:
    """Ancestral sampling until <eos> or max_new tokens, one rng per unit.

    Each token costs its unit's rng one ``rng.random()``, and the token and
    the rng's state equal those of ``rng.choice(V, p=softmax(logits))``. A
    unit stops drawing once it emits <eos>, so tokens do not depend on
    which units share a batch. Tokens are drawn at temperature 1,
    so each token's sampling log-prob (logp_old, defining pi_old) is its
    log-prob under the model, read from the decode logits it was drawn from.
    A batched call equals one-unit calls bit for bit (tokens, logp_old and
    rng states); only a teacher-forced recomputation differs, to rounding
    (within 1e-12).
    """
    decoded = _decode(model, [p for p, _ in units], max_new, [rng for _, rng in units])
    return [
        Trajectory(prompt.modality, tokens, logps) for (prompt, _), (tokens, logps) in zip(units, decoded)
    ]


def greedy_decode_batch(
    model: TeacherModel, prompts: list[Prompt], max_new: int
) -> list[list[int]]:
    """Deterministic argmax decoding, batched over prompts of equal shape.

    Token choices do not depend on which prompts share a batch. Returns
    tokens without the terminating <eos>.
    """
    decoded = _decode(model, prompts, max_new)
    return [tokens[:-1] if tokens[-1] == EOS else tokens for tokens, _ in decoded]


def _prefix_rows(
    model: TeacherModel, items: list[tuple[Prompt, list[int]]]
) -> tuple[Tensor, np.ndarray, list[int]]:
    """Each distinct prefix of ``items`` as one embedded row: items with one
    prompt share its <bos> prompt <sep> rows, embedded once, and completions
    that begin alike share the rows of the tokens they share (a completion
    row is its text token's embedding). Returns the rows (N, d), the (B, L)
    row index for ``backbone_logits`` and each item's <sep> position."""
    prompts: dict[tuple[str, tuple[int, ...]], tuple[int, int]] = {}  # -> (first row, sep)
    after: dict[tuple[int, int], int] = {}  # (row, next token) -> the next token's row
    blocks: dict[int, np.ndarray] = {}  # first row -> a prompt's embedded rows
    token_rows, tokens, index, seps = [], [], [], []
    n = 0
    for prompt, completion in items:
        key = (prompt.modality, tuple(prompt.tokens))
        if key not in prompts:
            e, sep = model.embed_sequence(prompt, [])
            prompts[key], blocks[n] = (n, sep), e.data
            n += sep + 1
        start, sep = prompts[key]
        seq = list(range(start, start + sep + 1))
        for token in completion:
            seq.append(after.setdefault((seq[-1], token), n))
            if seq[-1] == n:
                token_rows.append(n)
                tokens.append(token)
                n += 1
        index.append(seq)
        seps.append(sep)
    emb = np.empty((n, model.cfg.embed_dim))
    for start, block in blocks.items():
        emb[start : start + len(block)] = block
    emb[token_rows] = ad.embedding(model.params["tok_emb"], tokens).data
    rows = np.full((len(index), max(map(len, index))), -1)
    for b, seq in enumerate(index):
        rows[b, : len(seq)] = seq
    return Tensor(emb), rows, seps


def completion_log_probs(model: TeacherModel, items: list[tuple[Prompt, list[int]]]) -> Tensor:
    """The package's one teacher-forced pass: one backbone pass over the
    packed rows of many (prompt, completion) pairs, with no padding outside
    attention. Where no graph is recorded (a pass under ``no_grad``), each
    distinct prefix is one row (``_prefix_rows``); otherwise every position
    of every pair is its own row, as a shared row would sum its gradients
    in another order. Returns one log-softmax row per completion token,
    shape (T, V), ordered by item and then position, so passes over the
    same completions align whatever their prompts. A recorded pass keeps
    only the values its backward reads (``autodiff.release``)."""
    if not items:
        raise ModalityError("completion_log_probs given no items")
    if ad.grad_enabled():
        embedded = [model.embed_sequence(prompt, completion) for prompt, completion in items]
        emb = ad.concat_rows([e for e, _ in embedded])
        rows = ad.packed_rows([e.shape[0] for e, _ in embedded])
        seps = [sep for _, sep in embedded]
    else:
        emb, rows, seps = _prefix_rows(model, items)
    logits = backbone_logits(model.params, model.cfg, emb, [rows])
    # Row [b, sep + t] predicts completion token t of item b.
    clens = [len(completion) for _, completion in items]
    b = np.repeat(np.arange(len(items)), clens)
    t = np.arange(len(b)) - np.repeat(np.cumsum(clens) - clens, clens)
    out = ad.log_softmax(ad.gather(logits, (rows[b, np.repeat(seps, clens) + t],)))
    ad.release(out)
    return out


def batched_completion_logps(model: TeacherModel, items: list[tuple[Prompt, list[int]]]) -> Tensor:
    """Per-token completion log-probs, shape (T,): each completion token
    picked from its row of ``completion_log_probs``, with gradients."""
    rows = completion_log_probs(model, items)
    tokens = np.concatenate([completion for _, completion in items])
    return ad.gather(rows, (np.arange(len(tokens)), tokens))


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
