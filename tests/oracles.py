"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (loops, closed forms, exhaustive
enumeration) and imports nothing from the package under test. The model
references read a model's parameters (``model.params[name].data``) and its
config (``model.cfg``) by name and recompute everything else themselves.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def naive_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def naive_causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Loop-based scaled dot-product attention with a causal mask."""
    out = np.zeros_like(q)
    *lead, L, hd = q.shape
    for idx in product(*(range(n) for n in lead)):
        for t in range(L):
            scores = np.array([q[idx + (t,)] @ k[idx + (u,)] for u in range(t + 1)])
            w = naive_softmax(scores / math.sqrt(hd))
            out[idx + (t,)] = sum(w[u] * v[idx + (u,)] for u in range(t + 1))
    return out


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for two distributions on the last axis, summed over rows."""
    return float(np.sum(p * (np.log(p) - np.log(q))))


def softmax_kl_gradient(theta: np.ndarray, target_logp: np.ndarray) -> np.ndarray:
    """d/d theta of KL(softmax(theta) || exp(target_logp)), closed form.

    For p = softmax(theta): dKL/dtheta_i = p_i * (log p_i - target_logp_i
    - sum_j p_j (log p_j - target_logp_j)).
    """
    p = naive_softmax(theta)
    diff = np.log(p) - target_logp
    return p * (diff - (p * diff).sum(axis=-1, keepdims=True))


def binomial_tail(n: int, p: float, k: int) -> float:
    """P(Binom(n, p) > k) computed by direct summation."""
    total = 0.0
    for i in range(k + 1, n + 1):
        total += math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
    return min(1.0, max(0.0, total))


def enumerate_completions(vocab: int, max_len: int, eos: int):
    """All completions of length <= max_len, where <eos> ends a sequence.

    Yields token tuples: either ending in <eos> or of full length max_len.
    Their model probabilities sum to 1 for any autoregressive model.
    """
    def rec(prefix: tuple[int, ...]):
        if prefix and prefix[-1] == eos:
            yield prefix
            return
        if len(prefix) == max_len:
            yield prefix
            return
        for t in range(vocab):
            yield from rec(prefix + (t,))

    yield from rec(())


# ---------------------------------------------------------------------------
# Model forward: one sequence, plain numpy, no cache, no padding, no autodiff
# ---------------------------------------------------------------------------

# The corpus's fixed special token ids: <bos> opens and <sep> closes a prompt.
BOS, SEP = 1, 3


def naive_log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _naive_layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * g + b


def _naive_gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def naive_full_logits(model, modality: str, prompt: list[int], completion: list[int]) -> np.ndarray:
    """Logits (L, V) of every position of ``<bos> prompt <sep> completion``.

    A TEXT prompt embeds its token ids; a SPEECH prompt pools each token's
    frames through the student's tower and adapter into one position. Row
    ``L - 1 - len(completion) + t`` is the distribution of completion token
    ``t``, and the last row is that of the next token.
    """
    P = {name: t.data for name, t in model.params.items()}
    cfg = model.cfg
    tok = P["tok_emb"]
    if modality == "TEXT":
        x = tok[[BOS] + list(prompt) + [SEP] + list(completion)]
    else:
        F = cfg.frames_per_token
        frames = P["tower.emb"][list(prompt)].reshape(len(prompt) // F, -1)
        speech = frames @ P["adapter.w"] + P["adapter.b"]
        x = np.concatenate([tok[[BOS]], speech, tok[[SEP] + list(completion)]])
    L, d = x.shape
    x = x + P["pos_emb"][:L]
    H = cfg.n_heads
    hd = d // H
    for i in range(cfg.n_layers):
        h = f"h{i}"
        a = _naive_layer_norm(x, P[f"{h}.ln1.g"], P[f"{h}.ln1.b"])
        q, k, v = (a @ P[f"{h}.attn.{w}"] for w in ("wq", "wk", "wv"))
        ctx = np.zeros((L, d))
        for head in range(H):
            cols = slice(head * hd, (head + 1) * hd)
            for t in range(L):
                scores = k[: t + 1, cols] @ q[t, cols] / math.sqrt(hd)
                ctx[t, cols] = naive_softmax(scores) @ v[: t + 1, cols]
        x = x + ctx @ P[f"{h}.attn.wo"]
        m = _naive_layer_norm(x, P[f"{h}.ln2.g"], P[f"{h}.ln2.b"])
        m = _naive_gelu(m @ P[f"{h}.mlp.w1"] + P[f"{h}.mlp.b1"])
        x = x + m @ P[f"{h}.mlp.w2"] + P[f"{h}.mlp.b2"]
    return _naive_layer_norm(x, P["lnf.g"], P["lnf.b"]) @ P["head.w"]


def naive_completion_log_probs(
    model, modality: str, prompt: list[int], completion: list[int]
) -> np.ndarray:
    """Log-softmax rows (len(completion), V): row t is completion token t's
    teacher-forced distribution."""
    logits = naive_full_logits(model, modality, prompt, completion)
    return naive_log_softmax(logits[-len(completion) - 1 : -1])


def naive_token_logps(model, modality: str, prompt: list[int], completion: list[int]) -> np.ndarray:
    """Teacher-forced log-prob of each completion token."""
    lp = naive_completion_log_probs(model, modality, prompt, completion)
    return np.array([lp[t, y] for t, y in enumerate(completion)])


# ---------------------------------------------------------------------------
# Speech codec
# ---------------------------------------------------------------------------


def naive_read_label(codec, frames: list[int], tokens: list[int]) -> int | None:
    """Majority vote over the prosody label carried by each token's last frame.

    The codec maps token ``t`` to frames ``(a_i * t + b_i) mod S`` and shifts
    the last one by ``1 + label``; the pattern is recomputed here from the
    codec's multipliers and offsets.
    """
    F, S = codec.frames_per_token, codec.speech_vocab_size
    a, b = codec.multipliers[F - 1], codec.offsets[F - 1]
    votes = [0] * codec.n_labels
    for pos, t in enumerate(tokens):
        delta = (frames[pos * F + F - 1] - (a * t + b) % S - 1) % S
        if delta < codec.n_labels:
            votes[delta] += 1
    if sum(votes) == 0:
        return None
    return votes.index(max(votes))


def trajectories_of(rollouts, modality: str) -> list:
    """Every trajectory of one conditioning modality in a rollout batch,
    in example order."""
    return [t for per_mod in rollouts.trajectories.values() for t in per_mod.get(modality, [])]
