"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Every value is a :class:`Tensor` wrapping a row-major float64 ndarray.
Operations build a graph of parent links plus backward closures;
``backward()`` on a scalar root walks the graph in reverse topological
order, accumulating (never overwriting) gradient contributions.

No views or strides are exposed: ops copy freely. This keeps backward
rules simple and makes exact, bit-reproducible gradient checking cheap
at desk scale.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "exp",
    "matmul",
    "reshape",
    "concat_rows",
    "pad_rows",
    "unpad_rows",
    "gather",
    "embedding",
    "log_softmax",
    "layer_norm",
    "gelu",
    "causal_attention",
    "sum_all",
]

# Grad mode is per thread (per context): no_grad() in one thread never changes
# what another thread sees.
_GRAD_ENABLED: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


# Additive attention mask for positions a query may not see.
MASK_NEG = -1e30
_GELU_C = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# Softmax kernels on bare arrays. The ops below run them, and so does the
# sampler in model.py, which draws tokens from plain logits.
# ---------------------------------------------------------------------------


def np_softmax(z: np.ndarray) -> np.ndarray:
    """Max-stabilized softmax over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def np_log_softmax(z: np.ndarray) -> np.ndarray:
    """Max-stabilized log-softmax over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class Tensor:
    """Dense float64 tensor with an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A C-ordered copy, never zero-filled first: a backward may hand
            # on a transposed view, and matmul rounds differently on one.
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar root, summing into .grad fields."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar root, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to the given (possibly broadcast) input shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(-g)

    return _make(-a.data, (a,), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return _make(a.data * s, (a,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * data)

    return _make(data, (a,), backward)


def matmul(a: Tensor, b: Tensor, lengths=None, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus ``bias`` if given.

    With ``lengths``, ``a`` holds packed rows (N, d) of sequences with those
    lengths, and results and gradients are bit for bit those of the padded
    (B, Lmax, d) batch. The forward computes the N rows only: a plain
    product's rows round alike whatever the row count, except that a one-row
    product takes matmul's vector path, so one-row sequences (decoding steps)
    take it too. The backward runs on the padded layout, zero rows for
    padding, because the transposed products and the sums over rows and then
    sequences round with the shape they are given.
    """
    if a.data.ndim < 1 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    if lengths is None:
        idx, layout = None, lambda x: x
        data = np.matmul(a.data, b.data)
    else:
        idx = packed_index(lengths)
        layout = lambda x: _padded(x, lengths, idx)
        one_row = max(lengths) == 1
        data = np.matmul(a.data[:, None], b.data)[:, 0] if one_row else a.data @ b.data
    if bias is not None:
        data = data + bias.data

    def backward(g):
        g = layout(g)
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.shape) if idx is None else ga[idx])
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(layout(a.data), -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))

    return _make(data, (a, b) if bias is None else (a, b, bias), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = a.shape
    data = a.data.reshape(shape).copy()

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(orig))

    return _make(data, (a,), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the first axis."""
    data = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.data.shape[0] for p in parts]

    def backward(g):
        off = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                p.accumulate_grad(g[off : off + n])
            off += n

    return _make(data, tuple(parts), backward)


def packed_index(lengths) -> tuple[np.ndarray, np.ndarray]:
    """(sequence, position) of each packed row of sequences with ``lengths``,
    stored back to back."""
    lengths = np.asarray(lengths, dtype=np.int64)
    seq = np.repeat(np.arange(len(lengths)), lengths)
    return seq, np.arange(len(seq)) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _padded(a: np.ndarray, lengths, idx) -> np.ndarray:
    """Packed rows ``a`` laid out as (B, Lmax, .), zero rows at each sequence's end."""
    out = np.zeros((len(lengths), max(lengths), a.shape[-1]))
    out[idx] = a
    return out


def pad_rows(x: Tensor, lengths) -> Tensor:
    """Packed rows (N, d) of sequences with ``lengths`` -> (B, Lmax, d),
    zero-padding each sequence at its end. ``unpad_rows`` inverts it."""
    idx = packed_index(lengths)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g[idx])

    return _make(_padded(x.data, lengths, idx), (x,), backward)


def unpad_rows(x: Tensor, lengths) -> Tensor:
    """(B, Lmax, d) -> the packed (N, d) rows of sequences with ``lengths``."""
    idx = packed_index(lengths)

    def backward(g):
        if x.requires_grad:
            # Each packed row has its own slot: a plain copy, no np.add.at.
            full = np.zeros_like(x.data)
            full[idx] = g
            x.accumulate_grad(full)

    return _make(x.data[idx], (x,), backward)


def gather(x: Tensor, idx: tuple) -> Tensor:
    """Pick ``x.data[idx]`` for a tuple of integer index arrays."""
    idx = tuple(np.asarray(i, dtype=np.int64) for i in idx)
    data = x.data[idx]

    def backward(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.add.at(full, idx, g)
            x.accumulate_grad(full)

    return _make(data, (x,), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Look up rows of ``table`` by integer ids of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        bad = int(np.argmax((ids < 0) | (ids >= table.data.shape[0])))
        raise IndexError(f"embedding id out of range at flat position {bad}")
    data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
            table.accumulate_grad(gt)

    return _make(data, (table,), backward)


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis, max-stabilized."""
    if not np.all(np.isfinite(a.data)):
        raise FloatingPointError("log_softmax input contains non-finite values")
    data = np_log_softmax(a.data)
    p = np.exp(data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g - p * g.sum(axis=-1, keepdims=True))

    return _make(data, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    mu = x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data
    n = x.data.shape[-1]

    def backward(g):
        if gain.requires_grad:
            gg = (g * xhat).reshape(-1, n).sum(axis=0)
            gain.accumulate_grad(_unbroadcast(gg, gain.shape))
        if bias.requires_grad:
            gb = g.reshape(-1, n).sum(axis=0)
            bias.accumulate_grad(_unbroadcast(gb, bias.shape))
        if x.requires_grad:
            gx_hat = g * gain.data
            s1 = gx_hat.sum(axis=-1, keepdims=True)
            s2 = (gx_hat * xhat).sum(axis=-1, keepdims=True)
            gx = inv * (gx_hat - s1 / n - xhat * s2 / n)
            x.accumulate_grad(gx)

    return _make(data, (x, gain, bias), backward)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximate GELU."""
    t = np.tanh(_GELU_C * (x.data + 0.044715 * ((x.data * x.data) * x.data)))
    data = 0.5 * x.data * (1.0 + t)

    def backward(g):
        if x.requires_grad:
            du = _GELU_C * (1.0 + 3 * 0.044715 * (x.data * x.data))
            dt = (1.0 - t**2) * du
            x.accumulate_grad(g * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

    return _make(data, (x,), backward)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal attention as one node.

    The Lq rows of q (B, Lq, d) are the last Lq of the Lk positions in k and
    v (B, Lk, d); the output is (B, Lq, d). Backward uses the closed-form
    softmax gradient dS = P*(dP - rowsum(dP*P)).
    """
    if not all(np.all(np.isfinite(x.data)) for x in (q, k, v)):
        raise FloatingPointError("causal_attention input contains non-finite values")
    B, Lq, d = q.shape
    Lk = k.shape[1]
    hd = d // n_heads
    inv_sqrt = 1.0 / math.sqrt(hd)
    qh, vh = (x.data.reshape(B, -1, n_heads, hd).transpose(0, 2, 1, 3).copy() for x in (q, v))
    # A contiguous copy: matmul rounds differently on the transposed view.
    kt = k.data.reshape(B, Lk, n_heads, hd).transpose(0, 2, 3, 1).copy()
    mask = np.where(np.tril(np.ones((Lq, Lk), dtype=bool), Lk - Lq), 0.0, MASK_NEG)
    p = np_softmax((qh @ kt) * inv_sqrt + mask)
    data = (p @ vh).transpose(0, 2, 1, 3).reshape(B, Lq, d)

    def merge(x):  # (B, H, L, hd) -> (B, L, d)
        return x.transpose(0, 2, 1, 3).reshape(B, -1, d)

    def backward(g):
        gh = g.reshape(B, Lq, n_heads, -1).transpose(0, 2, 1, 3).copy()
        if v.requires_grad:
            v.accumulate_grad(merge(np.swapaxes(p, -1, -2) @ gh))
        dp = gh @ np.swapaxes(vh, -1, -2)
        ds = (p * (dp - (dp * p).sum(axis=-1, keepdims=True))) * inv_sqrt
        if q.requires_grad:
            q.accumulate_grad(merge(ds @ np.swapaxes(kt, -1, -2)))
        if k.requires_grad:
            k.accumulate_grad(merge(np.swapaxes(np.swapaxes(qh, -1, -2) @ ds, -1, -2)))

    return _make(data, (q, k, v), backward)


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g)))

    return _make(data, (a,), backward)
