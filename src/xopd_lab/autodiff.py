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
    "transpose",
    "permute",
    "reshape",
    "concat_rows",
    "stack_pad",
    "gather_bld",
    "embedding",
    "softmax",
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


# ---------------------------------------------------------------------------
# Forward kernels on bare arrays. The ops below and the KV-cache decoder in
# model.py both run these, so the two paths share one copy of the math.
# ---------------------------------------------------------------------------

# Additive attention mask for positions a query may not see.
MASK_NEG = -1e30
_GELU_C = math.sqrt(2.0 / math.pi)


def np_softmax(z: np.ndarray) -> np.ndarray:
    """Max-stabilized softmax over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def np_log_softmax(z: np.ndarray) -> np.ndarray:
    """Max-stabilized log-softmax over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def np_layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis; returns (output, xhat, 1/std)."""
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv


def np_gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximate GELU; returns (output, tanh term)."""
    t = np.tanh(_GELU_C * (x + 0.044715 * ((x * x) * x)))
    return 0.5 * x * (1.0 + t), t


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
            self.grad = np.zeros_like(self.data)
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 1 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.shape))

    return _make(data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    data = np.swapaxes(a.data, -1, -2).copy()

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.swapaxes(g, -1, -2))

    return _make(data, (a,), backward)


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Reorder axes; gradient applies the inverse permutation."""
    inv = tuple(int(i) for i in np.argsort(axes))
    data = np.transpose(a.data, axes).copy()

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.transpose(g, inv))

    return _make(data, (a,), backward)


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


def stack_pad(parts: Sequence[Tensor]) -> Tensor:
    """Stack (L_i, d) tensors into (B, Lmax, d), zero-padding rows at the end."""
    Lmax = max(p.data.shape[0] for p in parts)
    d = parts[0].data.shape[1]
    data = np.zeros((len(parts), Lmax, d))
    for i, p in enumerate(parts):
        data[i, : p.data.shape[0]] = p.data

    def backward(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                p.accumulate_grad(g[i, : p.data.shape[0]])

    return _make(data, tuple(parts), backward)


def gather_bld(x: Tensor, b_idx, l_idx, v_idx) -> Tensor:
    """Pick x[b, l, v] for parallel index arrays; returns a flat vector."""
    b = np.asarray(b_idx, dtype=np.int64)
    l = np.asarray(l_idx, dtype=np.int64)
    v = np.asarray(v_idx, dtype=np.int64)
    data = x.data[b, l, v]

    def backward(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.add.at(full, (b, l, v), g)
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


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-stabilized."""
    if not np.all(np.isfinite(a.data)):
        raise FloatingPointError("softmax input contains non-finite values")
    data = np_softmax(a.data)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=-1, keepdims=True)
            a.accumulate_grad(data * (g - dot))

    return _make(data, (a,), backward)


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
    data, xhat, inv = np_layer_norm(x.data, gain.data, bias.data, eps)
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
    data, t = np_gelu(x.data)

    def backward(g):
        if x.requires_grad:
            du = _GELU_C * (1.0 + 3 * 0.044715 * (x.data * x.data))
            dt = (1.0 - t**2) * du
            x.accumulate_grad(g * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

    return _make(data, (x,), backward)


def causal_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention with a strict lower-triangular mask.

    q, k, v share trailing shape (..., L, d_head); position t attends to
    positions <= t only.
    """
    L = q.data.shape[-2]
    d = q.data.shape[-1]
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d))
    mask = np.where(np.tril(np.ones((L, L), dtype=bool)), 0.0, MASK_NEG)
    attn = softmax(add(scores, Tensor(mask)))
    return matmul(attn, v)


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g)))

    return _make(data, (a,), backward)
