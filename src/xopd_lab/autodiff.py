"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Every value is a :class:`Tensor` wrapping a row-major float64 ndarray.
Operations build a graph of parent links plus backward closures;
``backward()`` on a scalar root walks the graph in reverse topological
order. Leaf gradients accumulate (never overwrite) across calls; a recorded
graph runs backward once, and each node's gradient and closure go once
they have been used.

Each backward closure captures, when its op is recorded, every array and
shape it will read, so it never reads an input node's ``data`` at backward
time. An op marks the inputs whose values its backward reads, and
``release`` drops the value of every node below a root that no backward
reads (the q/k/v projections, residual sums and logits of a transformer
pass). A marked node keeps its value, the same array its consumer's closure
holds, until the caller drops the root: that keeps the heap warm between
training steps (see ``release``).

No views or strides are exposed: ops copy freely. This keeps backward
rules simple and makes exact, bit-reproducible gradient checking cheap
at desk scale.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "grad_enabled",
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


def grad_enabled() -> bool:
    """Whether ops record a graph here (outside every ``no_grad`` block)."""
    return _GRAD_ENABLED.get()


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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_read")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        # Whether a recorded backward reads this node's value (see ``release``).
        self._read = False

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
        """Backpropagate from a scalar root, summing into the leaves' .grad.

        A recorded graph runs backward once. As each recorded node's closure
        runs, the node lets go of its gradient and its closure (``grad`` and
        ``_backward`` become None), and with them the arrays the closure
        saved; a second ``backward()`` through a used node raises
        ``ValueError``. Leaves (the parameters) keep their gradients, which
        accumulate across calls until ``zero_grad``.

        Closures read only what they captured when their op was recorded,
        so backward needs no node's ``data`` but the root's. Once
        ``release`` has run, a recorded node keeps its ``data`` only if a
        backward reads it; every node keeps its ``_parents``, so the values
        that remain live as long as the caller holds the root. That is
        deliberate: dropping the links too (or the caller dropping its root
        before the next forward), or releasing the values that backward
        reads, empties the heap between training steps, the allocator hands
        the pages back, and every step faults them in again. On a 2-core
        machine, dropping the links made a pretraining step take about
        3,100 minor page faults against under 200, an X-OPD step about
        9,400 against 1,100, and pretraining steps ran 18-37% slower in
        three benchmark pairs; for releasing every value, see ``release``.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar root, got shape {self.shape}")
        topo = _topo(self)
        if any(node._parents and node._backward is None for node in topo):
            raise ValueError("backward() through a graph that has already run backward")
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = None
                node._backward = None

    def __repr__(self) -> str:
        shape = "released" if self.data is None else f"shape={self.shape}"
        return f"Tensor({shape}, requires_grad={self.requires_grad})"


def _topo(root: Tensor) -> list[Tensor]:
    """Every node below ``root`` and ``root`` itself, each after its parents
    (so ``root`` comes last)."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
    return topo


def release(root: Tensor) -> None:
    """Drop the value (``data = None``) of every recorded node below ``root``
    that no recorded backward reads; ``root``, the leaves and the marked
    nodes keep theirs. Backward is unchanged bit for bit, since each closure
    holds what it reads.

    The mark is what keeps the heap warm: a marked node's value is the
    array its consumer's closure holds, and it stays on the node after
    backward has dropped the closure, until the caller drops the root.
    Releasing every interior value instead (closures own what they read)
    lets backward empty the heap, and every step faults its pages in
    again: on a 2-core machine a pretraining step then took about 1,900
    minor page faults against about 160, and an X-OPD step about 5,700
    against about 750.
    """
    for node in _topo(root)[:-1]:
        if node._parents and not node._read:
            node.data = None


def _make(data: np.ndarray, parents: Sequence[Tensor], backward, reads: Sequence[Tensor] = ()) -> Tensor:
    """The op's output; where a graph is recorded, its parents and backward
    closure, and a mark on each input in ``reads``, whose value the closure
    reads (see ``release``)."""
    out = Tensor(data)
    if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        for r in reads:
            r._read = True
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
    sa, sb = a.shape, b.shape

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, sa))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, sb))

    return _make(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(-g)

    return _make(-a.data, (a,), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    data = ad * bd

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * bd, ad.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * ad, bd.shape))

    return _make(data, (a, b), backward, reads=(a, b))


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


def matmul(a: Tensor, b: Tensor, rows: "RowIndex | None" = None, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus ``bias`` if given.

    With ``rows``, ``a`` holds the packed rows (N, d) that ``rows`` lays out,
    and results and gradients are bit for bit those of the padded
    (B, Lmax, d) batch. The forward computes the N rows only: a plain
    product's rows round alike whatever the row count, except that a one-row
    product takes matmul's vector path, so one-row sequences (decoding steps)
    take it too. The backward runs on the padded layout, zero rows for
    padding, because the transposed products and the sums over rows and then
    sequences round with the shape they are given.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 1 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} x {bd.shape}")
    if rows is None:
        layout = lambda x: x
        data = np.matmul(ad, bd)
    else:
        layout = rows.padded
        data = np.matmul(ad[:, None], bd)[:, 0] if rows.one_row else ad @ bd
    sbias = None if bias is None else bias.shape
    if bias is not None:
        data = data + bias.data

    def backward(g):
        g = layout(g)
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(bd, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, ad.shape) if rows is None else rows.packed(ga))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(layout(ad), -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, bd.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, sbias))

    return _make(data, (a, b) if bias is None else (a, b, bias), backward, reads=(a, b))


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


class _Batch(NamedTuple):
    """One attention batch of a ``RowIndex``."""

    shape: tuple[int, int]  # (B, L)
    slot: np.ndarray  # flat (sequence, position) slot of each real entry
    row: np.ndarray  # the packed row of each slot
    first: np.ndarray  # each of the batch's rows' first slot, in row order


class RowIndex:
    """Where the packed rows (N, d) of one forward sit in its attention
    batches; built once per forward and handed to every layout op.

    ``rows`` holds one (B, L) int array per attention batch: entry [s, l] is
    the packed row that holds sequence s's position ``start + l``, where
    ``start`` is the batch's cached length, and -1 marks padding after a
    sequence's end. Rows are numbered batch by batch, in the order of their
    first use. A row may stand for one position of several sequences of its
    batch (a prefix they share) only where no graph is recorded: a recorded
    graph runs through one attention batch of distinct rows, whose gradients
    are then bit for bit those of the padded batch (see ``matmul``).
    """

    def __init__(self, rows, starts):
        self.batches: list[_Batch] = []
        position, n = [], 0
        for r, start in zip(rows, starts):
            r = np.asarray(r, dtype=np.int64)
            real = r >= 0
            slot = np.flatnonzero(real)
            row = r.reshape(-1)[slot]
            ids, first = np.unique(row, return_index=True)
            first = slot[first]
            if (
                (real[:, 1:] & ~real[:, :-1]).any()
                or not np.array_equal(ids, np.arange(n, n + ids.size))
                or (np.diff(first) < 0).any()
                or not np.array_equal((first % r.shape[1])[row - n], slot % r.shape[1])
            ):
                raise ValueError(
                    "row index: padding only at a sequence's end, rows numbered batch by "
                    "batch in order of first use, each at one position"
                )
            self.batches.append(_Batch(r.shape, slot, row, first))
            position.append(start + first % r.shape[1])
            n += ids.size
        self.position = np.concatenate(position)  # of each packed row
        self.one_row = all(b.shape[1] == 1 for b in self.batches)
        shared = n < sum(b.slot.size for b in self.batches)
        if (shared or len(self.batches) > 1) and grad_enabled():
            raise ValueError("shared rows or several attention batches need no_grad()")

    def spread(self, b: int, x: np.ndarray) -> np.ndarray:
        """Packed rows ``x`` laid out as batch ``b``'s (B, L, .): each
        position holds its row, zero rows after each sequence's end."""
        (B, L), slot, row, _ = self.batches[b]
        out = np.zeros((B * L, x.shape[-1]))
        out[slot] = x[row]
        return out.reshape(B, L, -1)

    def padded(self, x: np.ndarray) -> np.ndarray:
        """The one batch's packed rows ``x`` as (B, L, .), each at its first
        position, zero rows elsewhere."""
        ((B, L), _, _, first), = self.batches
        out = np.zeros((B * L, x.shape[-1]))
        out[first] = x
        return out.reshape(B, L, -1)

    def packed(self, x: np.ndarray) -> np.ndarray:
        """The one batch's (B, L, .) layout ``x`` back to its packed rows."""
        (batch,) = self.batches
        return x.reshape(-1, x.shape[-1])[batch.first]


def packed_rows(lengths) -> np.ndarray:
    """The (B, Lmax) rows of sequences with ``lengths`` stored back to back,
    for ``RowIndex``: every row distinct, -1 past each sequence's end."""
    lengths = np.asarray(lengths, dtype=np.int64)
    pos = np.arange(lengths.max())
    return np.where(pos < lengths[:, None], (np.cumsum(lengths) - lengths)[:, None] + pos, -1)


def pad_rows(x: Tensor, rows: RowIndex, b: int) -> Tensor:
    """Packed rows (N, d) -> attention batch ``b``'s (B, L, d), each sequence
    zero-padded at its end. ``unpad_rows`` inverts it."""

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(rows.packed(g))

    return _make(rows.spread(b, x.data), (x,), backward)


def unpad_rows(xs: Sequence[Tensor], rows: RowIndex) -> Tensor:
    """One (B, L, d) tensor per attention batch -> the packed (N, d) rows,
    each read from the first position that uses it."""
    d = xs[0].data.shape[-1]
    shapes = [x.shape for x in xs]
    data = np.empty((rows.position.size, d))
    ends = np.cumsum([b.first.size for b in rows.batches])
    for x, b, end in zip(xs, rows.batches, ends):
        # The indices are in range; mode="clip" lets take fill its out unbuffered.
        out = data[end - b.first.size : end]
        np.take(x.data.reshape(-1, d), b.first, axis=0, out=out, mode="clip")

    def backward(g):
        for x, shape, b, end in zip(xs, shapes, rows.batches, ends):
            if x.requires_grad:
                # Each packed row has its own slot: a plain copy, no np.add.at.
                full = np.zeros(shape)
                full.reshape(-1, d)[b.first] = g[end - b.first.size : end]
                x.accumulate_grad(full)

    return _make(data, tuple(xs), backward)


def gather(x: Tensor, idx: tuple) -> Tensor:
    """Pick ``x.data[idx]`` for a tuple of integer index arrays."""
    idx = tuple(np.asarray(i, dtype=np.int64) for i in idx)
    data = x.data[idx]
    shape = x.shape

    def backward(g):
        if x.requires_grad:
            full = np.zeros(shape)
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
    shape = table.shape

    def backward(g):
        if table.requires_grad:
            gt = np.zeros(shape)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, shape[1]))
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
    n = x.data.shape[-1]
    # Centred once; mean and var are numpy's own recipe, bit for bit.
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / n + eps)
    xhat = xc * inv
    gd = gain.data
    sbias = bias.shape
    data = xhat * gd + bias.data

    def backward(g):
        if gain.requires_grad:
            gg = (g * xhat).reshape(-1, n).sum(axis=0)
            gain.accumulate_grad(_unbroadcast(gg, gd.shape))
        if bias.requires_grad:
            gb = g.reshape(-1, n).sum(axis=0)
            bias.accumulate_grad(_unbroadcast(gb, sbias))
        if x.requires_grad:
            gx_hat = g * gd
            s1 = gx_hat.sum(axis=-1, keepdims=True)
            s2 = (gx_hat * xhat).sum(axis=-1, keepdims=True)
            gx = inv * (gx_hat - s1 / n - xhat * s2 / n)
            x.accumulate_grad(gx)

    return _make(data, (x, gain, bias), backward, reads=(gain,))


def gelu(x: Tensor) -> Tensor:
    """tanh-approximate GELU."""
    xd = x.data
    t = np.tanh(_GELU_C * (xd + 0.044715 * ((xd * xd) * xd)))
    data = 0.5 * xd * (1.0 + t)

    def backward(g):
        if x.requires_grad:
            du = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
            dt = (1.0 - t**2) * du
            x.accumulate_grad(g * (0.5 * (1.0 + t) + 0.5 * xd * dt))

    return _make(data, (x,), backward, reads=(x,))


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
    shape = a.shape

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.full(shape, float(g)))

    return _make(data, (a,), backward)
