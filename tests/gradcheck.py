"""Central finite-difference gradient suite over every differentiable primitive.

Shared by the unit tests and the acceptance suite: each case builds a small
random instance, reduces the op's output to a scalar with fixed random
coefficients, and compares the analytic gradient of every input against a
central finite difference (h = 1e-5, float64).
"""

from __future__ import annotations

import numpy as np

import xopd_lab.autodiff as ad
from xopd_lab.autodiff import Tensor

from oracles import finite_difference, rel_error

H = 1e-5
N_INSTANCES = 10


def _scalarize(out: Tensor, rng: np.random.Generator) -> tuple[Tensor, np.ndarray]:
    coeff = rng.normal(0.0, 1.0, out.data.shape)
    return ad.sum_all(ad.mul(out, Tensor(coeff))), coeff


def check_op(name: str, build, n_inputs: int, shapes_fn, seed0: int = 0) -> float:
    """Run N_INSTANCES random gradient checks; returns the worst rel. error."""
    worst = 0.0
    for inst in range(N_INSTANCES):
        rng = np.random.default_rng([seed0, inst])
        shapes = shapes_fn(rng)
        xs = [Tensor(rng.normal(0.0, 1.0, s), requires_grad=True) for s in shapes]
        # Ops that draw indices/masks must see identical draws on every call,
        # including the finite-difference re-evaluations.
        fresh = lambda: np.random.default_rng([seed0, inst, 7])
        out = build(*xs, rng=fresh())
        loss, coeff = _scalarize(out, rng)
        for x in xs:
            x.zero_grad()
        loss.backward()

        for x in xs:
            def f(x=x, xs=xs, coeff=coeff):
                with ad.no_grad():
                    o = build(*xs, rng=fresh())
                    return float((o.data * coeff).sum())

            fd = finite_difference(f, x.data, h=H)
            an = x.grad if x.grad is not None else np.zeros_like(x.data)
            worst = max(worst, rel_error(fd, an, floor=1e-6))
    return worst


def _mat_shapes(rng):
    n, m, k = (int(rng.integers(2, 5)) for _ in range(3))
    return [(n, m), (m, k)]


def _same_pair(rng):
    s = tuple(int(rng.integers(2, 5)) for _ in range(2))
    return [s, s]


def _single(rng):
    return [tuple(int(rng.integers(2, 5)) for _ in range(2))]


def one_batch(lengths) -> ad.RowIndex:
    """The row index of one attention batch of sequences with ``lengths``
    stored back to back, with nothing cached."""
    return ad.RowIndex([ad.packed_rows(lengths)], [0])


def _attention_shapes(n_heads: int, fewer_queries: int):
    """q, k, v shapes with q holding the last L - fewer_queries positions."""

    def shapes(rng):
        L, hd = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        d = n_heads * hd
        return [(2, L - fewer_queries, d), (2, L, d), (2, L, d)]

    return shapes


def op_cases():
    """(name, builder, n_inputs, shapes_fn) for every differentiable primitive."""

    def ln(x, g, b, rng):
        return ad.layer_norm(x, g, b)

    def emb(table, rng):
        ids = rng.integers(0, table.shape[0], size=5)
        return ad.embedding(table, ids)

    # As the teacher-forced pass uses it: rows out of (B, L, V), their
    # log_softmax, then one entry per row. Drawn rows may repeat.
    def gather(x, rng):
        B, L, V = x.shape
        k = 4
        rows = ad.log_softmax(ad.gather(x, (rng.integers(0, B, size=k), rng.integers(0, L, size=k))))
        return ad.gather(rows, (np.arange(k), rng.integers(0, V, size=k)))

    # The two means below are composites, not primitives: the weighted sums
    # the losses build from sum_all, scale and a constant mul.
    def mean_all(x, rng):
        return ad.scale(ad.sum_all(x), 1.0 / x.data.size)

    def mean_mask(x, rng):
        mask = (rng.random(x.shape) > 0.4).astype(float)
        mask.flat[0] = 1.0  # never empty
        return ad.scale(ad.sum_all(ad.mul(x, Tensor(mask))), 1.0 / mask.sum())

    return [
        ("add", lambda a, b, rng: ad.add(a, b), 2, _same_pair),
        ("add_broadcast", lambda a, b, rng: ad.add(a, b), 2,
         lambda rng: [(3, 4), (4,)]),
        ("sub", lambda a, b, rng: ad.sub(a, b), 2, _same_pair),
        ("mul", lambda a, b, rng: ad.mul(a, b), 2, _same_pair),
        ("neg", lambda a, rng: ad.neg(a), 1, _single),
        ("scale", lambda a, rng: ad.scale(a, 1.7), 1, _single),
        ("exp", lambda a, rng: ad.exp(a), 1, _single),
        ("matmul", lambda a, b, rng: ad.matmul(a, b), 2, _mat_shapes),
        ("matmul_batched", lambda a, b, rng: ad.matmul(a, b), 2,
         lambda rng: [(2, 3, 4), (4, 5)]),
        ("reshape", lambda a, rng: ad.reshape(a, (a.data.size,)), 1, _single),
        ("concat_rows", lambda a, b, rng: ad.concat_rows([a, b]), 2,
         lambda rng: [(2, 3), (4, 3)]),
        # The backbone's layout ops: packed rows of sequences of lengths 2
        # and 4 to (2, 4, d), and back.
        ("pad_rows", lambda a, rng: ad.pad_rows(a, one_batch([2, 4]), 0), 1, lambda rng: [(6, 3)]),
        ("unpad_rows", lambda a, rng: ad.unpad_rows([a], one_batch([2, 4])), 1, lambda rng: [(2, 4, 3)]),
        ("matmul_packed", lambda x, w, b, rng: ad.matmul(x, w, one_batch([2, 4]), b), 3,
         lambda rng: [(6, 3), (3, 5), (5,)]),
        ("matmul_packed_one_row_sequences",
         lambda x, w, rng: ad.matmul(x, w, one_batch([1, 1, 1])), 2, lambda rng: [(3, 4), (4, 2)]),
        ("gather", gather, 1, lambda rng: [(2, 3, 5)]),
        ("embedding", emb, 1, lambda rng: [(6, 3)]),
        ("log_softmax", lambda a, rng: ad.log_softmax(a), 1, _single),
        ("layer_norm", ln, 3, lambda rng: [(3, 6), (6,), (6,)]),
        ("gelu", lambda a, rng: ad.gelu(a), 1, _single),
        ("causal_attention", lambda q, k, v, rng: ad.causal_attention(q, k, v, 1),
         3, _attention_shapes(1, 0)),
        ("causal_attention_2heads", lambda q, k, v, rng: ad.causal_attention(q, k, v, 2),
         3, _attention_shapes(2, 1)),
        ("sum_all", lambda a, rng: ad.sum_all(a), 1, _single),
        ("mean_all", mean_all, 1, _single),
        ("mean_over_mask", mean_mask, 1, _single),
    ]
