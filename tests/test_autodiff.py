"""Unit tests for the reverse-mode autodiff engine."""

import threading

import numpy as np
import pytest

import xopd_lab.autodiff as ad
from xopd_lab.autodiff import Tensor
from xopd_lab.baselines import sft_batch_loss
from xopd_lab.objective import xopd_loss
from xopd_lab.rollout import collect_rollouts, rollout_pairs

from gradcheck import check_op, one_batch, op_cases
from oracles import naive_causal_attention, naive_softmax, rel_error


@pytest.mark.parametrize(
    "name,build,n_inputs,shapes_fn",
    op_cases(),
    ids=[c[0] for c in op_cases()],
)
def test_gradient_matches_finite_difference(name, build, n_inputs, shapes_fn):
    worst = check_op(name, build, n_inputs, shapes_fn)
    assert worst < 1e-4, f"{name}: worst rel error {worst:.3e}"


def test_softmax_matches_naive_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 3, (5, 7))
    got = ad.np_softmax(x)
    np.testing.assert_allclose(got, naive_softmax(x), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=1e-12)


def test_log_softmax_is_log_of_softmax():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 5, (4, 9))
    np.testing.assert_allclose(
        ad.log_softmax(Tensor(x)).data,
        np.log(naive_softmax(x)),
        rtol=1e-10,
        atol=1e-12,
    )


def test_softmax_stable_under_large_shift():
    x = np.array([[1000.0, 1001.0, 999.0]])
    p = ad.np_softmax(x)
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p, naive_softmax(x - 1000.0), rtol=1e-12)


def _per_head_oracle(q, k, v, n_heads):
    """naive_causal_attention run on each head of (B, L, d) inputs, merged."""
    B, L, d = q.shape
    split = lambda x: x.reshape(B, L, n_heads, d // n_heads).transpose(0, 2, 1, 3)
    out = naive_causal_attention(split(q), split(k), split(v))
    return out.transpose(0, 2, 1, 3).reshape(B, L, d)


def test_causal_attention_matches_loop_oracle():
    rng = np.random.default_rng(5)
    q, k, v = (rng.normal(0, 1, (2, 6, 4)) for _ in range(3))
    for n_heads in (1, 2):
        got = ad.causal_attention(Tensor(q), Tensor(k), Tensor(v), n_heads).data
        want = _per_head_oracle(q, k, v, n_heads)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("T", [1, 2, 5])
def test_attention_kernel_on_the_last_rows_equals_the_full_pass(T):
    # The decoder's case: T new query rows against every cached position.
    rng = np.random.default_rng([6, T])
    q, k, v = (rng.normal(0, 1, (3, 5, 8)) for _ in range(3))
    got = ad.causal_attention(Tensor(q[:, -T:]), Tensor(k), Tensor(v), 2).data
    want = _per_head_oracle(q, k, v, 2)[:, -T:]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_causal_attention_rejects_non_finite_input(which, bad):
    xs = [np.zeros((1, 3, 4)) for _ in range(3)]
    xs[which][0, 1, 2] = bad
    with pytest.raises(FloatingPointError, match="non-finite"):
        ad.causal_attention(*(Tensor(x) for x in xs), 2)


def test_grad_accumulates_across_multiple_uses():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = ad.add(x, x)  # dy/dx = 2
    loss = ad.sum_all(ad.mul(y, y))  # d/dx sum((2x)^2) = 8x
    loss.backward()
    np.testing.assert_allclose(x.grad, 8 * x.data)


def test_backward_twice_without_zero_grad_adds():
    x = Tensor(np.ones(3), requires_grad=True)
    ad.sum_all(x).backward()
    g1 = x.grad.copy()
    ad.sum_all(x).backward()
    np.testing.assert_allclose(x.grad, 2 * g1)
    x.zero_grad()
    assert x.grad is None or not np.any(x.grad)


def _graph(root: Tensor) -> list[Tensor]:
    """Every node reachable from ``root`` through parent links."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _read_by_a_backward(nodes: list[Tensor]) -> list[bool]:
    """For each node, whether the backward closure of a node among ``nodes``
    that consumes it holds its value (the very array) when recorded."""
    held = {
        id(cell.cell_contents)
        for n in nodes
        if n._backward is not None
        for cell in n._backward.__closure__ or ()
    }
    consumed = {id(p) for n in nodes for p in n._parents}
    return [id(n) in consumed and id(n.data) in held for n in nodes]


def _pass(monkeypatch, loss_fn, release):
    """``loss_fn()`` with ``ad.release`` run as ``release``; returns the loss
    and every node of the released root's graph (root last), in walk order."""
    roots = []

    def spy(root):
        roots.append(root)
        release(root)

    monkeypatch.setattr(ad, "release", spy)
    loss = loss_fn()
    monkeypatch.undo()
    (root,) = roots
    return loss, [n for n in _graph(root) if n is not root] + [root]


def test_backward_frees_each_used_node_and_keeps_leaf_grads(tiny_teacher, small_dataset, monkeypatch):
    batch = small_dataset.alignment_set("train")[:3]
    trained = [p for p in tiny_teacher.params.values() if p.requires_grad]
    for p in trained:
        p.zero_grad()
    # The same pass twice: kept whole, it shows which values a recorded
    # backward reads; released, exactly those stay.
    _, whole = _pass(monkeypatch, lambda: sft_batch_loss(tiny_teacher, batch), lambda root: None)
    read = _read_by_a_backward(whole)
    loss, nodes = _pass(monkeypatch, lambda: sft_batch_loss(tiny_teacher, batch), ad.release)
    below = [i for i, n in enumerate(nodes[:-1]) if n._parents]
    assert len(below) > 20 and len(nodes) == len(whole)
    assert any(read[i] for i in below) and not all(read[i] for i in below)
    assert all((nodes[i].data is not None) == read[i] for i in below)
    loss.backward()
    assert all((nodes[i].data is not None) == read[i] for i in below)
    inner = [n for n in _graph(loss) if n._parents]
    assert all(n.grad is None and n._backward is None for n in inner)
    assert trained and all(p.grad is not None and np.all(np.isfinite(p.grad)) for p in trained)
    first = [p.grad.copy() for p in trained]

    with pytest.raises(ValueError, match="already run backward"):
        loss.backward()
    for p, g in zip(trained, first):
        np.testing.assert_array_equal(p.grad, g)

    # A fresh graph over the same leaves runs, and its gradients add on
    # (one contribution at a time, so equal to 2g up to rounding).
    sft_batch_loss(tiny_teacher, batch).backward()
    for p, g in zip(trained, first):
        np.testing.assert_allclose(p.grad, 2 * g, rtol=1e-9, atol=1e-12)
        p.zero_grad()


def _every_op_loss() -> tuple[Tensor, list[Tensor]]:
    """A scalar loss through every recording op, and its leaves."""
    rng = np.random.default_rng(3)
    leaf = lambda *shape: Tensor(rng.normal(0.0, 0.5, shape), requires_grad=True)
    emb, g, b, w, c, wq, wk, wv, w2, bias = (
        leaf(6, 4), leaf(4), leaf(4), leaf(4, 4), leaf(4), leaf(4, 4), leaf(4, 4), leaf(4, 4),
        leaf(4, 3), leaf(3),
    )
    rows = ad.RowIndex([ad.packed_rows([3, 2])], [0])
    x = ad.layer_norm(ad.embedding(emb, [0, 2, 1, 5, 0]), g, b)
    h = ad.gelu(ad.matmul(x, w, rows, c))
    ab = ad.pad_rows(h, rows, 0)
    q, k, v = (ad.matmul(ab, m) for m in (wq, wk, wv))
    u = ad.unpad_rows([ad.causal_attention(q, k, v, 2)], rows)
    e = ad.reshape(ad.exp(ad.scale(h, 0.5)), (4, 5))
    y = ad.concat_rows([u, ad.reshape(e, (5, 4))])
    y = ad.sub(ad.mul(y, y), ad.neg(y))
    lp = ad.log_softmax(ad.add(ad.matmul(y, w2), bias))
    loss = ad.sum_all(ad.gather(lp, (np.arange(10), np.arange(10) % 3)))
    return loss, [emb, g, b, w, c, wq, wk, wv, w2, bias]


def test_closures_read_only_what_they_captured():
    loss, leaves = _every_op_loss()
    loss.backward()
    want = [p.grad for p in leaves]
    loss, leaves = _every_op_loss()
    inner = [n for n in _graph(loss) if n._parents and n is not loss]
    assert any(n._read for n in inner) and len(inner) > 20
    for n in inner:
        n.data = None
    loss.backward()
    for p, g in zip(leaves, want):
        np.testing.assert_array_equal(p.grad, g)


def test_release_moves_no_bit(tiny_teacher, tiny_student, small_dataset, monkeypatch):
    batch = small_dataset.alignment_set("train")[:3]
    pairs = rollout_pairs(collect_rollouts(tiny_student, batch, n=2, seed=5, max_new=5), batch)
    runs = (
        (tiny_teacher, lambda: sft_batch_loss(tiny_teacher, batch)),
        (tiny_student, lambda: xopd_loss(pairs, tiny_teacher, tiny_student, 0.5)[1]),
    )
    for model, loss_fn in runs:
        grads = []
        for release in (lambda root: None, ad.release):
            monkeypatch.setattr(ad, "release", release)
            loss_fn().backward()
            monkeypatch.undo()
            grads.append({k: p.grad for k, p in model.params.items() if p.grad is not None})
            for p in model.params.values():
                p.zero_grad()
        assert grads[0] and grads[0].keys() == grads[1].keys()
        for k in grads[0]:
            np.testing.assert_array_equal(grads[0][k], grads[1][k])


def test_a_released_node_prints_as_released():
    h = ad.exp(Tensor(np.ones(2), requires_grad=True))
    ad.release(ad.sum_all(h))
    assert h.data is None and repr(h) == "Tensor(released, requires_grad=True)"


def test_a_graph_sharing_a_used_node_refuses_backward():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    h = ad.gelu(x)
    ad.sum_all(h).backward()
    g = x.grad.copy()
    with pytest.raises(ValueError, match="already run backward"):
        ad.sum_all(ad.mul(h, h)).backward()
    np.testing.assert_array_equal(x.grad, g)
    # A scalar leaf as root is no used graph: it accumulates as before.
    s = Tensor(np.array(2.0), requires_grad=True)
    s.backward()
    s.backward()
    assert s.grad == 2.0


def test_no_grad_blocks_graph_construction():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    loss = ad.sum_all(ad.mul(x, x))
    loss.backward()
    assert x.grad is not None


def _grad_mode() -> bool:
    """Whether ops on a grad-requiring input record a graph here."""
    x = Tensor(np.ones(1), requires_grad=True)
    return ad.mul(x, x).requires_grad


def test_no_grad_on_overlapping_threads_leaves_each_thread_its_own_mode():
    # All threads enter no_grad() in order 0..n-1, then leave in the same
    # order, so every block is open while another one closes. A grad flag
    # shared across threads would read True inside thread 1's still-open
    # block and end up restored to False by the last thread to leave.
    n = 4
    entered = [threading.Event() for _ in range(n)]
    left = [threading.Event() for _ in range(n)]
    seen_inside: list[bool] = [True] * n
    seen_after: list[bool] = [False] * n

    def worker(k: int) -> None:
        if k > 0:
            entered[k - 1].wait(timeout=5)
        with ad.no_grad():
            entered[k].set()
            entered[n - 1].wait(timeout=5)
            if k > 0:
                left[k - 1].wait(timeout=5)
            seen_inside[k] = _grad_mode()
        left[k].set()
        seen_after[k] = _grad_mode()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert seen_inside == [False] * n
    assert seen_after == [True] * n
    assert _grad_mode()


def test_pad_rows_forward_layout():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(12.0).reshape(4, 3)
    packed = np.concatenate([a, b])
    rows = one_batch([2, 4])
    out = ad.pad_rows(Tensor(packed), rows, 0).data
    assert out.shape == (2, 4, 3)
    np.testing.assert_array_equal(out[0, :2], a)
    np.testing.assert_array_equal(out[0, 2:], 0.0)
    np.testing.assert_array_equal(out[1], b)
    np.testing.assert_array_equal(ad.unpad_rows([Tensor(out)], rows).data, packed)


def test_a_shared_row_fills_every_position_that_uses_it():
    # Two batches: sequences 0 and 1 share their first two rows; the second
    # batch holds one sequence, two positions after its one cached position.
    index = [np.array([[0, 1, 2], [0, 1, 3]]), np.array([[4, 5]])]
    x = np.arange(12.0).reshape(6, 2)
    with ad.no_grad():
        rows = ad.RowIndex(index, [0, 1])
        first, second = (ad.pad_rows(Tensor(x), rows, b).data for b in (0, 1))
        back = ad.unpad_rows([Tensor(first), Tensor(second)], rows).data
    np.testing.assert_array_equal(first, x[index[0]])
    np.testing.assert_array_equal(second, x[index[1]])
    np.testing.assert_array_equal(back, x)
    np.testing.assert_array_equal(rows.position, [0, 1, 2, 2, 1, 2])
    # A recorded graph has no rule for a shared row.
    with pytest.raises(ValueError, match="no_grad"):
        ad.RowIndex(index, [0, 1])


@pytest.mark.parametrize("index", [
    [[0, -1, 1]],  # padding inside a sequence
    [[1, 0]],  # rows not in order of first use
    [[0, 1], [1, 0]],  # one row at two positions
    [[0, 2]],  # a row left out
])
def test_a_malformed_row_index_is_refused(index):
    with ad.no_grad(), pytest.raises(ValueError, match="row index"):
        ad.RowIndex([np.array(index)], [0])


# At these sizes one 2-D product, or 2-D sums, would round differently.
@pytest.mark.parametrize("lengths", [[3, 5, 1, 4] * 4, [1, 1, 1]], ids=["ragged", "one-row"])
def test_packed_matmul_equals_the_padded_batch_bit_for_bit(lengths):
    rng = np.random.default_rng(0)
    d, k = 64, 64
    x, w, b = (rng.normal(0, 1, s) for s in ((sum(lengths), d), (d, k), (k,)))
    coeff = rng.normal(0, 1, (sum(lengths), k))
    rows = one_batch(lengths)
    pad = lambda a: ad.pad_rows(Tensor(a), rows, 0).data

    def grads(run):
        ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = run(*ts)
        ad.sum_all(ad.mul(out, Tensor(coeff if out.data.ndim == 2 else pad(coeff)))).backward()
        return out.data, [t.grad for t in ts]

    packed, (gx, gw, gb) = grads(lambda x, w, b: ad.matmul(x, w, rows, b))
    padded, (gxp, gwp, gbp) = grads(
        lambda x, w, b: ad.add(ad.matmul(ad.pad_rows(x, rows, 0), w), b)
    )
    np.testing.assert_array_equal(packed, ad.unpad_rows([Tensor(padded)], rows).data)
    np.testing.assert_array_equal(gx, gxp)
    np.testing.assert_array_equal(gw, gwp)
    np.testing.assert_array_equal(gb, gbp)


def test_gather_forward_values():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (2, 3, 5))
    b = np.array([0, 1, 1])
    l = np.array([2, 0, 1])
    v = np.array([4, 3, 0])
    got = ad.gather(Tensor(x), (b, l, v)).data
    np.testing.assert_array_equal(got, x[b, l, v])
    # Fewer index arrays than axes pick whole rows.
    rows = ad.gather(Tensor(x), (b, l)).data
    assert rows.shape == (3, 5)
    np.testing.assert_array_equal(rows, x[b, l])


def test_gather_repeated_index_accumulates_grad():
    x = Tensor(np.zeros((1, 1, 3)), requires_grad=True)
    idx = np.zeros(4, dtype=int)
    out = ad.gather(x, (idx, idx, idx))  # same element four times
    ad.sum_all(out).backward()
    assert x.grad[0, 0, 0] == 4.0
    rows = Tensor(np.zeros((2, 3)), requires_grad=True)
    ad.sum_all(ad.gather(rows, ([1, 1],))).backward()  # same row twice
    np.testing.assert_array_equal(rows.grad, [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])


def test_layer_norm_rows_standardized():
    rng = np.random.default_rng(7)
    x = rng.normal(3, 2, (5, 16))
    g = np.ones(16)
    b = np.zeros(16)
    y = ad.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)


def test_forward_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(0, 1, (4, 8)), requires_grad=True)
        w = Tensor(rng.normal(0, 1, (8, 8)), requires_grad=True)
        h = ad.gelu(ad.matmul(x, w))
        loss = ad.sum_all(ad.mul(h, h))
        loss.backward()
        return float(loss.data), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


def test_float64_everywhere():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    assert x.data.dtype == np.float64
    y = ad.gelu(ad.log_softmax(x))
    assert y.data.dtype == np.float64
