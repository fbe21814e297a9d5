"""Engine tests: every primitive against oracles and finite differences.

The matmul oracle is a hand-rolled triple loop; gradients are checked
against central finite differences with step 1e-5; Adam is checked
against a scalar reference implementation written independently here.
"""

import ast
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from segbert.autodiff import (
    AdamState,
    NonFiniteError,
    RowGroups,
    ShapeError,
    Tape,
    Tensor,
    adam_step,
    clip_global_norm,
)

FD_STEP = 1e-5
FD_TOL = 1e-4


def fd_grad(f, x, h=FD_STEP):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        hi = f(x)
        x[i] = orig - h
        lo = f(x)
        x[i] = orig
        g[i] = (hi - lo) / (2.0 * h)
        it.iternext()
    return g


def rel_err(a, b):
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def scalarize(tape, t, proj):
    """Fixed random projection of a tensor to 1 x 1 via the mse trick."""
    weighted = tape.mul(t, proj)
    return tape.scale(tape.mse(weighted, np.zeros_like(weighted.value)), 1.0)


# ----------------------------------------------------------------------
# forward oracles


def test_matmul_against_triple_loop():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b = np.array([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
    expected = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                expected[i, j] += a[i, k] * b[k, j]
    tape = Tape()
    out = tape.matmul(Tensor(a), Tensor(b))
    assert np.array_equal(out.value, expected)


def test_matmul_random_against_triple_loop():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n, k, m = rng.integers(1, 6, size=3)
        a = rng.standard_normal((n, k))
        b = rng.standard_normal((k, m))
        expected = np.zeros((n, m))
        for i in range(n):
            for j in range(m):
                for t in range(k):
                    expected[i, j] += a[i, t] * b[t, j]
        out = Tape().matmul(Tensor(a), Tensor(b))
        assert np.allclose(out.value, expected, atol=1e-12)


def test_softmax_two_equal_maxima():
    tape = Tape()
    out = tape.softmax_rows(Tensor([[3.0, 3.0]]))
    assert np.allclose(out.value, [[0.5, 0.5]], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 9)) * 20.0
    out = Tape().softmax_rows(Tensor(x))
    assert np.allclose(out.value.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out.value >= 0.0)


def test_layer_norm_constant_row_is_zero():
    out = Tape().layer_norm_rows(Tensor([[4.2, 4.2, 4.2, 4.2]]))
    assert np.allclose(out.value, 0.0, atol=1e-6)


def test_layer_norm_statistics():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 16)) * 3.0 + 1.0
    out = Tape().layer_norm_rows(Tensor(x))
    assert np.allclose(out.value.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.value.var(axis=1), 1.0, atol=1e-9)


def test_gelu_known_values():
    # GELU(0) = 0 and GELU is odd-symmetric around x * Phi(x) identities.
    out = Tape().gelu(Tensor([[0.0, 1.0, -1.0]]))
    from scipy.stats import norm

    expected = np.array([[0.0, norm.cdf(1.0), -norm.cdf(-1.0)]])
    assert np.allclose(out.value, expected, atol=1e-12)


def test_cosine_rows_orthogonal_and_zero():
    h = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    out = Tape().cosine_rows(Tensor(h))
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(out.value, expected, atol=1e-12)


def test_cosine_rows_against_pairwise_oracle():
    rng = np.random.default_rng(19)
    h = rng.standard_normal((6, 4))
    out = Tape().cosine_rows(Tensor(h))
    for i in range(6):
        for j in range(6):
            expected = h[i] @ h[j] / (np.linalg.norm(h[i]) * np.linalg.norm(h[j]))
            assert abs(out.value[i, j] - expected) < 1e-12


def test_attention_blocks_match_per_segment_loop():
    rng = np.random.default_rng(23)
    block, segs, d = 4, 3, 5
    q = rng.standard_normal((segs * block, d))
    k = rng.standard_normal((segs * block, d))
    v = rng.standard_normal((segs * block, d))
    tape = Tape()
    scores = tape.attention_scores(Tensor(q), Tensor(k), block)
    probs = tape.softmax_rows(scores)
    mixed = tape.attention_apply(probs, Tensor(v), block)
    for s in range(segs):
        rows = slice(s * block, (s + 1) * block)
        expected_scores = q[rows] @ k[rows].T
        assert np.allclose(scores.value[rows], expected_scores, atol=1e-12)
        p = np.exp(expected_scores - expected_scores.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert np.allclose(mixed.value[rows], p @ v[rows], atol=1e-12)


def selecting_projections(width, starts, d):
    """attention_block projections that copy columns start:start+d of a
    width-column input as the query, key and value (identity blocks,
    zero biases) and pass the heads' output through unchanged."""
    eye, zeros = np.eye(width), Tensor(np.zeros((1, d)))
    q, k, v = (Tensor(eye[:, s:s + d]) for s in starts)
    return (q, zeros), k, (v, zeros), (Tensor(np.eye(d)), zeros)


def attention_projections(p):
    """attention_block's projection arguments from seven arrays: the
    query weight and bias, the key weight (a key has no bias), the
    value weight and bias, and the output weight and bias."""
    return (p[0], p[1]), p[2], (p[3], p[4]), (p[5], p[6])


def test_multi_head_attention_matches_per_head_loop():
    rng = np.random.default_rng(29)
    block, segs, heads, d_head = 3, 4, 2, 2
    q, k, v = (rng.standard_normal((segs * block, heads * d_head)) for _ in range(3))
    d = heads * d_head
    x = Tensor(np.hstack([q, k, v]))
    projections = selecting_projections(3 * d, (0, d, 2 * d), d)
    out = Tape().attention_block(x, *projections, heads, block, 0.5, False)
    for s in range(segs):
        rows = slice(s * block, (s + 1) * block)
        for h in range(heads):
            cols = slice(h * d_head, (h + 1) * d_head)
            scores = q[rows, cols] @ k[rows, cols].T / np.sqrt(d_head)
            p = np.exp(scores - scores.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            assert np.allclose(out.value[rows, cols], p @ v[rows, cols], atol=1e-12)
    # one slot per segment: each slot attends only to itself
    single = Tape().attention_block(x, *projections, heads, 1, 0.0, True)
    assert np.array_equal(single.value, v)


def test_dropout_train_scales_and_eval_identity():
    x = np.full((40, 25), 2.0)
    tape = Tape(seed=5)
    out = tape.dropout(Tensor(x), rate=0.4, training=True)
    kept = out.value != 0.0
    assert np.allclose(out.value[kept], 2.0 / 0.6)
    frac = kept.mean()
    assert 0.45 < frac < 0.75  # keep prob 0.6

    # eval mode and rate 0 hand back the input itself and record nothing
    a = Tensor(x, requires_grad=True)
    assert tape.dropout(a, rate=0.4, training=False) is a
    assert tape.dropout(a, rate=0.0, training=True) is a
    assert tape.entries == []


@pytest.mark.parametrize("case", ["mixed", "empty_rows", "no_nonzeros"])
def test_sparse_linear_matches_dense(case):
    """A CSR input gives the dense product and the same w and b
    gradients to 1e-12, in one recorded linear entry."""
    rng = np.random.default_rng(21)
    x = np.where(rng.random((9, 7)) < 0.3, rng.standard_normal((9, 7)), 0.0)
    if case == "empty_rows":
        x[[0, 4, 8]] = 0.0
    elif case == "no_nonzeros":
        x[:] = 0.0
    w0, b0 = rng.standard_normal((7, 5)), rng.standard_normal((1, 5))
    proj = rng.standard_normal((9, 5))
    runs = []
    for xin in (Tensor(x), sparse.csr_array(x)):
        tape = Tape()
        w, b = Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
        out = tape.linear(xin, w, b)
        assert [e.op for e in tape.entries] == ["linear"]
        tape.backward(scalarize(tape, out, proj))
        runs.append((out.value, w.grad, b.grad))
    for dense_arr, sparse_arr in zip(*runs):
        assert np.allclose(sparse_arr, dense_arr, rtol=1e-12, atol=1e-12)


def test_sparse_linear_shape_and_finiteness_checks():
    tape = Tape()
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="inner dimensions"):
        tape.linear(sparse.csr_array(np.ones((2, 4))), w, Tensor(np.zeros((1, 2))))
    with pytest.raises(NonFiniteError, match="'linear'"):
        tape.linear(sparse.csr_array(np.full((2, 3), 1e308)), Tensor(np.full((3, 2), 1e308)),
                    Tensor(np.zeros((1, 2))))


def test_mean_rows_value():
    x = np.random.default_rng(3).standard_normal((7, 3))
    groups = [[6, 0, 2], [4], [1, 5]]
    out = Tape().mean_rows(Tensor(x), RowGroups(groups, 7))
    assert np.array_equal(out.value, np.stack([np.mean(x[g], axis=0) for g in groups]))
    # every row in one group is the column mean of the whole input
    assert np.array_equal(Tape().mean_rows(Tensor(x), RowGroups([range(7)], 7)).value,
                          np.mean(x, axis=0, keepdims=True))


def test_mean_rows_takes_checked_groups_for_its_row_count_only():
    x = Tensor(np.arange(24.0).reshape(6, 4))
    groups = RowGroups([[5, 0], [3]], 6)
    assert list(map(list, groups)) == [[5, 0], [3]] and groups.sizes == [2, 1]
    assert np.array_equal(Tape().mean_rows(x, groups).value, [[10.0, 11.0, 12.0, 13.0],
                                                              [12.0, 13.0, 14.0, 15.0]])
    with pytest.raises(ShapeError, match="mean_rows: groups of 5 rows for 6 input rows"):
        Tape().mean_rows(x, RowGroups([[0]], 5))


@pytest.mark.parametrize("groups, message", [
    ([[0, 1], []], "group 1 is empty"),
    ([[0, 6]], "index out of range for 6 rows"),
    ([[-1, 2]], "index out of range for 6 rows"),
    ([[0, 3], [2, 3]], "groups share a row"),
    ([], "groups must be a non-empty list of 1-D index lists"),
    ([[[0, 1]]], "groups must be a non-empty list of 1-D index lists"),
])
def test_mean_rows_rejects_bad_groups_before_computing(groups, message):
    # an op that computed first would meet the Inf input and fail with
    # NonFiniteError (or a floating-point error on an empty mean) instead
    x = Tensor(np.full((6, 4), np.inf), requires_grad=True)
    tape = Tape()
    with np.errstate(all="raise"), pytest.raises(ShapeError, match=f"mean_rows: {message}"):
        tape.mean_rows(x, RowGroups(groups, 6))
    assert tape.entries == []


@pytest.mark.parametrize("bad", [-1, 6, np.iinfo(np.intp).min])
def test_take_rows_rejects_out_of_range_indices(bad):
    x = Tensor(np.arange(24.0).reshape(6, 4))
    with pytest.raises(ShapeError, match="take_rows: index out of range for 6 rows"):
        Tape().take_rows(x, [0, bad, 5])
    # the first and last rows and an empty index list are in range
    assert np.array_equal(Tape().take_rows(x, [5, 0]).value, x.value[[5, 0]])
    assert Tape().take_rows(x, []).value.shape == (0, 4)


# ----------------------------------------------------------------------
# gradient checks


def test_grad_of_sum_of_squares_is_2x():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    tape = Tape()
    loss = tape.scale(tape.mse(x, np.zeros((3, 4))), x.value.size)
    tape.backward(loss)
    assert np.allclose(x.grad, 2.0 * x.value, atol=1e-12)


def test_cross_entropy_gradient_is_softmax_minus_target():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    onehot = np.zeros((5, 3))
    onehot[np.arange(5), rng.integers(0, 3, 5)] = 1.0
    tape = Tape()
    loss = tape.cross_entropy(logits, onehot)
    tape.backward(loss)
    e = np.exp(logits.value - logits.value.max(axis=1, keepdims=True))
    softmax = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(logits.grad, softmax - onehot, atol=1e-12)


def _fd_check(build, x0, seed=0):
    """Compare tape gradient of build(tape, x) against finite differences."""

    def value_of(arr):
        tape = Tape(seed=seed)
        loss = build(tape, Tensor(arr.copy()))
        return float(loss.value[0, 0])

    x = Tensor(x0.copy(), requires_grad=True)
    tape = Tape(seed=seed)
    loss = build(tape, x)
    tape.backward(loss)
    numeric = fd_grad(value_of, x0.copy())
    assert x.grad is not None
    err = rel_err(x.grad, numeric)
    assert err < FD_TOL, f"finite-difference mismatch: {err}"


def test_finite_differences_every_primitive():
    rng = np.random.default_rng(42)
    proj6x4 = rng.standard_normal((6, 4))
    proj6x6 = rng.standard_normal((6, 6))
    proj1x4 = rng.standard_normal((1, 4))
    proj6x8 = rng.standard_normal((6, 8))
    proj12x4 = rng.standard_normal((12, 4))
    proj12x3 = rng.standard_normal((12, 3))
    other = rng.standard_normal((6, 4)) + 0.5
    weight = rng.standard_normal((4, 4))
    bias = rng.standard_normal((1, 4))
    onehot = np.zeros((6, 4))
    onehot[np.arange(6), rng.integers(0, 4, 6)] = 1.0
    idx = np.array([5, 0, 3, 3, 1])
    proj5x4 = rng.standard_normal((5, 4))
    inputs3x6 = rng.standard_normal((3, 6))
    proj3x4 = rng.standard_normal((3, 4))
    gain = rng.standard_normal((1, 4)) + 1.0
    q6x4, k6x4, v6x4 = (rng.standard_normal((6, 4)) for _ in range(3))

    cases = {
        "matmul": lambda t, x: scalarize(t, t.matmul(x, weight), proj6x4),
        "add": lambda t, x: scalarize(t, t.add(x, Tensor(other)), proj6x4),
        "add_bias": lambda t, x: scalarize(t, t.add(x, Tensor(bias)), proj6x4),
        "mul": lambda t, x: scalarize(t, t.mul(x, Tensor(other)), proj6x4),
        "mul_bias": lambda t, x: scalarize(t, t.mul(x, Tensor(bias)), proj6x4),
        "add_n": lambda t, x: scalarize(
            t, t.add_n([x, t.mul(x, Tensor(other)), Tensor(other)]), proj6x4),
        "scale": lambda t, x: scalarize(t, t.scale(x, -1.7), proj6x4),
        "relu": lambda t, x: scalarize(t, t.relu(x), proj6x4),
        "gelu": lambda t, x: scalarize(t, t.gelu(x), proj6x4),
        "softmax": lambda t, x: scalarize(t, t.softmax_rows(x), proj6x4),
        "layer_norm": lambda t, x: scalarize(t, t.layer_norm_rows(x), proj6x4),
        "take_rows": lambda t, x: scalarize(t, t.take_rows(x, idx), proj5x4),
        "concat_rows": lambda t, x: scalarize(
            t, t.concat_rows([x, t.scale(x, 2.0)]), proj12x4),
        "concat_cols": lambda t, x: scalarize(
            t, t.concat_cols([x, t.scale(x, 0.5)]), proj6x8),
        "slice_cols": lambda t, x: scalarize(t, t.slice_cols(x, 1, 4), proj6x4[:, 1:4]),
        "mean_rows": lambda t, x: scalarize(t, t.mean_rows(x, RowGroups([range(6)], 6)), proj1x4),
        "mean_rows_groups": lambda t, x: scalarize(
            t, t.mean_rows(x, RowGroups([[5, 0, 3], [2]], 6)), proj6x4[:2]),
        "cosine": lambda t, x: scalarize(t, t.cosine_rows(x), proj6x6),
        "mse": lambda t, x: t.mse(x, other),
        "cross_entropy": lambda t, x: t.cross_entropy(x, onehot),
        "linear": lambda t, x: scalarize(
            t, t.linear(x, Tensor(weight), Tensor(bias)), proj6x4),
        "linear_weight": lambda t, x: scalarize(
            t, t.linear(Tensor(inputs3x6), x, Tensor(bias)), proj3x4),
    }
    x0 = rng.standard_normal((6, 4)) + 0.1  # keep relu inputs off the kink
    for name, build in cases.items():
        _fd_check(build, x0)

    # the attention kernel over 3 segments of 2 rows: x holds q, k and v
    # side by side, which the projections copy out. With 1 or 2 heads and
    # training dropout (every tape in _fd_check shares one seed, so each
    # evaluation draws the same masks), then in eval mode with q and v
    # one block of x
    for heads in (1, 2):
        _fd_check(lambda t, x, heads=heads: scalarize(t, t.attention_block(
            x, *selecting_projections(12, (0, 4, 8), 4), heads, 2, 0.3, True), proj6x4),
            np.hstack([q6x4, k6x4, v6x4]))
    _fd_check(lambda t, x: scalarize(t, t.attention_block(
        x, *selecting_projections(8, (0, 4, 0), 4), 2, 2, 0.3, False), proj6x4),
        np.hstack([q6x4, k6x4]))

    # the bias of linear
    _fd_check(lambda t, x: scalarize(
        t, t.linear(Tensor(x0), Tensor(weight), x), proj6x4), bias)

    # blocked attention ops: 12 rows in blocks of 4
    q0 = rng.standard_normal((12, 3))
    kmat = rng.standard_normal((12, 3))
    _fd_check(lambda t, x: scalarize(
        t, t.attention_scores(x, Tensor(kmat), 4), proj12x4), q0)
    pmat = rng.random((12, 4)) + 0.1
    _fd_check(lambda t, x: scalarize(
        t, t.attention_apply(Tensor(pmat), x, 4), proj12x3), q0)
    _fd_check(lambda t, x: scalarize(
        t, t.attention_apply(x, Tensor(q0), 4),
        proj12x3), pmat)

    # the fused ops, with each input in turn as the one that varies; the
    # attention block runs training dropout over 3 segments of 2 rows
    w1, b1 = rng.standard_normal((4, 5)), rng.standard_normal((1, 5))
    w2, b2 = rng.standard_normal((5, 4)), rng.standard_normal((1, 4))
    csr = sparse.csr_array(np.where(rng.random((6, 3)) < 0.5, rng.standard_normal((6, 3)), 0.0))
    # weights at half scale keep the attention softmax off saturation,
    # where step-1e-5 central differences lose their accuracy
    projections = [0.5 * rng.standard_normal(shape) for _ in range(4)
                   for shape in ((4, 4), (1, 4))]
    del projections[3]  # the key bias

    def every_input(op, arrays, seed=0):
        for role, arr in enumerate(arrays):
            def build(t, x, role=role):
                ts = [Tensor(a) for a in arrays]
                ts[role] = x
                return scalarize(t, op(t, *ts), proj6x4)
            _fd_check(build, arr, seed=seed)

    every_input(lambda t, x, *p: t.mlp(x, p[:2], p[2:]), [x0, w1, b1, w2, b2])
    every_input(lambda t, *p: t.mlp(csr, p[:2], p[2:]), [w1[:3], b1, w2, b2])
    every_input(lambda t, a, b, g, c: t.add_layer_norm(a, b, g, c), [x0, other, gain, bias])
    for heads in (1, 2):
        every_input(lambda t, x, *p, heads=heads: t.attention_block(
            x, *attention_projections(p), heads, 2, 0.3, True), [x0, *projections], seed=5)


def test_dropout_gradient_with_reseeded_mask():
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal((5, 6))
    proj = rng.standard_normal((5, 6))
    _fd_check(
        lambda t, x: scalarize(t, t.dropout(x, 0.3, training=True), proj),
        x0, seed=77)


def test_diamond_graph_accumulates_both_paths():
    # y = x @ w used twice: loss = mse(y + y, 0); grad must double.
    rng = np.random.default_rng(8)
    w = rng.standard_normal((3, 3))
    x0 = rng.standard_normal((2, 3))

    def build(t, x):
        y = t.matmul(x, w)
        return t.mse(t.add(y, y), np.zeros((2, 3)))

    _fd_check(build, x0)


# ----------------------------------------------------------------------
# Adam


def adam_reference(x0, grads, lr, wd=0.0, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar AdamW: plain python floats, no shared code."""
    x, m, v = x0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        x = x * (1.0 - lr * wd)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        x = x - lr * mhat / (vhat ** 0.5 + eps)
        out.append(x)
    return out


def test_adam_matches_scalar_reference():
    rng = np.random.default_rng(12)
    grads = [float(g) for g in rng.standard_normal(25)]
    p = Tensor([[0.7]], requires_grad=True)
    state = AdamState.for_params(p.value, learning_rate=0.01, weight_decay=0.004)
    expected = adam_reference(0.7, grads, lr=0.01, wd=0.004)
    for g, want in zip(grads, expected):
        adam_step(p.value, np.array([[g]]), state)
        assert abs(p.value[0, 0] - want) < 1e-12


def test_adam_zero_grad_zero_decay_is_noop():
    p = Tensor([[1.5, -2.5]], requires_grad=True)
    before = p.value.copy()
    state = AdamState.for_params(p.value, learning_rate=0.1, weight_decay=0.0)
    for _ in range(3):
        adam_step(p.value, np.zeros((1, 2)), state)
    assert np.array_equal(p.value, before)


def test_adam_constant_gradient_approaches_lr_sign():
    p = Tensor([[0.0, 0.0]], requires_grad=True)
    g = np.array([[3.0, -0.02]])
    lr = 0.001
    state = AdamState.for_params(p.value, learning_rate=lr)
    prev = p.value.copy()
    for _ in range(300):
        prev = p.value.copy()
        adam_step(p.value, g, state)
    step = p.value - prev
    assert np.allclose(step, -lr * np.sign(g), rtol=1e-3, atol=1e-7)


def test_clip_global_norm():
    flat = np.array([3.0, 0.0, 0.0, 4.0])
    g1, g2 = flat[:2], flat[2:]
    total = clip_global_norm(flat, 1.0, [0, 2, 4])
    assert abs(total - 5.0) < 1e-12
    assert abs(np.sqrt(np.sum(g1 ** 2) + np.sum(g2 ** 2)) - 1.0) < 1e-12


def _model_shapes():
    """The tensor shapes of the default model on 25 adjacency columns."""
    from segbert.model import ModelConfig, init_params
    return [t.shape for _, t in init_params(ModelConfig(n_adj=25)).items()]


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def test_flat_adam_matches_per_tensor_update_bit_for_bit():
    rng = np.random.default_rng(31)
    lr, wd, b1, b2, eps = 1e-3, 5e-4, 0.9, 0.999, 1e-8
    shapes = _model_shapes()
    tensors = [rng.standard_normal(s) for s in shapes]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    flat = _flat(tensors)
    state = AdamState.for_params(flat, learning_rate=lr, weight_decay=wd)
    for t in range(1, 201):
        grads = [rng.standard_normal(s) for s in shapes]
        grads[-1][...] = 0.0  # a parameter the loss does not reach
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, g, mi, vi in zip(tensors, grads, m, v):
            p *= 1.0 - lr * wd
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * (g * g)
            p -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
        adam_step(flat, _flat(grads), state)
    assert np.array_equal(flat, _flat(tensors))
    assert np.array_equal(state.m, _flat(m))
    assert np.array_equal(state.v, _flat(v))


def test_adam_step_rejects_mismatched_shapes():
    state = AdamState.for_params(np.zeros(4), learning_rate=0.1)
    with pytest.raises(ShapeError, match="differ in shape"):
        adam_step(np.zeros(4), np.zeros(3), state)
    with pytest.raises(ShapeError, match="differ in shape"):
        adam_step(np.zeros(5), np.zeros(5), state)


@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_flat_clipping_matches_per_tensor_clipping_bit_for_bit(ratio):
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(s) * rng.uniform(1e-4, 1.0) for s in _model_shapes()]
    flat = _flat(grads)
    offsets = np.cumsum([0] + [a.size for a in grads]).tolist()
    want = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    assert np.sqrt(np.sum(flat * flat)) != want  # one whole-vector sum rounds differently
    max_norm = ratio * want
    if want > max_norm:
        for g in grads:
            g *= max_norm / want
    total = clip_global_norm(flat, max_norm, offsets)
    assert total == want
    assert np.array_equal(flat, _flat(grads))


# ----------------------------------------------------------------------
# determinism, reset, errors


def test_seeded_forward_backward_is_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
        tape = Tape(seed=123)
        h = tape.dropout(tape.gelu(tape.matmul(x, w)), 0.5, training=True)
        loss = tape.mse(h, np.zeros((4, 8)))
        tape.backward(loss)
        return loss.value.copy(), x.grad.copy(), w.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_tape_reset_behaves_like_fresh_engine():
    x = Tensor([[1.0, -2.0]], requires_grad=True)
    tape = Tape(seed=1)
    loss = tape.mse(tape.relu(x), np.zeros((1, 2)))
    tape.backward(loss)
    g1 = x.grad.copy()

    tape.reset()
    x.grad = None
    loss2 = tape.mse(tape.relu(x), np.zeros((1, 2)))
    tape.backward(loss2)
    assert np.array_equal(x.grad, g1)
    assert np.array_equal(loss.value, loss2.value)


def test_backward_twice_without_reset_raises():
    x = Tensor([[1.0]], requires_grad=True)
    tape = Tape()
    loss = tape.mse(x, [[0.0]])
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="reset"):
        tape.backward(loss)


def test_backward_rejects_non_scalar_loss():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    tape = Tape()
    y = tape.relu(x)
    with pytest.raises(ShapeError, match="1 x 1"):
        tape.backward(y)


def test_backward_rejects_foreign_tape():
    x = Tensor([[1.0]], requires_grad=True)
    t1 = Tape()
    loss = t1.mse(x, [[0.0]])
    t2 = Tape()
    with pytest.raises(RuntimeError, match="not produced"):
        t2.backward(loss)


def test_shape_mismatch_names_both_shapes():
    tape = Tape()
    with pytest.raises(ShapeError) as exc:
        tape.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    with pytest.raises(ShapeError) as exc:
        tape.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))
    assert "(2, 3)" in str(exc.value) and "(3, 3)" in str(exc.value)

    # a 1 x d row broadcasts, a 1 x 1 operand does not
    for op in (tape.add, tape.mul):
        with pytest.raises(ShapeError, match="shapes do not broadcast") as exc:
            op(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 1))))
        assert "(2, 3)" in str(exc.value) and "(1, 1)" in str(exc.value)

    a, b, square = (Tensor(np.zeros(shape)) for shape in ((2, 3), (3, 3), (2, 2)))
    for make, message in [
        (lambda: Tensor(np.zeros(3)), "tensors are 2-D, got array of shape (3,)"),
        (lambda: tape.add_n([]), "add_n: empty operand list"),
        (lambda: tape.add_n([a, b]), "add_n: shapes differ: (2, 3) vs (3, 3)"),
        (lambda: tape.take_rows(a, [[0]]), "take_rows: indices must be 1-D, got shape (1, 1)"),
        (lambda: tape.concat_rows([]), "concat_rows: empty operand list"),
        (lambda: tape.concat_cols([]), "concat_cols: empty operand list"),
        (lambda: tape.concat_rows([a, square]),
         "concat_rows: column counts differ: (2, 3) vs (2, 2)"),
        (lambda: tape.concat_cols([a, b]), "concat_cols: row counts differ: (2, 3) vs (3, 3)"),
        (lambda: tape.slice_cols(a, 2, 4), "slice_cols: [2:4] invalid for shape (2, 3)"),
        (lambda: tape.attention_scores(a, b, 1),
         "attention_scores: shapes differ: (2, 3) vs (3, 3)"),
        (lambda: tape.attention_apply(a, b, 2),
         "attention_apply: weight shape (2, 3) does not match block 2"),
        (lambda: tape.attention_apply(square, b, 2),
         "attention_apply: value rows (3, 3) do not match weights (2, 2)"),
        (lambda: tape.mse(a, np.zeros((3, 3))), "mse: shapes differ: (2, 3) vs (3, 3)"),
        (lambda: tape.cross_entropy(a, np.zeros((3, 3))),
         "cross_entropy: shapes differ: (2, 3) vs (3, 3)"),
    ]:
        with pytest.raises(ShapeError) as exc:
            make()
        assert str(exc.value) == message


ONE_INPUT_OPS = {
    "scale": lambda t, a: t.scale(a, -1.7),
    "relu": lambda t, a: t.relu(a),
    "gelu": lambda t, a: t.gelu(a),
    "softmax_rows": lambda t, a: t.softmax_rows(a),
    "layer_norm_rows": lambda t, a: t.layer_norm_rows(a),
    "dropout": lambda t, a: t.dropout(a, 0.5, training=True),
    "take_rows": lambda t, a: t.take_rows(a, [2, 0, 2]),
    "slice_cols": lambda t, a: t.slice_cols(a, 1, 3),
    "mean_rows": lambda t, a: t.mean_rows(a, RowGroups([[2, 0], [1]], 3)),
    "cosine_rows": lambda t, a: t.cosine_rows(a),
    "mse": lambda t, a: t.mse(a, np.ones((3, 4))),
    "cross_entropy": lambda t, a: t.cross_entropy(a, np.eye(3, 4)),
}


@pytest.mark.parametrize("op", sorted(ONE_INPUT_OPS))
def test_one_input_op_records_one_entry_only_for_an_input_needing_a_gradient(op):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4))
    tape = Tape(seed=0)
    out = ONE_INPUT_OPS[op](tape, Tensor(x))
    assert tape.entries == [] and not out.requires_grad
    a = Tensor(x, requires_grad=True)
    out = ONE_INPUT_OPS[op](tape, a)
    entry, = tape.entries
    assert entry.op == op and entry.output is out
    assert len(entry.inputs) == 1 and entry.inputs[0] is a
    out.grad = rng.standard_normal(out.shape)
    entry.backward()
    assert a.grad.shape == x.shape and np.isfinite(a.grad).all() and a.grad.any()


def test_non_finite_result_names_op():
    tape = Tape()
    big = np.full((2, 2), 1e308)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="matmul"):
            tape.matmul(Tensor(big), Tensor(big))


def test_non_finite_result_names_fused_ops():
    tape = Tape()
    big = Tensor(np.full((4, 2), 1e308))
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError, match="'linear'"):
            tape.linear(big, Tensor(np.full((2, 2), 1e308)), Tensor(np.zeros((1, 2))))
        square = (Tensor(np.full((2, 2), 1e308)), Tensor(np.zeros((1, 2))))
        with pytest.raises(NonFiniteError, match="'mlp'"):
            tape.mlp(big, square, square)
        with pytest.raises(NonFiniteError, match="'attention_block'"):
            tape.attention_block(big, square, square[0], square, square, 2, 2, 0.0, False)
        with pytest.raises(NonFiniteError, match="'add_layer_norm'"):
            tape.add_layer_norm(big, big, Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2))))


def test_large_finite_values_pass_the_finite_check():
    # squares past the float range must not be taken for Inf
    big = np.array([[1e300, -1e300], [1e200, 0.0]])
    out = Tape().scale(Tensor(big), 1.0)
    assert np.array_equal(out.value, big)


def test_fused_ops_reject_bad_shapes_and_rates():
    tape = Tape()
    x = Tensor(np.zeros((6, 4)))

    def pair(rows, cols, bias_cols=None):
        return Tensor(np.zeros((rows, cols))), Tensor(np.zeros((1, bias_cols or cols)))

    square = pair(4, 4)
    with pytest.raises(ShapeError, match=r"mlp: inner dimensions differ: \(6, 4\) vs \(3, 5\)"):
        tape.mlp(x, pair(3, 5), pair(5, 4))
    with pytest.raises(ShapeError, match=r"mlp: bias shape \(1, 2\) does not match weight"):
        tape.mlp(x, pair(4, 5, 2), pair(5, 4))
    with pytest.raises(ShapeError, match=r"mlp: inner dimensions differ: \(6, 5\) vs \(4, 4\)"):
        tape.mlp(x, pair(4, 5), square)
    with pytest.raises(ShapeError, match="mlp: inner dimensions differ"):
        tape.mlp(sparse.csr_array(np.ones((6, 3))), square, square)
    with pytest.raises(ShapeError, match="mlp: bias shape"):
        tape.mlp(x, square, pair(4, 4, 3))

    def attention(query=square, key=square[0], value=square, out=square, heads=2, block=2,
                  rate=0.0):
        return tape.attention_block(x, query, key, value, out, heads, block, rate, True)

    with pytest.raises(ShapeError, match="attention_block: inner dimensions differ"):
        attention(key=pair(3, 4)[0])
    with pytest.raises(ShapeError, match="attention_block: bias shape"):
        attention(value=pair(4, 4, 2))
    with pytest.raises(ShapeError, match="attention_block: shapes differ"):
        attention(query=pair(4, 2))
    with pytest.raises(ShapeError, match="attention_block: inner dimensions differ"):
        attention(out=pair(2, 4))
    with pytest.raises(ShapeError, match="attention_block: bias shape"):
        attention(out=pair(4, 4, 3))
    with pytest.raises(ShapeError, match="attention_block: 3 heads do not divide width 4"):
        attention(heads=3)
    with pytest.raises(ShapeError, match="attention_block: row count 6 is not a multiple of block 4"):
        attention(block=4)
    for rate in (1.0, -0.1):
        with pytest.raises(ValueError, match="rate must be in"):
            attention(rate=rate)

    gain, bias = Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4)))
    with pytest.raises(ShapeError, match=r"add_layer_norm: shapes differ: \(6, 4\) vs \(1, 4\)"):
        tape.add_layer_norm(x, bias, gain, bias)
    with pytest.raises(ShapeError, match="add_layer_norm: gain .* must both be"):
        tape.add_layer_norm(x, x, Tensor(np.ones((1, 3))), bias)


def _seeded_run(build, arrays, proj, residual=True):
    """build(tape, *tensors) on a seeded training tape, its output fed
    through ``scalarize``, with a residual path into the first tensor
    when asked for, as a layer's input also feeds its residual add.
    Returns the output, the tape RNG's next draw and every input
    gradient, as bytes."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    tape = Tape(seed=19)
    out = build(tape, *tensors)
    loss = scalarize(tape, out, proj)
    if residual:
        loss = tape.add(loss, scalarize(tape, tensors[0], proj))
    tape.backward(loss)
    return [out.value.tobytes(), tape.rng.random()] + [t.grad.tobytes() for t in tensors]


@pytest.mark.parametrize("sparse_input", [False, True])
def test_mlp_matches_primitive_composition_bit_for_bit(sparse_input):
    rng = np.random.default_rng(41)
    x = np.where(rng.random((9, 6)) < 0.4, rng.standard_normal((9, 6)), 0.0)
    arrays = [x, rng.standard_normal((6, 5)), rng.standard_normal((1, 5)),
              rng.standard_normal((5, 6)), rng.standard_normal((1, 6))]
    proj = rng.standard_normal((9, 6))
    csr = sparse.csr_array(x) if sparse_input else None
    if sparse_input:
        arrays = arrays[1:]

    def fused(t, *ts):
        x, p = (csr, ts) if sparse_input else (ts[0], ts[1:])
        return t.mlp(x, p[:2], p[2:])

    def primitive(t, *ts):
        x, p = (csr, ts) if sparse_input else (ts[0], ts[1:])
        return t.linear(t.gelu(t.linear(x, *p[:2])), *p[2:])

    assert (_seeded_run(fused, arrays, proj, residual=not sparse_input)
            == _seeded_run(primitive, arrays, proj, residual=not sparse_input))


@pytest.mark.parametrize("heads, block", [(1, 3), (2, 3), (4, 3), (2, 1)])
def test_attention_block_matches_primitive_composition_bit_for_bit(heads, block):
    rng = np.random.default_rng(43)
    arrays = [rng.standard_normal((9, 4))]
    arrays += [rng.standard_normal(shape) for _ in range(4) for shape in ((4, 4), (1, 4))]
    del arrays[4]  # the key bias
    proj = rng.standard_normal((9, 4))
    d_head = 4 // heads

    def fused(t, x, *p):
        return t.attention_block(x, *attention_projections(p), heads, block, 0.3, True)

    def primitive(t, x, *p):
        q, k, v = t.linear(x, p[0], p[1]), t.matmul(x, p[2]), t.linear(x, p[3], p[4])
        mixed = []
        for lo in range(0, 4, d_head):
            def cols(m):
                return t.slice_cols(m, lo, lo + d_head)
            scores = t.scale(t.attention_scores(cols(q), cols(k), block), 1.0 / np.sqrt(d_head))
            probs = t.dropout(t.softmax_rows(scores), 0.3, True)
            mixed.append(t.attention_apply(probs, cols(v), block))
        return t.linear(t.concat_cols(mixed), *p[5:])

    assert _seeded_run(fused, arrays, proj) == _seeded_run(primitive, arrays, proj)


def test_add_layer_norm_matches_primitive_composition_bit_for_bit():
    rng = np.random.default_rng(47)
    arrays = [rng.standard_normal((7, 5)), rng.standard_normal((7, 5)),
              rng.standard_normal((1, 5)) + 1.0, rng.standard_normal((1, 5))]
    proj = rng.standard_normal((7, 5))

    def fused(t, a, b, gain, bias):
        return t.add_layer_norm(a, b, gain, bias)

    def primitive(t, a, b, gain, bias):
        return t.add(t.mul(t.layer_norm_rows(t.add(a, b)), gain), bias)

    assert _seeded_run(fused, arrays, proj) == _seeded_run(primitive, arrays, proj)


def test_first_gradient_is_never_shared():
    """An upstream gradient passed through unchanged is copied before a
    later += could write into it."""
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    y = Tensor([[3.0, 4.0]], requires_grad=True)
    tape = Tape()
    s = tape.add(x, y)  # s.grad reaches x and y unchanged
    loss = tape.mse(tape.add_n([s, x]), np.zeros((1, 2)))
    tape.backward(loss)
    g = 2.0 * (2.0 * x.value + y.value) / 2.0
    assert np.array_equal(y.grad, g)
    assert np.array_equal(s.grad, g)
    assert np.array_equal(x.grad, 2.0 * g)


def test_dropout_rate_validation():
    tape = Tape()
    with pytest.raises(ValueError, match="rate"):
        tape.dropout(Tensor([[1.0]]), rate=1.0, training=True)


def test_constants_do_not_collect_gradients():
    x = Tensor([[2.0]], requires_grad=True)
    c = Tensor([[3.0]])
    tape = Tape()
    loss = tape.mse(tape.mul(x, c), [[0.0]])
    tape.backward(loss)
    assert c.grad is None
    assert x.grad is not None


def test_tape_freed_by_refcount_after_backward():
    """No reference cycle keeps a finished tape alive: with the cycle
    collector off, dropping the last outside reference frees it."""
    import gc
    import weakref

    from segbert.features import build_bundles
    from segbert.gradcheck import toy_graph
    from segbert.model import (ModelConfig, build_batch, classify_batch, init_params,
                               prepare_graph)
    from segbert.unify import Strategy, UnifyPlan

    g = toy_graph()
    cfg = ModelConfig(hidden_dim=4, head_count=2, intermediate_dim=4, class_count=2,
                      attr_dim=3, use_tags=True, n_adj=5, segment_k=5,
                      residual_mode="raw")
    params = init_params(cfg, seed=0)
    gi = prepare_graph(g, build_bundles(g, n_adj=5), UnifyPlan(Strategy.FULL_INPUT, 5), cfg)
    batch = build_batch([gi], cfg.class_count)

    def step():
        tape = Tape(seed=0)
        loss, _logits = classify_batch(tape, params, cfg, batch, training=True)
        tape.backward(loss)
        assert len(tape.entries) > 15
        return weakref.ref(tape)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert step()() is None
    finally:
        if was_enabled:
            gc.enable()


def test_every_public_tape_method_has_a_caller():
    """Tape ships only what runs: each public method is called somewhere
    in src/segbert or named in perfbench/spans.py's TAPE_OPS, whose
    tracer looks every listed op up on Tape. Once the tape profiles
    itself from inside the package (ROADMAP item 2), TAPE_OPS goes and
    this test drops that half."""
    root = Path(__file__).resolve().parent.parent
    called = {node.func.attr
              for path in (root / "src" / "segbert").glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    spans = ast.parse((root / "perfbench" / "spans.py").read_text())
    traced, = (ast.literal_eval(node.value) for node in spans.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TAPE_OPS"])
    public = {name for name, _ in inspect.getmembers(Tape, inspect.isfunction)
              if not name.startswith("_")}
    assert sorted(public - called - set(traced)) == []


def test_every_private_helper_has_a_caller():
    """Each module-private function and private Tape method in
    src/segbert is referenced somewhere outside its own body, so a
    refactor cannot leave a kernel or helper behind with no caller."""
    root = Path(__file__).resolve().parent.parent
    trees = [ast.parse(path.read_text())
             for path in sorted((root / "src" / "segbert").glob("*.py"))]

    def private(defs):
        return [d for d in defs if isinstance(d, ast.FunctionDef)
                and d.name.startswith("_") and not d.name.endswith("__")]

    helpers = []
    for tree in trees:
        helpers += private(tree.body)
        helpers += [f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Tape"
                    for f in private(c.body)]
    assert any(h.name == "_record" for h in helpers)  # the walk reaches Tape

    def references(node):  # identifiers read as names or attributes
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    everywhere = sum(map(references, trees), Counter())
    orphans = [h.name for h in helpers if everywhere[h.name] == references(h)[h.name]]
    assert orphans == []


def test_every_public_name_has_a_reader():
    """src/segbert ships nothing that only the tests read: each public
    module-level function, public method of a class other than Tape
    (guarded above) and dataclass field is read in src/segbert outside
    its own definition, in demos/ or in perfbench/, or is re-exported by
    segbert/__init__.py. A name, an attribute or a string naming it (as
    in _check_features' getattr loop) is a read; an __all__ entry, a
    keyword argument and an assignment are not. RunConfig's fields are
    exempt: to_text, _add_run_flags and build_configs read every one
    through dataclasses.fields, and each is a config key and a flag."""
    root = Path(__file__).resolve().parent.parent
    package = {path.name: ast.parse(path.read_text())
               for path in sorted((root / "src" / "segbert").glob("*.py"))}
    outside = [ast.parse(path.read_text()) for folder in ("demos", "perfbench")
               for path in sorted((root / folder).glob("*.py"))]

    def reads(nodes):
        found = Counter()
        for node in nodes:
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    found[n.id] += 1
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    found[n.attr] += 1
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    found[n.value] += 1
        return found

    def is_dataclass(c):
        return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                   for d in c.decorator_list)

    public = []  # (label, name, definition)
    for tree in package.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                public.append((node.name, node.name, node))
            elif isinstance(node, ast.ClassDef) and node.name != "Tape":
                fields = is_dataclass(node) and node.name != "RunConfig"
                for d in node.body:
                    if isinstance(d, ast.FunctionDef):
                        public.append((f"{node.name}.{d.name}", d.name, d))
                    elif fields and isinstance(d, ast.AnnAssign):
                        public.append((f"{node.name}.{d.target.id}", d.target.id, d))
    public = [entry for entry in public if not entry[1].startswith("_")]
    assert {"GraphInputs.kept_nodes", "CsrRows.take", "run_cv"} <= {p[0] for p in public}

    def not_all(tree):  # every statement but the __all__ list
        return [s for s in tree.body if not (isinstance(s, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in s.targets))]

    everywhere = reads(s for tree in package.values() for s in not_all(tree)) + reads(outside)
    exported = {a.name for s in package["__init__.py"].body if isinstance(s, ast.ImportFrom)
                for a in s.names}
    unread = [label for label, name, node in public
              if name not in exported and everywhere[name] == reads([node])[name]]
    assert unread == []
