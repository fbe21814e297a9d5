"""Engine tests: every primitive against oracles and finite differences.

The matmul oracle is a hand-rolled triple loop; gradients are checked
against central finite differences with step 1e-5; Adam is checked
against a scalar reference implementation written independently here.
"""

import numpy as np
import pytest
from scipy import sparse

from segbert.autodiff import (
    AdamState,
    NonFiniteError,
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


def test_multi_head_attention_matches_per_head_loop():
    rng = np.random.default_rng(29)
    block, segs, heads, d_head = 3, 4, 2, 2
    q, k, v = (rng.standard_normal((segs * block, heads * d_head)) for _ in range(3))
    out = Tape().multi_head_attention(Tensor(q), Tensor(k), Tensor(v), heads, block,
                                      0.5, False)
    for s in range(segs):
        rows = slice(s * block, (s + 1) * block)
        for h in range(heads):
            cols = slice(h * d_head, (h + 1) * d_head)
            scores = q[rows, cols] @ k[rows, cols].T / np.sqrt(d_head)
            p = np.exp(scores - scores.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            assert np.allclose(out.value[rows, cols], p @ v[rows, cols], atol=1e-12)
    # one slot per segment: each slot attends only to itself
    single = Tape().multi_head_attention(Tensor(q), Tensor(k), Tensor(v), heads, 1,
                                         0.0, True)
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
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = Tape().mean_rows(Tensor(x))
    assert np.allclose(out.value, [[3.0, 4.0]], atol=1e-15)


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
        "mean_rows": lambda t, x: scalarize(t, t.mean_rows(x), proj1x4),
        "cosine": lambda t, x: scalarize(t, t.cosine_rows(x), proj6x6),
        "mse": lambda t, x: t.mse(x, other),
        "cross_entropy": lambda t, x: t.cross_entropy(x, onehot),
        "linear": lambda t, x: scalarize(
            t, t.linear(x, Tensor(weight), Tensor(bias)), proj6x4),
        "linear_weight": lambda t, x: scalarize(
            t, t.linear(Tensor(inputs3x6), x, Tensor(bias)), proj3x4),
        "affine_layer_norm": lambda t, x: scalarize(
            t, t.affine_layer_norm(x, Tensor(gain), Tensor(bias)), proj6x4),
    }
    # multi-head attention over 3 segments of 2 rows, 1 or 2 heads, with
    # training dropout: every tape in _fd_check shares one seed, so each
    # evaluation draws the same masks; x stands in for q, k or v in turn
    for heads in (1, 2):
        for role in range(3):
            def build(t, x, heads=heads, role=role):
                qkv = [Tensor(m) for m in (q6x4, k6x4, v6x4)]
                qkv[role] = x
                return scalarize(
                    t, t.multi_head_attention(*qkv, heads, 2, 0.3, True), proj6x4)
            cases[f"multi_head_attention_h{heads}_{'qkv'[role]}"] = build
    x0 = rng.standard_normal((6, 4)) + 0.1  # keep relu inputs off the kink
    for name, build in cases.items():
        _fd_check(build, x0)

    # bias, gain and the eval-mode attention path
    _fd_check(lambda t, x: scalarize(
        t, t.linear(Tensor(x0), Tensor(weight), x), proj6x4), bias)
    _fd_check(lambda t, x: scalarize(
        t, t.affine_layer_norm(Tensor(x0), x, Tensor(bias)), proj6x4), gain)
    _fd_check(lambda t, x: scalarize(
        t, t.affine_layer_norm(Tensor(x0), Tensor(gain), x), proj6x4), bias)
    _fd_check(lambda t, x: scalarize(
        t, t.multi_head_attention(x, Tensor(k6x4), x, 2, 2, 0.3, False), proj6x4), q6x4)

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
    state = AdamState.for_params([p], learning_rate=0.01, weight_decay=0.004)
    expected = adam_reference(0.7, grads, lr=0.01, wd=0.004)
    for g, want in zip(grads, expected):
        adam_step([p], [np.array([[g]])], state)
        assert abs(p.value[0, 0] - want) < 1e-12


def test_adam_zero_grad_zero_decay_is_noop():
    p = Tensor([[1.5, -2.5]], requires_grad=True)
    before = p.value.copy()
    state = AdamState.for_params([p], learning_rate=0.1, weight_decay=0.0)
    for _ in range(3):
        adam_step([p], [np.zeros((1, 2))], state)
    assert np.array_equal(p.value, before)


def test_adam_constant_gradient_approaches_lr_sign():
    p = Tensor([[0.0, 0.0]], requires_grad=True)
    g = np.array([[3.0, -0.02]])
    lr = 0.001
    state = AdamState.for_params([p], learning_rate=lr)
    prev = p.value.copy()
    for _ in range(300):
        prev = p.value.copy()
        adam_step([p], [g], state)
    step = p.value - prev
    assert np.allclose(step, -lr * np.sign(g), rtol=1e-3, atol=1e-7)


def test_clip_global_norm():
    g1 = np.array([[3.0, 0.0]])
    g2 = np.array([[0.0, 4.0]])
    total = clip_global_norm([g1, g2], 1.0)
    assert abs(total - 5.0) < 1e-12
    assert abs(np.sqrt(np.sum(g1 ** 2) + np.sum(g2 ** 2)) - 1.0) < 1e-12


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
    x.zero_grad()
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
        with pytest.raises(NonFiniteError, match="'multi_head_attention'"):
            tape.multi_head_attention(big, big, big, 2, 2, 0.0, False)


def test_large_finite_values_pass_the_finite_check():
    # squares past the float range must not be taken for Inf
    big = np.array([[1e300, -1e300], [1e200, 0.0]])
    out = Tape().scale(Tensor(big), 1.0)
    assert np.array_equal(out.value, big)


def test_multi_head_attention_rejects_bad_shapes():
    tape = Tape()
    x = Tensor(np.zeros((6, 4)))
    with pytest.raises(ShapeError, match="multiple of block 4"):
        tape.multi_head_attention(x, x, x, 2, 4, 0.0, False)
    with pytest.raises(ShapeError, match="3 heads"):
        tape.multi_head_attention(x, x, x, 3, 2, 0.0, False)
    with pytest.raises(ShapeError, match="shapes differ"):
        tape.multi_head_attention(x, Tensor(np.zeros((6, 2))), x, 2, 2, 0.0, False)
    with pytest.raises(ValueError, match="rate"):
        tape.multi_head_attention(x, x, x, 2, 2, 1.0, True)


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
        assert len(tape.entries) > 30
        return weakref.ref(tape)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert step()() is None
    finally:
        if was_enabled:
            gc.enable()
