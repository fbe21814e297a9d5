"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

The engine is a classic Wengert tape. Every operation runs eagerly on
numpy values and, while recording is on, appends an entry holding the
op name, the input tensors, the output tensor and the op's gradient
function, a function of the output gradient that pushes it back onto
the inputs. Program order is a valid topological order, so ``backward``
just walks the entries once in reverse.

The op set is exactly what a segmented graph transformer needs. The
model records three fused ops: ``linear`` (matrix product plus a bias
row, whose input may also be a constant scipy sparse matrix),
``affine_layer_norm`` (row normalization, gain and bias) and
``multi_head_attention`` (per-segment scaled dot-product attention of
all heads, with the softmax and attention dropout inside). Alongside
them sit the primitives: matrix products (including block-diagonal
ones for per-segment attention), broadcasting add/multiply, scaling,
row-wise softmax and layer norm, GELU and ReLU, inverted dropout, row
gathering, column slicing and concatenation, row means, row-pair
cosine similarity, and the two loss reductions (mean squared error,
softmax cross-entropy). Adam with decoupled weight decay and global-norm
clipping live here too; both update a model's flat value and gradient
vectors, of which its parameter tensors' values and grads are views.

Each op, fused or not, checks its output for NaN and Inf and raises
``NonFiniteError`` naming itself.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.special import erf

__all__ = [
    "Tensor",
    "Tape",
    "TapeEntry",
    "AdamState",
    "adam_step",
    "ShapeError",
    "NonFiniteError",
]

_LAYER_NORM_EPS = 1e-12
_COSINE_NORM_FLOOR = 1e-8
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_SQRT_2 = np.sqrt(2.0)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible. Names both shapes."""


class NonFiniteError(ArithmeticError):
    """Raised when an op produces NaN or Inf. Names the op kind."""


def _as_2d(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got array of shape {arr.shape}")
    return arr


class Tensor:
    """A dense 2-D float64 array with an optional gradient buffer.

    Parameters are tensors created with ``requires_grad=True``; they
    outlive tapes. Tensors returned by tape ops carry a weak reference
    to the tape that produced them, so a tape and its entries are freed
    as soon as the last outside reference to the tape goes.
    """

    __slots__ = ("value", "grad", "requires_grad", "name", "_tape")

    def __init__(self, value, requires_grad: bool = False, name: str | None = None):
        self.value = _as_2d(value)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._tape: "weakref.ref[Tape] | None" = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def _accumulate(self, g: np.ndarray, shared: bool = False) -> None:
        """Add ``g`` to the gradient buffer; with none set, ``g`` becomes it.

        Pass ``shared=True`` when ``g`` is still held elsewhere (an
        upstream gradient passed through unchanged, or a view of one):
        it is then copied, so a later ``+=`` never writes into it.
        """
        if self.grad is None:
            self.grad = g.copy() if shared else g
        else:
            self.grad += g

    def __repr__(self) -> str:  # pragma: no cover
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.value.shape}, requires_grad={self.requires_grad})"


@dataclass(slots=True)
class TapeEntry:
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[], None]


def _check_finite(op: str, arr: np.ndarray) -> None:
    # A NaN or Inf entry makes the sum of squares NaN or Inf, so a finite
    # sum clears the array in one BLAS call; only an infinite sum (Inf
    # entries, or finite ones whose squares overflow) needs the exact test.
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise NonFiniteError(f"op {op!r} produced a non-finite value")


def _row_mean(x: np.ndarray) -> np.ndarray:
    # np.mean's arithmetic (sum, then divide) without its Python wrapper
    return np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]


def _normalize_rows(x: np.ndarray) -> tuple:
    """(rows scaled to zero mean and unit variance, 1/std per row).

    The variance is computed as np.var computes it, from the centred
    rows, which are then reused for the output.
    """
    centered = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(centered * centered) + _LAYER_NORM_EPS)
    return centered * inv, inv


def _normalize_rows_grad(g: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Input gradient of ``_normalize_rows`` from output gradient g."""
    return inv * (g - _row_mean(g) - y * _row_mean(g * y))


class Tape:
    """Records ops for one forward pass and replays them in reverse.

    A tape also owns the RNG used by dropout, so a fixed seed makes the
    whole forward/backward cycle bit-reproducible. Tapes are not thread
    safe; confine a tape and its tensors to one worker.
    """

    def __init__(self, seed: int | None = None):
        self.entries: list[TapeEntry] = []
        self.recording = True
        self._seed = seed
        self._backward_done = False
        self._ref = weakref.ref(self)

    @cached_property
    def rng(self) -> np.random.Generator:
        """The dropout RNG, built on first use: eval-only tapes skip it."""
        return np.random.default_rng(self._seed)

    # ------------------------------------------------------------------
    # bookkeeping

    def reset(self) -> None:
        """Drop all recorded entries; the next forward starts clean."""
        self.entries.clear()
        self._backward_done = False

    @contextmanager
    def paused(self):
        """Context manager that disables recording (for eval passes)."""
        prev = self.recording
        self.recording = False
        try:
            yield self
        finally:
            self.recording = prev

    def _coerce(self, x) -> Tensor:
        return x if isinstance(x, Tensor) else Tensor(x)

    def _record(self, op: str, inputs: tuple[Tensor, ...], value: np.ndarray,
                backward: Callable[[np.ndarray], None]) -> Tensor:
        """Wrap ``value`` as the output of ``op``; tape it while recording.

        ``backward(g)`` pushes the output gradient ``g`` onto the inputs.
        The entry holds it as a function of the output's gradient, which
        the reverse sweep reads when it reaches the entry."""
        _check_finite(op, value)
        out = Tensor(value)
        if self.recording and any(t.requires_grad for t in inputs):
            out.requires_grad = True
            out._tape = self._ref
            self.entries.append(TapeEntry(op, inputs, out, lambda: backward(out.grad)))
        return out

    # ------------------------------------------------------------------
    # core ops

    def constant(self, value, name: str | None = None) -> Tensor:
        return Tensor(value, requires_grad=False, name=name)

    def matmul(self, a, b) -> Tensor:
        a, b = self._coerce(a), self._coerce(b)
        if a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(
                f"matmul: inner dimensions differ: {a.value.shape} vs {b.value.shape}")
        value = a.value @ b.value

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.value.T)
            if b.requires_grad:
                b._accumulate(a.value.T @ g)

        return self._record("matmul", (a, b), value, backward)

    def linear(self, x, w, b) -> Tensor:
        """x @ w plus the 1 x out bias row b: a dense layer as one op.

        ``x`` may be a scipy sparse matrix, taken as a constant: the
        products then cost O(non-zeros), and only w and b are inputs.
        """
        w, b = self._coerce(w), self._coerce(b)
        if sparse.issparse(x):
            xv, x, inputs = x, None, (w, b)
        else:
            x = self._coerce(x)
            xv, inputs = x.value, (x, w, b)
        if xv.shape[1] != w.value.shape[0]:
            raise ShapeError(
                f"linear: inner dimensions differ: {xv.shape} vs {w.value.shape}")
        if b.value.shape != (1, w.value.shape[1]):
            raise ShapeError(
                f"linear: bias shape {b.value.shape} does not match weight {w.value.shape}")
        value = xv @ w.value
        value += b.value

        def backward(g):
            if x is not None and x.requires_grad:
                x._accumulate(g @ w.value.T)
            if w.requires_grad:
                w._accumulate(xv.T @ g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0, keepdims=True))

        return self._record("linear", inputs, value, backward)

    def _broadcast_binary(self, op: str, a, b, fn, da_fn, db_fn) -> Tensor:
        a, b = self._coerce(a), self._coerce(b)
        sa, sb = a.value.shape, b.value.shape
        ok = (sa == sb
              or (sb == (1, sa[1]))
              or (sb == (1, 1)))
        if not ok:
            raise ShapeError(f"{op}: shapes do not broadcast: {sa} vs {sb}")
        value = fn(a.value, b.value)

        def reduce_to(shape: tuple[int, int], g: np.ndarray) -> np.ndarray:
            if shape == g.shape:
                return g
            if shape == (1, 1):
                return g.sum(keepdims=True)
            return g.sum(axis=0, keepdims=True)

        def backward(g):
            if a.requires_grad:
                da = da_fn(g, a.value, b.value)
                a._accumulate(da, shared=da is g)
            if b.requires_grad:
                db = reduce_to(b.value.shape, db_fn(g, a.value, b.value))
                b._accumulate(db, shared=db is g)

        return self._record(op, (a, b), value, backward)

    def add(self, a, b) -> Tensor:
        """Elementwise sum. ``b`` may be 1 x d (bias row) or 1 x 1."""
        return self._broadcast_binary(
            "add", a, b,
            lambda x, y: x + y,
            lambda g, x, y: g,
            lambda g, x, y: g,
        )

    def mul(self, a, b) -> Tensor:
        """Elementwise product, same broadcasting rules as add."""
        return self._broadcast_binary(
            "mul", a, b,
            lambda x, y: x * y,
            lambda g, x, y: g * y,
            lambda g, x, y: g * x,
        )

    def add_n(self, tensors: Sequence) -> Tensor:
        """Sum of same-shape tensors; handy for embedding channels."""
        ts = tuple(self._coerce(t) for t in tensors)
        if not ts:
            raise ShapeError("add_n: empty operand list")
        shape = ts[0].value.shape
        for t in ts[1:]:
            if t.value.shape != shape:
                raise ShapeError(f"add_n: shapes differ: {shape} vs {t.value.shape}")
        value = ts[0].value.copy()
        for t in ts[1:]:
            value += t.value

        def backward(g):
            for t in ts:
                if t.requires_grad:
                    t._accumulate(g, shared=True)

        return self._record("add_n", ts, value, backward)

    def scale(self, a, c: float) -> Tensor:
        a = self._coerce(a)
        c = float(c)
        value = a.value * c

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * c)

        return self._record("scale", (a,), value, backward)

    # ------------------------------------------------------------------
    # nonlinearities and normalization

    def relu(self, a) -> Tensor:
        a = self._coerce(a)
        value = np.maximum(a.value, 0.0)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * (value > 0.0))

        return self._record("relu", (a,), value, backward)

    def gelu(self, a) -> Tensor:
        """Exact GELU, x * Phi(x) with the Gaussian CDF."""
        a = self._coerce(a)
        x = a.value
        cdf = 0.5 * (1.0 + erf(x / _SQRT_2))
        value = x * cdf

        def backward(g):
            if a.requires_grad:
                pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
                a._accumulate(g * (cdf + x * pdf))

        return self._record("gelu", (a,), value, backward)

    def softmax_rows(self, a) -> Tensor:
        a = self._coerce(a)
        shifted = a.value - a.value.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        value = e / e.sum(axis=1, keepdims=True)

        def backward(g):
            if a.requires_grad:
                dot = (g * value).sum(axis=1, keepdims=True)
                a._accumulate(value * (g - dot))

        return self._record("softmax_rows", (a,), value, backward)

    def layer_norm_rows(self, a) -> Tensor:
        """Per-row normalization to zero mean, unit variance.

        The affine rescale is not part of this op; apply mul/add with
        gain and bias rows on top. Epsilon 1e-12 sits on the variance.
        """
        a = self._coerce(a)
        value, inv = _normalize_rows(a.value)

        def backward(g):
            if a.requires_grad:
                a._accumulate(_normalize_rows_grad(g, value, inv))

        return self._record("layer_norm_rows", (a,), value, backward)

    def affine_layer_norm(self, x, gain, bias) -> Tensor:
        """``layer_norm_rows(x) * gain + bias`` with 1 x d gain and bias rows."""
        x, gain, bias = self._coerce(x), self._coerce(gain), self._coerce(bias)
        row = (1, x.value.shape[1])
        if gain.value.shape != row or bias.value.shape != row:
            raise ShapeError(
                f"affine_layer_norm: gain {gain.value.shape} and bias "
                f"{bias.value.shape} must both be {row} for input {x.value.shape}")
        y, inv = _normalize_rows(x.value)
        value = y * gain.value
        value += bias.value

        def backward(g):
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=0, keepdims=True))
            if gain.requires_grad:
                gain._accumulate((g * y).sum(axis=0, keepdims=True))
            if x.requires_grad:
                x._accumulate(_normalize_rows_grad(g * gain.value, y, inv))

        return self._record("affine_layer_norm", (x, gain, bias), value, backward)

    def dropout(self, a, rate: float, training: bool) -> Tensor:
        """Inverted dropout: kept entries are scaled by 1/(1-rate).

        Eval mode and rate 0 return ``a`` itself and record nothing.
        The mask comes from the tape RNG, so a seeded tape replays the
        same masks.
        """
        a = self._coerce(a)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        if not training or rate == 0.0:
            return a

        keep = 1.0 - rate
        mask = (self.rng.random(a.value.shape) >= rate) / keep
        value = a.value * mask

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * mask)

        return self._record("dropout", (a,), value, backward)

    # ------------------------------------------------------------------
    # structure ops

    def take_rows(self, a, indices) -> Tensor:
        a = self._coerce(a)
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise ShapeError(f"take_rows: indices must be 1-D, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
            raise ShapeError(
                f"take_rows: index out of range for {a.value.shape[0]} rows")
        value = a.value[idx]

        def backward(g):
            if a.requires_grad:
                full = np.zeros_like(a.value)
                np.add.at(full, idx, g)
                a._accumulate(full)

        return self._record("take_rows", (a,), value, backward)

    def concat_rows(self, tensors: Sequence) -> Tensor:
        ts = tuple(self._coerce(t) for t in tensors)
        if not ts:
            raise ShapeError("concat_rows: empty operand list")
        cols = ts[0].value.shape[1]
        for t in ts[1:]:
            if t.value.shape[1] != cols:
                raise ShapeError(
                    f"concat_rows: column counts differ: {ts[0].value.shape} vs {t.value.shape}")
        value = np.concatenate([t.value for t in ts], axis=0)
        splits = np.cumsum([t.value.shape[0] for t in ts])[:-1]

        def backward(g):
            for t, piece in zip(ts, np.split(g, splits, axis=0)):
                if t.requires_grad:
                    t._accumulate(piece, shared=True)

        return self._record("concat_rows", ts, value, backward)

    def concat_cols(self, tensors: Sequence) -> Tensor:
        ts = tuple(self._coerce(t) for t in tensors)
        if not ts:
            raise ShapeError("concat_cols: empty operand list")
        rows = ts[0].value.shape[0]
        for t in ts[1:]:
            if t.value.shape[0] != rows:
                raise ShapeError(
                    f"concat_cols: row counts differ: {ts[0].value.shape} vs {t.value.shape}")
        value = np.concatenate([t.value for t in ts], axis=1)
        splits = np.cumsum([t.value.shape[1] for t in ts])[:-1]

        def backward(g):
            for t, piece in zip(ts, np.split(g, splits, axis=1)):
                if t.requires_grad:
                    t._accumulate(piece, shared=True)

        return self._record("concat_cols", ts, value, backward)

    def slice_cols(self, a, start: int, stop: int) -> Tensor:
        a = self._coerce(a)
        cols = a.value.shape[1]
        if not (0 <= start < stop <= cols):
            raise ShapeError(
                f"slice_cols: [{start}:{stop}] invalid for shape {a.value.shape}")
        value = a.value[:, start:stop].copy()

        def backward(g):
            if a.requires_grad:
                full = np.zeros_like(a.value)
                full[:, start:stop] = g
                a._accumulate(full)

        return self._record("slice_cols", (a,), value, backward)

    def mean_rows(self, a) -> Tensor:
        """Column-wise mean across rows; an n x d input gives 1 x d."""
        a = self._coerce(a)
        n = a.value.shape[0]
        value = a.value.mean(axis=0, keepdims=True)

        def backward(g):
            if a.requires_grad:
                a._accumulate(np.repeat(g / n, n, axis=0))

        return self._record("mean_rows", (a,), value, backward)

    # ------------------------------------------------------------------
    # blocked attention products

    def _block_view(self, t: Tensor, block: int, op: str) -> int:
        rows = t.value.shape[0]
        if block <= 0 or rows % block != 0:
            raise ShapeError(
                f"{op}: row count {rows} is not a multiple of block {block}")
        return rows // block

    def attention_scores(self, q, k, block: int) -> Tensor:
        """Block-diagonal Q K^T: per segment of ``block`` rows.

        q and k are (s*block) x d stacks of s segments; the result is the
        (s*block) x block stack of the per-segment score matrices.
        """
        q, k = self._coerce(q), self._coerce(k)
        if q.value.shape != k.value.shape:
            raise ShapeError(
                f"attention_scores: shapes differ: {q.value.shape} vs {k.value.shape}")
        s = self._block_view(q, block, "attention_scores")
        d = q.value.shape[1]
        q3 = q.value.reshape(s, block, d)
        k3 = k.value.reshape(s, block, d)
        value = np.matmul(q3, k3.transpose(0, 2, 1)).reshape(s * block, block)

        def backward(g):
            g3 = g.reshape(s, block, block)
            if q.requires_grad:
                q._accumulate(np.matmul(g3, k3).reshape(s * block, d))
            if k.requires_grad:
                k._accumulate(
                    np.matmul(g3.transpose(0, 2, 1), q3).reshape(s * block, d))

        return self._record("attention_scores", (q, k), value, backward)

    def attention_apply(self, p, v, block: int) -> Tensor:
        """Block-diagonal P V: per-segment mixing of value rows.

        p is (s*block) x block (rows of attention weights), v is
        (s*block) x d; the result is (s*block) x d.
        """
        p, v = self._coerce(p), self._coerce(v)
        if p.value.shape[1] != block:
            raise ShapeError(
                f"attention_apply: weight shape {p.value.shape} does not match block {block}")
        s = self._block_view(p, block, "attention_apply")
        if v.value.shape[0] != s * block:
            raise ShapeError(
                f"attention_apply: value rows {v.value.shape} do not match weights {p.value.shape}")
        d = v.value.shape[1]
        p3 = p.value.reshape(s, block, block)
        v3 = v.value.reshape(s, block, d)
        value = np.matmul(p3, v3).reshape(s * block, d)

        def backward(g):
            g3 = g.reshape(s, block, d)
            if p.requires_grad:
                p._accumulate(
                    np.matmul(g3, v3.transpose(0, 2, 1)).reshape(s * block, block))
            if v.requires_grad:
                v._accumulate(
                    np.matmul(p3.transpose(0, 2, 1), g3).reshape(s * block, d))

        return self._record("attention_apply", (p, v), value, backward)

    def multi_head_attention(self, q, k, v, heads: int, block: int,
                             rate: float, training: bool) -> Tensor:
        """Scaled dot-product attention per segment, all heads in one op.

        q, k and v are (s*block) x d stacks of s segments; their columns
        split into ``heads`` heads of d_head = d/heads columns. For each
        segment and head this computes softmax(Q K^T / sqrt(d_head)),
        applies inverted attention dropout (training only) and mixes
        the value rows. Head outputs come back side by side, so the
        result is (s*block) x d. The dropout masks are one
        (heads, s*block, block) draw from the tape RNG: the same stream
        as one draw per head in head order.
        """
        q, k, v = self._coerce(q), self._coerce(k), self._coerce(v)
        if q.value.shape != k.value.shape or q.value.shape != v.value.shape:
            raise ShapeError(
                f"multi_head_attention: shapes differ: q {q.value.shape}, "
                f"k {k.value.shape}, v {v.value.shape}")
        s = self._block_view(q, block, "multi_head_attention")
        d = q.value.shape[1]
        if heads <= 0 or d % heads != 0:
            raise ShapeError(
                f"multi_head_attention: {heads} heads do not divide width {d}")
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        d_head = d // heads
        c = 1.0 / np.sqrt(d_head)

        def split(x):  # (s*block, d) -> (s, heads, block, d_head)
            # contiguous, so each per-head product sees the strides the
            # per-head column slices had and BLAS rounds the same way
            return np.ascontiguousarray(
                x.reshape(s, block, heads, d_head).transpose(0, 2, 1, 3))

        def merge(x):  # (s, heads, block, d_head) -> (s*block, d)
            return x.transpose(0, 2, 1, 3).reshape(s * block, d)

        def swap(x):  # transpose each (row, column) block
            return x.transpose(0, 1, 3, 2)

        q4, k4, v4 = split(q.value), split(k.value), split(v.value)
        probs = np.matmul(q4, swap(k4))
        probs *= c
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        mask = None
        mixed = probs
        if training and rate > 0.0:
            draw = self.rng.random((heads, s * block, block))
            mask = ((draw >= rate) / (1.0 - rate)).reshape(
                heads, s, block, block).transpose(1, 0, 2, 3)
            mixed = probs * mask
        value = merge(np.matmul(mixed, v4))

        def backward(g):
            g4 = split(g)
            if v.requires_grad:
                v._accumulate(merge(np.matmul(swap(mixed), g4)))
            if not (q.requires_grad or k.requires_grad):
                return
            dp = np.matmul(g4, swap(v4))
            if mask is not None:
                dp *= mask
            ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
            ds *= c
            if q.requires_grad:
                q._accumulate(merge(np.matmul(ds, k4)))
            if k.requires_grad:
                k._accumulate(merge(np.matmul(swap(ds), q4)))

        return self._record("multi_head_attention", (q, k, v), value, backward)

    # ------------------------------------------------------------------
    # similarity and losses

    def cosine_rows(self, a) -> Tensor:
        """Pairwise cosine similarity of rows; n x d gives n x n.

        Rows with zero norm map to similarity 0 everywhere (their own
        diagonal included) and receive zero gradient; tiny norms are
        floored to keep the division stable.
        """
        a = self._coerce(a)
        x = a.value
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        zero = norms[:, 0] == 0.0
        safe = np.maximum(norms, _COSINE_NORM_FLOOR)
        u = x / safe
        u[zero] = 0.0
        value = u @ u.T

        def backward(g):
            if a.requires_grad:
                du = (g + g.T) @ u
                ga = (du - u * (du * u).sum(axis=1, keepdims=True)) / safe
                ga[zero] = 0.0
                a._accumulate(ga)

        return self._record("cosine_rows", (a,), value, backward)

    def mse(self, a, target) -> Tensor:
        """Mean of squared differences over all entries; returns 1 x 1."""
        a = self._coerce(a)
        t = _as_2d(target.value if isinstance(target, Tensor) else target)
        if a.value.shape != t.shape:
            raise ShapeError(f"mse: shapes differ: {a.value.shape} vs {t.shape}")
        diff = a.value - t
        value = np.array([[np.mean(diff * diff)]])

        def backward(g):
            if a.requires_grad:
                a._accumulate(g[0, 0] * 2.0 * diff / diff.size)

        return self._record("mse", (a,), value, backward)

    def cross_entropy(self, logits, targets) -> Tensor:
        """Softmax cross-entropy summed over rows; returns 1 x 1.

        ``targets`` holds one-hot rows (or any distribution rows). The
        softmax is fused for stability, giving the familiar
        softmax(logits) - target gradient.
        """
        a = self._coerce(logits)
        t = _as_2d(targets.value if isinstance(targets, Tensor) else targets)
        if a.value.shape != t.shape:
            raise ShapeError(
                f"cross_entropy: shapes differ: {a.value.shape} vs {t.shape}")
        x = a.value
        m = x.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))
        value = np.array([[np.sum(lse - (x * t).sum(axis=1, keepdims=True))]])
        softmax = np.exp(x - lse)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g[0, 0] * (softmax - t))

        return self._record("cross_entropy", (a,), value, backward)

    # ------------------------------------------------------------------
    # reverse pass

    def backward(self, loss: Tensor) -> None:
        """Run the reverse sweep from a scalar loss produced on this tape."""
        if not isinstance(loss, Tensor) or loss.value.shape != (1, 1):
            shape = loss.value.shape if isinstance(loss, Tensor) else type(loss)
            raise ShapeError(f"backward: loss must be a 1 x 1 tensor, got {shape}")
        if loss._tape is not self._ref:
            raise RuntimeError("backward: loss was not produced on this tape")
        if self._backward_done:
            raise RuntimeError("backward already ran on this tape; call reset() first")
        self._backward_done = True
        loss.grad = np.ones((1, 1))
        for entry in reversed(self.entries):
            if entry.output.grad is not None:
                entry.backward()


# ----------------------------------------------------------------------
# Adam with decoupled weight decay


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moments shaped like the parameters, and a step counter."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    weight_decay: float = 0.0
    step_count: int = 0

    @classmethod
    def for_params(cls, values: np.ndarray, learning_rate: float,
                   weight_decay: float = 0.0) -> "AdamState":
        """Zero moments for the parameter array ``values``."""
        return cls(learning_rate, np.zeros_like(values), np.zeros_like(values),
                   weight_decay=weight_decay)


def adam_step(value: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One in-place Adam update of ``value`` with decoupled weight decay.

    The decay term multiplies parameters by (1 - lr * wd) before the
    moment-based update, so decay never leaks into the moments. It is
    elementwise: one flat vector updates bit for bit like its tensors."""
    if grad.shape != value.shape or state.m.shape != value.shape:
        raise ShapeError(
            f"adam_step: value {value.shape}, grad {grad.shape} and "
            f"state {state.m.shape} differ in shape")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    lr = state.learning_rate
    if state.weight_decay:
        value *= 1.0 - lr * state.weight_decay
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * (grad * grad)
    value -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)


def clip_global_norm(grad: np.ndarray, max_norm: float,
                     offsets: Sequence[int]) -> float:
    """Scale the flat gradient in place so its L2 norm is at most max_norm;
    returns the norm. Squares are summed per tensor slice (``offsets``),
    in order, as one sum over the whole vector would round differently."""
    squares = grad * grad
    total = np.sqrt(sum(float(np.sum(squares[lo:hi]))
                        for lo, hi in zip(offsets, offsets[1:])))
    if total > max_norm and total > 0.0:
        grad *= max_norm / total
    return total
