"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

The engine is a classic Wengert tape. Every operation runs eagerly on
numpy values and, while recording is on, appends an entry holding the
op name, the input tensors, the output tensor and the op's gradient
function, a function of the output gradient that pushes it back onto
the inputs. Program order is a valid topological order, so ``backward``
just walks the entries once in reverse.

The op set is exactly what a segmented graph transformer needs. The
model's layers record three fused ops: ``attention_block`` (the query,
key and value projections, per-segment scaled dot-product attention of
all heads with the softmax and attention dropout inside, and the output
projection), ``mlp`` (linear, exact GELU, linear) and
``add_layer_norm`` (a residual add, then row normalization, gain and
bias). Each does exactly the arithmetic of its primitive composition,
in the same order, including the order in which its reverse pass adds
into a shared input; the projection and GELU math each live once, in
private kernels that the fused ops share with ``linear`` and ``gelu``.
``linear`` (matrix product plus a bias row) and ``mlp`` also take a
constant scipy sparse matrix as their input. Alongside them sit the
other primitives: matrix products (including block-diagonal ones for
per-segment attention), add/multiply (same shapes or by a row), scaling,
row-wise softmax and layer norm, ReLU, inverted dropout, row gathering,
column slicing and concatenation, grouped row means (one mean row per
group of rows, each group summed on its own), row-pair cosine
similarity, and the two loss reductions (mean squared error, softmax
cross-entropy).
Adam with decoupled weight decay and global-norm clipping live here
too; both update a model's flat value and gradient vectors, of which
its parameter tensors' values and grads are views.

On a recording tape each op, fused or not, checks its output for NaN
and Inf and raises ``NonFiniteError`` naming itself; a value that goes
non-finite inside a fused op is reported under the fused op's name. A
paused tape (``recording`` off) records nothing and checks nothing per
op: ``paused_value`` runs a forward on one, checks only its result, and
on a non-finite result replays the forward on a recording tape so that
the error still names the first op that went non-finite. A non-finite
value that never reaches the result (say, a dummy row that a later
``take_rows`` drops) is therefore not reported by a paused pass; a
recording pass at the same parameters still reports it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.special import erf

__all__ = [
    "Tensor",
    "Tape",
    "RowGroups",
    "TapeEntry",
    "AdamState",
    "adam_step",
    "ShapeError",
    "NonFiniteError",
    "paused_value",
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


_new_tensor = Tensor.__new__


def _op_output(value: np.ndarray) -> Tensor:
    """The tensor around an op's output. Ops produce float64 2-D arrays,
    so this skips the validation that ``Tensor.__init__`` does."""
    t = _new_tensor(Tensor)
    t.value, t.grad, t.requires_grad, t.name, t._tape = value, None, False, None, None
    return t


def _finite(arr: np.ndarray) -> bool:
    # A NaN or Inf entry makes the sum of squares NaN or Inf, so a finite
    # sum clears the array in one BLAS call; only an infinite sum (Inf
    # entries, or finite ones whose squares overflow) needs the exact test.
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def _check_finite(op: str, arr: np.ndarray) -> None:
    if not _finite(arr):
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


# ----------------------------------------------------------------------
# kernels: the stages of the fused ops, two of them shared with the
# primitives ``linear`` and ``gelu``. Each returns its output and a
# gradient function, which maps the output gradient to the gradients of
# its array inputs (None where not asked for) and adds into the
# parameter tensors it was given on the way.


def _linear(op: str, xv, w: Tensor, b: Tensor | None) -> tuple:
    """xv @ w plus the bias row b, if there is one. The gradient
    function returns the input gradient when asked for it."""
    if xv.shape[1] != w.value.shape[0]:
        raise ShapeError(f"{op}: inner dimensions differ: {xv.shape} vs {w.value.shape}")
    if b is not None and b.value.shape != (1, w.value.shape[1]):
        raise ShapeError(
            f"{op}: bias shape {b.value.shape} does not match weight {w.value.shape}")
    value = xv @ w.value
    if b is not None:
        value += b.value

    def grads(g, need_x: bool):
        gx = g @ w.value.T if need_x else None
        if w.requires_grad:
            w._accumulate(xv.T @ g)
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=0, keepdims=True))
        return gx

    return value, grads


def _gelu(x: np.ndarray) -> tuple:
    """Exact GELU, x * Phi(x) with the Gaussian CDF."""
    cdf = 0.5 * (1.0 + erf(x / _SQRT_2))

    def grad(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return g * (cdf + x * pdf)

    return x * cdf, grad


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")


def _block_count(op: str, rows: int, block: int) -> int:
    if block <= 0 or rows % block != 0:
        raise ShapeError(f"{op}: row count {rows} is not a multiple of block {block}")
    return rows // block


def _attention(op: str, q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
               block: int, rate: float, draw) -> tuple:
    """Scaled dot-product attention per segment of ``block`` rows and
    per head, with inverted attention dropout when ``draw`` (the tape
    RNG's ``random``) is given. Its gradient function returns (gq, gk, gv)."""
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(
            f"{op}: shapes differ: q {q.shape}, k {k.shape}, v {v.shape}")
    s = _block_count(op, q.shape[0], block)
    d = q.shape[1]
    if heads <= 0 or d % heads != 0:
        raise ShapeError(f"{op}: {heads} heads do not divide width {d}")
    _check_rate(rate)
    d_head = d // heads
    c = 1.0 / np.sqrt(d_head)

    def split(x):  # (s*block, d) -> (s, heads, block, d_head) view
        return x.reshape(s, block, heads, d_head).transpose(0, 2, 1, 3)

    def merged(a, b):  # per-head a @ b, written into a fresh (s*block, d)
        out = np.empty((s * block, d))
        np.matmul(a, b, out=split(out))
        return out

    def swap(x):  # transpose each (row, column) block
        return x.transpose(0, 1, 3, 2)

    q4, k4, v4 = split(q), split(k), split(v)
    probs = np.matmul(q4, swap(k4))
    probs *= c
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    mask = None
    mixed = probs
    if draw is not None:
        # one draw for all heads: the same stream as one per head in order
        mask = ((draw((heads, s * block, block)) >= rate) / (1.0 - rate)).reshape(
            heads, s, block, block).transpose(1, 0, 2, 3)
        mixed = probs * mask
    value = merged(mixed, v4)

    def grads(g):
        g4 = split(g)
        gv = merged(swap(mixed), g4)
        dp = np.matmul(g4, swap(v4))
        if mask is not None:
            dp *= mask
        ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
        ds *= c
        return merged(ds, k4), merged(swap(ds), q4), gv

    return value, grads


class RowGroups(tuple):
    """Index arrays of non-empty, disjoint groups of the rows of an
    input with ``rows`` rows, checked once: what ``Tape.mean_rows``
    averages. ``flat`` joins the groups in order, ``spans`` gives each
    group's (start, stop) in it, and ``sizes`` and the column
    ``counts`` hold their lengths."""

    def __new__(cls, groups: Sequence, rows: int):
        self = super().__new__(cls, [np.asarray(group, dtype=np.intp) for group in groups])
        if not self or any(i.ndim != 1 for i in self):
            raise ShapeError("mean_rows: groups must be a non-empty list of 1-D index lists")
        self.sizes = [len(i) for i in self]
        if 0 in self.sizes:
            raise ShapeError(f"mean_rows: group {self.sizes.index(0)} is empty")
        self.flat, self.rows = np.concatenate(self), rows
        # viewed as unsigned, a negative index is past every row count
        if self.flat.view(np.uintp).max() >= rows:
            raise ShapeError(f"mean_rows: index out of range for {rows} rows")
        if np.bincount(self.flat).max() > 1:
            raise ShapeError("mean_rows: groups share a row")
        ends = list(accumulate(self.sizes))
        self.spans, self.counts = list(zip([0, *ends], ends)), np.array(self.sizes)[:, None]
        return self


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

    def _coerce(self, x) -> Tensor:
        return x if isinstance(x, Tensor) else Tensor(x)

    def _record(self, op: str, inputs: tuple[Tensor, ...], value: np.ndarray,
                backward: Callable[[np.ndarray], None]) -> Tensor:
        """Wrap ``value`` as the output of ``op``; while recording, check
        it for NaN and Inf and tape it.

        ``backward(g)`` pushes the output gradient ``g`` onto the inputs.
        The entry holds it as a function of the output's gradient, which
        the reverse sweep reads when it reaches the entry."""
        out = _op_output(value)
        if not self.recording:
            return out
        _check_finite(op, value)
        if any(t.requires_grad for t in inputs):
            out.requires_grad = True
            out._tape = self._ref
            self.entries.append(TapeEntry(op, inputs, out, lambda: backward(out.grad)))
        return out

    def _unary(self, op: str, a: Tensor, value: np.ndarray, grad: Callable) -> Tensor:
        """``_record`` for one input: ``grad`` maps the output gradient to a's."""
        return self._record(op, (a,), value, lambda g: a._accumulate(grad(g)))

    # ------------------------------------------------------------------
    # core ops

    def constant(self, value) -> Tensor:
        return Tensor(value)

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
        x, xv = self._input(x)
        value, grads = _linear("linear", xv, w, b)
        need_x = x is not None and x.requires_grad

        def backward(g):
            gx = grads(g, need_x)
            if need_x:
                x._accumulate(gx)

        return self._record("linear", (w, b) if x is None else (x, w, b), value, backward)

    def mlp(self, x, fc1, fc2) -> Tensor:
        """``linear(gelu(linear(x, *fc1)), *fc2)`` as one op; fc1 and fc2
        are (weight, bias) pairs. ``x`` may be a scipy sparse matrix,
        taken as a constant as ``linear`` takes it."""
        (w1, b1), (w2, b2) = ((self._coerce(w), self._coerce(b)) for w, b in (fc1, fc2))
        x, xv = self._input(x)
        hidden, hidden_grads = _linear("mlp", xv, w1, b1)
        act, act_grad = _gelu(hidden)
        value, out_grads = _linear("mlp", act, w2, b2)
        need_x = x is not None and x.requires_grad

        def backward(g):
            g_act = out_grads(g, True)
            gx = hidden_grads(act_grad(g_act), need_x)
            if need_x:
                x._accumulate(gx)

        inputs = (w1, b1, w2, b2) if x is None else (x, w1, b1, w2, b2)
        return self._record("mlp", inputs, value, backward)

    def _input(self, x) -> tuple:
        """(tensor, value) of a layer input; (None, x) for a scipy
        sparse matrix, which is a constant."""
        if type(x) is not Tensor and sparse.issparse(x):
            return None, x
        x = self._coerce(x)
        return x, x.value

    def _broadcast_binary(self, op: str, a, b, fn, da_fn, db_fn) -> Tensor:
        a, b = self._coerce(a), self._coerce(b)
        sa, sb = a.value.shape, b.value.shape
        if sb != sa and sb != (1, sa[1]):
            raise ShapeError(f"{op}: shapes do not broadcast: {sa} vs {sb}")
        value = fn(a.value, b.value)

        def backward(g):
            if a.requires_grad:
                da = da_fn(g, a.value, b.value)
                a._accumulate(da, shared=da is g)
            if b.requires_grad:
                db = db_fn(g, a.value, b.value)
                if db.shape != b.value.shape:
                    db = db.sum(axis=0, keepdims=True)
                b._accumulate(db, shared=db is g)

        return self._record(op, (a, b), value, backward)

    def add(self, a, b) -> Tensor:
        """Elementwise sum. ``b`` may be a 1 x d bias row."""
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
        return self._unary("scale", a, value, lambda g: g * c)

    # ------------------------------------------------------------------
    # nonlinearities and normalization

    def relu(self, a) -> Tensor:
        a = self._coerce(a)
        value = np.maximum(a.value, 0.0)
        return self._unary("relu", a, value, lambda g: g * (value > 0.0))

    def gelu(self, a) -> Tensor:
        """Exact GELU, x * Phi(x) with the Gaussian CDF."""
        a = self._coerce(a)
        value, grad = _gelu(a.value)
        return self._unary("gelu", a, value, grad)

    def softmax_rows(self, a) -> Tensor:
        a = self._coerce(a)
        shifted = a.value - a.value.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        value = e / e.sum(axis=1, keepdims=True)

        def grad(g):
            dot = (g * value).sum(axis=1, keepdims=True)
            return value * (g - dot)

        return self._unary("softmax_rows", a, value, grad)

    def layer_norm_rows(self, a) -> Tensor:
        """Per-row normalization to zero mean, unit variance.

        The affine rescale is not part of this op; apply mul/add with
        gain and bias rows on top. Epsilon 1e-12 sits on the variance.
        """
        a = self._coerce(a)
        value, inv = _normalize_rows(a.value)
        return self._unary("layer_norm_rows", a, value, lambda g: _normalize_rows_grad(g, value, inv))

    def add_layer_norm(self, a, b, gain, bias) -> Tensor:
        """``add(mul(layer_norm_rows(add(a, b)), gain), bias)`` as one op,
        for same-shape a and b and 1 x d gain and bias rows: a residual
        add and the affine norm after it."""
        a, b = self._coerce(a), self._coerce(b)
        gain, bias = self._coerce(gain), self._coerce(bias)
        if a.value.shape != b.value.shape:
            raise ShapeError(
                f"add_layer_norm: shapes differ: {a.value.shape} vs {b.value.shape}")
        row = (1, a.value.shape[1])
        if gain.value.shape != row or bias.value.shape != row:
            raise ShapeError(
                f"add_layer_norm: gain {gain.value.shape} and bias "
                f"{bias.value.shape} must both be {row} for input {a.value.shape}")
        y, inv = _normalize_rows(a.value + b.value)
        value = y * gain.value
        value += bias.value

        def backward(g):
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=0, keepdims=True))
            if gain.requires_grad:
                gain._accumulate((g * y).sum(axis=0, keepdims=True))
            if a.requires_grad or b.requires_grad:
                g_sum = _normalize_rows_grad(g * gain.value, y, inv)
                if a.requires_grad:
                    a._accumulate(g_sum)
                if b.requires_grad:
                    b._accumulate(g_sum, shared=a.requires_grad)

        return self._record("add_layer_norm", (a, b, gain, bias), value, backward)

    def dropout(self, a, rate: float, training: bool) -> Tensor:
        """Inverted dropout: kept entries are scaled by 1/(1-rate).

        Eval mode and rate 0 return ``a`` itself and record nothing.
        The mask comes from the tape RNG, so a seeded tape replays the
        same masks.
        """
        a = self._coerce(a)
        _check_rate(rate)
        if not training or rate == 0.0:
            return a

        keep = 1.0 - rate
        mask = (self.rng.random(a.value.shape) >= rate) / keep
        value = a.value * mask
        return self._unary("dropout", a, value, lambda g: g * mask)

    # ------------------------------------------------------------------
    # structure ops

    def take_rows(self, a, indices) -> Tensor:
        a = self._coerce(a)
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise ShapeError(f"take_rows: indices must be 1-D, got shape {idx.shape}")
        # viewed as unsigned, a negative index is past every row count
        if (idx.view(np.uintp) >= a.value.shape[0]).any():
            raise ShapeError(
                f"take_rows: index out of range for {a.value.shape[0]} rows")
        value = a.value[idx]

        def grad(g):
            full = np.zeros_like(a.value)
            np.add.at(full, idx, g)
            return full

        return self._unary("take_rows", a, value, grad)

    def concat_rows(self, tensors: Sequence) -> Tensor:
        return self._concat("concat_rows", tensors, 0)

    def concat_cols(self, tensors: Sequence) -> Tensor:
        return self._concat("concat_cols", tensors, 1)

    def _concat(self, op: str, tensors: Sequence, axis: int) -> Tensor:
        """The tensors joined along ``axis``; the other axis must agree."""
        ts = tuple(self._coerce(t) for t in tensors)
        if not ts:
            raise ShapeError(f"{op}: empty operand list")
        other = 1 - axis
        for t in ts[1:]:
            if t.value.shape[other] != ts[0].value.shape[other]:
                raise ShapeError(f"{op}: {('row', 'column')[other]} counts differ: "
                                 f"{ts[0].value.shape} vs {t.value.shape}")
        value = np.concatenate([t.value for t in ts], axis=axis)
        splits = np.cumsum([t.value.shape[axis] for t in ts])[:-1]

        def backward(g):
            for t, piece in zip(ts, np.split(g, splits, axis=axis)):
                if t.requires_grad:
                    t._accumulate(piece, shared=True)

        return self._record(op, ts, value, backward)

    def slice_cols(self, a, start: int, stop: int) -> Tensor:
        a = self._coerce(a)
        cols = a.value.shape[1]
        if not (0 <= start < stop <= cols):
            raise ShapeError(
                f"slice_cols: [{start}:{stop}] invalid for shape {a.value.shape}")
        value = a.value[:, start:stop].copy()

        def grad(g):
            full = np.zeros_like(a.value)
            full[:, start:stop] = g
            return full

        return self._unary("slice_cols", a, value, grad)

    def mean_rows(self, a, groups: RowGroups) -> Tensor:
        """Row i is the column mean of the rows of ``a`` listed in
        ``groups[i]``: len(groups) x d. ``groups`` is a ``RowGroups``
        checked for a's row count. Each group is summed on its own, so
        its row has the same bits whatever other groups share the call."""
        a = self._coerce(a)
        rows = a.value.shape[0]
        if groups.rows != rows:
            raise ShapeError(f"mean_rows: groups of {groups.rows} rows for {rows} input rows")
        # one gather, then each group's rows summed from a contiguous slice
        gathered = a.value[groups.flat]
        value = np.array([np.add.reduce(gathered[lo:hi], axis=0)
                          for lo, hi in groups.spans]) / groups.counts

        def grad(g):
            full = np.zeros_like(a.value)
            full[groups.flat] = np.repeat(g / groups.counts, groups.sizes, axis=0)
            return full

        return self._unary("mean_rows", a, value, grad)

    # ------------------------------------------------------------------
    # blocked attention products

    def attention_scores(self, q, k, block: int) -> Tensor:
        """Block-diagonal Q K^T: per segment of ``block`` rows.

        q and k are (s*block) x d stacks of s segments; the result is the
        (s*block) x block stack of the per-segment score matrices.
        """
        q, k = self._coerce(q), self._coerce(k)
        if q.value.shape != k.value.shape:
            raise ShapeError(
                f"attention_scores: shapes differ: {q.value.shape} vs {k.value.shape}")
        s = _block_count("attention_scores", q.value.shape[0], block)
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
        s = _block_count("attention_apply", p.value.shape[0], block)
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

    def attention_block(self, x, query, key, value, out, heads: int, block: int,
                        rate: float, training: bool) -> Tensor:
        """An attention sublayer as one op: the query, key and value
        projections of x; per segment of ``block`` rows and per head h
        (columns h*d_head to (h+1)*d_head, d_head = d/heads),
        softmax(Q K^T / sqrt(d_head)), inverted dropout in training and
        the mix of value rows; then the output projection of the heads
        side by side. The query, value and output projections are
        (weight, bias) pairs and the key projection is a weight alone: a
        key bias b would add q.b to every score of a query row, a shift
        the softmax cancels. The dropout masks are one (heads, s*block,
        block) draw from the tape RNG: the same stream as one draw per
        head in head order."""
        op = "attention_block"
        x = self._coerce(x)
        inputs = (x,) + tuple(self._coerce(t) for t in (*query, key, *value, *out))
        wq, bq, wk, wv, bv, wo, bo = inputs[1:]
        q, q_grads = _linear(op, x.value, wq, bq)
        k, k_grads = _linear(op, x.value, wk, None)
        v, v_grads = _linear(op, x.value, wv, bv)
        draw = self.rng.random if training and rate > 0.0 else None
        ctx, attn_grads = _attention(op, q, k, v, heads, block, rate, draw)
        result, out_grads = _linear(op, ctx, wo, bo)
        need_x = x.requires_grad

        def backward(g):
            g_ctx = out_grads(g, True)
            gq, gk, gv = attn_grads(g_ctx)
            # into x as the separate projections would: value, key, query
            for g_proj, grads in ((gv, v_grads), (gk, k_grads), (gq, q_grads)):
                gx = grads(g_proj, need_x)
                if need_x:
                    x._accumulate(gx)

        return self._record(op, inputs, result, backward)

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

        def grad(g):
            du = (g + g.T) @ u
            ga = (du - u * (du * u).sum(axis=1, keepdims=True)) / safe
            ga[zero] = 0.0
            return ga

        return self._unary("cosine_rows", a, value, grad)

    def mse(self, a, target) -> Tensor:
        """Mean of squared differences over all entries; returns 1 x 1."""
        a = self._coerce(a)
        t = _as_2d(target.value if isinstance(target, Tensor) else target)
        if a.value.shape != t.shape:
            raise ShapeError(f"mse: shapes differ: {a.value.shape} vs {t.shape}")
        diff = a.value - t
        # np.mean's arithmetic (sum, then divide) without its Python wrapper
        value = np.add.reduce(diff * diff, axis=None, keepdims=True) / diff.size
        return self._unary("mse", a, value, lambda g: g[0, 0] * 2.0 * diff / diff.size)

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
        return self._unary("cross_entropy", a, value, lambda g: g[0, 0] * (softmax - t))

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


def paused_value(run: Callable[[Tape], Tensor], seed: int | None = None) -> Tensor:
    """``run(tape)`` on a paused ``Tape(seed)``, its result checked once.

    The paused pass records nothing and its ops check nothing. When the
    tensor ``run`` returns holds NaN or Inf, ``run`` is replayed on a
    recording ``Tape(seed)``, which draws the same dropout masks and
    whose per-op checks raise ``NonFiniteError`` naming the first op
    that produced a non-finite value. Only what reaches the result is
    checked: a non-finite value that a later op drops is not reported.
    """
    tape = Tape(seed)
    tape.recording = False
    out = run(tape)
    if not _finite(out.value):
        run(Tape(seed))
        raise NonFiniteError("a paused pass returned a non-finite value that no op produced")
    return out


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
