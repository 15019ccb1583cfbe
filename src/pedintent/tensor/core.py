"""Dense float tensors with define-by-run reverse-mode differentiation.

A `Tape` records every operation whose inputs track gradients; `backward`
replays it in reverse to populate leaf gradients, releasing each entry as
it goes; one backward runs per tape. Tensors are float32 by default: a
Python number or list becomes float32, while a float64 array or numpy
scalar keeps float64, which is how the gradient checker runs the whole
graph at 64-bit. Ops compute in their inputs' dtype: constants take that
dtype, never a float64 scalar's.

Memory: a tape entry keeps, per input, only its node id, whether it
tracks gradients and its shape, plus the op's backward rule. A rule's
closure keeps flags, shapes and the arrays that rule reads, never a Tensor,
as autograd saves only what each derivative formula declares (Paszke et
al., arXiv:1912.01703). An activation therefore lives only while a rule
reads it: `matmul` keeps a's rows for the weight's gradient and the
weight for a's, `mul` each operand for the other's gradient, `add` only
shapes, and a recorded `gelu` one derivative array in place of x and its
cdf. Where an input is a cheap copy of data the caller holds anyway, the
tape keeps the way to rebuild it instead (gradient checkpointing, Chen et
al., arXiv:1604.06174): `matmul` takes a function operand, called again
for the weight's gradient, so a tubelet projection keeps no patch array,
and `attention` splits its heads again from the packed input. Neither a
tape nor its outputs form a reference cycle, replayed or not, so the
forward of a step that raises partway is freed by reference counting.

Values are finite: `Tensor()` checks its data, and an op producing NaN or
Inf raises NumericalError. Most ops check their whole output (`_result`);
`matmul` checks a function operand only through its output, where a
non-finite entry shows. An op that cannot turn finite inputs into
non-finite outputs wraps its output unchecked (`_record`), since every
input is a finite Tensor: `reshape`, `transpose`, `concat_along_axis`,
`tensor_slice` and `broadcast_to` only move or copy values, and a finite x
gives `gelu` a finite x * cdf. Ops that can overflow keep the check:
`dropout`'s scale and `mean_over_axis`'s sum can exceed the largest float.
`softmax` checks only each slice's max over its allowed entries (NaN and
+inf show there) and wraps its output, which a finite input keeps in
[0, 1], unchecked; every input it gets is a finite Tensor except
attention's score tiles, which `attention` checks first.

`matmul` multiplies a (..., k) operand by a (k, m) or (k,) weight, the one
product the model makes: a's leading axes are the rows of one GEMM,
forward and both gradients alike, so its outputs can differ from
per-slice products by rounding. It adds an optional bias in place, so a
projection is one op and the tape holds no copy of its bare product; the
bits are those of a separate `add`. `add` and `mul` broadcast as numpy
does, and backward sums each gradient back to its operand's shape.
Backward rules compute no gradient for an operand that tracks none
(`matmul`, `add`, `mul`): a constant positional encoding or loss
weights. `matmul`'s function operand, the clip patches of a tubelet
embedding, has no gradient at all.

`attention` is the one fused op: softmax(q k^T) v over the heads of one
packed q/k/v projection, which it splits itself, computed in cache-sized
tiles so that at most one tile of attention weights exists at a time
(Rabe & Staats, arXiv:2112.05682), each written over its own scores. In
the same spirit it keeps nothing that backward can rebuild cheaply: not
the weights, and not the per-head q/k/v copies, which backward splits
again from the packed input. Its closed-form backward rebuilds a tile's
weights from the forward's row max and exp-sum instead of storing them
(Dao et al., arXiv:2205.14135), and leaves them unnormalised, dividing the
much smaller output gradient by the exp-sum instead (Dao,
arXiv:2307.08691). A tile is a group of whole (batch, head) slices, or a
band of query rows of one slice whose weights alone exceed the budget, so
every pass over a tile reuses data that is still in cache. The op checks
each forward tile's scores, masked entries included, in one O(S^2)
`isfinite` pass before its softmax, and backward checks none: a
non-finite gradient shows in `backward`'s check of the leaves.

`gelu` computes a float32 erf as a rational function (Eigen's and XLA's
float32 form) in numpy passes over cache-sized chunks, about four times as
fast as scipy's erf, which serves float64.

Concurrency: a tape is confined to the thread that opened it. Tensors that
do not track gradients are immutable values and safe to share across
threads; parallel evaluation is allowed only across independent tapes.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf, expit

from ..errors import (
    ContractError,
    DegenerateMaskError,
    DimensionError,
    NumericalError,
)

_node_ids = itertools.count()
_tls = threading.local()

# Byte budget for the attention weights of one tile of (batch, head)
# slices. It bounds the attention op's working set whatever the sequence
# length, and a tile this small stays near the cache while the q k^T,
# softmax and p v passes reuse it. 2 and 4 MiB made ours8_ft's attention
# no faster.
ATTENTION_BLOCK_BYTES = 8 << 20


def _active_tape() -> Optional["Tape"]:
    return getattr(_tls, "tape", None)


class Tape:
    """Ordered record of operations, topological by construction.

    Use as a context manager around a forward pass that will be
    differentiated. Nesting replaces the active tape for the inner block.
    The tape holds the gradient-tracking leaves it has seen and, per op,
    a `_TapeEntry`: no intermediate Tensor, so an activation lives only
    as long as a backward rule reads it.
    """

    def __init__(self):
        self.entries: list[_TapeEntry] = []
        self.leaves: list[Tensor] = []
        self._leaf_ids: set[int] = set()
        self._produced: set[int] = set()
        self.replayed = False

    def __enter__(self) -> "Tape":
        self._outer = _active_tape()
        _tls.tape = self
        return self

    def __exit__(self, *exc):
        _tls.tape = self._outer
        return False

    def _register_leaf(self, t: "Tensor"):
        if t.node_id not in self._leaf_ids and t.node_id not in self._produced:
            self._leaf_ids.add(t.node_id)
            self.leaves.append(t)

    def record(self, inputs: Sequence["Tensor"], output: "Tensor", backward: Callable):
        for t in inputs:
            if t.requires_grad:
                self._register_leaf(t)
        self._produced.add(output.node_id)
        slots = tuple((t.node_id, t.requires_grad, t.shape) for t in inputs)
        self.entries.append(_TapeEntry(slots, output.node_id, backward))


class _TapeEntry:
    """One recorded op: `inputs` holds `(node_id, requires_grad, shape)`
    per input, `out_id` the output's node id and `backward` the rule
    mapping the output's gradient to one gradient (or None) per input."""

    __slots__ = ("inputs", "out_id", "backward")

    def __init__(self, inputs, out_id, backward):
        self.inputs = inputs
        self.out_id = out_id
        self.backward = backward


class Tensor:
    """Dense n-dimensional float array, optionally tracking gradients.

    `data` is row-major float32/float64; `grad` is populated by `backward`
    for gradient-tracking leaves. Values must be finite: any op producing
    NaN/Inf raises NumericalError. Without `dtype`, a float32 or float64
    array or numpy scalar keeps its dtype, and anything else (a Python
    number or list, an integer array) becomes float32.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id", "tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64) or not isinstance(data, (np.ndarray, np.generic)):
            arr = arr.astype(np.float32)
        if not np.all(np.isfinite(arr)):
            raise NumericalError("tensor values must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node_id = next(_node_ids)
        self.tape: Optional[Tape] = None
        if self.requires_grad:
            tape = _active_tape()
            if tape is not None:
                tape._register_leaf(self)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # Operator sugar; all of these defer to the module-level ops.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, mul(other, -1.0))
        return add(self, -float(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tensor_slice(self, key)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
    """Check that an op output is finite, then wrap and record it."""
    if not np.all(np.isfinite(data)):
        raise NumericalError("operation produced non-finite values")
    return _record(data, inputs, backward)


def _record(data: np.ndarray, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
    """Wrap an op output unchecked, recording it when gradients are being
    traced; for outputs finite by construction or checked by their consumer."""
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = track
    out.grad = None
    out.node_id = next(_node_ids)
    out.tape = tape if track else None
    if track:
        tape.record(inputs, out, backward)
    return out


def _ascontig(a: np.ndarray) -> np.ndarray:
    # np.ascontiguousarray promotes rank 0 to rank 1; 0-d is contiguous anyway
    return a if a.ndim == 0 else np.ascontiguousarray(a)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape` after forward-pass broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# binary ops


def _called(fn: Callable[[], np.ndarray], shape=None, dtype=None) -> np.ndarray:
    """The array a function operand returns; when rebuilt, it must have
    forward's `shape` and `dtype`."""
    arr = fn()
    if not isinstance(arr, np.ndarray):
        raise ContractError(f"matmul's function operand returned {type(arr).__name__}, not an ndarray")
    if shape is not None and (arr.shape != shape or arr.dtype != dtype):
        raise ContractError(f"matmul's function operand rebuilt {arr.shape} {arr.dtype}, forward read {shape} {dtype}")
    return arr


def matmul(a, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Product of a (..., k) operand by a weight of shape (k, m) or (k,),
    plus an optional bias.

    a's leading axes are the rows of one (rows, k) matrix, so forward and
    both gradients are one GEMM each. A 1-D weight is a (k, 1) column whose
    axis the output drops, as in numpy. The bias is added in place, so a
    projection is one op holding no copy of its bare product; it may widen
    neither the product's shape nor its dtype (DimensionError,
    ContractError). Outputs and gradients are the bits of
    `add(matmul(a, b), bias)`, the bias's gradient summed back to its
    shape. Backward computes no gradient for an operand that does not
    track one.

    a may also be a function of no arguments that returns the (..., k)
    ndarray: the clip patches of a tubelet embedding, which hold a copy of
    pixels the caller keeps anyway. Forward calls it once. A function
    operand tracks no gradient and is not wrapped as a Tensor, so it gets
    no finiteness check of its own: a non-finite entry makes its output
    row non-finite, which the output's check raises. When the weight's
    gradient is recorded, the rule keeps the function, not a's rows, and
    calls it again for that gradient, so a tape holds no copy of them.
    The function must return the same bytes at each call and record no
    op; a result that is not an ndarray, or a rebuilt array of another
    shape or dtype than forward's, raises ContractError.
    """
    rebuild = a if callable(a) else None
    if rebuild is None:
        a = _as_tensor(a)
        ad, a_grad = a.data, a.requires_grad
    else:
        ad, a_grad = _called(rebuild), False
    b = _as_tensor(b)
    bd = b.data
    if ad.ndim < 1 or bd.ndim not in (1, 2):
        raise DimensionError(f"matmul takes a (..., k) operand and a (k, m) or (k,) weight: {ad.shape} x {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {ad.shape} x {bd.shape}")
    w = bd if bd.ndim == 2 else bd[:, None]
    n, k = math.prod(ad.shape[:-1]), ad.shape[-1]  # a contiguous a reshapes to (n, k) as a view
    rows = ad.reshape(n, k)
    out = np.matmul(rows, w).reshape(ad.shape[:-1] + bd.shape[1:])
    inputs = (a, b) if rebuild is None else (b,)
    if bias is not None:
        bias = _as_tensor(bias)
        if np.result_type(out, bias.data) != out.dtype:
            raise ContractError(f"matmul bias dtype {bias.data.dtype} would widen the product's {out.dtype}")
        try:
            out += bias.data
        except ValueError as e:
            raise DimensionError(f"bias {bias.shape} does not broadcast to the product {out.shape}") from e
        inputs += (bias,)
    b_grad, a_shape, a_dtype, b_shape, m = b.requires_grad, ad.shape, ad.dtype, bd.shape, w.shape[1]
    bias_grad, bias_shape = (False, None) if bias is None else (bias.requires_grad, bias.shape)
    # a's gradient reads only the weight, the weight's only a's rows, which
    # a function operand rebuilds
    w, rows = (w if a_grad else None), (rows if b_grad and rebuild is None else None)

    def backward(g):
        g2 = g.reshape(n, m)
        ga = np.matmul(g2, w.T).reshape(a_shape) if a_grad else None
        gb = None
        if b_grad:
            r = rows if rebuild is None else _called(rebuild, a_shape, a_dtype).reshape(n, k)
            gb = np.matmul(r.T, g2).reshape(b_shape)
        grads = (ga, gb) if rebuild is None else (gb,)  # a function operand has no slot
        if bias_shape is None:
            return grads
        return grads + (_unbroadcast(g, bias_shape) if bias_grad else None,)

    return _result(out, inputs, backward)


def add(a: Tensor, b) -> Tensor:
    """a + b under numpy broadcasting; each gradient is summed back to its
    operand's shape."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        c = float(b)
        return _result(a.data + np.asarray(c, dtype=a.data.dtype)[()], (a,), lambda g: (g,))
    b = _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError as e:
        raise DimensionError(f"shapes {a.shape} and {b.shape} do not broadcast") from e
    a_grad, b_grad, a_shape, b_shape = a.requires_grad, b.requires_grad, a.shape, b.shape

    def backward(g):
        return (
            _unbroadcast(g, a_shape) if a_grad else None,
            _unbroadcast(g, b_shape) if b_grad else None,
        )

    return _result(out, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    """a * b under numpy broadcasting; each gradient is summed back to its
    operand's shape."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        c = np.asarray(float(b), dtype=a.data.dtype)[()]
        return _result(a.data * c, (a,), lambda g: (g * c,))
    b = _as_tensor(b)
    ad, bd = a.data, b.data
    try:
        out = ad * bd
    except ValueError as e:
        raise DimensionError(f"shapes {a.shape} and {b.shape} do not broadcast") from e
    a_grad, b_grad, a_shape, b_shape = a.requires_grad, b.requires_grad, ad.shape, bd.shape
    # each operand's gradient reads only the other operand
    ad, bd = (ad if b_grad else None), (bd if a_grad else None)

    def backward(g):
        return (
            _unbroadcast(g * bd, a_shape) if a_grad else None,
            _unbroadcast(g * ad, b_shape) if b_grad else None,
        )

    return _result(out, (a, b), backward)


# ---------------------------------------------------------------------------
# elementwise unary ops


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    return _result(np.maximum(xd, 0), (x,), lambda g: (g * (xd > 0),))


# Float32 erf(t) = t P(t^2) / Q(t^2) for t clamped to [-4, 4], beyond which
# erf rounds to +-1 in float32: the coefficients of Eigen's
# generic_fast_erf_float, which XLA's float32 erf also uses, highest power
# first. Against float64 erf it errs by at most 4.5e-7.
_ERF_P = np.array(
    [-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
     -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02],
    dtype=np.float32,
)
_ERF_Q = np.array(
    [-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
     -1.42647390514189e-02],
    dtype=np.float32,
)
# Elements per pass of gelu's kernels: the chunk and its scratch arrays stay
# in cache across the twenty-odd passes over them.
GELU_CHUNK = 1 << 15


def _chunks(size: int):
    return (slice(i, i + GELU_CHUNK) for i in range(0, size, GELU_CHUNK))


def _horner(coefs: np.ndarray, x: np.ndarray, out: np.ndarray):
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c


def _gelu32(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * cdf and cdf = (1 + erf(x / sqrt(2))) / 2 of a float32 array, by
    the rational erf in in-place passes over chunks."""
    x = xd.reshape(-1)
    out, cdf = np.empty_like(x), np.empty_like(x)
    t, t2, q = (np.empty(min(x.size, GELU_CHUNK), dtype=np.float32) for _ in range(3))
    for part in _chunks(x.size):
        c = cdf[part]
        k = c.size
        tc, t2c, qc = t[:k], t2[:k], q[:k]
        np.multiply(x[part], np.float32(1.0 / math.sqrt(2.0)), out=tc)
        np.clip(tc, np.float32(-4.0), np.float32(4.0), out=tc)
        np.multiply(tc, tc, out=t2c)
        _horner(_ERF_P, t2c, c)
        c *= tc
        _horner(_ERF_Q, t2c, qc)
        c /= qc
        c += np.float32(1.0)
        c *= np.float32(0.5)
        np.multiply(x[part], c, out=out[part])
    return out.reshape(xd.shape), cdf.reshape(xd.shape)


def _gelu_derivative(xd: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """gelu's derivative cdf + x * pdf, pdf = exp(-x^2 / 2) / sqrt(2 pi),
    written over a contiguous `cdf` in in-place passes over chunks."""
    dt = xd.dtype.type
    xs, cs = xd.reshape(-1), cdf.reshape(-1)
    scratch = np.empty(min(xs.size, GELU_CHUNK), dtype=xd.dtype)
    for part in _chunks(xs.size):
        xc = xs[part]
        d = scratch[: xc.size]
        np.multiply(xc, dt(-0.5), out=d)
        d *= xc
        np.exp(d, out=d)
        d /= dt(math.sqrt(2.0 * math.pi))
        d *= xc
        cs[part] += d
    return cs.reshape(xd.shape)  # a 0-d cdf (scipy's erf gives a scalar) reshapes to a copy


def gelu(x: Tensor) -> Tensor:
    """Exact erf form: 0.5 * x * (1 + erf(x / sqrt(2))), in x's dtype.

    Float64 takes scipy's erf, so gradient checks run the exact function.
    Float32 takes the rational erf above (Eigen's and XLA's float32 form):
    GELU then errs by at most 2.6e-7 * max(1, |x|) against float64, 1.4e-6
    at |x| near 5.6, where the clamp sets in. A finite x gives a finite
    output, which is not checked again. The forward runs in-place passes
    over chunks of GELU_CHUNK elements. When the output is recorded, the
    forward also writes the local derivative cdf + x * pdf over cdf, and
    the rule keeps that one array, not x and cdf, so backward is one
    product; an untracked call computes no derivative.
    """
    x = _as_tensor(x)
    xd = x.data
    dt = xd.dtype.type
    if xd.dtype == np.float32:
        out, cdf = _gelu32(xd)
    else:
        cdf = erf(xd / dt(math.sqrt(2.0)))
        cdf += dt(1.0)
        cdf *= dt(0.5)
        out = xd * cdf
    if not (x.requires_grad and _active_tape() is not None):
        return _record(out, (x,), None)
    deriv = _gelu_derivative(xd, cdf)
    return _record(out, (x,), lambda g: (deriv * g,))


def sigmoid(x: Tensor) -> Tensor:
    """Logistic 1 / (1 + exp(-x)), overflow-safe."""
    x = _as_tensor(x)
    s = expit(x.data)
    return _result(s, (x,), lambda g: (g * s * (1.0 - s),))


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    t = np.tanh(x.data)
    return _result(t, (x,), lambda g: (g * (1.0 - t * t),))


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(xd)
    return _result(out, (x,), lambda g: (g / xd,))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through unclipped entries."""
    x = _as_tensor(x)
    xd = x.data
    return _result(np.clip(xd, lo, hi), (x,), lambda g: (g * ((xd >= lo) & (xd <= hi)),))


# ---------------------------------------------------------------------------
# normalization / reduction


def softmax(x: Tensor, axis: int = -1, mask=None, *, stats=None, out=None) -> Tensor:
    """Max-stabilized softmax along `axis`.

    `mask` (boolean, broadcastable to x) selects the entries that
    participate; masked entries are exactly 0 in the output and each slice
    must keep at least one unmasked entry.

    Finiteness: every Tensor is finite, and the one unchecked input this op
    gets, an attention score tile, is checked whole by `attention` first,
    masked entries included. The op checks only each slice's max over its
    allowed entries, which it needs anyway: NaN propagates into it and +inf
    shows there; masked entries are overwritten unread. A finite slice
    gives weights in [0, 1], so the output gets no O(S^2) check.

    `stats` and `out`, keyword-only, are outputs, not tunables. `stats` is
    a pair of arrays `(top, total)` of the reduced shape (keepdims) into
    which the op writes each slice's max over its allowed entries and its
    exp-sum: `exp(x - top) / total`, with forbidden entries set to -inf
    first, rebuilds the output bit for bit. `out`, an array of x's shape
    and dtype, receives the same bits as a fresh output. It may be x's own
    data, which is then written over in place, masked or not, with no
    copy. An output that a tape would record raises ContractError with
    `out`, since a later write to the array would corrupt its backward.
    """
    x = _as_tensor(x)
    xd = x.data
    if not -xd.ndim <= axis < xd.ndim or xd.shape[axis] == 0:
        raise DimensionError(f"softmax needs a non-empty axis {axis}, got shape {xd.shape}")
    if out is not None:
        if x.requires_grad and _active_tape() is not None:
            raise ContractError("softmax out= cannot hold an output recorded on a tape")
        if out.shape != xd.shape or out.dtype != xd.dtype:
            raise ContractError(f"softmax out= needs shape {xd.shape} and dtype {xd.dtype}, got {out.shape} {out.dtype}")
    z = np.empty_like(xd) if out is None else out
    src = xd
    if mask is not None:
        m = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
        m = m.astype(bool, copy=False)
        # each slice of x is a slice of the mask with its leading axes padded
        # to x's rank; x with no slices at all has none fully masked
        if xd.size and not m.reshape((1,) * (xd.ndim - m.ndim) + m.shape).any(axis=axis).all():
            raise DegenerateMaskError("softmax slice is fully masked")
        if z is not xd:
            np.copyto(z, xd)
        np.copyto(z, -np.inf, where=~m)
        src = z
    top = src.max(axis=axis, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise NumericalError("softmax input holds non-finite values")
    np.subtract(src, top, out=z)
    out = np.exp(z, out=z)  # exp(-inf) = 0 exactly on masked entries
    total = out.sum(axis=axis, keepdims=True)
    out /= total
    if stats is not None:
        stats[0][...] = top
        stats[1][...] = total

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _record(out, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError("gamma/beta must match the last axis of x")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh = xc * inv
    gd = gamma.data
    out = xh * gd + beta.data

    def backward(g):
        dxh = g * gd
        dx = inv * (dxh - dxh.mean(axis=-1, keepdims=True) - xh * (dxh * xh).mean(axis=-1, keepdims=True))
        dgamma = (g * xh).reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        return dx, dgamma, dbeta

    return _result(out, (x, gamma, beta), backward)


def mean_over_axis(x: Tensor, axis: int) -> Tensor:
    x = _as_tensor(x)
    n = x.shape[axis]
    shape = x.shape

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy(),)

    return _result(x.data.mean(axis=axis), (x,), backward)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all entries (scalar output)."""
    x = _as_tensor(x)
    shape = x.shape
    dtype = x.data.dtype
    return _result(
        np.asarray(x.data.sum(), dtype=dtype),
        (x,),
        lambda g: (np.broadcast_to(g, shape).astype(dtype, copy=True),),
    )


# ---------------------------------------------------------------------------
# structural ops


def concat_along_axis(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of an empty sequence")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise DimensionError(str(e)) from e
    ax = axis % out.ndim
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(_ascontig(p) for p in np.split(g, offsets, axis=ax))

    return _record(out, tensors, backward)


def _is_basic_index(item) -> bool:
    if isinstance(item, (int, np.integer)):
        return not isinstance(item, bool)
    return item is None or item is Ellipsis or isinstance(item, slice)


def tensor_slice(x: Tensor, key) -> Tensor:
    """Basic slicing (ints, slices, ellipsis, None). Any other key raises
    DimensionError: an array key can repeat an entry, whose gradient the
    backward's assignment would not sum."""
    x = _as_tensor(x)
    if not all(_is_basic_index(item) for item in (key if isinstance(key, tuple) else (key,))):
        raise DimensionError(f"tensor_slice takes only basic indices, got {key!r}")
    out = x.data[key]
    if isinstance(out, np.ndarray):
        out = out.copy()
    else:
        out = np.asarray(out)
    shape, dtype = x.shape, x.data.dtype

    def backward(g):
        full = np.zeros(shape, dtype=dtype)
        full[key] = g
        return (full,)

    return _record(out, (x,), backward)


def transpose(x: Tensor, axes=None) -> Tensor:
    x = _as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(axes)
    return _record(
        _ascontig(np.transpose(x.data, axes)),
        (x,),
        lambda g: (_ascontig(np.transpose(g, np.argsort(axes))),),
    )


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    old = x.shape
    try:
        out = x.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(str(e)) from e
    return _record(_ascontig(out), (x,), lambda g: (_ascontig(g.reshape(old)),))


def broadcast_to(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    old = x.shape
    try:
        out = np.broadcast_to(x.data, shape).copy()
    except ValueError as e:
        raise DimensionError(str(e)) from e
    return _record(out, (x,), lambda g: (_unbroadcast(g, old),))


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not 0.0 <= rate < 1.0:
        raise ContractError("dropout rate must be in [0, 1)")
    x = _as_tensor(x)
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.data.dtype)[()]

    def masked(a: np.ndarray) -> np.ndarray:
        # a * keep * scale without a float copy of the mask: multiplying by
        # the bool mask gives a * 1 or a * 0 in a's dtype, -0.0 included
        out = a * keep
        out *= scale
        return out

    return _result(masked(x.data), (x,), lambda g: (masked(g),))


def _split_heads(qkv: np.ndarray, n_heads: int) -> np.ndarray:
    """Per-head q, k and v of a packed (..., S, 3 d) array as one contiguous
    (3, n, S, dh) copy: n = prod(...) * n_heads slices, dh = d / n_heads."""
    batch, s, dh = math.prod(qkv.shape[:-2]), qkv.shape[-2], qkv.shape[-1] // (3 * n_heads)
    parts = qkv.reshape(batch, s, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    return np.ascontiguousarray(parts).reshape(3, batch * n_heads, s, dh)


def _pack_heads(heads: np.ndarray, n_heads: int, shape: tuple) -> np.ndarray:
    """Inverse of `_split_heads`: (3, n, S, dh) back to packed `shape`."""
    _, n, s, dh = heads.shape
    parts = heads.reshape(3, n // n_heads, n_heads, s, dh).transpose(1, 3, 0, 2, 4)
    return np.ascontiguousarray(parts).reshape(shape)


def attention(qkv: Tensor, n_heads: int, mask=None) -> Tensor:
    """softmax(q k^T) v over the heads of one packed projection.

    qkv is (..., S, 3 d): the columns hold q, then k, then v, each d =
    n_heads * dh wide with head h in columns h dh .. (h + 1) dh. The op
    splits the heads itself and returns (..., n_heads, S, dh). Scaling is
    the caller's: fold it into the q columns. The (...) and head axes are
    flattened into n (batch, head) slices, and the work runs in tiles whose
    S x S weights take at most ATTENTION_BLOCK_BYTES: a tile is a group of
    whole slices or, when one slice's weights exceed the budget, a band of
    rows (at least one) of one slice. A tile's scores go to a scratch
    buffer and on to the `softmax` op unchecked, which writes the weights
    over them (`out=`) and each row's max `top` and exp-sum `total` into
    two (n, S, 1) arrays.

    Memory: the per-head q, k and v are one contiguous copy that lives only
    while the forward runs; between forward and backward the op holds its
    output and the row statistics, and backward splits the packed input
    again. Backward rebuilds each tile's unnormalised weights e = exp(q k^T
    - top) by one augmented product, [q, -top] . [k, 1]^T, and an in-place
    exp; with p = e / total, dv = e^T (g / total) and ds = p * (g v^T -
    <g, out>) = e * ([g / total, -<g, out> / total] . [v, 1]^T). The
    product sums q k^T - top in another order than the forward's q k^T,
    then - top, so e / total is the forward's weights up to rounding, and
    the gradients match a backward from those weights to within rounding.
    The q, k and v gradients are packed back into one (..., S, 3 d) array.

    Who checks what: the forward checks every score of each tile, masked
    entries included, in one `isfinite` pass before its softmax, so a NaN,
    +inf or -inf score raises NumericalError. Backward checks nothing
    itself; a non-finite gradient raises NumericalError in `backward`'s
    check of the leaves. Masked weights (`mask`, boolean, broadcastable to
    (..., n_heads, S, S)) are exactly 0, and a fully masked row raises
    DegenerateMaskError. A mask with leading axes is indexed per tile, so
    at most a tile of it is ever copied. No slices (n = 0) give an empty
    output and zero gradients; S = 0, a rank below 2, n_heads < 1 or a
    last axis that is not a multiple of 3 n_heads raise DimensionError.
    """
    qkv = _as_tensor(qkv)
    if qkv.ndim < 2 or n_heads < 1 or qkv.shape[-1] % (3 * n_heads):
        raise DimensionError(f"attention needs a packed (..., S, 3 x {n_heads} x dh) input, got shape {qkv.shape}")
    lead, (s, width) = qkv.shape[:-2] + (n_heads,), qkv.shape[-2:]
    dh = width // (3 * n_heads)
    if s == 0:
        raise DimensionError(f"attention needs at least one token, got shape {qkv.shape}")
    packed, shape, dtype = qkv.data, qkv.shape, qkv.data.dtype
    n = math.prod(lead)
    if n == 0:
        return _record(np.zeros(lead + (s, dh), dtype), (qkv,), lambda g: (np.zeros(shape, dtype),))
    m = None if mask is None else (mask.data if isinstance(mask, Tensor) else np.asarray(mask))
    if m is not None and m.ndim > 2:
        m = np.broadcast_to(m, lead + m.shape[-2:])  # a view: no copy
        where = np.unravel_index(np.arange(n), lead)  # slice -> its index into m's leading axes
    slice_bytes = s * s * dtype.itemsize
    if slice_bytes <= ATTENTION_BLOCK_BYTES:
        step = ATTENTION_BLOCK_BYTES // slice_bytes
        tiles = [(i, min(i + step, n), 0, s) for i in range(0, n, step)]
    else:
        rows = max(1, ATTENTION_BLOCK_BYTES // (s * dtype.itemsize))
        tiles = [(i, i + 1, r, min(r + rows, s)) for i in range(n) for r in range(0, s, rows)]

    def scratch() -> np.ndarray:
        return np.empty(max((i1 - i0) * (r1 - r0) for i0, i1, r0, r1 in tiles) * s, dtype=dtype)

    def block(buf: np.ndarray, i0: int, i1: int, r0: int, r1: int) -> np.ndarray:
        return buf[: (i1 - i0) * (r1 - r0) * s].reshape(i1 - i0, r1 - r0, s)

    def tile_mask(i0: int, i1: int, r0: int, r1: int):
        # the mask's row axis is absent, 1 or S; only the last needs slicing
        if m is None or m.ndim < 2:
            return m
        rows = slice(r0, r1) if m.shape[-2] == s else slice(None)
        return m[rows] if m.ndim == 2 else m[tuple(w[i0:i1] for w in where) + (rows,)]

    top, total = np.empty((n, s, 1), dtype=dtype), np.empty((n, s, 1), dtype=dtype)
    out = np.empty((n, s, dh), dtype=dtype)
    qd, kd, vd = _split_heads(packed, n_heads)
    buf = scratch()
    for tile in tiles:
        i0, i1, r0, r1 = tile
        z = np.matmul(qd[i0:i1, r0:r1], np.swapaxes(kd[i0:i1], -1, -2), out=block(buf, *tile))
        if not np.all(np.isfinite(z)):
            raise NumericalError("attention scores hold non-finite values")
        stats = top[i0:i1, r0:r1], total[i0:i1, r0:r1]
        softmax(_record(z, (), None), axis=-1, mask=tile_mask(*tile), stats=stats, out=z)
        np.matmul(z, vd[i0:i1], out=out[i0:i1, r0:r1])
    del qd, kd, vd, buf

    def backward(g):
        qd, kd, vd = _split_heads(packed, n_heads)
        g = g.reshape(n, s, dh)
        grads = np.zeros((3, n, s, dh), dtype=dtype)
        dq, dk, dv = grads
        ones = np.ones((max(i1 - i0 for i0, i1, _, _ in tiles), s, 1), dtype=dtype)
        ebuf = scratch()  # a tile's unnormalised weights e, p = e / total
        dbuf = scratch()  # a tile's ds
        for tile in tiles:
            i0, i1, r0, r1 = tile
            one = ones[: i1 - i0]
            # e = exp([q, -top] . [k, 1]^T), forbidden entries set to -inf
            # first: the forward's weights times total, up to rounding
            qa = np.concatenate((qd[i0:i1, r0:r1], -top[i0:i1, r0:r1]), axis=-1)
            ka = np.concatenate((kd[i0:i1], one), axis=-1)
            e = np.matmul(qa, np.swapaxes(ka, -1, -2), out=block(ebuf, *tile))
            tm = tile_mask(*tile)
            if tm is not None:
                np.copyto(e, -np.inf, where=~tm.astype(bool, copy=False))
            np.exp(e, out=e)
            # dv = p^T g = e^T (g / total); ds = p * (g v^T - <g, out>)
            # = e * ([g / total, -<g, out> / total] . [v, 1]^T)
            gb, tb = g[i0:i1, r0:r1], total[i0:i1, r0:r1]
            gs = gb / tb
            inner = (gb * out[i0:i1, r0:r1]).sum(axis=-1, keepdims=True)
            inner /= tb
            ga = np.concatenate((gs, -inner), axis=-1)
            va = np.concatenate((vd[i0:i1], one), axis=-1)
            dv[i0:i1] += np.matmul(np.swapaxes(e, -1, -2), gs)
            ds = np.matmul(ga, np.swapaxes(va, -1, -2), out=block(dbuf, *tile))
            ds *= e
            np.matmul(ds, kd[i0:i1], out=dq[i0:i1, r0:r1])
            dk[i0:i1] += np.matmul(np.swapaxes(ds, -1, -2), qd[i0:i1, r0:r1])
        del qd, kd, vd, ebuf, dbuf
        return (_pack_heads(grads, n_heads, shape),)

    return _result(out.reshape(lead + (s, dh)), (qkv,), backward)


# Every op with a backward rule, by name: the one list of ops. Tests
# enumerate it to guarantee every rule is covered by a finite-difference
# check.
REGISTERED_OPS = {
    "matmul": matmul,
    "add": add,
    "mul": mul,
    "relu": relu,
    "gelu": gelu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "log": log,
    "clamp": clamp,
    "softmax": softmax,
    "layer_norm": layer_norm,
    "mean_over_axis": mean_over_axis,
    "tensor_sum": tensor_sum,
    "concat_along_axis": concat_along_axis,
    "slice": tensor_slice,
    "transpose": transpose,
    "reshape": reshape,
    "broadcast_to": broadcast_to,
    "dropout": dropout,
    "attention": attention,
}


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor):
    """Reverse-topological gradient accumulation from a recorded scalar.

    Populates `.grad` on every gradient-tracking leaf seen by the tape;
    leaves the loss does not depend on get exact zeros. Gradients are
    assigned (not accumulated across calls), and each leaf's previous
    `.grad` is dropped before any rule runs, so a step's gradients never
    sit beside the last step's; run one backward per tape.
    Each entry's rule maps its output's gradient to its inputs', which are
    summed by node id into those of the inputs that track gradients. The
    entries are dropped as they are replayed, so each activation is freed
    once the last rule reading it has run.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("backward requires a scalar loss tensor")
    tape = loss.tape
    if tape is not None and tape.replayed:
        raise ContractError("tape was already replayed; run one backward per tape")
    if tape is None or not tape.entries:
        raise ContractError("loss was not recorded on an active tape")
    entries, tape.entries, tape.replayed = tape.entries, [], True
    for leaf in tape.leaves:  # last step's gradients go before this step's are built
        leaf.grad = None
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    while entries:
        entry = entries.pop()
        g = grads.pop(entry.out_id, None)
        if g is None:
            continue
        for (node, tracked, shape), gi in zip(entry.inputs, entry.backward(g)):
            if gi is None or not tracked:
                continue
            if gi.shape != shape:
                gi = gi.reshape(shape)
            acc = grads.get(node)
            grads[node] = gi if acc is None else acc + gi
    for leaf in tape.leaves:
        g = grads.get(leaf.node_id)
        leaf.grad = np.zeros_like(leaf.data) if g is None else np.asarray(g, dtype=leaf.data.dtype)
    if not all(np.all(np.isfinite(leaf.grad)) for leaf in tape.leaves):
        raise NumericalError("backward produced non-finite gradients")
