"""Tensor kernel: forward semantics, backward rules, gradcheck oracle,
checkpoint format."""

import gc
import inspect
import json
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

import pedintent.tensor as tensor_pkg
import pedintent.tensor.core as core
from oracles import attend, gelu_input_grad, pack_heads, recorded_ops
from pedintent.errors import (
    CheckpointError,
    ContractError,
    DegenerateMaskError,
    DeterminismError,
    DimensionError,
    NumericalError,
)
from pedintent.tensor import (
    REGISTERED_OPS,
    Tape,
    Tensor,
    add,
    attention,
    backward,
    broadcast_to,
    check_gradients,
    clamp,
    concat_along_axis,
    dropout,
    gelu,
    layer_norm,
    load_checkpoint,
    log,
    matmul,
    mean_over_axis,
    mul,
    relu,
    reshape,
    save_checkpoint,
    sigmoid,
    softmax,
    tanh,
    tensor_slice,
    write_atomic,
    tensor_sum,
    transpose,
)


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


class TestConstruction:
    def test_python_numbers_become_float32_and_float_arrays_keep_their_dtype(self):
        assert Tensor([[2.0, 4.0]]).data.dtype == np.float32
        assert Tensor(3.0).data.dtype == np.float32
        assert Tensor(3).data.dtype == np.float32
        assert Tensor(np.arange(3)).data.dtype == np.float32
        assert Tensor(np.array([2.0, 4.0])).data.dtype == np.float64
        assert Tensor(np.float64(3.0)).data.dtype == np.float64
        assert Tensor(np.array([2.0], dtype=np.float32)).data.dtype == np.float32
        assert Tensor([2.0, 4.0], dtype=np.float64).data.dtype == np.float64


class TestMatmul:
    def test_identity(self):
        a = Tensor([[3.0, 4.0], [5.0, 6.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(matmul(eye, a).data, a.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_errors(self):
        assert matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]])).data.tolist() == [5.0]
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(DimensionError, match=r"\(3, 4, 5\)"):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones(())), Tensor(np.ones((1, 2))))
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 1))), Tensor(np.ones(())))

    @pytest.mark.parametrize(
        "wrt, a_shape, b_shape",
        [
            ("a", (3, 4, 5), (5, 2)),
            ("a", (2, 3, 4, 5), (5, 2)),
            ("b", (3, 4, 5), (5, 2)),
            ("b", (2, 3, 4, 5), (5, 2)),
            ("a", (5,), (5, 2)),
            ("b", (5,), (5, 2)),
            ("a", (3, 4, 5), (5,)),  # the head's shapes
            ("b", (3, 4, 5), (5,)),
        ],
    )
    def test_gradients_by_operand_rank(self, wrt, a_shape, b_shape):
        """Float64 gradients with respect to either operand, the other one a
        constant: a 2-D weight under 1-D, 3-D and 4-D rows, and a 1-D
        weight."""
        r = _rng(60)
        a, b = t64(r.normal(size=a_shape)), t64(r.normal(size=b_shape))
        c = t64(r.normal(size=np.matmul(a.data, b.data).shape))
        if wrt == "a":
            report = check_gradients(lambda x: tensor_sum(mul(matmul(x, b), c)), a, eps=1e-5)
        else:
            report = check_gradients(lambda x: tensor_sum(mul(matmul(a, x), c)), b, eps=1e-5)
        assert report.max_rel_err < 1e-5

    @pytest.mark.parametrize("a_shape, b_shape", [((32, 32, 1536), (1536, 64)), ((27, 8, 16, 64), (64, 256))])
    def test_float32_rows_match_per_slice_products(self, a_shape, b_shape):
        """A 2-D weight's one product over collapsed rows is within 1e-6 of
        per-slice products, on [0, 1) pixels and 1/sqrt(k)-scaled weights."""
        r = _rng(61)
        a = r.random(a_shape).astype(np.float32)
        b = (r.normal(size=b_shape) / np.sqrt(b_shape[0])).astype(np.float32)
        got = matmul(Tensor(a), Tensor(b)).data
        slices = a.reshape((-1,) + a_shape[-2:])
        expected = np.stack([np.matmul(s, b) for s in slices]).reshape(got.shape)
        assert got.dtype == np.float32
        assert np.max(np.abs(got - expected)) < 1e-6

    @pytest.mark.parametrize(
        "op, b_shape, products",
        [(matmul, (5, 2), 1), (add, (4, 5), 0), (mul, (4, 5), 0)],
        ids=["matmul-2d", "add", "mul"],
    )
    @pytest.mark.parametrize("tracked", ["a", "b"])
    def test_backward_skips_a_constant_operand(self, monkeypatch, op, b_shape, products, tracked):
        """A binary rule returns no gradient for the operand that tracks
        none, and matmul's runs one product, not two."""
        r = _rng(62)
        a = Tensor(r.normal(size=(3, 4, 5)), requires_grad=tracked == "a")
        b = Tensor(r.normal(size=b_shape), requires_grad=tracked == "b")
        with Tape() as tape:
            out = op(a, b)
        rule = tape.entries[-1].backward
        calls = []
        matmul_ = np.matmul

        def counting(*args, **kwargs):
            calls.append(1)
            return matmul_(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        ga, gb = rule(np.ones_like(out.data))
        assert (ga is None, gb is None) == (tracked == "b", tracked == "a")
        assert len(calls) == products

    @pytest.mark.parametrize("wrt", ["a", "b", "bias"])
    @pytest.mark.parametrize(
        "a_shape, b_shape, bias_shape",
        [((3, 4, 5), (5, 2), (2,)), ((3, 4, 5), (5,), ())],
        ids=["2d-weight", "1d-weight"],
    )
    def test_bias_gradients_match_finite_differences(self, wrt, a_shape, b_shape, bias_shape):
        """Float64 gradients of a biased product with respect to each of
        its three operands, the other two constants: a 2-D weight with an
        (m,) bias and a 1-D weight with a 0-d bias (the head's shapes)."""
        r = _rng(63)
        args = {"a": t64(r.normal(size=a_shape)), "b": t64(r.normal(size=b_shape)), "bias": t64(r.normal(size=bias_shape))}
        c = t64(r.normal(size=a_shape[:-1] + b_shape[1:]))

        def f(x):
            return tensor_sum(mul(matmul(**{**args, wrt: x}), c))

        report = check_gradients(f, args[wrt], eps=1e-5)
        assert report.max_rel_err < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "a_shape, b_shape, bias_shape",
        [((32, 9, 64), (64, 192), (192,)), ((3, 4, 5), (5, 2), (4, 1)), ((3, 4, 5), (5,), ()), ((5,), (5,), ())],
    )
    def test_bias_gives_the_bits_of_a_separate_add(self, dtype, a_shape, b_shape, bias_shape):
        """Output and all three gradients are the bits of add(matmul(a, b),
        bias), a broadcast bias included."""
        r = _rng(64)
        arrays = [r.normal(size=shape).astype(dtype) for shape in (a_shape, b_shape, bias_shape)]
        c = Tensor(r.normal(size=a_shape[:-1] + b_shape[1:]).astype(dtype))
        runs = []
        for fused in (True, False):
            a, b, bias = (Tensor(x, requires_grad=True) for x in arrays)
            with Tape():
                out = matmul(a, b, bias) if fused else add(matmul(a, b), bias)
                backward(tensor_sum(mul(out, c)))
            runs.append([out.data, a.grad, b.grad, bias.grad])
        for got, expected in zip(*runs):
            assert got.dtype == expected.dtype == dtype
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_bias_errors(self):
        """A bias that would widen the product's shape is a DimensionError,
        one that would widen its dtype a ContractError; a float32 bias on a
        float64 product is added as `add` would."""
        a, b = Tensor(np.ones((2, 3), np.float32)), Tensor(np.ones((3, 4), np.float32))
        with pytest.raises(DimensionError, match=r"\(2, 4\)"):
            matmul(a, b, Tensor(np.ones((3, 1, 4), np.float32)))
        with pytest.raises(DimensionError):
            matmul(a, b, Tensor(np.ones(3, np.float32)))
        with pytest.raises(ContractError, match="dtype"):
            matmul(a, b, Tensor(np.ones(4), dtype=np.float64))
        a64, bias = Tensor(np.ones((2, 3))), Tensor(np.full(4, 0.1, np.float32))
        assert matmul(a64, b, bias).data.tobytes() == add(matmul(a64, b), bias).data.tobytes()


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3)

    def test_large_inputs_stable(self):
        out = softmax(Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_masked_example(self):
        out = softmax(Tensor([2.0, 1.0, 3.0]), mask=np.array([True, True, False]))
        e = np.exp([2.0, 1.0])
        assert np.allclose(out.data, [e[0] / e.sum(), e[1] / e.sum(), 0.0], atol=1e-6)
        assert out.data[2] == 0.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 7)))
        mask = rng.random((4, 7)) > 0.3
        mask[:, 0] = True
        out = softmax(x, axis=-1, mask=mask)
        assert np.all(out.data >= 0)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out.data[~mask] == 0.0)

    def test_fully_masked_slice(self):
        with pytest.raises(DegenerateMaskError):
            softmax(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=-1, mask=np.array([[True, True], [False, False]]))

    @pytest.mark.parametrize(
        "x_shape, axis, mask_shape, degenerate",
        [
            ((2, 3, 4), -1, (3, 4), True),
            ((0, 3, 4), -1, (3, 4), False),  # no slices, none fully masked
            ((2, 3, 4), 0, (3, 4), True),  # the mask lacks the softmax axis
            ((2, 3, 4), 1, (1, 4), True),  # the mask is 1 along the softmax axis
            ((2, 3, 4), 1, (3, 1), False),
            ((2, 3, 4), -1, (), True),
        ],
    )
    def test_fully_masked_slice_of_a_broadcast_mask(self, x_shape, axis, mask_shape, degenerate):
        """A slice is fully masked when its slice of the broadcast mask is.
        The mask's last entry is False, and with the softmax along its rows
        its whole last row."""
        m = np.ones(mask_shape, dtype=bool)
        m[(-1,) * len(mask_shape)] = False
        if mask_shape == (3, 4) and axis == -1:
            m[-1] = False
        x = Tensor(_rng(63).normal(size=x_shape))
        if degenerate:
            with pytest.raises(DegenerateMaskError):
                softmax(x, axis=axis, mask=m)
        else:
            out = softmax(x, axis=axis, mask=m).data
            assert out.shape == x_shape
            assert np.all(out[~np.broadcast_to(m, x_shape)] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    def test_bit_identical_to_reference_formula(self, dtype, masked):
        rng = np.random.default_rng(17)
        xd = (rng.normal(size=(3, 5, 9)) * 4).astype(dtype)
        if masked:
            m = rng.random((5, 9)) > 0.4
            m[:, 2] = True
            mb = np.broadcast_to(m, xd.shape)
            z = np.where(mb, xd, -np.inf)
            z = z - z.max(axis=-1, keepdims=True)
            e = np.where(mb, np.exp(z), 0.0).astype(dtype)
        else:
            m = None
            e = np.exp(xd - xd.max(axis=-1, keepdims=True))
        expected = e / e.sum(axis=-1, keepdims=True)
        out = softmax(Tensor(xd), axis=-1, mask=m).data
        assert out.dtype == dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    def test_stats_rebuild_the_output_bit_for_bit(self, dtype, masked):
        """exp(x - top) / total, forbidden entries set to -inf first, is the
        output: top is the max over allowed entries, total the exp-sum."""
        rng = np.random.default_rng(18)
        xd = (rng.normal(size=(3, 5, 9)) * 4).astype(dtype)
        m = None
        z = xd.copy()
        if masked:
            m = rng.random((5, 9)) > 0.4
            m[:, 2] = True
            z[:, ~m] = -np.inf
        top, total = np.full((3, 5, 1), np.nan, dtype=dtype), np.full((3, 5, 1), np.nan, dtype=dtype)
        out = softmax(Tensor(xd), axis=-1, mask=m, stats=(top, total)).data
        assert np.array_equal(top, z.max(axis=-1, keepdims=True))
        assert out.tobytes() == (np.exp(z - top) / total).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    def test_out_gives_the_bits_of_a_fresh_output(self, dtype, masked):
        """out=, a separate array or the input's own data, holds the fresh
        output's bytes, and the op returns it."""
        rng = np.random.default_rng(19)
        xd = (rng.normal(size=(3, 5, 9)) * 4).astype(dtype)
        m = None
        if masked:
            m = rng.random((5, 9)) > 0.4
            m[:, 2] = True
        fresh = softmax(Tensor(xd), axis=-1, mask=m).data
        buf = np.full_like(xd, np.nan)
        got = softmax(Tensor(xd), axis=-1, mask=m, out=buf).data
        assert got is buf and buf.tobytes() == fresh.tobytes()
        x = Tensor(xd.copy())
        got = softmax(x, axis=-1, mask=m, out=x.data).data
        assert got is x.data and got.tobytes() == fresh.tobytes()

    def test_out_is_refused_on_a_tape_and_at_another_shape_or_dtype(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        with Tape():
            with pytest.raises(ContractError):
                softmax(x, axis=-1, out=np.empty((2, 3), dtype=np.float32))
        for buf in (np.empty((3, 2), dtype=np.float32), np.empty((2, 3), dtype=np.float64)):
            with pytest.raises(ContractError):
                softmax(Tensor(np.ones((2, 3), dtype=np.float32)), axis=-1, out=buf)

    def test_empty_axis_is_a_dimension_error(self):
        with pytest.raises(DimensionError):
            softmax(Tensor(np.ones((3, 0))), axis=-1)
        with pytest.raises(DimensionError):
            softmax(Tensor(np.ones((0, 4))), axis=0)
        with pytest.raises(DimensionError):
            softmax(Tensor(np.ones(3)), axis=1)
        assert softmax(Tensor(np.ones((0, 4))), axis=-1).shape == (0, 4)


class TestLayerNorm:
    def test_constant_vector(self):
        out = layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_two_point(self):
        out = layer_norm(t64([1.0, 3.0]), t64(np.ones(2)), t64(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_normalizes_last_axis(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 8)) * 10 + 3)
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_bad_eps(self):
        with pytest.raises(ContractError):
            layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_definition(self):
        x = np.linspace(-4, 4, 9)
        assert np.allclose(sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)), atol=1e-6)

    def test_mean_over_axis(self):
        out = mean_over_axis(Tensor([[1.0, 3.0], [3.0, 5.0]]), axis=0)
        assert out.data.tolist() == [2.0, 4.0]

    def test_concat_shapes(self):
        out = concat_along_axis([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=-1)
        assert out.shape == (2, 7)

    def test_relu_gelu_values(self):
        assert relu(Tensor([-1.0, 2.0])).data.tolist() == [0.0, 2.0]
        assert np.allclose(gelu(Tensor([0.0])).data, [0.0])
        # gelu(1) = 0.5 * (1 + erf(1/sqrt(2)))
        assert np.allclose(gelu(Tensor([1.0])).data, [0.8413447], atol=1e-6)

    def test_suffix_broadcast_add(self):
        out = add(Tensor(np.zeros((2, 3, 4))), Tensor(np.arange(4.0)))
        assert out.shape == (2, 3, 4)
        assert np.array_equal(out.data[1, 2], np.arange(4.0, dtype=np.float32))
        with pytest.raises(DimensionError, match=r"\(2, 3\) and \(2,\)"):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
        with pytest.raises(DimensionError, match=r"\(2, 3\) and \(3, 1\)"):
            mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 1))))

    @pytest.mark.parametrize("op", [add, mul])
    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((2, 3, 4, 1, 1), (4, 1, 3)), ((3, 1), (1, 4))],
        ids=["tokenizer", "outer"],
    )
    @pytest.mark.parametrize("wrt", ["a", "b"])
    def test_numpy_broadcast_gradients(self, op, a_shape, b_shape, wrt):
        """Float64 gradients under numpy broadcasting, the other operand a
        constant: the feature tokenizer's (..., T, F, 1, 1) values by its
        (F, 1, d) table, and (3, 1) by (1, 4), whose output is larger than
        either operand."""
        r = _rng(63)
        a, b = t64(r.normal(size=a_shape)), t64(r.normal(size=b_shape))
        c = t64(r.normal(size=np.broadcast_shapes(a_shape, b_shape)))
        if wrt == "a":
            report = check_gradients(lambda x: tensor_sum(mul(op(x, b), c)), a, eps=1e-5)
        else:
            report = check_gradients(lambda x: tensor_sum(mul(op(a, x), c)), b, eps=1e-5)
        assert report.max_rel_err < 1e-5

    @pytest.mark.parametrize("key", [[0, 0, 2], np.array([True, False, True]), (slice(None), np.array([1, 1]))])
    def test_slice_refuses_non_basic_keys(self, key):
        """An array key can repeat an entry, whose gradient the slice's
        backward would overwrite instead of summing."""
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with pytest.raises(DimensionError):
            tensor_slice(x, key)
        with pytest.raises(DimensionError):
            x[key]

    def test_log_of_zero_is_error(self):
        with pytest.raises(NumericalError):
            log(Tensor([0.0, 1.0]))

    def test_nan_input_rejected(self):
        with pytest.raises(NumericalError):
            Tensor([np.nan])

    def test_structural_ops_skip_the_finite_check(self, monkeypatch):
        """Ops that only move values of finite Tensors wrap their output
        unchecked, and still return numpy's bytes."""

        def checked(*args):
            raise AssertionError("structural op checked its output")

        monkeypatch.setattr(core, "_result", checked)
        a = np.arange(24, dtype=np.float32).reshape(2, 3, 4) - 7.5
        b = np.full((2, 1, 4), 2.0, np.float32)
        cases = [
            (reshape(Tensor(a), (4, 6)), a.reshape(4, 6)),
            (transpose(Tensor(a), (2, 0, 1)), np.transpose(a, (2, 0, 1))),
            (concat_along_axis([Tensor(a), Tensor(b)], axis=1), np.concatenate([a, b], axis=1)),
            (tensor_slice(Tensor(a), (slice(None), 1, slice(1, 3))), a[:, 1, 1:3]),
            (broadcast_to(Tensor(b), (2, 5, 4)), np.broadcast_to(b, (2, 5, 4))),
        ]
        for out, expected in cases:
            assert out.data.dtype == expected.dtype and out.shape == expected.shape
            assert out.data.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_overflow_still_raises(self):
        big = np.finfo(np.float32).max
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            matmul(Tensor(np.full((1, 2), big, np.float32)), Tensor(np.full((2, 1), 2.0, np.float32)))
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            mean_over_axis(Tensor(np.full((2, 3), big, np.float32)), 0)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with Tape():
            loss = tensor_sum(mul(x, x))
            backward(loss)
        assert np.allclose(x.grad, [2.0, -4.0, 6.0])

    def test_nonparticipating_leaf_gets_zeros(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        with Tape():
            _ = mul(y, 3.0)  # y is on the tape but not in the loss
            loss = tensor_sum(x)
            backward(loss)
        assert np.array_equal(y.grad, np.zeros(2))
        assert np.array_equal(x.grad, np.ones(3))

    def test_nonscalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            y = mul(x, 2.0)
            with pytest.raises(ContractError):
                backward(y)

    def test_loss_off_tape_rejected(self):
        x = Tensor(np.ones(()), requires_grad=True)
        with pytest.raises(ContractError):
            backward(x)

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape():
            loss = tensor_sum(add(mul(x, x), x))  # x^2 + x
            backward(loss)
        assert np.allclose(x.grad, [5.0])

    def test_replayed_tape_leaves_no_garbage(self):
        x = Tensor(np.random.default_rng(2).normal(size=(2, 4, 3)), requires_grad=True)

        def step():
            with Tape():
                backward(tensor_sum(attend(x, mul(x, 0.5), x)))

        gc.collect()
        gc.disable()
        try:
            step()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert x.grad is not None and x.grad.shape == x.shape

    def test_second_backward_on_a_tape_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            loss = tensor_sum(mul(x, x))
            backward(loss)
            with pytest.raises(ContractError):
                backward(loss)
        assert np.allclose(x.grad, 2.0)

    def test_purity_bit_identical(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4)).astype(np.float32)
        a = softmax(Tensor(x), axis=-1).data
        b = softmax(Tensor(x), axis=-1).data
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# finite-difference coverage of every registered op


def _rng(seed=0):
    return np.random.default_rng(seed)


def _op_cases(dtype=np.float64):
    """op -> (input shape, scalar function of the input); constants take `dtype`."""
    r = _rng(7)

    def const(a):
        return Tensor(a, dtype=dtype)

    b_const = const(r.normal(size=(5, 3)))
    c35 = const(r.normal(size=(3, 5)))
    add_const = const(r.normal(size=4))
    mul_const = const(r.normal(size=(2, 4)))
    concat_const = const(r.normal(size=(2, 3)))
    gamma = const(r.normal(size=6) + 1.5)
    beta = const(r.normal(size=6))

    att_const = const(r.normal(size=(2, 5, 3)))

    def frozen_dropout(x):
        return tensor_sum(dropout(x, 0.4, np.random.default_rng(123), training=True))

    return {
        "matmul": ((4, 5), lambda x: tensor_sum(matmul(x, b_const))),
        "add": ((2, 3, 4), lambda x: tensor_sum(mul(add(x, add_const), add(x, add_const)))),
        "mul": ((3, 2, 4), lambda x: tensor_sum(mul(x, mul_const))),
        "relu": ((3, 4), lambda x: tensor_sum(mul(relu(x), relu(x)))),
        "gelu": ((3, 4), lambda x: tensor_sum(gelu(x))),
        "sigmoid": ((3, 4), lambda x: tensor_sum(sigmoid(x))),
        "tanh": ((3, 4), lambda x: tensor_sum(tanh(x))),
        "log": ((3, 4), lambda x: tensor_sum(log(add(mul(x, x), 0.5)))),
        "clamp": ((3, 4), lambda x: tensor_sum(mul(clamp(x, -0.7, 0.7), clamp(x, -0.7, 0.7)))),
        "softmax": ((3, 5), lambda x: tensor_sum(mul(softmax(x, axis=-1), c35))),
        "layer_norm": ((3, 6), lambda x: tensor_sum(mul(layer_norm(x, gamma, beta), layer_norm(x, gamma, beta)))),
        "mean_over_axis": ((3, 4), lambda x: tensor_sum(mul(mean_over_axis(x, 0), mean_over_axis(x, 0)))),
        "tensor_sum": ((3, 4), lambda x: tensor_sum(mul(x, x))),
        "concat_along_axis": ((2, 3), lambda x: tensor_sum(mul(concat_along_axis([x, concat_const], 0), concat_along_axis([x, concat_const], 0)))),
        "slice": ((4, 5), lambda x: tensor_sum(mul(x[1:3, ::2], x[1:3, ::2]))),
        "transpose": ((2, 3, 4), lambda x: tensor_sum(matmul(transpose(x, (1, 0, 2)), b_const[:4, :2]))),
        "reshape": ((3, 4), lambda x: tensor_sum(mul(reshape(x, (2, 6)), reshape(x, (2, 6))))),
        "broadcast_to": ((4,), lambda x: tensor_sum(mul(broadcast_to(x, (3, 4)), mul_const[0]))),
        "dropout": ((3, 4), frozen_dropout),
        "attention": ((3, 2, 5, 3), lambda x: tensor_sum(mul(attend(x[0], x[1], x[2]), att_const))),
    }


_CASES = _op_cases()


def test_every_registered_op_has_a_case():
    assert set(_CASES) == set(REGISTERED_OPS)


def test_every_exported_op_is_registered():
    """The registry and the package's exported ops are one set: every
    exported function of tensor.core but `backward` is a registered op."""
    exported = [getattr(tensor_pkg, name) for name in tensor_pkg.__all__]
    ops = {f for f in exported if inspect.isfunction(f) and f.__module__ == core.__name__}
    assert ops - {backward} == set(REGISTERED_OPS.values())


@pytest.mark.parametrize("op", sorted(REGISTERED_OPS))
def test_op_gradients_match_finite_differences_64bit(op):
    shape, fn = _CASES[op]
    x = Tensor(_rng(11).normal(size=shape), dtype=np.float64)
    report = check_gradients(fn, x, eps=1e-5)
    assert report.max_rel_err < 1e-5, f"{op}: {report.max_rel_err}"


@pytest.mark.parametrize("op", sorted(REGISTERED_OPS))
def test_op_keeps_float32(op, monkeypatch):
    """On float32 inputs every op output, and every gradient a backward rule
    returns, is float32: no float64 constant promotes the computation."""
    seen = []
    record = core._record

    def recording(data, inputs, rule):
        seen.append(data.dtype)

        def traced(g):
            grads = rule(g)
            seen.extend(gi.dtype for gi in grads if gi is not None)
            return grads

        return record(data, inputs, None if rule is None else traced)

    monkeypatch.setattr(core, "_record", recording)
    shape, fn = _op_cases(np.float32)[op]
    x = Tensor(_rng(11).normal(size=shape).astype(np.float32), requires_grad=True)
    with Tape():
        loss = fn(x)
        backward(loss)
    assert loss.data.dtype == np.float32
    assert seen and set(seen) == {np.dtype(np.float32)}, f"{op}: {set(seen)}"


def _cell_values(fn) -> list:
    """The values of a function's bound closure cells (a cell whose
    variable was never assigned, such as a branch's, holds none)."""
    values = []
    for cell in fn.__closure__ or ():
        try:
            values.append(cell.cell_contents)
        except ValueError:
            pass
    return values


def _tensor_reachable(obj, seen: set) -> bool:
    """Whether a Tensor is reachable from `obj` through tuples, lists and
    the closure cells of functions."""
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return True
    if isinstance(obj, (tuple, list)):
        return any(_tensor_reachable(o, seen) for o in obj)
    if inspect.isfunction(obj):
        return any(_tensor_reachable(v, seen) for v in _cell_values(obj))
    return False


@pytest.mark.parametrize("op", sorted(REGISTERED_OPS))
def test_tape_entries_and_rules_hold_no_tensor(op):
    """No entry a case records keeps a Tensor, in its inputs or in its
    backward rule's closure (nor in a function that closure holds): a rule
    keeps flags, shapes and the arrays it reads, so an intermediate lives
    only as long as a rule reads its data."""
    shape, fn = _CASES[op]
    x = Tensor(_rng(11).normal(size=shape), requires_grad=True)
    with Tape() as tape:
        loss = fn(x)
    assert REGISTERED_OPS[op].__name__ in recorded_ops(tape)
    for entry in tape.entries:
        assert not _tensor_reachable(entry.inputs, set()), f"{op}: an entry's inputs hold a Tensor"
        assert not _tensor_reachable(entry.backward, set()), f"{op}: {entry.backward.__qualname__} holds a Tensor"
    backward(loss)
    assert x.grad.shape == x.shape


def _gelu_value_and_grad(x, c):
    """gelu(x) and the gradient of sum(gelu(x) * c) with respect to x."""
    t = Tensor(x, requires_grad=True)
    with Tape():
        out = gelu(t)
        backward(tensor_sum(mul(out, Tensor(c))))
    return out.data, t.grad


def test_gelu_erf_in_float32():
    """Float32 gelu computes in float32 and stays within 1e-6 of float64 in
    value and gradient on a 49-point grid, and within 5e-7 * max(1, |x|)
    in value on a dense [-8, 8] grid."""
    x = np.linspace(-6, 6, 49)
    ones = np.ones_like(x)
    out, grad = _gelu_value_and_grad(x.astype(np.float32), ones.astype(np.float32))
    out64, grad64 = _gelu_value_and_grad(x, ones)
    assert out.dtype == grad.dtype == np.float32
    assert np.max(np.abs(out - out64)) < 1e-6
    assert np.max(np.abs(grad - grad64)) < 1e-6
    dense = np.linspace(-8, 8, 400_001).astype(np.float32)
    err = np.abs(gelu(Tensor(dense)).data - gelu(t64(dense)).data)
    assert np.max(err / np.maximum(1.0, np.abs(dense))) < 5e-7


@pytest.mark.parametrize("size", [0, 1, core.GELU_CHUNK - 1, core.GELU_CHUNK + 1, 3 * core.GELU_CHUNK + 7])
def test_gelu_chunks_give_the_bits_of_slices(size):
    """Value and gradient of one call over `size` float32 elements are the
    bits of calls over slices whose ends fall off the chunk boundaries."""
    x, c = (a.astype(np.float32) for a in _rng(50).normal(size=(2, size)) * 3)
    out, grad = _gelu_value_and_grad(x, c)
    assert out.shape == grad.shape == (size,)
    cuts = list(range(0, size, 1000)) + [size]
    parts = [_gelu_value_and_grad(x[a:b], c[a:b]) for a, b in zip(cuts, cuts[1:])]
    if parts:
        assert out.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
        assert grad.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()


@pytest.mark.parametrize("shape", [(), (3, 4), (3 * core.GELU_CHUNK + 7,)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_gradient_has_the_bits_of_the_rule_that_kept_x_and_cdf(dtype, shape):
    """The derivative a recorded gelu keeps from its forward gives the
    input gradient bit for bit as the frozen rule that read x and cdf."""
    x, c = (np.asarray(a, dtype=dtype) for a in _rng(56).normal(size=(2,) + shape) * 3)
    _, grad = _gelu_value_and_grad(x, c)
    assert grad.dtype == dtype
    assert grad.tobytes() == gelu_input_grad(x, c).tobytes()


def test_only_a_recorded_gelu_computes_its_derivative(monkeypatch):
    """Eval, an untracked input on a tape and a tracked input off a tape
    compute no derivative; a recorded call computes one, with the same
    output bits."""
    calls = []
    derivative = core._gelu_derivative

    def counting(xd, cdf):
        calls.append(xd.shape)
        return derivative(xd, cdf)

    monkeypatch.setattr(core, "_gelu_derivative", counting)
    x = _rng(57).normal(size=(4, 5)).astype(np.float32)
    plain = gelu(Tensor(x)).data
    gelu(Tensor(x, requires_grad=True))
    with Tape():
        gelu(Tensor(x))
        assert calls == []
        recorded = gelu(Tensor(x, requires_grad=True)).data
    assert calls == [(4, 5)]
    assert recorded.tobytes() == plain.tobytes()


def test_gelu_of_a_0d_input():
    x, c = np.float32(0.7), np.float32(-1.5)
    out, grad = _gelu_value_and_grad(np.array(x), np.array(c))
    one_out, one_grad = _gelu_value_and_grad(np.array([x]), np.array([c]))
    assert out.shape == grad.shape == ()
    assert out.tobytes() == one_out.tobytes() and grad.tobytes() == one_grad.tobytes()


def _f32_cases():
    """Small well-scaled functions: float32 central differences carry
    ~|f|*6e-8/(2 eps) absolute noise, so keep |f| small and gradients O(1)."""
    c = Tensor(np.array([[1.0, -1.0, 0.5, -0.5]], dtype=np.float32))
    b = Tensor(_rng(21).normal(size=(3, 2)).astype(np.float32))
    return {
        "matmul": ((2, 3), lambda x: tensor_sum(matmul(x, b))),
        "sigmoid": ((4,), lambda x: tensor_sum(sigmoid(x))),
        "tanh": ((4,), lambda x: tensor_sum(tanh(x))),
        "softmax": ((1, 4), lambda x: tensor_sum(mul(softmax(x, axis=-1), c))),
        "mul": ((4,), lambda x: tensor_sum(mul(x, c[0]))),
        "mean_over_axis": ((4, 2), lambda x: tensor_sum(mul(mean_over_axis(x, 0), c[0, :2]))),
    }


@pytest.mark.parametrize("op", sorted(_f32_cases()))
def test_op_gradients_match_finite_differences_32bit(op):
    shape, fn = _f32_cases()[op]
    x = Tensor((_rng(13).normal(size=shape) * 0.6).astype(np.float32))
    report = check_gradients(fn, x, eps=1e-3)
    assert report.max_rel_err < 1e-3, f"{op}: {report.max_rel_err}"


def _composed_attention(q, k, v, mask=None, scale=1.0):
    """The unfused chain the attention op replaces. Only its values are
    compared, so its products are numpy's."""
    scores = np.matmul(q.data, np.swapaxes(k.data, -1, -2)) * q.data.dtype.type(scale)
    return Tensor(np.matmul(softmax(Tensor(scores), axis=-1, mask=mask).data, v.data))


def _masks(s):
    r = _rng(31).random((s, s)) > 0.5
    r[:, 3] = True
    return {"none": None, "causal": np.tril(np.ones((s, s), dtype=bool)), "random": r}


class TestAttention:
    """Multi-tile cases of a (2, 7, 3) input set the tile budget to 3 rows
    of one (7, 7) float64 slice: each slice runs in row tiles of 3, 3 and 1
    rows. Lead-tile cases use (2, 2, 7, 3) inputs, four (batch, head)
    slices, in tiles of 3 and 1 whole slices or in row tiles of one slice."""

    S = 7
    THREE_ROWS = 3 * S * 8
    TILE_ELEMENTS = {"slices": 3 * S * S, "rows": 3 * S}  # budgets in weights, times the itemsize
    MARK = 7.25  # a q entry no normal draw hits

    @pytest.mark.parametrize("blocks", ["single", "multi"])
    @pytest.mark.parametrize("mask", ["none", "causal", "random"])
    def test_gradients_match_finite_differences(self, monkeypatch, blocks, mask):
        if blocks == "multi":
            monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", self.THREE_ROWS)
        m = _masks(self.S)[mask]
        c = t64(_rng(32).normal(size=(2, self.S, 3)))
        x = Tensor(_rng(33).normal(size=(3, 2, self.S, 3)), dtype=np.float64)
        report = check_gradients(lambda t: tensor_sum(mul(attend(t[0], t[1], t[2], mask=m), c)), x, eps=1e-5)
        assert report.max_rel_err < 1e-5, f"{blocks}/{mask}: {report.max_rel_err}"

    def test_fully_masked_row_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", self.THREE_ROWS)
        m = np.ones((self.S, self.S), dtype=bool)
        m[4] = False
        x = Tensor(np.ones((2, self.S, 3)))
        with pytest.raises(DegenerateMaskError):
            attend(x, x, x, mask=m)

    def _spike(self, monkeypatch, value):
        """The q row and the key-2 row whose score is `value`."""
        if value == "nan":
            matmul_ = np.matmul

            def nan_score(a, b, **kwargs):
                out = matmul_(a, b, **kwargs)
                if a.shape[-1] == 3 and b.shape[-1] == self.S:  # q @ k^T: q's marked row scores NaN on key 2
                    out[..., 2][a[..., 0] == self.MARK] = np.nan
                return out

            monkeypatch.setattr(np, "matmul", nan_score)
        return {
            "+inf": ([1e20, 0, 0], [1e20, 0, 0]),
            "-inf": ([-1e20, 0, 0], [1e20, 0, 0]),
            "nan": ([self.MARK, 0, 0], [1, 0, 0]),
        }[value]

    @pytest.mark.parametrize("value", ["+inf", "-inf", "nan"])
    @pytest.mark.parametrize("row", [4, 6])  # in the second and in the third row tile
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("tracked", [False, True])
    def test_non_finite_score_in_a_later_block(self, monkeypatch, value, row, masked, tracked):
        """One non-finite q.k score raises NumericalError, also under the mask
        and in a forward on a tape. +inf and -inf come from float32 overflow
        of 1e20-scale entries. A dot product of finite entries accumulated
        with fused multiply-adds never gives NaN (inf + finite = inf), so
        the NaN is written into the score block the op computes."""
        monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", 3 * self.S * 4)  # float32 row tiles of 3, 3, 1 rows
        q, k, v = (a.astype(np.float32) for a in _rng(36).normal(size=(3, 2, self.S, 3)))
        q[:, row], k[:, 2] = self._spike(monkeypatch, value)
        m = np.ones((self.S, self.S), dtype=bool)
        if masked:
            m[:, 2] = False
        q, k, v = (Tensor(a, requires_grad=tracked) for a in (q, k, v))
        with np.errstate(over="ignore"), Tape():
            with pytest.raises(NumericalError):
                attend(q, k, v, mask=m)
        others = [r for r in range(self.S) if r != row]
        assert np.all(np.isfinite(attend(*(Tensor(t.data[:, others]) for t in (q, k, v))).data))

    def test_masked_weights_exactly_zero_in_every_block(self, monkeypatch):
        monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", 3 * self.S * 4)
        m = _masks(self.S)["random"]
        q, k = (Tensor(a.astype(np.float32)) for a in _rng(37).normal(size=(2, 2, self.S, self.S)))
        v = Tensor(np.broadcast_to(np.eye(self.S, dtype=np.float32), (2, self.S, self.S)))
        w = attend(q, k, v, mask=m).data  # v = I: the output is the weights
        assert np.all(w[:, ~m] == 0.0) and np.all(w[:, m] > 0.0)
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("blocks", ["single", "multi"])
    @pytest.mark.parametrize("mask", ["none", "causal", "random"])
    def test_float32_matches_composed_ops(self, monkeypatch, blocks, mask):
        if blocks == "multi":
            monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", 5 * 12 * 4)  # row tiles of 5, 5, 2 rows
        m = _masks(12)[mask]
        q, k, v = (Tensor(a.astype(np.float32)) for a in _rng(35).normal(size=(3, 2, 2, 12, 8)))
        scale = 1.0 / np.sqrt(8)
        fused = attend(mul(q, scale), k, v, mask=m).data
        composed = _composed_attention(q, k, v, mask=m, scale=scale).data
        assert fused.dtype == np.float32
        assert np.max(np.abs(fused - composed)) < 1e-6

    def _lead_masks(self):
        lead = _rng(38).random((2, 1, self.S, self.S)) > 0.5
        lead[..., 3] = True
        return {"none": None, "causal": _masks(self.S)["causal"], "lead": lead}

    @pytest.mark.parametrize("layout", ["slices", "rows"])
    @pytest.mark.parametrize("mask", ["none", "causal", "lead"])
    def test_lead_tiles_gradients_match_finite_differences(self, monkeypatch, layout, mask):
        monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", self.TILE_ELEMENTS[layout] * 8)
        m = self._lead_masks()[mask]
        c = t64(_rng(39).normal(size=(2, 2, self.S, 3)))
        x = Tensor(_rng(40).normal(size=(3, 2, 2, self.S, 3)), dtype=np.float64)
        report = check_gradients(lambda t: tensor_sum(mul(attend(t[0], t[1], t[2], mask=m), c)), x, eps=1e-5)
        assert report.max_rel_err < 1e-5, f"{layout}/{mask}: {report.max_rel_err}"

    @pytest.mark.parametrize("layout", ["slices", "rows"])
    @pytest.mark.parametrize("mask", ["none", "causal", "lead"])
    def test_lead_tiles_float32_match_composed_ops(self, monkeypatch, layout, mask):
        monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", self.TILE_ELEMENTS[layout] * 4)
        m = self._lead_masks()[mask]
        q, k, v = (Tensor(a.astype(np.float32)) for a in _rng(41).normal(size=(3, 2, 2, self.S, 3)))
        fused = attend(q, k, v, mask=m).data
        composed = _composed_attention(q, k, v, mask=m).data
        assert np.max(np.abs(fused - composed)) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["single", "slices", "rows"])
    def test_tiles_are_sized_from_the_one_dtype(self, monkeypatch, dtype, layout):
        """The softmax calls show the tiles; the output keeps the dtype."""
        if layout != "single":
            monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", self.TILE_ELEMENTS[layout] * np.dtype(dtype).itemsize)
        shapes = []
        softmax_ = core.softmax

        def recording(x, *args, **kwargs):
            shapes.append(x.shape)
            return softmax_(x, *args, **kwargs)

        monkeypatch.setattr(core, "softmax", recording)
        x = Tensor(np.ones((2, 2, self.S, 3), dtype=dtype))
        assert attend(x, x, x).data.dtype == dtype
        assert shapes == {
            "single": [(4, 7, 7)],
            "slices": [(3, 7, 7), (1, 7, 7)],
            "rows": [(1, 3, 7), (1, 3, 7), (1, 1, 7)] * 4,
        }[layout]

    def test_fully_masked_row_in_a_later_slice_tile(self, monkeypatch):
        monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", self.S * self.S * 8)  # one slice per tile
        m = np.ones((2, 1, self.S, self.S), dtype=bool)
        m[1, 0, 4] = False  # row 4 of slices 2 and 3
        x = np.ones((2, 2, self.S, 3))
        with pytest.raises(DegenerateMaskError):
            attend(Tensor(x), Tensor(x), Tensor(x), mask=m)
        first = Tensor(x[:1])
        assert np.allclose(attend(first, first, first, mask=m[:1]).data, 1.0)

    @pytest.mark.parametrize("value", ["+inf", "-inf", "nan"])
    @pytest.mark.parametrize("tracked", [False, True])
    def test_non_finite_score_in_a_later_slice_tile(self, monkeypatch, value, tracked):
        """As in the row-tile case, with the score in slice 3, in the second
        float32 tile of two whole slices."""
        monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", 2 * self.S * self.S * 4)
        q, k, v = (a.astype(np.float32) for a in _rng(42).normal(size=(3, 2, 2, self.S, 3)))
        q[1, 1, 4], k[1, 1, 2] = self._spike(monkeypatch, value)
        tq, tk, tv = (Tensor(a, requires_grad=tracked) for a in (q, k, v))
        with np.errstate(over="ignore"), Tape():
            with pytest.raises(NumericalError):
                attend(tq, tk, tv)
        assert np.all(np.isfinite(attend(*(Tensor(a[0]) for a in (q, k, v))).data))

    @pytest.mark.parametrize("mask", ["none", "causal", "lead"])
    @pytest.mark.parametrize("layout", ["single", "rows"])
    def test_packed_gradients_match_finite_differences(self, monkeypatch, mask, layout):
        """Float64 gradients with respect to a packed (2, S, 3 x 2 x 3)
        input of two heads, taken from its own columns, under no mask, a
        causal mask and a per-batch (2, 1, S, S) mask, in one tile and in
        row tiles."""
        if layout == "rows":
            monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", self.TILE_ELEMENTS["rows"] * 8)
        m = self._lead_masks()[mask]
        c = t64(_rng(50).normal(size=(2, 2, self.S, 3)))
        x = Tensor(_rng(51).normal(size=(2, self.S, 18)), dtype=np.float64)
        report = check_gradients(lambda t: tensor_sum(mul(attention(t, 2, mask=m), c)), x, eps=1e-5)
        assert report.max_rel_err < 1e-5, f"{layout}/{mask}: {report.max_rel_err}"

    def test_packed_columns_are_q_then_k_then_v_by_head(self):
        """Head h of q, k and v is columns h dh .. (h + 1) dh of the q, k and
        v thirds of the packed input: the op gives the bits of per-head
        calls on those columns."""
        x = _rng(52).normal(size=(2, self.S, 18)).astype(np.float32)
        out = attention(Tensor(x), 2).data
        assert out.shape == (2, 2, self.S, 3)
        for h in range(2):
            cols = np.concatenate([np.arange(part * 6 + h * 3, part * 6 + h * 3 + 3) for part in range(3)])
            one = attention(Tensor(np.ascontiguousarray(x[..., cols])), 1).data
            assert one[:, 0].tobytes() == out[:, h].tobytes()

    def test_shape_errors(self):
        """A packed input of rank below 2, a last axis that is not a
        multiple of 3 n_heads, or no heads, is refused; a zero-width one
        gives zero-width heads."""
        for shape, n_heads in (((9,), 1), ((2, 4, 9), 2), ((2, 4, 10), 1), ((2, 4, 12), 0)):
            with pytest.raises(DimensionError, match="packed"):
                attention(Tensor(np.ones(shape)), n_heads)
        assert attention(Tensor(np.ones((2, 4, 0))), 2).shape == (2, 2, 4, 0)

    def test_no_tokens_is_a_dimension_error(self):
        x = Tensor(np.ones((2, 0, 3)))
        with pytest.raises(DimensionError):
            attend(x, x, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_batch_gives_empty_output_and_zero_gradients(self, dtype):
        q, k, v = (Tensor(np.ones((0, 4, 3), dtype=dtype), requires_grad=True) for _ in range(3))
        with Tape():
            out = attend(q, k, v)
            backward(tensor_sum(out))
        assert out.shape == (0, 4, 3) and out.data.dtype == dtype
        assert all(t.grad.shape == (0, 4, 3) and t.grad.dtype == dtype for t in (q, k, v))

    @pytest.mark.parametrize("layout", ["single", "slices", "rows"])
    def test_huge_orthogonal_rows_raise_nothing(self, monkeypatch, layout):
        """A q row and a k row of 1e19-scale float32 entries, |q| |k| near
        float32's max, are orthogonal, so every score is finite: the checks
        look at scores, not at |q| and |k|, and nothing raises."""
        if layout != "single":
            monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", self.TILE_ELEMENTS[layout] * 4)
        q, k, v = (a.astype(np.float32) for a in _rng(43).normal(size=(3, 2, 2, self.S, 3)))
        q[1, 0, 5], k[1, 0, 2] = [1e19, 0, 0], [0, 1e19, 0]
        q, k, v = Tensor(q), Tensor(k), Tensor(v)
        fused = attend(q, k, v).data
        assert np.max(np.abs(fused - _composed_attention(q, k, v).data)) < 1e-6

    @pytest.mark.parametrize("layout", ["slices", "rows"])
    def test_backward_calls_no_softmax(self, monkeypatch, layout):
        """Backward rebuilds a multi-tile call's weights from the forward's
        row statistics: the forward's softmax calls are all there are."""
        monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", self.TILE_ELEMENTS[layout] * 8)
        calls = []
        softmax_ = core.softmax

        def recording(*args, **kwargs):
            calls.append(1)
            return softmax_(*args, **kwargs)

        monkeypatch.setattr(core, "softmax", recording)
        x = Tensor(_rng(44).normal(size=(2, 2, self.S, 3)), dtype=np.float64, requires_grad=True)
        with Tape():
            out = attend(x, x, x)
            forward_calls = len(calls)
            backward(tensor_sum(out))
        assert forward_calls == {"slices": 2, "rows": 12}[layout]
        assert len(calls) == forward_calls


def _frozen_attention(q, k, v, mask, g):
    """The attention op as it stood before backward rebuilt weights from row
    statistics, frozen as numpy to be the oracle: the same
    tiles, a full softmax per tile in forward and again in backward.
    Returns the output and the q/k/v gradients for output gradient g."""
    lead, (s, dh) = q.shape[:-2], q.shape[-2:]
    n = int(np.prod(lead))
    qd, kd, vd = (a.reshape(n, s, dh) for a in (q, k, v))
    m = mask
    if m is not None and m.ndim > 2:
        m = np.broadcast_to(m, lead + m.shape[-2:])
        where = np.unravel_index(np.arange(n), lead)
    budget = core.ATTENTION_BLOCK_BYTES
    if s * s * qd.itemsize <= budget:
        step = budget // (s * s * qd.itemsize)
        tiles = [(i, min(i + step, n), 0, s) for i in range(0, n, step)]
    else:
        rows = max(1, budget // (s * qd.itemsize))
        tiles = [(i, i + 1, r, min(r + rows, s)) for i in range(n) for r in range(0, s, rows)]
    kt = np.swapaxes(kd, -1, -2)
    size = max((i1 - i0) * (r1 - r0) for i0, i1, r0, r1 in tiles) * s

    def block(buf, i0, i1, r0, r1):
        return buf[: (i1 - i0) * (r1 - r0) * s].reshape(i1 - i0, r1 - r0, s)

    def tile_mask(i0, i1, r0, r1):
        if m is None or m.ndim < 2:
            return m
        rows = slice(r0, r1) if m.shape[-2] == s else slice(None)
        return m[rows] if m.ndim == 2 else m[tuple(w[i0:i1] for w in where) + (rows,)]

    def weights(tile, buf):
        i0, i1, r0, r1 = tile
        xd = np.matmul(qd[i0:i1, r0:r1], kt[i0:i1], out=block(buf, *tile))
        tm = tile_mask(*tile)
        if tm is not None:
            z = np.where(np.broadcast_to(tm.astype(bool), xd.shape), xd, -np.inf)
            z -= z.max(axis=-1, keepdims=True)
        else:
            z = xd - xd.max(axis=-1, keepdims=True)
        p = np.exp(z, out=z)
        p /= p.sum(axis=-1, keepdims=True)
        return p

    buf = np.empty(size, dtype=qd.dtype)
    if len(tiles) == 1:
        kept = weights(tiles[0], buf)
        out = np.matmul(kept, vd)
    else:
        kept = None
        out = np.empty_like(qd)
        for i0, i1, r0, r1 in tiles:
            np.matmul(weights((i0, i1, r0, r1), buf), vd[i0:i1], out=out[i0:i1, r0:r1])
    g = g.reshape(n, s, dh)
    dq, dk, dv = np.empty_like(qd), np.zeros_like(kd), np.zeros_like(vd)
    vt = np.swapaxes(vd, -1, -2)
    buf = np.empty(size, dtype=qd.dtype)
    for tile in tiles:
        i0, i1, r0, r1 = tile
        p = kept if kept is not None else weights(tile, buf)
        gb = g[i0:i1, r0:r1]
        dv[i0:i1] += np.matmul(np.swapaxes(p, -1, -2), gb)
        ds = np.matmul(gb, vt[i0:i1], out=block(buf, *tile))
        ds -= (gb * out[i0:i1, r0:r1]).sum(axis=-1, keepdims=True)
        ds *= p
        np.matmul(ds, kd[i0:i1], out=dq[i0:i1, r0:r1])
        dk[i0:i1] += np.matmul(np.swapaxes(ds, -1, -2), qd[i0:i1, r0:r1])
    return tuple(a.reshape(q.shape) for a in (out, dq, dk, dv))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["single", "slices", "rows"])
@pytest.mark.parametrize("mask", ["none", "causal", "lead", "int"])
def test_attention_bit_identical_to_the_frozen_oracle(monkeypatch, dtype, layout, mask):
    """The output is bit-identical to the frozen op's in the one-tile,
    slice-tile and row-tile layouts of (2, 2, 7, 3) inputs. Backward builds
    its weights by another sum than the forward's, so the q/k/v gradients
    are not: each is within 2e-6 (float32) or 1e-14 (float64) of the
    oracle's largest |gradient|."""
    s = TestAttention.S
    if layout != "single":
        monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", TestAttention.TILE_ELEMENTS[layout] * np.dtype(dtype).itemsize)
    lead = _rng(46).random((2, 1, s, s)) > 0.5
    lead[..., 3] = True
    m = {"none": None, "causal": _masks(s)["causal"], "lead": lead, "int": lead.astype(np.int64)}[mask]
    q, k, v, c = (a.astype(dtype) for a in _rng(47).normal(size=(4, 2, 2, s, 3)))
    tq, tk, tv = (Tensor(a, requires_grad=True) for a in (q, k, v))
    with Tape():
        out = attend(tq, tk, tv, mask=m)
        backward(tensor_sum(mul(out, Tensor(c))))
    expected = _frozen_attention(q, k, v, m, c)
    got = (out.data, tq.grad, tk.grad, tv.grad)
    assert all(a.dtype == dtype for a in got)
    assert got[0].tobytes() == expected[0].tobytes()
    tol = {np.float32: 2e-6, np.float64: 1e-14}[dtype]
    for name, e, a in zip(("dq", "dk", "dv"), expected[1:], got[1:]):
        assert np.max(np.abs(a - e)) <= tol * np.max(np.abs(e)), name


def test_attention_memory_of_a_long_masked_sequence():
    """One float32 (32, 4, 706, 16) forward + backward under a (32, 1, 706,
    706) mask peaks under 96 MiB of traced allocations: its full weights
    would take 243 MiB, and broadcasting the mask to (32, 4, 706, 706)
    would take 61 MiB."""
    rng = _rng(45)
    q, k, v, c = (Tensor((rng.normal(size=(32, 4, 706, 16)) * 0.25).astype(np.float32)) for _ in range(4))
    m = rng.random((32, 1, 706, 706)) > 0.5
    m[..., 0] = True
    qkv = Tensor(pack_heads(q, k, v).data, requires_grad=True)
    del q, k, v
    tracemalloc.start()
    try:
        with Tape():
            backward(tensor_sum(mul(attention(qkv, 4, mask=m), c)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_one_tile_attention_holds_no_weights_until_backward():
    """A one-tile float32 (32, 4, 111, 16) call (ours3's fusion attention)
    holds less than its 6.0 MiB of weights between forward and backward:
    only the output and the row statistics (about 1 MiB)."""
    rng = _rng(48)
    q, k, v = (Tensor(rng.normal(size=(32, 4, 111, 16)).astype(np.float32)) for _ in range(3))
    qkv = Tensor(pack_heads(q, k, v).data, requires_grad=True)
    weight_bytes = 32 * 4 * 111 * 111 * 4
    assert weight_bytes <= core.ATTENTION_BLOCK_BYTES  # one tile
    with Tape():
        tracemalloc.start()
        try:
            out = attention(qkv, 4)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        backward(tensor_sum(out))
    assert held < weight_bytes, f"held {held / 2**20:.2f} MiB"


def test_packed_attention_holds_only_its_output_and_row_stats():
    """Between forward and backward a one-tile float32 (32, 111, 3 x 64)
    call holds its (32, 4, 111, 16) output and its two (128, 111, 1) row
    statistics, and no per-head q, k or v copy (0.9 MiB each)."""
    qkv = Tensor(_rng(53).normal(size=(32, 111, 192)).astype(np.float32), requires_grad=True)
    with Tape():
        tracemalloc.start()
        try:
            out = attention(qkv, 4)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        backward(tensor_sum(out))
    stats = 2 * 32 * 4 * 111 * 4
    assert held < out.data.nbytes + stats + (64 << 10), f"held {held / 2**20:.2f} MiB"
    assert qkv.grad.shape == qkv.shape


def test_attention_forward_frees_each_tiles_weights(monkeypatch):
    """A forward of four two-slice tiles peaks at the scores buffer and the
    output: each tile's softmax writes its weights over its scores, so no
    tile allocates weights of its own."""
    tile = 2 * 256 * 256 * 8
    monkeypatch.setattr(core, "ATTENTION_BLOCK_BYTES", tile)
    qkv = pack_heads(*(Tensor(a) for a in _rng(49).normal(size=(3, 8, 256, 2))))
    tracemalloc.start()
    try:
        attention(qkv, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * tile, f"peak {peak / tile:.2f} tiles"


class TestCheckGradients:
    def test_sum_sigmoid_tight(self):
        x = Tensor(_rng(1).normal(size=8), dtype=np.float64)
        report = check_gradients(lambda t: tensor_sum(sigmoid(t)), x, eps=1e-4)
        assert report.max_rel_err < 1e-6

    def test_linear_nearly_exact(self):
        w = t64(_rng(2).normal(size=(6, 1)))
        x = Tensor(_rng(3).normal(size=(2, 6)), dtype=np.float64)
        report = check_gradients(lambda t: tensor_sum(matmul(t, w)), x, eps=1e-4)
        assert report.max_rel_err < 1e-8

    def test_softmax_matmul_chain(self):
        b = t64(_rng(4).normal(size=(5, 4)))
        x = Tensor(_rng(5).normal(size=(3, 5)), dtype=np.float64)
        report = check_gradients(lambda t: tensor_sum(matmul(softmax(t, axis=-1), b)), x, eps=1e-4)
        assert report.max_rel_err < 1e-5

    def test_detects_nondeterminism(self):
        state = {"calls": 0}

        def flaky(t):
            state["calls"] += 1
            return tensor_sum(mul(t, float(state["calls"])))

        with pytest.raises(DeterminismError):
            check_gradients(flaky, Tensor(np.ones(3), dtype=np.float64))

    def test_eps_contract(self):
        with pytest.raises(ContractError):
            check_gradients(lambda t: tensor_sum(t), Tensor(np.ones(2), dtype=np.float64), eps=0.1)

    def test_subset_selection(self):
        x = Tensor(_rng(6).normal(size=(10, 10)), dtype=np.float64)
        report = check_gradients(lambda t: tensor_sum(mul(t, t)), x, max_elements=17)
        assert report.n_checked == 17


class TestDropout:
    def test_eval_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.5, np.random.default_rng(0), training=False) is x

    def test_training_scales_kept_entries(self):
        x = Tensor(np.ones((2000,)))
        out = dropout(x, 0.25, np.random.default_rng(0), training=True).data
        kept = out[out != 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(len(kept) / 2000 - 0.75) < 0.05

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_a_float_mask_product(self, dtype):
        """Output and gradient are x * keep * scale and g * keep * scale with
        a float keep mask from the same draw, byte for byte; dropped negative
        inputs give -0.0."""
        x = _rng(43).normal(size=(40, 30)).astype(dtype)
        c = _rng(44).normal(size=(40, 30)).astype(dtype)
        keep = (np.random.default_rng(7).random(x.shape) >= 0.3).astype(dtype)
        scale = np.asarray(1.0 / 0.7, dtype=dtype)[()]
        with Tape():
            t = Tensor(x, requires_grad=True)
            out = dropout(t, 0.3, np.random.default_rng(7), training=True)
            backward(tensor_sum(mul(out, Tensor(c))))
        assert out.data.tobytes() == (x * keep * scale).tobytes()
        assert t.grad.tobytes() == (c * keep * scale).tobytes()
        assert np.any(np.signbit(out.data) & (out.data == 0))

    def test_bad_rate(self):
        with pytest.raises(ContractError):
            dropout(Tensor(np.ones(2)), 1.0, np.random.default_rng(0), training=True)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = _rng(9)
        params = {
            "head.w": Tensor(rng.normal(size=(7,)).astype(np.float32)),
            "head.b": Tensor(np.zeros((), dtype=np.float32)),
            "enc.L0.attn.wq.w": Tensor(rng.normal(size=(4, 4)).astype(np.float32)),
        }
        meta = {"model": {"seed": 3, "channels": ["bbox"]}, "note": "\u00e4"}
        path = tmp_path / "m.itn"
        save_checkpoint(path, params, meta)
        loaded_meta, loaded = load_checkpoint(path)
        assert loaded_meta == meta
        assert list(loaded) == list(params)
        for name, p in params.items():
            assert loaded[name].shape == p.shape
            assert np.array_equal(loaded[name], p.data)
        # saving what was loaded reproduces the same bytes
        twin = tmp_path / "m2.itn"
        save_checkpoint(twin, loaded, loaded_meta)
        assert path.read_bytes() == twin.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.itn"
        save_checkpoint(path, {"ab": Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))}, {"k": [1, "x"]})
        raw = path.read_bytes()
        assert raw[:4] == b"ITN2"
        n = int.from_bytes(raw[4:8], "little")
        assert json.loads(raw[8 : 8 + n].decode("utf-8")) == {"k": [1, "x"]}
        body = raw[8 + n :]
        assert int.from_bytes(body[0:4], "little") == 1
        assert int.from_bytes(body[4:6], "little") == 2  # name length
        assert body[6:8] == b"ab"
        assert body[8] == 2  # rank
        assert int.from_bytes(body[9:13], "little") == 2
        assert int.from_bytes(body[13:17], "little") == 3
        assert np.array_equal(np.frombuffer(body[17:], dtype="<f4"), np.arange(6, dtype=np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.itn"
        for magic in (b"NOPE", b"ITN1"):  # ITN1 checkpoints carry no header and must be re-saved
            path.write_bytes(magic + b"\x00" * 8)
            with pytest.raises(CheckpointError, match="magic"):
                load_checkpoint(path)

    def test_no_meta_is_an_empty_header(self, tmp_path):
        path = tmp_path / "m.itn"
        save_checkpoint(path, {})
        assert path.read_bytes() == b"ITN2" + struct.pack("<I", 2) + b"{}" + struct.pack("<I", 0)
        assert load_checkpoint(path) == ({}, {})

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.itn"
        save_checkpoint(path, {"w": Tensor(np.ones(5, dtype=np.float32))}, {"model": {}})
        raw = path.read_bytes()
        for cut in (len(raw) - 3, 12, 6):  # in the payload, the header, the header length
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.itn"
        save_checkpoint(path, {"w": Tensor(np.ones(5, dtype=np.float32))})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [b"{not json", b"[1, 2]", b"3", b"\xff\xfe"], ids=["invalid", "array", "number", "not-utf8"])
    def test_header_not_a_json_object(self, tmp_path, header):
        path = tmp_path / "m.itn"
        path.write_bytes(b"ITN2" + struct.pack("<I", len(header)) + header + struct.pack("<I", 0))
        with pytest.raises(CheckpointError, match="header|UTF-8"):
            load_checkpoint(path)

    def test_entry_name_not_utf8(self, tmp_path):
        path = tmp_path / "m.itn"
        save_checkpoint(path, {"w": Tensor(np.ones(5, dtype=np.float32))})
        raw = bytearray(path.read_bytes())
        raw[len(b"ITN2") + 4 + len(b"{}") + 4 + 2] = 0xFF  # the name's first byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.itn"
        save_checkpoint(path, {"w": Tensor(np.ones(5, dtype=np.float32))})
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"w": Tensor(np.zeros(5, dtype=np.float32))}, {"model": {}})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.itn"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
    def test_written_file_has_the_mode_open_gives(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            write_atomic(tmp_path / "f", b"x")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "f").stat().st_mode) == mode
