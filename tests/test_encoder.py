"""Attention, encoder layers, causal masking."""

import gc
import tracemalloc

import numpy as np
import pytest

from oracles import unpacked_attention_sublayer

from pedintent.errors import ContractError, DegenerateMaskError
from pedintent.model import (
    EncoderConfig,
    attention_weights,
    causal_mask,
    encode,
    encoder_layer,
    init_encoder_params,
    multi_head_attention,
)
from pedintent.tensor import Tape, Tensor, backward, check_gradients, mul, tensor_sum


def make_params(cfg, seed=0, dtype=np.float32):
    params = {}
    init_encoder_params(params, "enc.", cfg, np.random.default_rng(seed))
    if dtype != np.float32:
        for p in params.values():
            p.data = p.data.astype(dtype)
    return params


CFG = EncoderConfig(n_layers=2, n_heads=4, d_model=16, dropout_rate=0.1)


class TestMultiHeadAttention:
    def test_identical_tokens_uniform_attention(self):
        params = make_params(CFG, seed=1)
        x = Tensor(np.tile(np.random.default_rng(2).normal(size=16).astype(np.float32), (5, 1)))
        out = multi_head_attention(x, params, "enc.L0.", CFG.n_heads)
        weights = attention_weights(x, params, "enc.L0.", CFG.n_heads)
        assert np.allclose(weights, 0.2, atol=1e-6)
        assert np.allclose(out.data, np.tile(out.data[0], (5, 1)), atol=1e-5)

    def test_single_position(self):
        params = make_params(CFG, seed=3)
        x = Tensor(np.random.default_rng(4).normal(size=(1, 16)).astype(np.float32))
        out = multi_head_attention(x, params, "enc.L0.", CFG.n_heads)
        weights = attention_weights(x, params, "enc.L0.", CFG.n_heads)
        assert weights.shape == (4, 1, 1)
        assert np.allclose(weights, 1.0)
        # output = OutProj(VProj(x))
        v = x.data @ params["enc.L0.attn.wv.w"].data + params["enc.L0.attn.wv.b"].data
        expected = v @ params["enc.L0.attn.wo.w"].data + params["enc.L0.attn.wo.b"].data
        assert np.allclose(out.data, expected, atol=1e-5)

    def test_causal_mask_zeroes_future(self):
        params = make_params(CFG, seed=5)
        x = Tensor(np.random.default_rng(6).normal(size=(3, 16)).astype(np.float32))
        weights = attention_weights(x, params, "enc.L0.", CFG.n_heads, mask=causal_mask(3))
        upper = np.triu_indices(3, k=1)
        assert np.all(weights[:, upper[0], upper[1]] == 0.0)
        assert np.allclose(weights[:, 0, 0], 1.0)

    def test_rows_are_distributions(self):
        params = make_params(CFG, seed=7)
        x = Tensor(np.random.default_rng(8).normal(size=(6, 16)).astype(np.float32))
        mask = np.random.default_rng(9).random((6, 6)) > 0.4
        mask[:, 0] = True
        weights = attention_weights(x, params, "enc.L0.", CFG.n_heads, mask=mask)
        assert np.all(weights >= 0)
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_fully_masked_row(self):
        params = make_params(CFG, seed=10)
        x = Tensor(np.zeros((2, 16), np.float32))
        with pytest.raises(DegenerateMaskError):
            multi_head_attention(x, params, "enc.L0.", CFG.n_heads, mask=np.array([[True, True], [False, False]]))


class TestEncoderLayer:
    def test_zeroed_output_projections_identity(self):
        params = make_params(CFG, seed=11)
        params["enc.L0.attn.wo.w"].data[:] = 0
        params["enc.L0.attn.wo.b"].data[:] = 0
        params["enc.L0.ffn.w2.w"].data[:] = 0
        params["enc.L0.ffn.w2.b"].data[:] = 0
        x = Tensor(np.random.default_rng(12).normal(size=(4, 16)).astype(np.float32))
        out = encoder_layer(x, params, "enc.L0.", CFG)
        assert np.array_equal(out.data, x.data)

    def test_eval_mode_bit_identical(self):
        params = make_params(CFG, seed=13)
        x = Tensor(np.random.default_rng(14).normal(size=(4, 16)).astype(np.float32))
        a = encoder_layer(x, params, "enc.L0.", CFG).data
        b = encoder_layer(x, params, "enc.L0.", CFG).data
        assert np.array_equal(a, b)

    def test_training_mode_gradients_with_frozen_dropout(self):
        cfg = EncoderConfig(n_layers=1, n_heads=2, d_model=8, dropout_rate=0.2)
        params = make_params(cfg, seed=15, dtype=np.float64)

        def f(x):
            return tensor_sum(
                encoder_layer(x, params, "enc.L0.", cfg, training=True, rng=np.random.default_rng(99))
            )

        x = Tensor(np.random.default_rng(16).normal(size=(3, 8)), dtype=np.float64)
        report = check_gradients(f, x, eps=1e-5)
        assert report.max_rel_err < 1e-3

    def test_training_without_rng_rejected(self):
        params = make_params(CFG, seed=17)
        x = Tensor(np.zeros((2, 16), np.float32))
        with pytest.raises(ContractError):
            encoder_layer(x, params, "enc.L0.", CFG, training=True)


    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_packed_sublayer_matches_the_unpacked_oracle(self, dtype, masked):
        """One packed q/k/v product with the scale folded into the query
        weights gives the bytes of the frozen unpacked sublayer (dh = 16, a
        power-of-two scale); every parameter's and the input's gradient is
        within 1e-6 of the oracle's largest |gradient|, since the input's
        gradient is one product over 3 d columns instead of three summed."""
        cfg = EncoderConfig(n_layers=1, n_heads=4, d_model=64)
        rng = np.random.default_rng(31)
        x_data, c_data = rng.normal(size=(2, 3, 9, 64)).astype(dtype)
        # non-zero biases, so that folding the scale into bq shows
        biases = {key: rng.normal(size=p.shape).astype(dtype) for key, p in make_params(cfg).items() if key.endswith(".b")}
        mask = causal_mask(9) if masked else None
        runs = []
        for sublayer in (multi_head_attention, unpacked_attention_sublayer):
            params = make_params(cfg, seed=32, dtype=dtype)
            for key, values in biases.items():
                params[key].data = values.copy()
            x = Tensor(x_data, requires_grad=True)
            with Tape():
                out = sublayer(x, params, "enc.L0.", cfg.n_heads, mask=mask)
                backward(tensor_sum(mul(out, Tensor(c_data))))
            grads = {key: p.grad for key, p in params.items() if ".attn." in key}
            runs.append((out.data, {**grads, "x": x.grad}))
        (got, got_grads), (expected, expected_grads) = runs
        assert got.dtype == dtype and got.tobytes() == expected.tobytes()
        assert got_grads.keys() == expected_grads.keys()
        for key, e in expected_grads.items():
            assert np.max(np.abs(got_grads[key] - e)) <= 1e-6 * np.max(np.abs(e)), key

    def test_training_layer_holds_under_20_inputs_after_its_forward(self):
        """A training-mode float32 layer on a (8, 100, 64) input holds at
        most 20 times the input's bytes when its forward ends: the packed
        q/k/v product, one biased product per projection and the attention
        op's own heads keep no bare product or per-head copy alive, the
        tape keeps no Tensor and gelu keeps its derivative, not its input."""
        cfg = EncoderConfig(n_layers=1, n_heads=4, d_model=64, dropout_rate=0.1)
        params = make_params(cfg, seed=33)
        x = Tensor(np.random.default_rng(34).normal(size=(8, 100, 64)).astype(np.float32), requires_grad=True)
        rng = np.random.default_rng(35)
        with Tape():
            tracemalloc.start()
            try:
                out = encoder_layer(x, params, "enc.L0.", cfg, training=True, rng=rng)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            backward(tensor_sum(out))
        assert held <= 20 * x.data.nbytes, f"held {held / x.data.nbytes:.1f} inputs"

    def test_unreplayed_tape_is_freed_by_reference_counting(self):
        """With the cycle collector off, dropping the output of a
        training-mode layer whose tape never ran backward, as when a step
        raises partway through its forward, frees its activations: less
        than one input's bytes stay allocated."""
        cfg = EncoderConfig(n_layers=1, n_heads=4, d_model=64, dropout_rate=0.1)
        params = make_params(cfg, seed=36)
        x = Tensor(np.random.default_rng(37).normal(size=(8, 100, 64)).astype(np.float32), requires_grad=True)
        rng = np.random.default_rng(38)
        with Tape():
            backward(tensor_sum(encoder_layer(x, params, "enc.L0.", cfg, training=True, rng=rng)))
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with Tape():
                out = encoder_layer(x, params, "enc.L0.", cfg, training=True, rng=rng)
            del out
            left = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < x.data.nbytes, f"left {left / x.data.nbytes:.2f} inputs"


class TestEncode:
    def test_zero_layers_identity(self):
        cfg = EncoderConfig(n_layers=0, n_heads=2, d_model=8)
        x = Tensor(np.random.default_rng(18).normal(size=(5, 8)).astype(np.float32))
        assert encode(x, cfg, {}) is x

    def test_shape_preserved(self):
        cfg = EncoderConfig(n_layers=2, n_heads=4, d_model=32)
        params = make_params(cfg, seed=19)
        x = Tensor(np.random.default_rng(20).normal(size=(15, 32)).astype(np.float32))
        assert encode(x, cfg, params, "enc.").shape == (15, 32)

    def test_batched_matches_per_sample(self):
        params = make_params(CFG, seed=21)
        rng = np.random.default_rng(22)
        batch = rng.normal(size=(3, 5, 16)).astype(np.float32)
        full = encode(Tensor(batch), CFG, params, "enc.").data
        for i in range(3):
            single = encode(Tensor(batch[i]), CFG, params, "enc.").data
            assert np.allclose(full[i], single, atol=1e-5)

    def test_permutation_equivariance_without_pe(self):
        params = make_params(CFG, seed=23)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(7, 16)).astype(np.float32)
        perm = rng.permutation(7)
        base = encode(Tensor(x), CFG, params, "enc.").data
        shuffled = encode(Tensor(x[perm]), CFG, params, "enc.").data
        assert np.allclose(shuffled, base[perm], atol=1e-5)

    def test_gradients_match_finite_differences(self):
        cfg = EncoderConfig(n_layers=1, n_heads=2, d_model=8, dropout_rate=0.0)
        params = make_params(cfg, seed=25, dtype=np.float64)
        x = Tensor(np.random.default_rng(26).normal(size=(4, 8)), dtype=np.float64)
        report = check_gradients(lambda t: tensor_sum(encode(t, cfg, params, "enc.")), x, eps=1e-5)
        assert report.max_rel_err < 1e-5

    def test_parameter_gradients_flow(self):
        cfg = EncoderConfig(n_layers=1, n_heads=2, d_model=8, dropout_rate=0.0)
        params = make_params(cfg, seed=27)
        x = Tensor(np.random.default_rng(28).normal(size=(4, 8)).astype(np.float32))
        with Tape():
            out = encode(x, cfg, params, "enc.")
            backward(tensor_sum(out))
        assert all(p.grad is not None for p in params.values())
        assert any(np.abs(p.grad).sum() > 0 for p in params.values())


class TestCausalMask:
    def test_lower_triangle(self):
        m = causal_mask(3)
        assert m.tolist() == [[True, False, False], [True, True, False], [True, True, True]]

    def test_row_sums(self):
        assert causal_mask(6).sum(axis=1).tolist() == [1, 2, 3, 4, 5, 6]

    def test_future_perturbation_invariance(self):
        cfg = EncoderConfig(n_layers=2, n_heads=4, d_model=16, dropout_rate=0.0)
        params = make_params(cfg, seed=29)
        rng = np.random.default_rng(30)
        x = rng.normal(size=(8, 16)).astype(np.float32)
        t = 3
        perturbed = x.copy()
        perturbed[t + 1 :] += rng.normal(size=(8 - t - 1, 16)).astype(np.float32) * 5
        base = encode(Tensor(x), cfg, params, "enc.", mask=causal_mask(8)).data
        moved = encode(Tensor(perturbed), cfg, params, "enc.", mask=causal_mask(8)).data
        assert np.max(np.abs(base[: t + 1] - moved[: t + 1])) < 1e-6
        assert np.max(np.abs(base[t + 1 :] - moved[t + 1 :])) > 1e-3
