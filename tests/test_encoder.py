"""Attention, encoder layers, causal masking."""

import numpy as np
import pytest

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
from pedintent.tensor import Tape, Tensor, backward, check_gradients, tensor_sum


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
