"""Fusion strategies, sigmoid head, frozen ensemble."""

import numpy as np
import pytest

from pedintent.errors import ConfigError, ContractError
from pedintent.model import EncoderConfig, FusionConfig, ensemble_predict, fuse, head, init_fusion_params
from pedintent.tensor import Tape, Tensor, backward, tensor_sum

from oracles import recorded_ops


def make_params(cfg, d_model, n_branches, seed=0):
    params = {}
    width = init_fusion_params(params, cfg, d_model, n_branches, np.random.default_rng(seed))
    return params, width


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


class TestGap:
    def test_mean_of_single_token_branches(self):
        cfg = FusionConfig("gap")
        params, width = make_params(cfg, 2, 2)
        out = fuse([Tensor([[2.0, 4.0]]), Tensor([[4.0, 8.0]])], cfg, params)
        assert out.data.tolist() == [3.0, 6.0]
        assert width == 2

    def test_token_permutation_invariant(self):
        cfg = FusionConfig("gap")
        params, _ = make_params(cfg, 5, 2)
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 5)).astype(np.float32), rng.normal(size=(4, 5)).astype(np.float32)
        base = fuse([Tensor(a), Tensor(b)], cfg, params).data
        shuffled = fuse([Tensor(b[::-1].copy()), Tensor(a[::-1].copy())], cfg, params).data
        assert np.allclose(base, shuffled, atol=1e-6)


class TestConcatFFN:
    def test_identity_ffn_returns_pooled_concat(self):
        cfg = FusionConfig("concat_ffn")
        params, width = make_params(cfg, 2, 2)
        assert width == 4
        for name in ("fusion.ffn.w1", "fusion.ffn.w2"):
            params[f"{name}.w"].data = np.eye(4, dtype=np.float32)
            params[f"{name}.b"].data[:] = 0
        # nonnegative pooled values pass through the ReLU unchanged
        out = fuse([Tensor([[2.0, 4.0]]), Tensor([[4.0, 8.0]])], cfg, params)
        assert out.data.tolist() == [2.0, 4.0, 4.0, 8.0]

    def test_batched(self):
        cfg = FusionConfig("concat_ffn")
        params, width = make_params(cfg, 3, 1)
        tokens = Tensor(np.random.default_rng(2).normal(size=(4, 5, 3)).astype(np.float32))
        assert fuse([tokens], cfg, params).shape == (4, 3)

    def test_records_no_reshape(self):
        """The FFN multiplies the pooled (B, K) rows by each weight directly."""
        cfg = FusionConfig("concat_ffn")
        params, _ = make_params(cfg, 3, 2)
        rng = np.random.default_rng(3)
        branches = [Tensor(rng.normal(size=(4, 5, 3)).astype(np.float32)) for _ in range(2)]
        with Tape() as tape:
            fuse(branches, cfg, params)
        ops = recorded_ops(tape)
        assert "reshape" not in ops and ops.count("matmul") == 2


class TestTransformerFusion:
    def test_concatenates_tokens_then_pools(self):
        enc = EncoderConfig(n_layers=0, n_heads=2, d_model=4, dropout_rate=0.0)
        cfg = FusionConfig("transformer", encoder=enc)
        params, width = make_params(cfg, 4, 2)
        a = Tensor(np.ones((2, 4), np.float32))
        b = Tensor(np.full((3, 4), 6.0, np.float32))
        out = fuse([a, b], cfg, params)
        # 0 layers -> mean over the 5 concatenated tokens
        assert np.allclose(out.data, (2 * 1.0 + 3 * 6.0) / 5)

    def test_with_layers_runs(self):
        enc = EncoderConfig(n_layers=1, n_heads=2, d_model=8, dropout_rate=0.0)
        cfg = FusionConfig("transformer", encoder=enc)
        params, width = make_params(cfg, 8, 2)
        a = Tensor(np.random.default_rng(3).normal(size=(3, 8)).astype(np.float32))
        b = Tensor(np.random.default_rng(4).normal(size=(2, 8)).astype(np.float32))
        assert fuse([a, b], cfg, params).shape == (8,)


class TestRecurrentFusion:
    def test_zero_weights_single_step_gives_zero_state(self):
        """Gates at sigmoid(0)=0.5, candidate tanh(0)=0: h1 = 0.5*tanh(0.5*0) = 0."""
        cfg = FusionConfig("recurrent")
        params, width = make_params(cfg, 4, 1)
        for name, p in params.items():
            p.data[:] = 0
        out = fuse([Tensor(np.random.default_rng(5).normal(size=(1, 4)).astype(np.float32))], cfg, params)
        assert np.array_equal(out.data, np.zeros(4, np.float32))

    def test_final_state_depends_on_sequence(self):
        cfg = FusionConfig("recurrent")
        params, _ = make_params(cfg, 4, 1, seed=6)
        rng = np.random.default_rng(7)
        tokens = rng.normal(size=(5, 4)).astype(np.float32)
        a = fuse([Tensor(tokens)], cfg, params).data
        b = fuse([Tensor(tokens[::-1].copy())], cfg, params).data
        assert not np.allclose(a, b)

    def test_batched(self):
        cfg = FusionConfig("recurrent")
        params, _ = make_params(cfg, 4, 2, seed=8)
        a = Tensor(np.random.default_rng(9).normal(size=(3, 2, 4)).astype(np.float32))
        b = Tensor(np.random.default_rng(10).normal(size=(3, 2, 4)).astype(np.float32))
        assert fuse([a, b], cfg, params).shape == (3, 4)


class TestHead:
    def test_zero_weights_give_half(self):
        out = head(Tensor(np.array([3.0, -2.0], np.float32)), Tensor(np.zeros(2, np.float32)), Tensor(np.zeros(())))
        assert float(out.data) == 0.5

    def test_monotone_in_bias(self):
        f = Tensor(np.array([1.0, 2.0], np.float32))
        w = Tensor(np.array([0.5, -0.25], np.float32))
        probs = [float(head(f, w, Tensor(np.array(b, np.float32))).data) for b in (-5.0, 0.0, 5.0)]
        assert probs[0] < probs[1] < probs[2]
        assert probs[1] == 0.5  # 0.5*1 - 0.25*2 = 0

    def test_output_strictly_inside_unit_interval(self):
        # moderate logits: beyond |z| ~ 16 float32 rounds the sigmoid to 0/1
        rng = np.random.default_rng(11)
        f = Tensor(rng.normal(size=(50, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=6).astype(np.float32))
        out = head(f, w, Tensor(np.zeros(()))).data
        assert out.shape == (50,)
        assert np.all(out > 0) and np.all(out < 1)

    def test_width_mismatch(self):
        with pytest.raises(ConfigError):
            head(Tensor(np.zeros(3, np.float32)), Tensor(np.zeros(2, np.float32)), Tensor(np.zeros(())))

    def test_records_matmul_add_sigmoid(self):
        rng = np.random.default_rng(12)
        f = Tensor(rng.normal(size=(5, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros((), np.float32), requires_grad=True)
        with Tape() as tape:
            out = head(f, w, b)
        assert out.shape == (5,)
        assert recorded_ops(tape) == ["matmul", "add", "sigmoid"]


class TestEnsemble:
    def test_hand_evaluated_probability(self):
        out = ensemble_predict(
            [0.8, 0.6, 0.7],
            Tensor(np.ones(3, np.float32)),
            Tensor(np.array(-1.5, np.float32)),
        )
        assert abs(float(out.data) - sigmoid(0.6)) < 1e-6
        assert abs(float(out.data) - 0.64566) < 1e-4

    def test_single_member_passthrough_at_logit_zero(self):
        out = ensemble_predict([0.5, 0.9, 0.1], Tensor(np.array([1.0, 0.0, 0.0], np.float32)), Tensor(np.array(-0.5, np.float32)))
        assert float(out.data) == 0.5  # sigma(1*0.5 - 0.5)

    def test_strictly_increasing_in_members(self):
        w = Tensor(np.array([1.0, 0.5, 2.0], np.float32))
        b = Tensor(np.zeros(()))
        base = float(ensemble_predict([0.3, 0.5, 0.7], w, b).data)
        for i in range(3):
            probs = [0.3, 0.5, 0.7]
            probs[i] += 0.1
            assert float(ensemble_predict(probs, w, b).data) > base

    def test_arity_fixed_at_three(self):
        with pytest.raises(ConfigError):
            ensemble_predict([0.5, 0.5], Tensor(np.zeros(2, np.float32)), Tensor(np.zeros(())))

    def test_member_probs_receive_no_gradient(self):
        """Members are frozen: their probabilities enter as constants, so the
        tape has no edges into member parameters."""
        w = Tensor(np.ones(3, np.float32), requires_grad=True)
        b = Tensor(np.zeros(()), requires_grad=True)
        member_probs = Tensor(np.array([0.2, 0.4, 0.9], np.float32))  # no grad tracking
        with Tape():
            out = ensemble_predict(member_probs, w, b)
            backward(tensor_sum(out))
        assert member_probs.grad is None
        assert w.grad is not None and b.grad is not None


class TestFuseContract:
    def test_empty_branch_list(self):
        cfg = FusionConfig("gap")
        with pytest.raises(ContractError):
            fuse([], cfg, {})

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            FusionConfig("majority_vote")

    def test_transformer_needs_encoder(self):
        with pytest.raises(ConfigError):
            FusionConfig("transformer")
