"""Video encoders: joint spatio-temporal and factorised variants."""

import numpy as np
import pytest

from pedintent.errors import ConfigError
from pedintent.model import (
    EncoderConfig,
    TubeletConfig,
    ViViTConfig,
    attention_weights,
    encode,
    init_vivit_params,
    positional_encoding,
    tubelet_embed,
    tubelet_patches,
    vivit_factorised,
    vivit_forward,
    vivit_spatiotemporal,
)
from pedintent.tensor import Tensor, check_gradients, tensor_sum


def make_cfg(variant, d=16, t_patch=2, hw_patch=4, spatial_layers=1, temporal_layers=1, dropout=0.0):
    return ViViTConfig(
        variant=variant,
        tubelet=TubeletConfig(t_patch, hw_patch, hw_patch, d),
        spatial=EncoderConfig(spatial_layers, 2, d, dropout_rate=dropout),
        temporal=EncoderConfig(temporal_layers, 2, d, dropout_rate=dropout) if variant == "factorised" else None,
    )


def make_params(cfg, seed=0, dtype=np.float32):
    params = {}
    init_vivit_params(params, "vv.", cfg, np.random.default_rng(seed))
    if dtype != np.float32:
        for p in params.values():
            p.data = p.data.astype(dtype)
    return params


def patches(clip, cfg, dtype=np.float32):
    """The tubelet patches of one raw (T, H, W, 3) clip, or of each clip of
    a (B, T, H, W, 3) batch."""
    clips = [clip] if clip.ndim == 4 else clip
    out = tubelet_patches(clips, cfg.tubelet, dtype)
    return Tensor(out[0] if clip.ndim == 4 else out)


def tokens_of(clip, cfg, params):
    return tubelet_embed(patches(clip, cfg), params["vv.tubelet.w"], params["vv.tubelet.b"])


class TestShapes:
    def test_spatiotemporal_token_count(self):
        cfg = ViViTConfig(
            variant="spatiotemporal",
            tubelet=TubeletConfig(2, 16, 16, 64),
            spatial=EncoderConfig(1, 4, 64),
        )
        params = make_params(cfg, seed=1)
        clip = np.random.default_rng(2).random((8, 112, 112, 3)).astype(np.float32)
        assert vivit_spatiotemporal(tokens_of(clip, cfg, params), cfg, params, "vv.").shape == (196, 64)

    def test_factorised_slice_count(self):
        cfg = make_cfg("factorised")
        params = make_params(cfg, seed=3)
        clip = np.random.default_rng(4).random((8, 8, 8, 3)).astype(np.float32)
        assert vivit_factorised(tokens_of(clip, cfg, params), cfg, params, "vv.").shape == (4, 16)

    @pytest.mark.parametrize(
        "t,h,w,tp,hp,wp",
        [(4, 8, 8, 2, 4, 4), (6, 8, 16, 3, 8, 8), (2, 4, 4, 1, 2, 2), (8, 16, 8, 2, 4, 8)],
    )
    def test_token_count_formula_grid(self, t, h, w, tp, hp, wp):
        cfg = ViViTConfig(
            variant="spatiotemporal",
            tubelet=TubeletConfig(tp, hp, wp, 8),
            spatial=EncoderConfig(1, 2, 8, dropout_rate=0.0),
        )
        params = make_params(cfg, seed=5)
        clip = np.random.default_rng(6).random((t, h, w, 3)).astype(np.float32)
        expected = (t // tp) * (h // hp) * (w // wp)
        assert vivit_forward(patches(clip, cfg), cfg, params, "vv.").shape == (expected, 8)

    def test_batched_shapes(self):
        cfg = make_cfg("factorised")
        params = make_params(cfg, seed=7)
        clip = np.random.default_rng(8).random((5, 4, 8, 8, 3)).astype(np.float32)
        assert vivit_forward(patches(clip, cfg), cfg, params, "vv.").shape == (5, 2, 16)


class TestFactorisedSemantics:
    def test_spatially_constant_clip_fixed_point(self):
        """All spatial tokens of a slice equal -> pooled slice vector equals
        any single token's encoding (uniform-attention fixed point)."""
        cfg = make_cfg("factorised", d=16, t_patch=2, hw_patch=4, temporal_layers=0)
        params = make_params(cfg, seed=9)
        rng = np.random.default_rng(10)
        # constant over space within each frame, varying over time
        frames = rng.random((4, 1, 1, 3)).astype(np.float32)
        clip = np.broadcast_to(frames, (4, 8, 8, 3)).copy()
        out = vivit_forward(patches(clip, cfg), cfg, params, "vv.")
        # recompute one slice with a single spatial token: tubelet on a one-patch clip
        tokens = tokens_of(clip[:, :4, :4], cfg, params)  # (2, 1, 16)
        single = encode(tokens, cfg.spatial, params, "vv.spatial.").data.reshape(2, 16)
        expected = single + positional_encoding(2, 16)
        assert np.allclose(out.data, expected, atol=1e-5)

    def test_temporal_zero_layers_is_pooled_plus_pe(self):
        cfg = make_cfg("factorised", temporal_layers=0)
        params = make_params(cfg, seed=11)
        clip = np.random.default_rng(12).random((4, 8, 8, 3)).astype(np.float32)
        out = vivit_forward(patches(clip, cfg), cfg, params, "vv.")
        tokens = tokens_of(clip, cfg, params)  # (2, 4, 16)
        pooled = encode(tokens, cfg.spatial, params, "vv.spatial.").data.mean(axis=1)
        assert np.allclose(out.data, pooled + positional_encoding(2, 16), atol=1e-6)

    def test_attention_matrices_scale_with_spatial_tokens_only(self):
        """Factorised spatial attention is (slices, heads, N_sp, N_sp), not
        (heads, T*N_sp, T*N_sp)."""
        cfg = make_cfg("factorised")
        params = make_params(cfg, seed=13)
        clip = np.random.default_rng(14).random((8, 8, 8, 3)).astype(np.float32)
        tokens = tokens_of(clip, cfg, params)  # (4, 4, 16)
        weights = attention_weights(tokens, params, "vv.spatial.L0.", cfg.spatial.n_heads)
        assert weights.shape == (4, 2, 4, 4)  # slices x heads x N_sp x N_sp
        joint = ViViTConfig(
            variant="spatiotemporal", tubelet=cfg.tubelet, spatial=EncoderConfig(1, 2, 16, dropout_rate=0.0)
        )
        jparams = make_params(joint, seed=13)
        jweights = attention_weights(Tensor(tokens.data.reshape(16, 16)), jparams, "vv.spatial.L0.", 2)
        assert jweights.shape == (2, 16, 16)  # heads x (T*N_sp) x (T*N_sp)


class TestGradients:
    @pytest.mark.parametrize("variant", ["spatiotemporal", "factorised"])
    def test_end_to_end_gradients(self, variant):
        cfg = make_cfg(variant, d=8, t_patch=2, hw_patch=16)
        params = make_params(cfg, seed=15, dtype=np.float64)

        def f(clip):
            return tensor_sum(vivit_forward(clip, cfg, params, "vv."))

        clip = patches(np.random.default_rng(16).random((4, 32, 32, 3)), cfg, np.float64)
        report = check_gradients(f, clip, eps=1e-5, max_elements=120)
        assert report.max_rel_err < 1e-5

    def test_joint_attention_couples_tokens(self):
        cfg = make_cfg("spatiotemporal", d=8, t_patch=2, hw_patch=4)
        params = make_params(cfg, seed=17)
        rng = np.random.default_rng(18)
        clip = rng.random((4, 8, 8, 3)).astype(np.float32)
        altered = clip.copy()
        altered[2:] = rng.random((2, 8, 8, 3)).astype(np.float32)
        a = vivit_forward(patches(clip, cfg), cfg, params, "vv.").data
        b = vivit_forward(patches(altered, cfg), cfg, params, "vv.").data
        # tokens from the unchanged first tubelet still differ via attention
        assert np.abs(a[:4] - b[:4]).max() > 1e-6


class TestConfigValidation:
    def test_d_model_consistency(self):
        with pytest.raises(ConfigError):
            ViViTConfig(
                variant="spatiotemporal",
                tubelet=TubeletConfig(2, 4, 4, 16),
                spatial=EncoderConfig(1, 2, 8),
            )

    def test_factorised_needs_temporal(self):
        with pytest.raises(ConfigError):
            ViViTConfig(
                variant="factorised",
                tubelet=TubeletConfig(2, 4, 4, 16),
                spatial=EncoderConfig(1, 2, 16),
            )

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ViViTConfig(
                variant="holographic",
                tubelet=TubeletConfig(2, 4, 4, 16),
                spatial=EncoderConfig(1, 2, 16),
            )
