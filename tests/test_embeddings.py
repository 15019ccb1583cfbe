"""Position codes, tubelet embedding, feature tokenizer."""

import numpy as np
import pytest

from pedintent.errors import ConfigError, DimensionError
from pedintent.model import TubeletConfig, feature_tokenize, positional_encoding, tubelet_embed, tubelet_patches
from pedintent.tensor import Tape, Tensor, backward, mul, tensor_sum

from oracles import frozen_tubelet_tokens, recorded_ops


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = positional_encoding(4, 8)
        assert np.array_equal(pe[0, 0::2], np.zeros(4, np.float32))
        assert np.array_equal(pe[0, 1::2], np.ones(4, np.float32))

    def test_position_one_d4(self):
        pe = positional_encoding(2, 4, dtype=np.float64)
        expected = [np.sin(1.0), np.cos(1.0), np.sin(0.01), np.cos(0.01)]
        assert np.allclose(pe[1], expected, atol=1e-5)
        assert np.allclose(pe[1], [0.84147, 0.54030, 0.01000, 0.99995], atol=1e-5)

    def test_range(self):
        pe = positional_encoding(300, 32)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_rows_pairwise_distinct(self):
        pe = positional_encoding(10000, 16, dtype=np.float64)
        assert len(np.unique(pe, axis=0)) == 10000

    def test_odd_d_model(self):
        with pytest.raises(ConfigError):
            positional_encoding(4, 7)


def _tub_params(cfg, rng, dtype=np.float32):
    w = Tensor(rng.normal(size=(cfg.flat_size, cfg.d_model)).astype(dtype))
    b = Tensor(rng.normal(size=cfg.d_model).astype(dtype))
    return w, b


def _embed(clip, cfg, w, b, dtype=np.float32):
    """Tokens (T/t, H/h · W/w, d) of one raw (T, H, W, 3) clip."""
    return tubelet_embed(Tensor(tubelet_patches([clip], cfg, dtype)[0]), w, b)


class TestTubeletEmbed:
    def test_token_count(self):
        cfg = TubeletConfig(2, 16, 16, 64)
        w, b = _tub_params(cfg, np.random.default_rng(0))
        assert _embed(np.zeros((8, 112, 112, 3), np.float32), cfg, w, b).shape == (4, 7 * 7, 64)

    def test_zero_clip_zero_bias(self):
        cfg = TubeletConfig(2, 4, 4, 8)
        w, _ = _tub_params(cfg, np.random.default_rng(1))
        b = Tensor(np.zeros(8, np.float32))
        out = _embed(np.zeros((4, 8, 8, 3), np.float32), cfg, w, b).data
        assert np.array_equal(out, np.zeros((2, 4, 8), np.float32))

    def test_identity_projection_single_patch(self):
        cfg = TubeletConfig(2, 2, 2, 24)  # flat size = 2*2*2*3 = 24
        rng = np.random.default_rng(2)
        clip_arr = rng.random((2, 2, 2, 3)).astype(np.float32)
        w = Tensor(np.eye(24, dtype=np.float32))
        b = Tensor(np.zeros(24, np.float32))
        out = _embed(clip_arr, cfg, w, b)
        assert np.array_equal(out.data[0, 0], clip_arr.reshape(-1))

    def test_linearity(self):
        cfg = TubeletConfig(2, 4, 4, 6)
        rng = np.random.default_rng(3)
        w, _ = _tub_params(cfg, rng, np.float64)
        b = Tensor(np.zeros(6, np.float64))
        a = rng.random((4, 8, 8, 3))
        c = rng.random((4, 8, 8, 3))
        lhs = _embed(2.0 * a + 3.0 * c, cfg, w, b, np.float64).data
        rhs = 2.0 * _embed(a, cfg, w, b, np.float64).data + 3.0 * _embed(c, cfg, w, b, np.float64).data
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_token_order_time_major(self):
        # mark one tubelet; only the matching token moves when tubelets swap
        cfg = TubeletConfig(1, 2, 2, 12)
        clip = np.zeros((2, 2, 4, 3), np.float32)  # 2 time x 1 row x 2 col tubelets
        clip[1, :, 2:, :] = 1.0  # time slice 1, column block 1 -> token index 3
        w = Tensor(np.eye(12, dtype=np.float32))
        b = Tensor(np.zeros(12, np.float32))
        out = _embed(clip, cfg, w, b).data.reshape(-1, 12)
        nonzero = np.flatnonzero(out.any(axis=1))
        assert nonzero.tolist() == [3]

    def test_permuting_whole_tubelets_permutes_tokens(self):
        cfg = TubeletConfig(2, 4, 4, 6)
        rng = np.random.default_rng(4)
        w, b = _tub_params(cfg, rng)
        clip = rng.random((4, 4, 8, 3)).astype(np.float32)  # 2 time x 1 row x 2 col
        swapped = clip[[2, 3, 0, 1]]  # swap the two temporal tubelets
        base = _embed(clip, cfg, w, b).data
        perm = _embed(swapped, cfg, w, b).data
        assert np.array_equal(perm, base[[1, 0]])

    def test_indivisible_dims(self):
        cfg = TubeletConfig(2, 16, 16, 8)
        with pytest.raises(DimensionError, match=r"^clip dims \(5,32,32\) not divisible by tubelet \(2,16,16\)$"):
            tubelet_patches([np.zeros((5, 32, 32, 3), np.float32)], cfg)

    def test_batched(self):
        cfg = TubeletConfig(2, 4, 4, 6)
        w, b = _tub_params(cfg, np.random.default_rng(5))
        clips = np.random.default_rng(6).random((3, 4, 8, 8, 3)).astype(np.float32)
        assert tubelet_embed(Tensor(tubelet_patches(clips, cfg)), w, b).shape == (3, 2, 2 * 2, 6)


class TestTubeletPatches:
    def test_layout_owner_and_dtype(self):
        """One new C-ordered array of the asked dtype; row i is clip i's
        patches, whatever the memory order of the clip it was cut from."""
        cfg = TubeletConfig(2, 2, 4, 8)
        rng = np.random.default_rng(7)
        clips = [rng.random((4, 6, 8, 3)).astype(np.float32) for _ in range(3)]
        clips[1] = np.asfortranarray(clips[1])
        out = tubelet_patches(clips, cfg, np.float64)
        assert out.shape == (3, 2, 3 * 2, 48) and out.dtype == np.float64 and out.flags.c_contiguous
        assert not any(np.shares_memory(out, c) for c in clips)
        for row, clip in zip(out, clips):
            one = tubelet_patches([clip.astype(np.float64)], cfg, np.float64)[0]
            assert np.array_equal(row, one)
        # patch (slice 1, row 2, column 0) is clip[2:4, 4:6, 0:4]
        assert np.array_equal(out[2, 1, 2 * 2 + 0], clips[2][2:4, 4:6, 0:4].reshape(-1))

    @pytest.mark.parametrize(
        "clips, message",
        [
            ([], r"^no clips to cut into tubelet patches$"),
            ([np.zeros((4, 8, 8), np.float32)], r"^a clip must be \(T, H, W, 3\), got shape \(4, 8, 8\)$"),
            ([np.zeros((4, 8, 8, 4), np.float32)], r"^clips must have 3 trailing channels$"),
            (
                [np.zeros((4, 8, 8, 3), np.float32), np.zeros((4, 8, 4, 3), np.float32)],
                r"^clip 1 has shape \(4, 8, 4, 3\), clip 0 \(4, 8, 8, 3\)$",
            ),
        ],
        ids=["empty", "rank", "channels", "ragged"],
    )
    def test_refusals(self, clips, message):
        with pytest.raises(DimensionError, match=message):
            tubelet_patches(clips, TubeletConfig(2, 4, 4, 8))


# (clip shape, tubelet) pairs: square and non-square patch grids.
_GEOMETRIES = [((4, 8, 8, 3), (2, 4, 4)), ((4, 8, 12, 3), (2, 4, 4)), ((6, 12, 8, 3), (3, 4, 2)), ((2, 6, 10, 3), (1, 3, 5))]


class TestSameBitsAsTheStackedPath:
    """`tubelet_patches` then `tubelet_embed` against the frozen stack,
    reshape, transpose and matmul path: equal bytes for the tokens each
    variant encodes, and the same refusals."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("geometry", _GEOMETRIES, ids=lambda g: "x".join(map(str, g[0][:3])) + "/" + "x".join(map(str, g[1])))
    @pytest.mark.parametrize("variant", ["spatiotemporal", "factorised"])
    def test_projections(self, variant, geometry, batch, dtype):
        shape, patch = geometry
        cfg = TubeletConfig(*patch, 16)
        rng = np.random.default_rng(batch)
        w, b = _tub_params(cfg, rng, dtype)
        clips = [rng.random(shape).astype(np.float32) for _ in range(batch)]
        frozen = frozen_tubelet_tokens(clips, cfg, w, b, dtype).data  # (B, N, d)
        tokens = tubelet_embed(tubelet_patches(clips, cfg, dtype), w, b).data  # (B, T_slices, N_sp, d)
        slices = shape[0] // patch[0]
        expected = frozen if variant == "spatiotemporal" else frozen.reshape(batch, slices, -1, 16)
        seen = tokens.reshape(batch, -1, 16) if variant == "spatiotemporal" else tokens
        assert seen.shape == expected.shape and seen.dtype == expected.dtype
        assert seen.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(5, 32, 32, 3), (4, 30, 32, 3), (4, 32, 32, 4)], ids=["time", "height", "channels"])
    def test_dimension_errors(self, shape):
        cfg = TubeletConfig(2, 16, 16, 8)
        w, b = _tub_params(cfg, np.random.default_rng(0))
        clips = [np.zeros(shape, np.float32)] * 2
        with pytest.raises(DimensionError) as frozen:
            frozen_tubelet_tokens(clips, cfg, w, b)
        with pytest.raises(DimensionError) as new:
            tubelet_patches(clips, cfg)
        assert str(new.value) == str(frozen.value)


class TestFeatureTokenize:
    def _params(self, f, d, rng):
        w = Tensor(rng.normal(size=(f, 1, d)).astype(np.float32))
        b = Tensor(rng.normal(size=(f, d)).astype(np.float32))
        cls = Tensor(rng.normal(size=(1, d)).astype(np.float32))
        return w, b, cls

    def test_token_count(self):
        rng = np.random.default_rng(0)
        w, b, cls = self._params(47, 16, rng)
        x = Tensor(rng.normal(size=(15, 47)).astype(np.float32))
        assert feature_tokenize(x, w, b, cls).shape == (15 * 47 + 1, 16)

    def test_zero_feature_yields_bias(self):
        rng = np.random.default_rng(1)
        w, b, cls = self._params(3, 4, rng)
        x = Tensor(np.zeros((2, 3), np.float32))
        out = feature_tokenize(x, w, b, cls).data
        for t in range(2):
            for j in range(3):
                assert np.allclose(out[1 + t * 3 + j], b.data[j], atol=1e-7)

    def test_affine_map_per_column(self):
        rng = np.random.default_rng(2)
        w, b, cls = self._params(2, 4, rng)
        x = np.array([[2.0, -1.0]], dtype=np.float32)
        out = feature_tokenize(Tensor(x), w, b, cls).data
        assert np.allclose(out[1], 2.0 * w.data[0, 0] + b.data[0], atol=1e-6)
        assert np.allclose(out[2], -1.0 * w.data[1, 0] + b.data[1], atol=1e-6)

    def test_cls_constant_across_inputs(self):
        rng = np.random.default_rng(3)
        w, b, cls = self._params(3, 4, rng)
        a = feature_tokenize(Tensor(rng.normal(size=(2, 3)).astype(np.float32)), w, b, cls).data[0]
        c = feature_tokenize(Tensor(rng.normal(size=(2, 3)).astype(np.float32)), w, b, cls).data[0]
        assert np.array_equal(a, c)
        assert np.array_equal(a, cls.data[0])

    def test_width_mismatch(self):
        rng = np.random.default_rng(4)
        w, b, cls = self._params(3, 4, rng)
        with pytest.raises(ConfigError):
            feature_tokenize(Tensor(np.zeros((2, 5), np.float32)), w, b, cls)

    def test_bits_of_the_frozen_matmul_oracle(self):
        """Output and weight gradient are the bytes of the batched numpy
        product the tokenizer once ran: per (frame, column) a 1 x 1 by
        1 x d product, the weight gradient summed over the leading axes.
        Some values are zero; a zero times a negative weight is -0.0 in the
        broadcast product and +0.0 in np.matmul's, and the bias add makes
        both the same."""
        rng = np.random.default_rng(5)
        lead, t, f, d = (2, 3), 4, 5, 8
        w, b, cls = (Tensor(p.data, requires_grad=True) for p in self._params(f, d, rng))
        x = rng.normal(size=lead + (t, f)).astype(np.float32)
        x[rng.random(x.shape) < 0.2] = 0.0
        g = rng.normal(size=lead + (1 + t * f, d)).astype(np.float32)
        with Tape():
            out = feature_tokenize(Tensor(x), w, b, cls)
            backward(tensor_sum(mul(out, Tensor(g))))

        x5 = x.reshape(lead + (t, f, 1, 1))
        tokens = (np.matmul(x5, w.data).reshape(lead + (t, f, d)) + b.data).reshape(lead + (t * f, d))
        expected = np.concatenate([np.broadcast_to(cls.data, lead + (1, d)), tokens], axis=-2)
        g5 = g[..., 1:, :].reshape(lead + (t, f, 1, d))
        expected_gw = np.matmul(np.swapaxes(x5, -1, -2), g5).sum(axis=tuple(range(len(lead) + 1)))
        assert out.data.tobytes() == expected.tobytes()
        assert w.grad.tobytes() == expected_gw.tobytes()

    def test_records_no_matmul(self):
        rng = np.random.default_rng(6)
        w, b, cls = (Tensor(p.data, requires_grad=True) for p in self._params(3, 4, rng))
        with Tape() as tape:
            feature_tokenize(Tensor(rng.normal(size=(2, 5, 3)).astype(np.float32)), w, b, cls)
        ops = recorded_ops(tape)
        assert "matmul" not in ops and ops.count("mul") == 1
