"""Token construction: sinusoidal position codes, tubelet embedding for
video clips, and the per-column feature tokenizer with cls token.

A clip reaches its video encoder as tubelet patches, not pixels:
`tubelet_patches` copies each (T, H, W, 3) clip of a batch once, straight
into a (B, T/t, (H/h)(W/w), t·h·w·3) array, and `tubelet_embed` projects
that array in one matmul. The patch array is the only copy of the batch's
pixels a forward makes. Given as a function that cuts it, as
`forward_batch` gives it, the array is made inside the projection and
dies there, taped or not; a tape keeps the function and backward cuts the
patches again for the projection's weight gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DimensionError
from ..tensor import Tensor, add, concat_along_axis, broadcast_to, matmul, mul, reshape


def positional_encoding(seq_len: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal position matrix: dims 2k and 2k+1 share the frequency
    1/10000^(2k/d); even dims take sin, odd dims cos. Added (not
    concatenated) to token sequences."""
    if d_model % 2 != 0:
        raise ConfigError("positional encoding requires an even d_model")
    pos = np.arange(seq_len, dtype=np.float64)[:, None]
    k2 = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, k2 / d_model)
    pe = np.empty((seq_len, d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe.astype(dtype)


@dataclass(frozen=True)
class TubeletConfig:
    """Non-overlapping spatio-temporal patch geometry and token width."""

    t_patch: int
    h_patch: int
    w_patch: int
    d_model: int

    def __post_init__(self):
        if min(self.t_patch, self.h_patch, self.w_patch, self.d_model) < 1:
            raise ConfigError("tubelet patch dims and d_model must be positive")

    @property
    def flat_size(self) -> int:
        return self.t_patch * self.h_patch * self.w_patch * 3


def tubelet_patches(clips: Sequence[np.ndarray], cfg: TubeletConfig, dtype=np.float32) -> np.ndarray:
    """The non-overlapping (t, h, w) patches of B clips of one (T, H, W, 3)
    shape, as one new C-ordered (B, T/t, (H/h)(W/w), t·h·w·3) array of
    `dtype`: per clip, time slices, then each slice's patches row-major,
    each patch flattened as (t, h, w, 3).

    Each clip is copied once, straight into its place, and cast in that
    copy, so no stacked (B, T, H, W, 3) batch is made. The caller owns the
    array. DimensionError when a clip has other than 3 trailing channels,
    dims the tubelet does not divide, or another shape than the first."""
    if not len(clips):
        raise DimensionError("no clips to cut into tubelet patches")
    shape = np.shape(clips[0])
    if len(shape) != 4:
        raise DimensionError(f"a clip must be (T, H, W, 3), got shape {shape}")
    t, h, w, c = shape
    if c != 3:
        raise DimensionError("clips must have 3 trailing channels")
    tp, hp, wp = cfg.t_patch, cfg.h_patch, cfg.w_patch
    if t % tp or h % hp or w % wp:
        raise DimensionError(f"clip dims ({t},{h},{w}) not divisible by tubelet ({tp},{hp},{wp})")
    ts, hs, ws = t // tp, h // hp, w // wp
    # np.empty, not np.stack of the transposed views: the stack keeps their
    # memory order, and the reshape below would copy it again.
    patches = np.empty((len(clips), ts, hs, ws, tp, hp, wp * 3), dtype)
    for i, clip in enumerate(clips):
        if np.shape(clip) != shape:
            raise DimensionError(f"clip {i} has shape {np.shape(clip)}, clip 0 {shape}")
        patches[i] = np.reshape(clip, (ts, tp, hs, hp, ws, wp * 3)).transpose(0, 2, 4, 1, 3, 5)
    return patches.reshape(len(clips), ts, hs * ws, cfg.flat_size)


def tubelet_embed(patches, weight: Tensor, bias: Tensor) -> Tensor:
    """Tokens of (..., flat_size) tubelet patches laid out as
    `tubelet_patches` returns them: one biased matmul, (..., d_model).
    `patches` is an array, a Tensor, or a function of no arguments that
    returns the array, which `matmul` calls in forward and again for the
    weight's gradient instead of keeping the array."""
    return matmul(patches, weight, bias)


def feature_tokenize(features: Tensor, weight: Tensor, bias: Tensor, cls: Tensor) -> Tensor:
    """One token per (frame, scalar column): value * w_j + b_j, with a
    learned cls token prepended at position 0.

    features: (..., T, F); weight: (F, 1, d); bias: (F, d); cls: (1, d).
    The values, viewed as (..., T, F, 1, 1), broadcast against the weight
    table in one `mul`.
    """
    t, f = features.shape[-2:]
    if weight.shape[0] != f or bias.shape[0] != f:
        raise ConfigError(f"tokenizer table width {weight.shape[0]} != feature count {f}")
    d = weight.shape[-1]
    lead = features.shape[:-2]
    x = reshape(features, lead + (t, f, 1, 1))
    tokens = mul(x, weight)  # (..., T, F, 1, d)
    tokens = reshape(tokens, lead + (t, f, d))
    tokens = add(tokens, bias)
    tokens = reshape(tokens, lead + (t * f, d))
    cls_tokens = broadcast_to(cls, lead + (1, d))
    return concat_along_axis([cls_tokens, tokens], axis=-2)
