"""Token construction: sinusoidal position codes, tubelet embedding for
video clips, and the per-column feature tokenizer with cls token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DimensionError
from ..tensor import Tensor, add, concat_along_axis, broadcast_to, matmul, mul, reshape, transpose


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


def tubelet_embed(clip: Tensor, cfg: TubeletConfig, weight: Tensor, bias: Tensor) -> Tensor:
    """Project non-overlapping (t, h, w) patches of a (..., T, H, W, 3) clip
    into tokens, ordered time-major, then row, then column."""
    t, h, w, c = clip.shape[-4:]
    if c != 3:
        raise DimensionError("clips must have 3 trailing channels")
    if t % cfg.t_patch or h % cfg.h_patch or w % cfg.w_patch:
        raise DimensionError(
            f"clip dims ({t},{h},{w}) not divisible by tubelet ({cfg.t_patch},{cfg.h_patch},{cfg.w_patch})"
        )
    lead = clip.shape[:-4]
    ts, hs, ws = t // cfg.t_patch, h // cfg.h_patch, w // cfg.w_patch
    x = reshape(clip, lead + (ts, cfg.t_patch, hs, cfg.h_patch, ws, cfg.w_patch, 3))
    base = len(lead)
    perm = tuple(range(base)) + tuple(base + i for i in (0, 2, 4, 1, 3, 5, 6))
    x = transpose(x, perm)
    x = reshape(x, lead + (ts * hs * ws, cfg.flat_size))
    return matmul(x, weight, bias)


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
