"""Video encoders over tubelet tokens: joint spatio-temporal attention and
the factorised variant (per-slice spatial attention, then temporal
attention over mean-pooled slice vectors).

`vivit_forward` takes a clip as its tubelet patches (see
`embeddings.tubelet_patches`), or a function that cuts them, projects
them, and hands both variants tokens shaped (..., T_slices, N_sp,
d_model): the factorised variant attends within the N_sp axis as it is,
the joint one flattens the two.

Each visual input type gets its own parameter set; there is no weight
sharing across branches. The factorised variant adds positional encoding
only on the temporal stage, which keeps a spatially-constant clip a fixed
point of the spatial attention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..tensor import Tensor, add, mean_over_axis, reshape
from .common import add_param, glorot_uniform
from .embeddings import TubeletConfig, positional_encoding, tubelet_embed
from .encoder import EncoderConfig, encode, init_encoder_params

VARIANTS = ("spatiotemporal", "factorised")


@dataclass(frozen=True)
class ViViTConfig:
    variant: str
    tubelet: TubeletConfig
    spatial: EncoderConfig
    temporal: Optional[EncoderConfig] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"vivit variant must be one of {VARIANTS}")
        if self.spatial.d_model != self.tubelet.d_model:
            raise ConfigError("tubelet and spatial encoder must agree on d_model")
        if self.variant == "factorised":
            if self.temporal is None:
                raise ConfigError("factorised variant needs a temporal encoder config")
            if self.temporal.d_model != self.tubelet.d_model:
                raise ConfigError("temporal encoder must agree on d_model")

    @property
    def d_model(self) -> int:
        return self.tubelet.d_model


def init_vivit_params(params: dict, prefix: str, cfg: ViViTConfig, rng: np.random.Generator):
    flat = cfg.tubelet.flat_size
    add_param(params, f"{prefix}tubelet.w", glorot_uniform(rng, (flat, cfg.d_model), flat, cfg.d_model))
    add_param(params, f"{prefix}tubelet.b", np.zeros(cfg.d_model, dtype=np.float32))
    init_encoder_params(params, f"{prefix}spatial.", cfg.spatial, rng)
    if cfg.variant == "factorised":
        init_encoder_params(params, f"{prefix}temporal.", cfg.temporal, rng)


def vivit_spatiotemporal(
    tokens: Tensor,
    cfg: ViViTConfig,
    params: dict,
    prefix: str,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Joint attention over all space-time tokens: (..., T_slices, N_sp,
    d_model) tokens -> (..., T_slices·N_sp, d_model)."""
    slices, n_spatial, d = tokens.shape[-3:]
    tokens = reshape(tokens, tokens.shape[:-3] + (slices * n_spatial, d))
    pe = positional_encoding(tokens.shape[-2], cfg.d_model, dtype=tokens.data.dtype)
    tokens = add(tokens, Tensor(pe, dtype=tokens.data.dtype))
    return encode(tokens, cfg.spatial, params, f"{prefix}spatial.", training=training, rng=rng)


def vivit_factorised(
    tokens: Tensor,
    cfg: ViViTConfig,
    params: dict,
    prefix: str,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Spatial attention per temporal slice, mean-pool, then temporal
    attention over the slice vectors: (..., T_slices, N_sp, d_model)
    tokens -> (..., T_slices, d_model)."""
    encoded = encode(tokens, cfg.spatial, params, f"{prefix}spatial.", training=training, rng=rng)
    pooled = mean_over_axis(encoded, axis=-2)  # (..., T_slices, d_model)
    pe = positional_encoding(pooled.shape[-2], cfg.d_model, dtype=pooled.data.dtype)
    pooled = add(pooled, Tensor(pe, dtype=pooled.data.dtype))
    return encode(pooled, cfg.temporal, params, f"{prefix}temporal.", training=training, rng=rng)


def vivit_forward(
    patches,
    cfg: ViViTConfig,
    params: dict,
    prefix: str,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Encode (..., T_slices, N_sp, flat_size) tubelet patches laid out as
    `tubelet_patches` returns them: an array, a Tensor, or a function of
    no arguments that returns the array. The patches are projected first
    and this frame's reference to them is dropped. A function's array, as
    `forward_batch` passes it, lives only inside the projection, taped or
    not, so none is alive when any attention runs; a tape keeps the
    function to cut the patches again for the weight gradient."""
    tokens = tubelet_embed(patches, params[f"{prefix}tubelet.w"], params[f"{prefix}tubelet.b"])
    del patches
    fn = vivit_spatiotemporal if cfg.variant == "spatiotemporal" else vivit_factorised
    return fn(tokens, cfg, params, prefix, training=training, rng=rng)
