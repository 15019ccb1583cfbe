"""Multi-head self-attention and pre-norm encoder stacks.

The layer form is x + MHA(LN(x)) followed by + FFN(LN(.)), GELU inside the
FFN, dropout on each sublayer output in training mode only. Masks are
boolean with True = may attend; masked attention weights are exactly zero.
The key projection has no bias: q . b_k adds one constant to a whole
softmax row, so it changes no output, and its exact gradient is zero.

Attention runs through the tiled `attention` op, which works in tiles of
whole (batch, head) slices (or row bands of one slice when a slice alone
is too large), so a long sequence never holds its full (..., n_heads, S, S)
weights, and returns only the attended values; its backward rebuilds each
tile's weights from the forward's row max and exp-sum. `attention_weights`
computes the weights on request, for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError, ContractError
from ..tensor import (
    Tensor,
    add,
    attention,
    dropout,
    gelu,
    layer_norm,
    matmul,
    mul,
    reshape,
    softmax,
    transpose,
)
from .common import add_affine, add_param, affine, glorot_uniform


@dataclass(frozen=True)
class EncoderConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: Optional[int] = None
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.n_layers < 0 or self.n_heads < 1 or self.d_model < 1:
            raise ConfigError("encoder needs n_layers >= 0, n_heads >= 1, d_model >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if self.d_ff is None:
            object.__setattr__(self, "d_ff", 4 * self.d_model)


def causal_mask(s: int) -> np.ndarray:
    """mask[i, j] = (j <= i): each position attends to itself and the past."""
    if s < 1:
        raise ContractError("causal mask needs at least one position")
    return np.tril(np.ones((s, s), dtype=bool))


def init_encoder_params(params: dict, prefix: str, cfg: EncoderConfig, rng: np.random.Generator):
    d, dff = cfg.d_model, cfg.d_ff
    for i in range(cfg.n_layers):
        lp = f"{prefix}L{i}"
        add_param(params, f"{lp}.ln1.gamma", np.ones(d, dtype=np.float32))
        add_param(params, f"{lp}.ln1.beta", np.zeros(d, dtype=np.float32))
        add_affine(params, f"{lp}.attn.wq", rng, d, d)
        add_param(params, f"{lp}.attn.wk.w", glorot_uniform(rng, (d, d), d, d))
        for proj in ("wv", "wo"):
            add_affine(params, f"{lp}.attn.{proj}", rng, d, d)
        add_param(params, f"{lp}.ln2.gamma", np.ones(d, dtype=np.float32))
        add_param(params, f"{lp}.ln2.beta", np.zeros(d, dtype=np.float32))
        add_affine(params, f"{lp}.ffn.w1", rng, d, dff)
        add_affine(params, f"{lp}.ffn.w2", rng, dff, d)


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    lead, (s, d) = x.shape[:-2], x.shape[-2:]
    x = reshape(x, lead + (s, n_heads, d // n_heads))
    base = len(lead)
    perm = tuple(range(base)) + (base + 1, base, base + 2)
    return transpose(x, perm)


def _merge_heads(x: Tensor) -> Tensor:
    lead, (h, s, dh) = x.shape[:-3], x.shape[-3:]
    base = len(lead)
    perm = tuple(range(base)) + (base + 1, base, base + 2)
    x = transpose(x, perm)
    return reshape(x, lead + (s, h * dh))


def _heads(x: Tensor, params: dict, prefix: str, n_heads: int) -> tuple[Tensor, Tensor, Tensor]:
    """Split-head projections q, k, v; q carries the 1/sqrt(dh) scale."""
    dh = x.shape[-1] // n_heads
    q = mul(_split_heads(affine(x, params, f"{prefix}attn.wq"), n_heads), 1.0 / np.sqrt(dh))
    k = _split_heads(matmul(x, params[f"{prefix}attn.wk.w"]), n_heads)
    v = _split_heads(affine(x, params, f"{prefix}attn.wv"), n_heads)
    return q, k, v


def multi_head_attention(
    x: Tensor,
    params: dict,
    prefix: str,
    n_heads: int,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Scaled dot-product attention over the trailing (S, d_model) axes,
    returning the output projection."""
    ctx = _merge_heads(attention(*_heads(x, params, prefix, n_heads), mask=mask))
    return affine(ctx, params, f"{prefix}attn.wo")


def attention_weights(
    x: Tensor,
    params: dict,
    prefix: str,
    n_heads: int,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Detached attention weights of `multi_head_attention`, shape
    (..., n_heads, S, S); each row over allowed positions sums to 1."""
    q, k, _ = _heads(x, params, prefix, n_heads)
    return softmax(Tensor(np.matmul(q.data, np.swapaxes(k.data, -1, -2))), axis=-1, mask=mask).data


def encoder_layer(
    x: Tensor,
    params: dict,
    prefix: str,
    cfg: EncoderConfig,
    mask: Optional[np.ndarray] = None,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    if training and cfg.dropout_rate > 0 and rng is None:
        raise ContractError("training-mode encoder needs an rng for dropout")
    attn_out = multi_head_attention(
        layer_norm(x, params[f"{prefix}ln1.gamma"], params[f"{prefix}ln1.beta"]),
        params,
        prefix,
        cfg.n_heads,
        mask=mask,
    )
    attn_out = dropout(attn_out, cfg.dropout_rate, rng, training)
    h = add(x, attn_out)
    ff = affine(layer_norm(h, params[f"{prefix}ln2.gamma"], params[f"{prefix}ln2.beta"]), params, f"{prefix}ffn.w1")
    ff = affine(gelu(ff), params, f"{prefix}ffn.w2")
    ff = dropout(ff, cfg.dropout_rate, rng, training)
    return add(h, ff)


def encode(
    x: Tensor,
    cfg: EncoderConfig,
    params: dict,
    prefix: str = "",
    mask: Optional[np.ndarray] = None,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Apply n_layers encoder layers; n_layers = 0 is the exact identity.

    Positional encoding and masking are the caller's responsibility.
    """
    for i in range(cfg.n_layers):
        x = encoder_layer(x, params, f"{prefix}L{i}.", cfg, mask=mask, training=training, rng=rng)
    return x
