"""Multi-head self-attention and pre-norm encoder stacks.

The layer form is x + MHA(LN(x)) followed by + FFN(LN(.)), GELU inside the
FFN, dropout on each sublayer output in training mode only. Masks are
boolean with True = may attend; masked attention weights are exactly zero.
The key projection has no bias: q . b_k adds one constant to a whole
softmax row, so it changes no output, and its exact gradient is zero.

Every projection is one biased `matmul`. q, k and v come from one packed
product of x by the (d, 3d) concatenation [wq s, wk, wv] plus the bias
[bq s, 0, bv], with the 1/sqrt(dh) scale s folded into the query weights
and bias; parameters stay stored per projection, so checkpoints keep their
names and shapes. Folding the scale gives the bits of scaling the query
projection afterwards only when s is a power of two (dh = 4, 16, 64, ...),
since only then is each scaled product and sum exact; every named config
has dh = 16. Otherwise it differs by rounding.

Attention runs through the tiled `attention` op, which takes the packed
projection, splits the heads itself, and works in tiles of whole (batch,
head) slices (or row bands of one slice when a slice alone is too large),
so a long sequence never holds its full (..., n_heads, S, S) weights, and
returns only the attended values, which one `transpose` and `reshape`
merge; its backward rebuilds each tile's weights from the forward's row
max and exp-sum. `attention_weights` computes the weights on request, for
inspection.
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
    concat_along_axis,
    dropout,
    gelu,
    layer_norm,
    matmul,
    mul,
    reshape,
    softmax,
    transpose,
)
from .common import add_affine, add_param, glorot_uniform


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


def _merge_heads(x: Tensor) -> Tensor:
    lead, (h, s, dh) = x.shape[:-3], x.shape[-3:]
    base = len(lead)
    perm = tuple(range(base)) + (base + 1, base, base + 2)
    x = transpose(x, perm)
    return reshape(x, lead + (s, h * dh))


def _qkv(x: Tensor, params: dict, prefix: str, n_heads: int) -> Tensor:
    """The packed (..., S, 3 d) q/k/v projection of x, one biased matmul:
    weight [wq s, wk, wv] and bias [bq s, 0, bv], s = 1/sqrt(dh)."""
    s = 1.0 / np.sqrt(x.shape[-1] // n_heads)
    p = f"{prefix}attn."
    bq = params[f"{p}wq.b"]
    w = concat_along_axis([mul(params[f"{p}wq.w"], s), params[f"{p}wk.w"], params[f"{p}wv.w"]], axis=-1)
    b = concat_along_axis([mul(bq, s), Tensor(np.zeros_like(bq.data)), params[f"{p}wv.b"]], axis=-1)
    return matmul(x, w, b)


def multi_head_attention(
    x: Tensor,
    params: dict,
    prefix: str,
    n_heads: int,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Scaled dot-product attention over the trailing (S, d_model) axes,
    returning the output projection."""
    ctx = _merge_heads(attention(_qkv(x, params, prefix, n_heads), n_heads, mask=mask))
    return matmul(ctx, params[f"{prefix}attn.wo.w"], params[f"{prefix}attn.wo.b"])


def attention_weights(
    x: Tensor,
    params: dict,
    prefix: str,
    n_heads: int,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Detached attention weights of `multi_head_attention`, shape
    (..., n_heads, S, S); each row over allowed positions sums to 1."""
    qkv = _qkv(x, params, prefix, n_heads).data
    parts = qkv.reshape(qkv.shape[:-1] + (3, n_heads, -1))  # (..., S, 3, n_heads, dh)
    q, k = np.swapaxes(np.moveaxis(parts, -3, 0)[:2], -2, -3)  # each (..., n_heads, S, dh)
    return softmax(Tensor(np.matmul(q, np.swapaxes(k, -1, -2))), axis=-1, mask=mask).data


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
    # `h` and `ff` are rebound at each op, so a temporary dies once the next
    # op has read it.
    h = multi_head_attention(
        layer_norm(x, params[f"{prefix}ln1.gamma"], params[f"{prefix}ln1.beta"]),
        params,
        prefix,
        cfg.n_heads,
        mask=mask,
    )
    h = add(x, dropout(h, cfg.dropout_rate, rng, training))
    ff = layer_norm(h, params[f"{prefix}ln2.gamma"], params[f"{prefix}ln2.beta"])
    ff = gelu(matmul(ff, params[f"{prefix}ffn.w1.w"], params[f"{prefix}ffn.w1.b"]))
    ff = matmul(ff, params[f"{prefix}ffn.w2.w"], params[f"{prefix}ffn.w2.b"])
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
