"""Fusing branch token sequences into one feature vector, and the sigmoid
output head.

concat_ffn and gap pool each branch by mean first; transformer and
recurrent strategies concatenate the raw token sequences along the token
axis and reduce afterwards. The frozen three-member ensemble head is a
plain sigmoid-affine over member probabilities. Every product is one
`matmul` of (..., d) rows by a weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError, ContractError
from ..tensor import (
    Tensor,
    add,
    concat_along_axis,
    matmul,
    mean_over_axis,
    mul,
    relu,
    sigmoid,
    tanh,
    tensor_slice,
)
from .common import add_affine, add_param, glorot_uniform
from .encoder import EncoderConfig, encode, init_encoder_params

STRATEGIES = ("concat_ffn", "gap", "transformer", "recurrent")
_GATES = ("i", "f", "o", "c")


@dataclass(frozen=True)
class FusionConfig:
    strategy: str
    encoder: Optional[EncoderConfig] = None  # transformer strategy only

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"fusion strategy must be one of {STRATEGIES}")
        if self.strategy == "transformer" and self.encoder is None:
            raise ConfigError("transformer fusion needs an encoder config")


def init_fusion_params(
    params: dict, cfg: FusionConfig, d_model: int, n_branches: int, rng: np.random.Generator
) -> int:
    """Create strategy parameters; returns the fused feature width."""
    if cfg.strategy == "concat_ffn":
        width = n_branches * d_model
        add_affine(params, "fusion.ffn.w1", rng, width, width)
        add_affine(params, "fusion.ffn.w2", rng, width, width)
        return width
    if cfg.strategy == "gap":
        return d_model
    if cfg.strategy == "transformer":
        if cfg.encoder.d_model != d_model:
            raise ConfigError("fusion encoder d_model must match branch d_model")
        init_encoder_params(params, "fusion.enc.", cfg.encoder, rng)
        return d_model
    # recurrent: one cell, hidden size = d_model
    for gate in _GATES:
        add_param(params, f"fusion.rnn.w{gate}", glorot_uniform(rng, (d_model, d_model), d_model, d_model))
        add_param(params, f"fusion.rnn.u{gate}", glorot_uniform(rng, (d_model, d_model), d_model, d_model))
        add_param(params, f"fusion.rnn.b{gate}", np.zeros(d_model, dtype=np.float32))
    return d_model


def _recurrent_scan(tokens: Tensor, params: dict) -> Tensor:
    """Gated cell (input/forget/output gates + tanh candidate) scanned over
    the token axis; returns the final hidden state."""
    lead, (steps, d) = tokens.shape[:-2], tokens.shape[-2:]
    zeros = np.zeros(lead + (d,), dtype=tokens.data.dtype)
    h = Tensor(zeros.copy())
    c = Tensor(zeros.copy())
    for t in range(steps):
        x_t = tensor_slice(tokens, (Ellipsis, t, slice(None)))
        gates = {}
        for gate in _GATES:
            z = add(
                add(matmul(x_t, params[f"fusion.rnn.w{gate}"]), matmul(h, params[f"fusion.rnn.u{gate}"])),
                params[f"fusion.rnn.b{gate}"],
            )
            gates[gate] = tanh(z) if gate == "c" else sigmoid(z)
        c = add(mul(gates["f"], c), mul(gates["i"], gates["c"]))
        h = mul(gates["o"], tanh(c))
    return h


def fuse(
    branches: Sequence[Tensor],
    cfg: FusionConfig,
    params: dict,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Reduce per-branch token sequences (..., S_b, d) to one (..., K) vector."""
    branches = list(branches)
    if not branches:
        raise ContractError("fusion needs at least one branch")
    if cfg.strategy == "concat_ffn":
        pooled = [mean_over_axis(b, axis=-2) for b in branches]
        x = pooled[0] if len(pooled) == 1 else concat_along_axis(pooled, axis=-1)
        hidden = relu(matmul(x, params["fusion.ffn.w1.w"], params["fusion.ffn.w1.b"]))
        return matmul(hidden, params["fusion.ffn.w2.w"], params["fusion.ffn.w2.b"])
    tokens = branches[0] if len(branches) == 1 else concat_along_axis(branches, axis=-2)
    if cfg.strategy == "gap":
        return mean_over_axis(tokens, axis=-2)
    if cfg.strategy == "transformer":
        encoded = encode(tokens, cfg.encoder, params, "fusion.enc.", training=training, rng=rng)
        return mean_over_axis(encoded, axis=-2)
    return _recurrent_scan(tokens, params)


def head(features: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Crossing probability sigma(w . features + b), strictly inside (0, 1):
    features (..., K) times the 1-D weight w (K,) gives (...,)."""
    k = features.shape[-1]
    if w.shape != (k,):
        raise ConfigError(f"head weight width {w.shape} != feature width {k}")
    return sigmoid(add(matmul(features, w), b))


def ensemble_predict(member_probs, w: Tensor, b: Tensor) -> Tensor:
    """Sigmoid head over exactly three frozen members' output probabilities."""
    probs = member_probs if isinstance(member_probs, Tensor) else Tensor(np.asarray(member_probs, dtype=np.float32))
    if probs.shape[-1] != 3:
        raise ConfigError(f"ensemble takes exactly 3 member probabilities, got {probs.shape[-1]}")
    return head(probs, w, b)
