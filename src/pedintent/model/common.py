"""Parameter initialization shared by all model components.

Affine weights are Glorot-uniform from the model seed, biases start at
zero, layer-norm scales at one; parameter creation order is fixed so the
same seed always yields a bit-identical checkpoint.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def add_param(params: dict, name: str, values: np.ndarray) -> Tensor:
    if name in params:
        raise ValueError(f"duplicate parameter name {name!r}")
    params[name] = Tensor(values, requires_grad=True)
    return params[name]


def add_affine(params: dict, prefix: str, rng: np.random.Generator, fan_in: int, fan_out: int):
    add_param(params, f"{prefix}.w", glorot_uniform(rng, (fan_in, fan_out), fan_in, fan_out))
    add_param(params, f"{prefix}.b", np.zeros(fan_out, dtype=np.float32))
