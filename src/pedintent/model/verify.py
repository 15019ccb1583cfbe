"""Whole-model gradient verification against central finite differences.

Builds run at float64 so finite-difference noise stays orders of magnitude
below the pass threshold; elements are sampled across every parameter so
each branch of the architecture is exercised.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ContractError
from ..tensor import Tape, Tensor, backward, tensor_sum
from ..tensor.gradcheck import GradCheckReport, finite_difference_errors, gradcheck_report
from .assembly import Model, forward_batch


def check_model_gradients(
    model: Model,
    windows: Sequence,
    eps: float = 1e-4,
    max_elements: int = 150,
    seed: int = 0,
) -> GradCheckReport:
    """Compare d(sum of output probabilities)/d(theta) against central
    differences on a random subset of parameter elements; the report names
    the parameter holding the worst element. The probabilities come from
    `forward_batch`, the path training takes, so each tubelet projection's
    weight gradient is the one its re-cut patches give."""
    if not 1e-6 <= eps <= 1e-3:
        raise ContractError("eps must lie in [1e-6, 1e-3]")
    if max_elements < 1:
        raise ContractError(f"max_elements is {max_elements}; the check needs at least 1 element")

    def loss() -> Tensor:
        return tensor_sum(forward_batch(model, windows, training=False))

    with Tape():
        backward(loss())
    arrays = [p.data for p in model.params.values()]
    grads = [p.grad for p in model.params.values()]
    total = sum(a.size for a in arrays)
    chosen = np.sort(np.random.default_rng(seed).choice(total, size=min(max_elements, total), replace=False))
    rel = finite_difference_errors(arrays, grads, lambda: float(loss().data), chosen, eps)
    return gradcheck_report(rel, chosen, arrays, list(model.params))
