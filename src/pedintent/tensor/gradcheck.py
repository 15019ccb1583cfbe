"""Central-finite-difference oracle for the autodiff kernel.

Runs the function under test twice to detect hidden nondeterminism, takes
one reverse pass for the analytic gradient, then perturbs elements one at a
time. Checking at float64 keeps finite-difference noise ~1e-12 so a failed
comparison means a wrong backward rule, not rounding.

`finite_difference_errors` is the one perturbation loop: `check_gradients`
runs it over one input, `model.verify.check_model_gradients` over a
model's parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ContractError, DeterminismError
from .core import Tape, Tensor, backward

# Floor of the relative error's denominator: it keeps genuinely-zero
# gradients from amplifying finite-difference noise.
DENOM_FLOOR = 1e-3


@dataclass
class GradCheckReport:
    """Per-element relative errors between autodiff and finite differences;
    the worst element is `worst_index` (flat) within array `worst_param`."""

    max_rel_err: float
    mean_rel_err: float
    n_checked: int
    worst_index: int
    rel_errors: np.ndarray
    worst_param: str

    def ok(self, tol: float) -> bool:
        return self.max_rel_err < tol


def _locate(arrays: Sequence[np.ndarray], indices) -> tuple[np.ndarray, np.ndarray]:
    """Array number, and flat index within it, of each index into the
    flattened concatenation of `arrays`."""
    offsets = np.cumsum([0] + [a.size for a in arrays])
    owner = np.searchsorted(offsets, indices, side="right") - 1
    return owner, np.asarray(indices) - offsets[owner]


def finite_difference_errors(
    arrays: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    loss: Callable[[], float],
    indices: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Relative errors |ad - fd| / max(|ad|, |fd|, DENOM_FLOOR) between the
    autodiff gradients `grads` and central differences of `loss()`, at flat
    `indices` into the concatenated `arrays`. Each element is perturbed in
    place and restored."""
    rel = np.empty(len(indices), dtype=np.float64)
    for k, (i, local) in enumerate(zip(*_locate(arrays, indices))):
        arr = arrays[i]
        pos = np.unravel_index(local, arr.shape)
        saved = arr[pos]
        arr[pos] = saved + eps
        fp = loss()
        arr[pos] = saved - eps
        fm = loss()
        arr[pos] = saved
        fd = (fp - fm) / (2.0 * eps)
        ad = float(grads[i][pos])
        rel[k] = abs(ad - fd) / max(abs(ad), abs(fd), DENOM_FLOOR)
    return rel


def gradcheck_report(rel: np.ndarray, indices, arrays: Sequence[np.ndarray], names: Sequence[str]) -> GradCheckReport:
    """Summary of `finite_difference_errors`, naming the worst element."""
    if not len(rel):
        return GradCheckReport(0.0, 0.0, 0, -1, rel, "")
    owner, local = _locate(arrays, indices)
    k = int(np.argmax(rel))
    return GradCheckReport(float(rel.max()), float(rel.mean()), len(rel), int(local[k]), rel, names[owner[k]])


def check_gradients(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-4,
    max_elements: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> GradCheckReport:
    """Compare autodiff gradients of scalar f(x) against central differences.

    `max_elements` limits the check to a random subset of coordinates (all
    by default). The report names the input "x".
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ContractError("eps must lie in [1e-6, 1e-3]")

    base = np.array(x.data, copy=True)

    def run(t: Tensor) -> Tensor:
        y = f(t)
        if not isinstance(y, Tensor) or y.data.size != 1:
            raise ContractError("gradient check requires a scalar-valued function")
        return y

    def value() -> float:
        return float(run(Tensor(base, dtype=base.dtype)).data)

    if value() != value():
        raise DeterminismError("function under test is not deterministic")

    leaf = Tensor(base, requires_grad=True, dtype=base.dtype)
    with Tape():
        backward(run(leaf))

    n = base.size
    if max_elements is not None and max_elements < n:
        gen = rng if rng is not None else np.random.default_rng(0)
        idx = np.sort(gen.choice(n, size=max_elements, replace=False))
    else:
        idx = np.arange(n)
    rel = finite_difference_errors([base], [leaf.grad], value, idx, eps)
    return gradcheck_report(rel, idx, [base], ["x"])
