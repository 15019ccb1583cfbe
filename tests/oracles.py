"""Reference implementations that tests compare the package against, and
the op names a tape recorded."""

import numpy as np

from pedintent.errors import ContractError
from pedintent.metrics import _validate


def auc_oracle(scores, labels) -> float:
    """Exhaustive pairwise AUC: mean over all positive-negative pairs of
    1 (positive scored higher), 0.5 (tie), else 0. It cross-checks the
    rank formula of `pedintent.metrics.evaluate`."""
    s, y = _validate(scores, labels)
    pos = s[y == 1]
    neg = s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ContractError("pairwise AUC needs both classes present")
    diff = pos[:, None] - neg[None, :]
    credit = np.where(diff > 0, 1.0, np.where(diff == 0, 0.5, 0.0))
    return float(credit.mean())


def recorded_ops(tape) -> list[str]:
    """Names of the ops whose outputs `tape` recorded, in order: each entry's
    backward rule is defined inside its op function."""
    return [entry.backward.__qualname__.split(".")[0] for entry in tape.entries]
