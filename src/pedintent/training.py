"""Training loop: class-weighted binary cross-entropy, Adam, plateau LR
reduction, early stopping with best-weights restore, and the two-phase
pretrain/fine-tune recipe.

The loop is single-writer over parameters; batch order, dropout and
initialization all derive from the config seed, so identical (seed, data,
config) runs produce bit-identical checkpoints and histories.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BalanceError, ConfigError, ContractError, NumericalError, WindowError
from .model.assembly import Model, forward_batch
from .tensor import Tape, Tensor, add, backward, clamp, log, mean_over_axis, mul, write_atomic

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MIN_DELTA = 1e-4  # improvement threshold shared by both callbacks
PROB_CLAMP = 1e-7  # keeps the loss finite at p in {0, 1}
EVAL_CHUNK = 32  # windows per eval forward, so eval memory does not grow with the split


@dataclass
class TrainConfig:
    lr: float = 3e-4
    batch_size: int = 32
    max_epochs: int = 100
    plateau_patience: int = 5
    plateau_factor: float = 0.2
    early_stop_patience: int = 15
    use_class_weights: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.plateau_factor < 1.0:
            raise ConfigError("plateau_factor must be in (0, 1)")
        if self.plateau_patience < 1 or self.early_stop_patience < 1:
            raise ConfigError("patiences must be >= 1")
        if not 0.0 < self.lr < math.inf or self.batch_size < 1 or self.max_epochs < 0 or self.seed < 0:
            raise ConfigError("lr must be finite and > 0, batch_size >= 1, max_epochs >= 0, seed >= 0")


@dataclass
class TrainState:
    """Optimizer moments plus schedule/early-stop bookkeeping."""

    lr: float
    rng: np.random.Generator
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    plateau_best: float = np.inf
    plateau_count: int = 0
    best_val_loss: float = np.inf
    early_count: int = 0
    best_weights: Optional[dict] = None


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


def class_weights(labels: Sequence[int]) -> dict[int, float]:
    """Balanced heuristic w_c = n_total / (2 * n_c)."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise BalanceError("class weights need both classes present")
    total = n_pos + n_neg
    return {0: total / (2.0 * n_neg), 1: total / (2.0 * n_pos)}


def weighted_bce(labels, probs: Tensor, weights: Optional[dict] = None) -> Tensor:
    """Mean of -w_y * [y log p + (1-y) log(1-p)]; unit weights give the
    plain binary cross-entropy. Probabilities are clamped to
    [1e-7, 1 - 1e-7] before the logs."""
    y = np.asarray(labels, dtype=probs.data.dtype)
    if y.shape != probs.shape:
        raise ContractError(f"labels shape {y.shape} != probabilities shape {probs.shape}")
    w = np.ones_like(y)
    if weights is not None:
        w = np.where(y == 1, weights[1], weights[0]).astype(probs.data.dtype)
    p = clamp(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = mul(log(p), Tensor(w * y, dtype=y.dtype))
    neg = mul(log(add(mul(p, -1.0), 1.0)), Tensor(w * (1.0 - y), dtype=y.dtype))
    return mul(mean_over_axis(add(pos, neg), axis=0), -1.0)


def _check_finite(params: dict, grads: dict, state: TrainState):
    """Raise naming the first parameter, in `params` order, whose gradient
    holds a NaN or an infinity."""
    for name in params:
        g = grads.get(name)
        if g is not None and not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for parameter {name!r} at step {state.step + 1}")


def adam_step(params: dict, grads: dict, state: TrainState, lr: float):
    """Bias-corrected Adam update in place. Every gradient is checked
    before anything changes, so a non-finite one raises with the
    parameters, moments and step count as they were."""
    _check_finite(params, grads, state)
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def fit_step(params: dict, probs_fn: Callable[[], Tensor], labels, weights: Optional[dict], state: TrainState) -> float:
    """One optimisation step on one batch: probabilities from `probs_fn` on
    a fresh tape, weighted BCE, backward, Adam. Returns the batch loss
    before the update. A non-finite gradient raises naming its parameter,
    with the parameters, moments and step count unchanged."""
    with Tape():
        loss = weighted_bce(labels, probs_fn(), weights)
        try:
            backward(loss)
        except NumericalError:
            _check_finite(params, {name: p.grad for name, p in params.items()}, state)
            raise
    adam_step(params, {name: p.grad for name, p in params.items()}, state, state.lr)
    return float(loss.data)


def plateau_scheduler(state: TrainState, val_loss: float, patience: int, factor: float) -> float:
    """Multiply the LR by `factor` after `patience` consecutive epochs
    without improvement beyond MIN_DELTA; returns the current LR."""
    if val_loss < state.plateau_best - MIN_DELTA:
        state.plateau_best = val_loss
        state.plateau_count = 0
    else:
        state.plateau_count += 1
        if state.plateau_count >= patience:
            state.lr *= factor
            state.plateau_count = 0
    return state.lr


def early_stopping(state: TrainState, val_loss: float, patience: int, params: dict) -> bool:
    """Snapshot on improvement; after `patience` stale epochs restore the
    best snapshot and signal a stop."""
    if val_loss < state.best_val_loss - MIN_DELTA:
        state.best_val_loss = val_loss
        state.early_count = 0
        state.best_weights = {name: np.array(p.data, copy=True) for name, p in params.items()}
        return False
    state.early_count += 1
    if state.early_count >= patience:
        restore_best(state, params)
        return True
    return False


def restore_best(state: TrainState, params: dict):
    if state.best_weights is not None:
        for name, p in params.items():
            p.data = state.best_weights[name].copy()


def evaluate_loss(model: Model, windows: Sequence, weights: Optional[dict] = None) -> float:
    """Eval-mode loss over all windows, from `predict_scores` (no gradient tape)."""
    probs = Tensor(predict_scores(model, windows), dtype=model.dtype)
    return float(weighted_bce([w.label for w in windows], probs, weights).data)


def predict_scores(model: Model, windows: Sequence) -> np.ndarray:
    """Eval-mode probabilities as float64, EVAL_CHUNK windows per forward."""
    windows = list(windows)
    chunks = [forward_batch(model, windows[i : i + EVAL_CHUNK]).data for i in range(0, len(windows), EVAL_CHUNK)]
    return np.concatenate(chunks or [np.zeros(0)]).astype(np.float64)


def train(model: Model, train_windows: Sequence, val_windows: Sequence, cfg: TrainConfig) -> list[EpochStats]:
    """Epoch loop of batched forward / weighted BCE / backward / Adam, with
    validation-driven LR plateau reduction and early stopping. Returns the
    per-epoch history; the model ends at its best-validation weights."""
    train_windows = list(train_windows)
    val_windows = list(val_windows)
    if not train_windows:
        raise WindowError("no training windows: the train split yields no observation windows for this data config")
    labels = np.array([w.label for w in train_windows])
    weights = class_weights(labels) if cfg.use_class_weights else None
    state = TrainState(lr=cfg.lr, rng=np.random.default_rng(cfg.seed))

    history: list[EpochStats] = []
    for epoch in range(1, cfg.max_epochs + 1):
        order = state.rng.permutation(len(train_windows))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = [train_windows[i] for i in idx]
            loss = fit_step(
                model.params, lambda: forward_batch(model, batch, training=True, rng=state.rng), labels[idx], weights, state
            )
            total += loss * len(idx)
        train_loss = total / len(train_windows)
        val_loss = evaluate_loss(model, val_windows) if val_windows else train_loss
        plateau_scheduler(state, val_loss, cfg.plateau_patience, cfg.plateau_factor)
        stop = early_stopping(state, val_loss, cfg.early_stop_patience, model.params)
        history.append(EpochStats(epoch, train_loss, val_loss, state.lr))
        if stop:
            break
    restore_best(state, model.params)
    return history


def finetune(model: Model, train_windows: Sequence, val_windows: Sequence, cfg: TrainConfig) -> list[EpochStats]:
    """Second training phase on an already-trained model: fresh optimizer
    state, no class weights, plateau factor forced to 0.1."""
    forced = dataclasses.replace(cfg, use_class_weights=False, plateau_factor=0.1)
    return train(model, train_windows, val_windows, forced)


def history_to_csv(history: Sequence[EpochStats], path):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
    for row in history:
        writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss), repr(row.lr)])
    write_atomic(path, buf.getvalue().encode("utf-8"))
