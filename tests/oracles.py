"""Reference implementations that tests compare the package against, and
the op names a tape recorded."""

import numpy as np

from pedintent.data import CHANNEL_WIDTHS, NONVISUAL_CHANNELS, SPEED_CATEGORIES
from pedintent.errors import ConfigError, ContractError, IntegrityError
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


def window_channels(track, end_frame: int, obs_len: int) -> dict:
    """The four float32 non-visual channels of the window of raw frames
    end_frame - obs_len + 1 .. end_frame, each built on its own: bbox and
    center delta-encoded from the window's first frame, which they then
    drop, and pose and the speed one-hot of the other frames."""
    rows = np.flatnonzero((track.frames > end_frame - obs_len) & (track.frames <= end_frame))
    assert len(rows) == obs_len, "the track lacks some of the window's frames"
    speed = np.zeros((obs_len - 1, len(SPEED_CATEGORIES)))
    for j, row in enumerate(rows[1:]):
        speed[j, SPEED_CATEGORIES.index(track.speed[row])] = 1.0
    arrays = {
        "bbox": track.bbox[rows[1:]] - track.bbox[rows[0]],
        "center": track.center[rows[1:]] - track.center[rows[0]],
        "pose": track.pose[rows[1:]],
        "speed": speed,
    }
    return {name: arr.astype(np.float32) for name, arr in arrays.items()}


def assemble_nonvisual(arrays: dict, channels) -> np.ndarray:
    """Concatenate the enabled channels of `window_channels` in the fixed
    order bbox, center, pose, speed, whatever the order of `channels`."""
    if not channels:
        raise ConfigError("at least one non-visual channel must be enabled")
    unknown = [c for c in channels if c not in NONVISUAL_CHANNELS]
    if unknown:
        raise ConfigError(f"unknown non-visual channels {unknown}")
    t = len(arrays["bbox"])
    parts = []
    for name in NONVISUAL_CHANNELS:
        if name not in channels:
            continue
        arr = arrays[name]
        if arr.shape != (t, CHANNEL_WIDTHS[name]):
            raise IntegrityError(f"channel {name} has shape {arr.shape}, expected {(t, CHANNEL_WIDTHS[name])}")
        parts.append(arr)
    return np.hstack(parts).astype(np.float32)
