"""Domain types for pedestrian tracks and observation windows.

A `PedestrianTrack` holds one row per observed frame in each of its
per-frame columns: `frames` (the frame indices, strictly increasing),
`bbox`, `center`, `pose` and `speed`. Windows are slices of these columns.

An `ObservationWindow` carries its non-visual features as one (T, 47)
float32 array whose columns hold, in `NONVISUAL_CHANNELS` order, the bbox
delta (4), the center delta (2), the pose (36) and the speed one-hot (5);
`CHANNEL_COLUMNS` names each channel's columns, and this module is the
only one that knows them.

Everything here is immutable after construction; preprocessing operations
are pure functions over these types and safe to run in parallel across
windows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import IntegrityError

SPEED_CATEGORIES = ("stopped", "moving_slow", "moving_fast", "decelerating", "accelerating")
POSE_DIM = 36  # 18 joints x (x, y); missing joints encoded as (0, 0)
VISUAL_INPUTS = ("local_context", "local_surround", "global_context")

NONVISUAL_CHANNELS = ("bbox", "center", "pose", "speed")
CHANNEL_WIDTHS = {"bbox": 4, "center": 2, "pose": POSE_DIM, "speed": len(SPEED_CATEGORIES)}
_ENDS = np.cumsum([CHANNEL_WIDTHS[name] for name in NONVISUAL_CHANNELS]).tolist()
CHANNEL_COLUMNS = {name: slice(end - CHANNEL_WIDTHS[name], end) for name, end in zip(NONVISUAL_CHANNELS, _ENDS)}
NONVISUAL_WIDTH = _ENDS[-1]


@functools.lru_cache(maxsize=64)
def nonvisual_columns(channels: tuple) -> np.ndarray:
    """Indices of the columns of `channels` in a window's `nonvisual` array,
    in `NONVISUAL_CHANNELS` order whatever the order of `channels`. Cached,
    so read-only: building the index costs more than stacking one window."""
    columns = np.r_[tuple(CHANNEL_COLUMNS[name] for name in NONVISUAL_CHANNELS if name in channels)]
    columns.flags.writeable = False
    return columns


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box, top-left and bottom-right corners."""

    x_tl: float
    y_tl: float
    x_br: float
    y_br: float

    def __post_init__(self):
        if self.x_tl > self.x_br or self.y_tl > self.y_br:
            raise IntegrityError(f"inverted bounding box {[self.x_tl, self.y_tl, self.x_br, self.y_br]}")
        if min(self.x_tl, self.y_tl, self.x_br, self.y_br) < 0:
            raise IntegrityError("bounding box coordinates must be non-negative")

    @property
    def width(self) -> float:
        return self.x_br - self.x_tl

    @property
    def height(self) -> float:
        return self.y_br - self.y_tl


@dataclass(frozen=True)
class Frame:
    """One RGB video frame, 8-bit channels, row-major."""

    height: int
    width: int
    pixels: np.ndarray  # (height, width, 3) uint8

    def __post_init__(self):
        if self.pixels.shape != (self.height, self.width, 3) or self.pixels.dtype != np.uint8:
            raise IntegrityError("frame payload must be (height, width, 3) uint8")


def _numbers(name: str, values, n: int, width: int) -> np.ndarray:
    """`values` as an (n, width) float64 array of finite numbers."""
    try:
        arr = np.asarray(values)
    except ValueError as e:  # rows of different lengths
        raise IntegrityError(f"{name} must hold {width} numbers per frame") from e
    if arr.dtype.kind not in "iuf" or arr.shape != (n, width):
        raise IntegrityError(f"{name} must hold {width} numbers per frame, got {arr.dtype.name} values of shape {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise IntegrityError(f"{name} values must be finite")
    return arr


@dataclass(frozen=True)
class PedestrianTrack:
    """One pedestrian's observed frames, one row per frame in each column,
    plus the crossing event and label."""

    pedestrian_id: str
    frames: np.ndarray  # (n,) int64 frame indices, strictly increasing
    bbox: np.ndarray  # (n, 4) float64: x_tl, y_tl, x_br, y_br
    center: np.ndarray  # (n, 2) float64
    pose: np.ndarray  # (n, 36) float64
    speed: tuple  # n speed categories
    event_frame: int
    label: int

    def __post_init__(self):
        if type(self.label) is not int or self.label not in (0, 1):
            raise IntegrityError(f"label must be 0 or 1, got {self.label!r}")
        frames = np.asarray(self.frames)
        if frames.ndim != 1 or frames.dtype.kind not in "iu" or not np.can_cast(frames.dtype, np.int64):
            raise IntegrityError(f"track {self.pedestrian_id!r} frame indices must be integers")
        if np.any(frames[1:] <= frames[:-1]):
            raise IntegrityError(f"track {self.pedestrian_id!r} frame indices are not strictly increasing")
        object.__setattr__(self, "frames", frames.astype(np.int64, copy=False))
        for name in ("bbox", "center", "pose"):
            object.__setattr__(self, name, _numbers(name, getattr(self, name), len(frames), CHANNEL_WIDTHS[name]))
        inverted = (self.bbox[:, 0] > self.bbox[:, 2]) | (self.bbox[:, 1] > self.bbox[:, 3])
        if inverted.any():
            raise IntegrityError(f"bbox {self.bbox[np.argmax(inverted)].tolist()} is inverted")
        if (self.bbox < 0).any():
            raise IntegrityError("bbox coordinates must be non-negative")
        object.__setattr__(self, "speed", tuple(self.speed))
        if len(self.speed) != len(frames):
            raise IntegrityError(f"speed must hold one category per frame, got {len(self.speed)} for {len(frames)} frames")
        unknown = [category for category in self.speed if category not in SPEED_CATEGORIES]
        if unknown:
            raise IntegrityError(f"unknown speed category {unknown[0]!r}")

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class ObservationWindow:
    """One training/evaluation sample.

    `nonvisual` is one (T, 47) float32 array for a raw window of T+1
    frames: row j holds frame j+1's bbox and center minus frame 0's, then
    frame j+1's pose and speed one-hot (`CHANNEL_COLUMNS` names the
    columns). The reference frame 0 has no row; clips keep all T+1 frames.
    Fields cannot be reassigned (`dataclasses.replace` builds a checked
    copy), so every window has passed the checks below.
    """

    nonvisual: np.ndarray  # (T, 47) float32: bbox delta, center delta, pose, speed one-hot
    label: int
    time_to_event: int
    pedestrian_id: str = ""
    local_context: Optional[np.ndarray] = None  # (T+1, H, W, 3) float32 in [0, 1]
    local_surround: Optional[np.ndarray] = None
    global_context: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.nonvisual.ndim != 2 or self.nonvisual.shape[1] != NONVISUAL_WIDTH:
            raise IntegrityError(f"window non-visual array must be (T, {NONVISUAL_WIDTH}), got {self.nonvisual.shape}")
        t = self.n_frames
        for name in VISUAL_INPUTS:
            clip = getattr(self, name)
            if clip is not None and clip.shape[0] != t + 1:
                raise IntegrityError(f"clip {name} must keep the raw {t + 1} frames")

    @property
    def n_frames(self) -> int:
        return self.nonvisual.shape[0]

    def clip(self, name: str) -> Optional[np.ndarray]:
        if name not in VISUAL_INPUTS:
            raise IntegrityError(f"unknown visual input {name!r}")
        return getattr(self, name)
