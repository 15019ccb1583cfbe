"""Domain types for pedestrian tracks and observation windows.

Everything here is immutable after construction; preprocessing operations
are pure functions over these types and safe to run in parallel across
windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import IntegrityError

SPEED_CATEGORIES = ("stopped", "moving_slow", "moving_fast", "decelerating", "accelerating")
POSE_DIM = 36  # 18 joints x (x, y); missing joints encoded as (0, 0)
VISUAL_INPUTS = ("local_context", "local_surround", "global_context")

NONVISUAL_CHANNELS = ("bbox", "center", "pose", "speed")
CHANNEL_WIDTHS = {"bbox": 4, "center": 2, "pose": POSE_DIM, "speed": len(SPEED_CATEGORIES)}


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box, top-left and bottom-right corners."""

    x_tl: float
    y_tl: float
    x_br: float
    y_br: float

    def __post_init__(self):
        if self.x_tl > self.x_br or self.y_tl > self.y_br:
            raise IntegrityError(f"inverted bounding box {self.as_array().tolist()}")
        if min(self.x_tl, self.y_tl, self.x_br, self.y_br) < 0:
            raise IntegrityError("bounding box coordinates must be non-negative")

    def as_array(self) -> np.ndarray:
        return np.array([self.x_tl, self.y_tl, self.x_br, self.y_br], dtype=np.float64)

    def center(self) -> "Center":
        return Center((self.x_tl + self.x_br) / 2.0, (self.y_tl + self.y_br) / 2.0)

    @property
    def width(self) -> float:
        return self.x_br - self.x_tl

    @property
    def height(self) -> float:
        return self.y_br - self.y_tl


@dataclass(frozen=True)
class Center:
    x: float
    y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=np.float64)


def validate_pose(pose) -> np.ndarray:
    arr = np.asarray(pose, dtype=np.float64)
    if arr.shape != (POSE_DIM,):
        raise IntegrityError(f"pose must have exactly {POSE_DIM} floats, got shape {arr.shape}")
    return arr


def speed_one_hot(category: str) -> np.ndarray:
    if category not in SPEED_CATEGORIES:
        raise IntegrityError(f"unknown speed category {category!r}")
    vec = np.zeros(len(SPEED_CATEGORIES), dtype=np.float64)
    vec[SPEED_CATEGORIES.index(category)] = 1.0
    return vec


@dataclass(frozen=True)
class Frame:
    """One RGB video frame, 8-bit channels, row-major."""

    height: int
    width: int
    pixels: np.ndarray  # (height, width, 3) uint8

    def __post_init__(self):
        if self.pixels.shape != (self.height, self.width, 3) or self.pixels.dtype != np.uint8:
            raise IntegrityError("frame payload must be (height, width, 3) uint8")


@dataclass(frozen=True)
class TrackFrame:
    """Per-frame annotation record for one pedestrian."""

    frame: int
    bbox: BoundingBox
    center: Center
    pose: np.ndarray
    speed: str

    def __post_init__(self):
        object.__setattr__(self, "pose", validate_pose(self.pose))
        if self.speed not in SPEED_CATEGORIES:
            raise IntegrityError(f"unknown speed category {self.speed!r}")


@dataclass(frozen=True)
class PedestrianTrack:
    """Ordered per-frame records plus the crossing event and label."""

    pedestrian_id: str
    frames: tuple
    event_frame: int
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise IntegrityError(f"label must be 0 or 1, got {self.label!r}")
        idx = [f.frame for f in self.frames]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise IntegrityError(f"track {self.pedestrian_id!r} frame indices are not strictly increasing")
        object.__setattr__(self, "frames", tuple(self.frames))

    def __len__(self) -> int:
        return len(self.frames)

    def frame_map(self) -> dict[int, TrackFrame]:
        return {f.frame: f for f in self.frames}

    def bbox_array(self) -> np.ndarray:
        return np.stack([f.bbox.as_array() for f in self.frames])

    def center_array(self) -> np.ndarray:
        return np.stack([f.center.as_array() for f in self.frames])

    def pose_array(self) -> np.ndarray:
        return np.stack([f.pose for f in self.frames])


@dataclass
class ObservationWindow:
    """One training/evaluation sample.

    Delta-encoded bbox/center drop the reference frame, and pose/speed drop
    their first frame to match, so every non-visual channel has T rows for
    a raw window of T+1 frames. Clips keep all T+1 frames.
    """

    bbox_delta: np.ndarray  # (T, 4) float32
    center_delta: np.ndarray  # (T, 2) float32
    pose: np.ndarray  # (T, 36) float32
    speed: np.ndarray  # (T, 5) float32
    label: int
    time_to_event: int
    pedestrian_id: str = ""
    local_context: Optional[np.ndarray] = None  # (T+1, H, W, 3) float32 in [0, 1]
    local_surround: Optional[np.ndarray] = None
    global_context: Optional[np.ndarray] = None

    def __post_init__(self):
        t = self.bbox_delta.shape[0]
        for name in ("center_delta", "pose", "speed"):
            if getattr(self, name).shape[0] != t:
                raise IntegrityError(f"window channel {name} has mismatched length")
        for name in VISUAL_INPUTS:
            clip = getattr(self, name)
            if clip is not None and clip.shape[0] != t + 1:
                raise IntegrityError(f"clip {name} must keep the raw {t + 1} frames")

    @property
    def n_frames(self) -> int:
        return self.bbox_delta.shape[0]

    def clip(self, name: str) -> Optional[np.ndarray]:
        if name not in VISUAL_INPUTS:
            raise IntegrityError(f"unknown visual input {name!r}")
        return getattr(self, name)
