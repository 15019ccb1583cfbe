"""Synthetic crossing scenarios for desk-scale verification.

Each track is a rectangle "pedestrian" walking across its own segment of a
shared frame container. Three labeling rules:

  separable_motion  label = 1 iff the pedestrian walks toward the road
                    centerline (positive lateral velocity), so a linear
                    rule on delta-encoded boxes classifies perfectly.
  separable_visual  label is drawn independently of all motion features
                    and encoded only in the pedestrian's fill intensity
                    (bright = crossing), so only pixels carry signal.
  random            label is an independent coin flip.

Generation is deterministic: per-track generators are spawned from the
root seed, so parallel generation would equal sequential generation.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .io import FrameStore
from .types import CHANNEL_COLUMNS, SPEED_CATEGORIES, PedestrianTrack

RULES = ("separable_motion", "separable_visual", "random")
_MAX_RECT_H = 17  # the tallest pedestrian, so the least frame height

# relative joint layout inside the bounding box (18 joints)
_JOINT_FRACTIONS = np.array([
    (0.5, 0.05), (0.5, 0.15),                      # head, neck
    (0.3, 0.2), (0.7, 0.2),                        # shoulders
    (0.2, 0.35), (0.8, 0.35),                      # elbows
    (0.15, 0.5), (0.85, 0.5),                      # wrists
    (0.4, 0.5), (0.6, 0.5),                        # hips
    (0.35, 0.65), (0.65, 0.65),                    # knees
    (0.35, 0.85), (0.65, 0.85),                    # ankles
    (0.45, 0.03), (0.55, 0.03),                    # eyes
    (0.42, 0.07), (0.58, 0.07),                    # ears
])


def _track(
    rng: np.random.Generator,
    pid: str,
    rule: str,
    start_frame: int,
    track_len: int,
    height: int,
    width: int,
    canvas: np.ndarray,
):
    rect_w = int(rng.integers(7, 11))
    rect_h = int(rng.integers(13, _MAX_RECT_H + 1))
    moving_right = bool(rng.integers(0, 2))
    vx = 1 if moving_right else -1
    span = track_len - 1
    if moving_right:
        x0 = int(rng.integers(2, max(3, width - span - rect_w - 2)))
    else:
        x0 = int(rng.integers(span + 2, width - rect_w - 1))
    y0 = int(rng.integers(2, max(3, height - rect_h - 2)))

    if rule == "separable_motion":
        label = int(vx > 0)
    else:
        label = int(rng.integers(0, 2))

    if rule == "separable_visual":
        intensity = 220 if label == 1 else 60
    else:
        intensity = 170
    background = int(rng.integers(80, 111))
    speed = str(rng.choice(SPEED_CATEGORIES))
    jitter_x = rng.integers(-1, 2, size=track_len)
    jitter_y = rng.integers(-1, 2, size=track_len)
    pose_noise = rng.normal(0.0, 0.3, size=(track_len, 18, 2))
    missing = rng.random((track_len, 18)) < 0.05

    t = np.arange(track_len)
    xs = np.clip(x0 + vx * t + jitter_x, 0, width - rect_w)
    ys = np.clip(y0 + jitter_y, 0, height - rect_h)
    frames = start_frame + t
    for frame_idx, x, y in zip(frames.tolist(), xs.tolist(), ys.tolist()):
        canvas[frame_idx].fill(background)
        canvas[frame_idx, y : y + rect_h, x : x + rect_w] = intensity

    corner = np.stack([xs, ys], axis=1)
    bbox = np.hstack([corner, corner + (rect_w, rect_h)]).astype(np.float64)
    joints = corner[:, None, :] + _JOINT_FRACTIONS * (rect_w, rect_h) + pose_noise
    joints[missing] = 0.0
    pose = joints.reshape(track_len, 36)
    center = (bbox[:, :2] + bbox[:, 2:]) / 2.0
    return PedestrianTrack(pid, frames, bbox, center, pose, (speed,) * track_len, start_frame + track_len - 1, label)


def generate_synthetic(
    seed: int,
    n_tracks: int,
    rule: str,
    track_len: int = 78,
    frame_size: tuple[int, int] = (40, 96),
) -> tuple[list[PedestrianTrack], FrameStore]:
    """Deterministic tracks plus the rendered frame container."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if rule not in RULES:
        raise ConfigError(f"rule must be one of {RULES}, got {rule!r}")
    if n_tracks < 1 or track_len < 4:
        raise ConfigError("need n_tracks >= 1 and track_len >= 4")
    height, width = frame_size
    if height < _MAX_RECT_H:
        raise ConfigError(f"frame height must be >= {_MAX_RECT_H}, the tallest pedestrian, got {height}")
    if width < track_len + 16:
        raise ConfigError("frame width too small for the walking span; widen the frame or shorten tracks")

    canvas = np.zeros((n_tracks * track_len, height, width, 3), dtype=np.uint8)
    tracks = []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(n_tracks)):
        rng = np.random.default_rng(child)
        tracks.append(_track(rng, f"ped_{k:04d}", rule, k * track_len, track_len, height, width, canvas))
    return tracks, FrameStore(canvas)


def motion_rule_oracle(nonvisual: np.ndarray) -> int:
    """The generating rule itself, as a linear classifier on a window's
    `nonvisual` array: the x_tl deltas of its boxes sum above zero."""
    return int(nonvisual[:, CHANNEL_COLUMNS["bbox"].start].sum() > 0)
