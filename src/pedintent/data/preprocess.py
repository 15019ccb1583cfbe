"""Feature preprocessing: windowing, delta encoding, crop construction.

A window's non-visual features are built once, as the one (T, 47) float32
array `ObservationWindow.nonvisual`: for raw frames 0..T, row j holds the
bbox delta (4) and center delta (2) of frame j+1 from frame 0, then frame
j+1's pose (36) and speed one-hot (5), each written to the columns that
`CHANNEL_COLUMNS` names.

Crops follow the pipeline: enlarge the box about its center, crop with
zero padding where the box leaves the frame, bilinear-resize (corner
aligned), and scale intensities to [0, 1] by dividing by 255. The standard
crop sizes are 112/128/224 square for local inputs and 112/224 for the
global frame; smaller sizes are accepted for desk-scale runs.

Each visual input of a window is rendered by one `build_*` call per frame,
each frame fetched once per window; the benchmark's per-frame crop figures
count those calls, so a batched crop of a clip's frames would change them.
A crop touches only its uint8 patch: a local crop copies its box out of
the frame, zero-padded where the box leaves it, and the local surround
paints its grey box onto that patch, never onto the frame.

One resample kernel renders every crop, from the uint8 patch or frame. Its
plans (corner indices and fractions) depend only on the input and output
sizes, so they are computed once and cached: a row plan per axis length,
holding the distinct rows the 2*out_h samples read and each sample's place
among them, and a column plan over the flattened W*C axis of each pixel
row, whose indices name every channel of a sampled column and whose
fractions repeat per channel. The kernel gathers the distinct rows (when
they are fewer than the image's), then their sampled columns, and scales
only those uint8 samples to float32. It blends the two columns of each
distinct row, gathers the blended rows as a top and a bottom plane, each
one contiguous block, and blends the planes. Every pass runs over flat
(out_w*C)-long rows, one contiguous loop each; a tall frame costs at most
2*out_h rows, whatever its height. Each output value goes through the
float32 operations the float kernel applies to a patch scaled first, in
the same order: p / 255 has the same float32 bits whether it is divided in
float64 or float32, for every uint8 p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import (
    BalanceError,
    ConfigError,
    DegenerateCropError,
    DimensionError,
    WindowError,
)
from .io import FrameStore
from .types import (
    CHANNEL_COLUMNS,
    NONVISUAL_WIDTH,
    SPEED_CATEGORIES,
    BoundingBox,
    Frame,
    ObservationWindow,
    PedestrianTrack,
)

GREY_MASK_VALUE = 128  # pre-normalization grey used to hide the pedestrian


_ONE_HOT = np.eye(len(SPEED_CATEGORIES))


@functools.lru_cache(maxsize=1024)
def _axis_plan(n: int, out: int) -> tuple[np.ndarray, np.ndarray]:
    """Corner-aligned bilinear sample plan of `out` points over an axis of
    `n` pixels: the int64 indices [lower; upper] of shape (2*out,) and the
    float32 fractions of shape (out,). Cached, so both are read-only.

    Keys repeat: the output sizes are fixed and a crop's pixel size follows
    its box, which moves by a pixel or so between frames of a track, so
    the windows of a track reuse a few dozen keys. 1024 entries hold that
    working set and cost at most 4.6 MB at 224-point plans."""
    pos = np.linspace(0.0, n - 1.0, out) if out > 1 else np.zeros(1)
    lower = np.floor(pos).astype(np.int64)
    index = np.concatenate([lower, np.minimum(lower + 1, n - 1)])
    frac = (pos - lower).astype(np.float32)
    index.flags.writeable = False
    frac.flags.writeable = False
    return index, frac


@functools.lru_cache(maxsize=1024)
def _column_plan(w: int, c: int, out: int) -> tuple[np.ndarray, np.ndarray]:
    """`_axis_plan(w, out)` over the flattened W*C axis of an (H, W, C)
    image: the int64 indices of shape (2*out*c,) of each sampled column's
    c channels, and the float32 fractions repeated per channel, of shape
    (out*c,). Cached, so both are read-only."""
    index, frac = _axis_plan(w, out)
    flat = (index[:, None] * c + np.arange(c)).reshape(-1)
    frac = np.repeat(frac, c)
    flat.flags.writeable = False
    frac.flags.writeable = False
    return flat, frac


@functools.lru_cache(maxsize=1024)
def _row_plan(n: int, out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_axis_plan(n, out)` over the rows of an image: the sorted distinct
    rows its 2*out indices read, each index's position among them (the
    first `out` for the top rows, the rest for the bottom ones), and the
    plan's fractions. Cached, so all three are read-only.

    Keyed as `_axis_plan` is. An entry holds at most 4*out int64 values,
    7 KiB at 224-point plans, so 1024 entries cost at most 7.3 MB."""
    index, frac = _axis_plan(n, out)
    rows, at = np.unique(index, return_inverse=True)
    rows.flags.writeable = False
    at.flags.writeable = False
    return rows, at, frac


def is_crop_size(n) -> bool:
    """Whether `n` is a valid output length of a crop: an int >= 1, not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1


def _resample(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resample of an (H, W, C) image to a float32
    (out_h, out_w, C) image; both output sizes must be ints >= 1. A uint8
    image is scaled to [0, 1] by dividing by 255, after the gather, so only
    the sampled pixels are scaled; any other input must be float32."""
    if image.ndim != 3 or 0 in image.shape[:2] or not (is_crop_size(out_h) and is_crop_size(out_w)):
        raise DimensionError(f"cannot resize an image of shape {image.shape} to ({out_h!r}, {out_w!r})")
    h, w, c = image.shape
    rows, at, fy = _row_plan(h, out_h)
    cols, fx = _column_plan(w, c, out_w)
    flat = image.reshape(h, w * c)
    if len(rows) < h:
        flat = flat.take(rows, axis=0)
    samples = flat.take(cols, axis=1)
    if samples.dtype == np.uint8:
        samples = np.divide(samples, 255.0, dtype=np.float32)
    n = out_w * c
    left = samples[:, :n]
    lines = samples[:, n:] - left  # the columns of each distinct row, blended
    lines *= fx
    lines += left
    planes = lines.take(at, axis=0)  # the top rows, then the bottom ones
    top = planes[:out_h]
    out = planes[out_h:] - top
    out *= fy[:, None]
    out += top
    return out.reshape(out_h, out_w, c)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resample of an (H, W, C) image, read as
    float32 and not scaled, to a float32 (out_h, out_w, C) image; both
    output sizes must be ints >= 1."""
    return _resample(np.asarray(image, dtype=np.float32), out_h, out_w)


def _pixel_box(x_tl: float, y_tl: float, x_br: float, y_br: float) -> tuple[int, int, int, int]:
    """Half-open integer pixel box covering the float box."""
    return math.floor(x_tl), math.floor(y_tl), math.ceil(x_br), math.ceil(y_br)


def _enlarged(bbox: BoundingBox, ratio: float) -> tuple[float, float, float, float]:
    cx = (bbox.x_tl + bbox.x_br) / 2.0
    cy = (bbox.y_tl + bbox.y_br) / 2.0
    half_w = bbox.width * ratio / 2.0
    half_h = bbox.height * ratio / 2.0
    return cx - half_w, cy - half_h, cx + half_w, cy + half_h


def _crop_padded(pixels: np.ndarray, box: tuple[int, int, int, int]) -> np.ndarray:
    """Copy a half-open pixel box out of uint8 pixels, zero-padding outside
    the frame."""
    x0, y0, x1, y1 = box
    if x1 <= x0 or y1 <= y0:
        raise DegenerateCropError("crop region is empty")
    h, w = pixels.shape[:2]
    if x1 <= 0 or y1 <= 0 or x0 >= w or y0 >= h:
        raise DegenerateCropError("crop region lies entirely outside the frame")
    if x0 >= 0 and y0 >= 0 and x1 <= w and y1 <= h:
        return pixels[y0:y1, x0:x1].copy()
    out = np.zeros((y1 - y0, x1 - x0, 3), dtype=np.uint8)
    sx0, sy0 = max(x0, 0), max(y0, 0)
    sx1, sy1 = min(x1, w), min(y1, h)
    out[sy0 - y0 : sy1 - y0, sx0 - x0 : sx1 - x0] = pixels[sy0:sy1, sx0:sx1]
    return out


def _check_ratio(ratio: float):
    if ratio < 1.0:
        raise ConfigError("enlargement ratio must be >= 1")
    if not ratio < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"enlargement ratio must be finite, got {ratio}")


def build_local_context(frame: Frame, bbox: BoundingBox, ratio: float, size: tuple[int, int]) -> np.ndarray:
    """The frame around the pedestrian's box, enlarged by `ratio` (>= 1)
    about its center and zero-padded outside the frame, resized to `size`
    with intensities scaled to [0, 1]: a float32 (*size, 3) image."""
    _check_ratio(ratio)
    box = _pixel_box(*_enlarged(bbox, ratio))
    return _resample(_crop_padded(frame.pixels, box), size[0], size[1])


def build_local_surround(frame: Frame, bbox: BoundingBox, ratio: float, size: tuple[int, int]) -> np.ndarray:
    """The local context with the un-enlarged pedestrian box painted
    `GREY_MASK_VALUE` in the uint8 patch before the resize."""
    _check_ratio(ratio)
    gx0, gy0, gx1, gy1 = _pixel_box(bbox.x_tl, bbox.y_tl, bbox.x_br, bbox.y_br)
    x0, y0, x1, y1 = _pixel_box(*_enlarged(bbox, ratio))
    patch = _crop_padded(frame.pixels, (x0, y0, x1, y1))
    # Grey only the part of the box whose pixels the patch took from the
    # frame, which is what cropping a greyed copy of the frame would give.
    top, left = max(gy0, y0, 0), max(gx0, x0, 0)
    bottom, right = max(min(gy1, y1, frame.height), top), max(min(gx1, x1, frame.width), left)
    patch[top - y0 : bottom - y0, left - x0 : right - x0] = GREY_MASK_VALUE
    return _resample(patch, size[0], size[1])


def build_global_context(frame: Frame, size: tuple[int, int]) -> np.ndarray:
    """The whole frame resized to `size` with intensities scaled to
    [0, 1]: a float32 (*size, 3) image."""
    return _resample(frame.pixels, size[0], size[1])


@dataclass(frozen=True)
class ClipConfig:
    """Which visual inputs to render and at what geometry."""

    inputs: tuple = ()
    ratio: float = 1.5
    local_size: tuple = (32, 32)
    global_size: tuple = (32, 32)


def _build_clips(track: PedestrianTrack, rows: slice, frames: FrameStore, cfg: ClipConfig) -> dict:
    fetched = [frames.get(index) for index in track.frames[rows].tolist()]
    boxes = [BoundingBox(*box) for box in track.bbox[rows].tolist()]
    clips: dict[str, np.ndarray] = {}
    for name in cfg.inputs:
        if name == "local_context":
            per_frame = [build_local_context(f, b, cfg.ratio, cfg.local_size) for f, b in zip(fetched, boxes)]
        elif name == "local_surround":
            per_frame = [build_local_surround(f, b, cfg.ratio, cfg.local_size) for f, b in zip(fetched, boxes)]
        elif name == "global_context":
            per_frame = [build_global_context(f, cfg.global_size) for f in fetched]
        else:
            raise ConfigError(f"unknown visual input {name!r}")
        clips[name] = np.stack(per_frame)
    return clips


def _build_window(track: PedestrianTrack, end_frame: int, obs_len: int, frames, clip_cfg) -> Optional[ObservationWindow]:
    """The window of raw frames end_frame - obs_len + 1 .. end_frame, or None if `track` lacks one."""
    start = end_frame - obs_len + 1
    first = int(np.searchsorted(track.frames, start))
    rows = slice(first, first + obs_len)
    # Frame indices strictly increase, so the obs_len rows from the first
    # index >= start hold the frames start..end_frame exactly when the last
    # of them is end_frame.
    if start < 0 or rows.stop > len(track) or track.frames[rows.stop - 1] != end_frame:
        return None
    clips = _build_clips(track, rows, frames, clip_cfg) if clip_cfg and clip_cfg.inputs else {}
    after_first = slice(first + 1, rows.stop)
    speed = [SPEED_CATEGORIES.index(category) for category in track.speed[after_first]]
    nonvisual = np.empty((obs_len - 1, NONVISUAL_WIDTH), dtype=np.float32)
    nonvisual[:, CHANNEL_COLUMNS["bbox"]] = track.bbox[after_first] - track.bbox[first]
    nonvisual[:, CHANNEL_COLUMNS["center"]] = track.center[after_first] - track.center[first]
    nonvisual[:, CHANNEL_COLUMNS["pose"]] = track.pose[after_first]
    nonvisual[:, CHANNEL_COLUMNS["speed"]] = _ONE_HOT[speed]
    return ObservationWindow(
        nonvisual=nonvisual,
        label=track.label,
        time_to_event=track.event_frame - end_frame,
        pedestrian_id=track.pedestrian_id,
        **clips,
    )


def extract_windows(
    track: PedestrianTrack,
    obs_len: int,
    tte_range: tuple[int, int],
    stride: int,
    frames: Optional[FrameStore] = None,
    clip_cfg: Optional[ClipConfig] = None,
) -> list[ObservationWindow]:
    """One window per time-to-event in {lo, lo+stride, ...} <= hi.

    Each window observes the raw frames [event - tte - obs_len + 1,
    event - tte]; windows needing frames the track does not contain are
    skipped. Returns an empty list (not an error) for short tracks. Only
    the tte values whose window ends on a frame the track holds are
    visited, so the work is bounded by the track, not by the range.
    """
    if obs_len < 2:
        raise ConfigError("obs_len must be >= 2")
    lo, hi = tte_range
    if lo > hi or lo < 0:
        raise ConfigError(f"invalid tte range [{lo}, {hi}]")
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    if clip_cfg is not None and clip_cfg.inputs and frames is None:
        raise ConfigError("clip construction requires a frame source")

    if len(track) < obs_len:
        return []
    # A window ends on one of the track's frames from its obs_len-th on, so
    # only the aligned tte values between these two can yield one.
    first = max(lo, track.event_frame - int(track.frames[-1]))
    last = min(hi, track.event_frame - int(track.frames[obs_len - 1]))
    first = lo + -(-(first - lo) // stride) * stride
    ends = (track.event_frame - tte for tte in range(first, last + 1, stride))
    windows = (_build_window(track, end, obs_len, frames, clip_cfg) for end in ends)
    return [w for w in windows if w is not None]


def extract_window_at(
    track: PedestrianTrack,
    obs_len: int,
    end_frame: int,
    frames: Optional[FrameStore] = None,
    clip_cfg: Optional[ClipConfig] = None,
) -> ObservationWindow:
    """Single window whose last observed frame is `end_frame` (for prediction)."""
    if obs_len < 2:
        raise WindowError(f"a window needs at least 2 frames, got obs_len {obs_len}")
    window = _build_window(track, end_frame, obs_len, frames, clip_cfg)
    if window is None:
        raise WindowError(f"track {track.pedestrian_id!r} lacks frames {end_frame - obs_len + 1}..{end_frame}")
    return window


def resample_balance(windows: Sequence[ObservationWindow], seed: int) -> list[ObservationWindow]:
    """Upsample the minority class with replacement until class counts match."""
    windows = list(windows)
    labels = np.array([w.label for w in windows])
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise BalanceError("resampling needs both classes present")
    if len(pos) == len(neg):
        return windows
    minority = pos if len(pos) < len(neg) else neg
    deficit = abs(len(pos) - len(neg))
    rng = np.random.default_rng(seed)
    extra = rng.choice(minority, size=deficit, replace=True)
    return windows + [windows[i] for i in extra]


def split_tracks(
    tracks: Sequence[PedestrianTrack],
    seed: int,
    fractions: tuple[float, float, float] = (0.7, 0.15, 0.15),
) -> dict[str, list[PedestrianTrack]]:
    """Deterministic train/val/test split by track, so no pedestrian straddles splits."""
    order = np.random.default_rng(seed).permutation(len(tracks))
    n = len(tracks)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    shuffled = [tracks[i] for i in order]
    return {
        "train": shuffled[:n_train],
        "val": shuffled[n_train : n_train + n_val],
        "test": shuffled[n_train + n_val :],
    }
