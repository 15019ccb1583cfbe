"""On-disk formats: JSON Lines annotations and the raw frame container.

Annotations carry one record per (pedestrian, frame):
  {"pid": str, "frame": int, "bbox": [4], "center": [2], "pose": [36],
   "speed": category string, "event_frame": int, "label": 0|1}

Frames live in a flat little-endian container: magic "PVF1", u32 height,
u32 width, u32 frame count, then raw 8-bit RGB payload, frames consecutive.
A loaded container is memory-mapped read-only, not copied into memory: a
frame's pixels are read from the file when a crop touches them.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from typing import Sequence

import numpy as np

from ..errors import IntegrityError, ParseError
from ..tensor import write_atomic
from .preprocess import FrameSource
from .types import (
    POSE_DIM,
    SPEED_CATEGORIES,
    BoundingBox,
    Center,
    Frame,
    PedestrianTrack,
    TrackFrame,
)

FRAME_MAGIC = b"PVF1"

_RECORD_FIELDS = ("pid", "frame", "bbox", "center", "pose", "speed", "event_frame", "label")


def _parse_record(obj: dict, lineno: int) -> tuple[str, TrackFrame, int, int]:
    for key in _RECORD_FIELDS:
        if key not in obj:
            raise ParseError(f"line {lineno}: missing field {key!r}")
    pid = obj["pid"]
    if not isinstance(pid, str):
        raise ParseError(f"line {lineno}: field 'pid' must be a string")
    if not isinstance(obj["frame"], int) or not isinstance(obj["event_frame"], int):
        raise ParseError(f"line {lineno}: fields 'frame'/'event_frame' must be integers")
    if obj["label"] not in (0, 1):
        raise ParseError(f"line {lineno}: field 'label' must be 0 or 1")
    bbox = obj["bbox"]
    if not isinstance(bbox, list) or len(bbox) != 4:
        raise ParseError(f"line {lineno}: field 'bbox' must hold 4 floats")
    center = obj["center"]
    if not isinstance(center, list) or len(center) != 2:
        raise ParseError(f"line {lineno}: field 'center' must hold 2 floats")
    pose = obj["pose"]
    if not isinstance(pose, list) or len(pose) != POSE_DIM:
        raise ParseError(f"line {lineno}: field 'pose' must hold {POSE_DIM} floats")
    if obj["speed"] not in SPEED_CATEGORIES:
        raise ParseError(f"line {lineno}: field 'speed' must be one of {SPEED_CATEGORIES}")
    try:
        record = TrackFrame(
            frame=obj["frame"],
            bbox=BoundingBox(*[float(v) for v in bbox]),
            center=Center(float(center[0]), float(center[1])),
            pose=np.array(pose, dtype=np.float64),
            speed=obj["speed"],
        )
    except IntegrityError as e:
        raise ParseError(f"line {lineno}: {e}") from e
    return pid, record, obj["event_frame"], obj["label"]


def load_annotations(path) -> list[PedestrianTrack]:
    """Parse tracks grouped by pedestrian id, frames sorted ascending."""
    grouped: dict[str, list[TrackFrame]] = {}
    meta: dict[str, tuple[int, int]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ParseError(f"line {lineno}: invalid JSON ({e.msg})") from e
                if not isinstance(obj, dict):
                    raise ParseError(f"line {lineno}: record must be a JSON object")
                pid, record, event_frame, label = _parse_record(obj, lineno)
                if pid in meta and meta[pid] != (event_frame, label):
                    raise IntegrityError(f"pedestrian {pid!r} has inconsistent event_frame/label")
                meta[pid] = (event_frame, label)
                grouped.setdefault(pid, []).append(record)
    except UnicodeDecodeError as e:
        raise ParseError(f"annotations {path} are not UTF-8 text ({e.reason})") from e

    tracks = []
    for pid, records in grouped.items():
        records.sort(key=lambda r: r.frame)
        idx = [r.frame for r in records]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise IntegrityError(f"pedestrian {pid!r} has duplicate frame indices")
        event_frame, label = meta[pid]
        tracks.append(PedestrianTrack(pid, tuple(records), event_frame, label))
    return tracks


def save_annotations(path, tracks: Sequence[PedestrianTrack]):
    records = (
        {
            "pid": track.pedestrian_id,
            "frame": rec.frame,
            "bbox": [float(v) for v in rec.bbox.as_array()],
            "center": [float(rec.center.x), float(rec.center.y)],
            "pose": [float(v) for v in rec.pose],
            "speed": rec.speed,
            "event_frame": track.event_frame,
            "label": track.label,
        }
        for track in tracks
        for rec in track.frames
    )
    write_atomic(path, "".join(json.dumps(obj) + "\n" for obj in records).encode("utf-8"))


class FrameStore(FrameSource):
    """Stack of same-sized RGB frames, in memory or mapped from a container
    file (`load`), addressed by global index."""

    def __init__(self, frames: np.ndarray):
        frames = np.asarray(frames)
        if frames.ndim != 4 or frames.shape[-1] != 3 or frames.dtype != np.uint8:
            raise IntegrityError("frame store expects (n, height, width, 3) uint8")
        self.frames = frames

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    def get(self, index: int) -> Frame:
        if not 0 <= index < len(self):
            raise IntegrityError(f"frame index {index} outside container of {len(self)} frames")
        return Frame(self.height, self.width, self.frames[index])

    def save(self, path):
        header = FRAME_MAGIC + struct.pack("<III", self.height, self.width, len(self))
        write_atomic(path, header + self.frames.tobytes())

    @classmethod
    def load(cls, path) -> "FrameStore":
        """Map the container at `path` read-only; its frames are views of
        the file. `save` (through `write_atomic`) replaces a file by rename,
        never in place, so a mapped store never sees a truncated file."""
        with open(path, "rb") as fh:
            header = fh.read(16)
            if header[:4] != FRAME_MAGIC:
                raise ParseError(f"bad frame container magic in {path}")
            if len(header) < 16:
                raise ParseError(f"truncated frame container header in {path}")
            height, width, count = struct.unpack("<III", header[4:16])
            expected = 16 + count * height * width * 3
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise ParseError(f"frame container payload length mismatch in {path}: have {size}, expected {expected}")
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        frames = np.frombuffer(buf, dtype=np.uint8, offset=16).reshape(count, height, width, 3)
        return cls(frames)
