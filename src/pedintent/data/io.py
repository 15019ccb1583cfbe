"""On-disk formats: JSON Lines annotations and the raw frame container.

Annotations carry one record per (pedestrian, frame):
  {"pid": str, "frame": int, "bbox": [4], "center": [2], "pose": [36],
   "speed": category string, "event_frame": int, "label": 0|1}
Loading groups the records by pedestrian, sorts them by frame and builds
each track's per-frame columns (frames, bbox, center, pose, speed) once;
saving writes one record per row of those columns. A malformed record is
a ParseError naming its line.

Each line is parsed by orjson, whose float parsing is several times
faster than the stdlib's and gives the same doubles bit for bit. `json`
parses a line only when orjson refuses it or the line is longer than
`_ORJSON_MAX_LINE`. orjson refuses some lines that `json` reads: the
NaN/Infinity literals that `json.dumps` writes, numbers that overflow a
double (1e400) and lone surrogate escapes; `json` reads them, so they
reach the field checks. A line both refuse is a ParseError with `json`'s
message, and so is one nested too deeply for `json`. Long lines never
reach orjson because it has no nesting limit: a deeply nested line would
overflow its stack. One difference remains: orjson reads an integer
beyond 64 bits as a double. `frame`, `event_frame` and `label` refuse it
as a non-integer (`json` kept such an `event_frame` as a Python int). In
bbox, center or pose it becomes its nearest double; `json` kept a Python
int there, so a row of nothing but integers was refused. Saving uses
`json`, so the files it writes do not depend on orjson.

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
from operator import itemgetter
from typing import Sequence

import numpy as np
import orjson

from ..errors import IntegrityError, ParseError
from ..tensor import write_atomic
from .types import Frame, PedestrianTrack

FRAME_MAGIC = b"PVF1"

_RECORD_FIELDS = ("pid", "frame", "bbox", "center", "pose", "speed", "event_frame", "label")
_NUMBER_FIELDS = ("bbox", "center", "pose")

# Longest line handed to orjson. orjson 3.8.3 segfaulted on a line nesting
# 200K arrays on an 8 MiB stack and 20K on a 1 MiB thread stack; a line this
# long nests at most 2K. A record of full-precision numbers is about 1.3 KB.
_ORJSON_MAX_LINE = 4096


def _record(obj, lineno: int, line: str):
    """The pid, (event_frame, label) and (frame, lineno, bbox, center,
    pose, speed) row of one record, after the checks that need no other
    record: its fields, id, frame indices and label, and no JSON true/false
    among the numbers of bbox, center or pose, which numpy would load as 1
    or 0.

    Such a bool sits in a list, so before the line's last "]". A record as
    `save_annotations` writes it holds no "u" (of true) and, its lists
    coming before "speed" and "label", no "l" (of false) before that "]".
    Only other lines are scanned for bools."""
    try:
        pid, frame, event_frame, label = obj["pid"], obj["frame"], obj["event_frame"], obj["label"]
        row = (frame, lineno, obj["bbox"], obj["center"], obj["pose"], obj["speed"])
    except (KeyError, TypeError):
        if not isinstance(obj, dict):
            raise ParseError(f"line {lineno}: record must be a JSON object") from None
        missing = next(key for key in _RECORD_FIELDS if key not in obj)
        raise ParseError(f"line {lineno}: missing field {missing!r}") from None
    if not isinstance(pid, str):
        raise ParseError(f"line {lineno}: field 'pid' must be a string")
    if type(frame) is not int or type(event_frame) is not int:
        raise ParseError(f"line {lineno}: fields 'frame'/'event_frame' must be integers")
    if type(label) is not int or label not in (0, 1):
        raise ParseError(f"line {lineno}: field 'label' must be 0 or 1")
    if "u" in line or line.find("l") < line.rfind("]"):
        for key, value in zip(_NUMBER_FIELDS, row[2:5]):
            if type(value) is list and any(type(v) is bool for v in value):
                raise ParseError(f"line {lineno}: field {key!r} must hold numbers, got a JSON true/false")
    return pid, (event_frame, label), row


def _parse_line(line: str, lineno: int):
    """One annotation line as parsed JSON: by orjson, or by `json` when orjson
    refuses the line or it is too long to hand to orjson."""
    if len(line) <= _ORJSON_MAX_LINE:
        try:
            return orjson.loads(line)
        except orjson.JSONDecodeError:
            pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {lineno}: invalid JSON ({e.msg})") from e
    except RecursionError as e:
        raise ParseError(f"line {lineno}: invalid JSON (nested too deeply)") from e


def _build_track(pid: str, rows: list, event_frame: int, label: int) -> PedestrianTrack:
    """The track of one pedestrian's (frame, line, bbox, center, pose, speed)
    rows. The columns are checked together; only when a check fails are the
    rows checked one by one, to name the line at fault."""
    rows.sort(key=itemgetter(0))
    for prev, row in zip(rows, rows[1:]):
        if row[0] == prev[0]:
            raise IntegrityError(f"line {row[1]}: pedestrian {pid!r} has duplicate frame index {row[0]}")
    frames, _, *columns = zip(*rows)
    try:
        return PedestrianTrack(pid, frames, *columns, event_frame, label)
    except IntegrityError:
        for frame, lineno, *values in rows:
            try:
                PedestrianTrack(pid, [frame], *([v] for v in values), event_frame, label)
            except IntegrityError as e:
                raise ParseError(f"line {lineno}: {e}") from e
        raise


def load_annotations(path) -> list[PedestrianTrack]:
    """Parse tracks grouped by pedestrian id, frames sorted ascending, each
    track's columns built once from its records."""
    grouped: dict[str, list[tuple]] = {}
    meta: dict[str, tuple[int, int]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                pid, event, row = _record(_parse_line(line, lineno), lineno, line)
                if meta.setdefault(pid, event) != event:
                    raise IntegrityError(f"line {lineno}: pedestrian {pid!r} has inconsistent event_frame/label")
                grouped.setdefault(pid, []).append(row)
    except UnicodeDecodeError as e:
        raise ParseError(f"annotations {path} are not UTF-8 text ({e.reason})") from e
    return [_build_track(pid, rows, *meta[pid]) for pid, rows in grouped.items()]


def save_annotations(path, tracks: Sequence[PedestrianTrack]):
    """Write one record per row of each track's columns, tracks in order."""
    records = (
        {
            "pid": track.pedestrian_id,
            "frame": frame,
            "bbox": bbox,
            "center": center,
            "pose": pose,
            "speed": speed,
            "event_frame": track.event_frame,
            "label": track.label,
        }
        for track in tracks
        for frame, bbox, center, pose, speed in zip(
            track.frames.tolist(), track.bbox.tolist(), track.center.tolist(), track.pose.tolist(), track.speed
        )
    )
    write_atomic(path, "".join(json.dumps(obj) + "\n" for obj in records).encode("utf-8"))


class FrameStore:
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
