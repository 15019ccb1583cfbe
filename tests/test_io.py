"""Annotation JSONL parsing, the frame container, and the synthetic
scenario generator."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pedintent

from pedintent.data import (
    FrameStore,
    PedestrianTrack,
    extract_windows,
    generate_synthetic,
    load_annotations,
    motion_rule_oracle,
    save_annotations,
    split_tracks,
)
from pedintent.errors import ConfigError, IntegrityError, ParseError
from pedintent.metrics import evaluate


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record(pid="p1", frame=0, bbox=(1, 2, 3, 4), pose_len=36, speed="stopped", event=50, label=1):
    return json.dumps(
        {
            "pid": pid,
            "frame": frame,
            "bbox": list(map(float, bbox)),
            "center": [(bbox[0] + bbox[2]) / 2, (bbox[1] + bbox[3]) / 2],
            "pose": [0.0] * pose_len,
            "speed": speed,
            "event_frame": event,
            "label": label,
        }
    )


class TestAnnotations:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_annotations(path) == []

    def test_interleaved_pids_grouped_and_sorted(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(
            path,
            [
                record(pid="a", frame=1),
                record(pid="b", frame=0, label=0, event=9),
                record(pid="a", frame=0),
                record(pid="b", frame=2, label=0, event=9),
            ],
        )
        tracks = {t.pedestrian_id: t for t in load_annotations(path)}
        assert sorted(tracks) == ["a", "b"]
        assert tracks["a"].frames.tolist() == [0, 1]
        assert tracks["b"].frames.tolist() == [0, 2]

    def test_pose_arity_error_names_field_and_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record(), record(frame=1, pose_len=35)])
        with pytest.raises(ParseError, match=r"line 2.*pose"):
            load_annotations(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record(), "{not json"])
        with pytest.raises(ParseError, match="line 2"):
            load_annotations(path)

    def test_unknown_speed(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record(speed="hyperspeed")])
        with pytest.raises(ParseError, match="speed"):
            load_annotations(path)

    def test_duplicate_frame_is_integrity_error(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record(frame=3), record(frame=3)])
        with pytest.raises(IntegrityError):
            load_annotations(path)

    def test_inconsistent_event_frame(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record(frame=0, event=50), record(frame=1, event=60)])
        with pytest.raises(IntegrityError):
            load_annotations(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "a.jsonl"
        obj = json.loads(record())
        del obj["bbox"]
        write_lines(path, [json.dumps(obj)])
        with pytest.raises(ParseError, match="bbox"):
            load_annotations(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("null", "record must be a JSON object"),
            ('"p1"', "record must be a JSON object"),
            ("{}", "missing field 'pid'"),
            (json.dumps({"pid": 5, "frame": 1.5, "label": 7}), "missing field 'bbox'"),
            (json.dumps({k: v for k, v in {**json.loads(record()), "pid": 5}.items() if k != "label"}), "missing field 'label'"),
            (json.dumps({**json.loads(record()), "pid": 5, "frame": 1.5}), "field 'pid' must be a string"),
            (json.dumps({**json.loads(record()), "frame": 1.5, "label": 7}), "fields 'frame'/'event_frame' must be integers"),
            (json.dumps({**json.loads(record()), "label": 7, "pose": [True] * 36}), "field 'label' must be 0 or 1"),
        ],
        ids=["null", "string", "empty", "missing-before-types", "last-field", "pid", "frame", "label-before-bools"],
    )
    def test_record_refusals_name_the_first_fault(self, tmp_path, line, message):
        """A missing field is named before any ill-typed one, the first in
        field order, and the field checks run in the order of this list."""
        path = tmp_path / "a.jsonl"
        write_lines(path, [record(), line])
        with pytest.raises(ParseError) as info:
            load_annotations(path)
        assert str(info.value) == f"line 2: {message}"

    def test_save_load_round_trip(self, tmp_path):
        tracks, _ = generate_synthetic(3, 4, "separable_motion", track_len=20, frame_size=(40, 64))
        path = tmp_path / "a.jsonl"
        save_annotations(path, tracks)
        loaded = load_annotations(path)
        assert len(loaded) == len(tracks)
        by_pid = {t.pedestrian_id: t for t in loaded}
        for t in tracks:
            twin = by_pid[t.pedestrian_id]
            assert twin.event_frame == t.event_frame and twin.label == t.label
            assert np.array_equal(twin.frames, t.frames)
            assert np.array_equal(twin.bbox, t.bbox)
            assert np.array_equal(twin.center, t.center)
            assert np.array_equal(twin.pose, t.pose)
            assert twin.speed == t.speed
        # a second save of the loaded tracks is byte-identical
        twin_path = tmp_path / "b.jsonl"
        save_annotations(twin_path, loaded)
        assert path.read_bytes() == twin_path.read_bytes()


def assert_same_tracks(a, b):
    """The two track lists hold the same tracks in the same order, every
    column byte for byte."""
    assert [t.pedestrian_id for t in a] == [t.pedestrian_id for t in b]
    for x, y in zip(a, b):
        assert (x.event_frame, x.label, x.speed) == (y.event_frame, y.label, y.speed)
        for name in ("frames", "bbox", "center", "pose"):
            assert getattr(x, name).dtype == getattr(y, name).dtype
            assert getattr(x, name).tobytes() == getattr(y, name).tobytes(), name


_GOOD = json.loads(record())
_BIG = 2**64 + 1


def _line(**fields):
    return json.dumps({**_GOOD, "frame": 1, **fields})


class TestLoaderParity:
    """Lines that orjson refuses are parsed again by `json`, so they fail
    with the same class and message as with `json` alone; the one
    difference left is an integer beyond 64 bits, which orjson reads as a
    double."""

    @pytest.mark.parametrize(
        "line, error, message",
        [
            (_line(pose=[0.0] * 35 + [math.nan]), ParseError, "line 2: pose values must be finite"),
            (_line(bbox=[math.nan, 2.0, 3.0, 4.0]), ParseError, "line 2: bbox values must be finite"),
            (_line(bbox=[1.0, 2.0, math.inf, 4.0]), ParseError, "line 2: bbox values must be finite"),
            (_line(pose=[math.inf] + [0.0] * 35), ParseError, "line 2: pose values must be finite"),
            (_line(pose=[-math.inf] + [0.0] * 35), ParseError, "line 2: pose values must be finite"),
            (_line(bbox=[-math.inf, 2.0, 3.0, 4.0]), ParseError, "line 2: bbox values must be finite"),
            (_line(center=[math.inf, 3.0]).replace("Infinity", "1e400"), ParseError, "line 2: center values must be finite"),
            (_line(frame=_BIG), ParseError, None),
            ("[1, 2]", ParseError, "line 2: record must be a JSON object"),
            ("{not json", ParseError, "line 2: invalid JSON (Expecting property name enclosed in double quotes)"),
        ],
        ids=[
            "nan-pose",
            "nan-bbox",
            "infinity-bbox",
            "infinity-pose",
            "minus-infinity-pose",
            "minus-infinity-bbox",
            "1e400-center",
            "frame-beyond-64-bits",
            "array",
            "not-json",
        ],
    )
    def test_error_matches_json_loader(self, tmp_path, line, error, message):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record(), line])
        with pytest.raises(error) as info:
            load_annotations(path)
        if message is None:  # the json loader failed later, in the track's frame check
            assert str(info.value).startswith("line 2:") and "frame" in str(info.value)
        else:
            assert str(info.value) == message

    def test_lone_surrogate_pid_loads(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_lines(path, [record(), _line(pid="\ud800")])
        assert [t.pedestrian_id for t in load_annotations(path)] == ["p1", "\ud800"]

    def test_crlf_and_blank_lines_load_as_lf(self, tmp_path):
        lines = [record(), "", record(frame=1), "   ", "\t", record(pid="b", frame=3, label=0, event=9), ""]
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        lf.write_bytes("\n".join(lines).encode("utf-8"))
        crlf.write_bytes("\r\n".join(lines).encode("utf-8"))
        assert_same_tracks(load_annotations(crlf), load_annotations(lf))
        bad = lines[:4] + [_line(frame=2, pose=[math.nan] * 36)] + lines[4:]
        crlf.write_bytes("\r\n".join(bad).encode("utf-8"))
        with pytest.raises(ParseError, match=r"^line 5: pose values must be finite$"):
            load_annotations(crlf)

    def test_integers_beyond_64_bits(self, tmp_path):
        """The documented difference: in a number column such an integer
        becomes its nearest double (`json` kept a Python int, and a row of
        nothing but integers was refused as object values), and in
        `event_frame` it is refused as a non-integer (`json` kept it)."""
        path = tmp_path / "a.jsonl"
        write_lines(path, [record(), _line(pose=[0] * 35 + [_BIG])])
        pose = load_annotations(path)[0].pose
        assert pose[1].tolist() == [0.0] * 35 + [float(_BIG)]
        write_lines(path, [_line(event_frame=_BIG)])
        with pytest.raises(ParseError, match=r"^line 1: fields 'frame'/'event_frame' must be integers$"):
            load_annotations(path)

    def test_long_line_is_parsed_by_json(self, tmp_path):
        """A line longer than orjson is given keeps json's reading: an
        integer row beyond 64 bits is refused."""
        path = tmp_path / "a.jsonl"
        write_lines(path, [_line(pid="p" * 5000, pose=[0] * 35 + [_BIG])])
        with pytest.raises(ParseError, match=r"^line 1: pose must hold 36 numbers per frame, got object values"):
            load_annotations(path)

    def test_deeply_nested_line_is_a_parse_error(self, tmp_path):
        """orjson would overflow its stack on the million-deep line, so it is
        loaded in a child process, where a crash cannot take the tests down."""
        path = tmp_path / "a.jsonl"
        write_lines(path, ['{"a": ' + "[" * 1500 + "NaN" + "]" * 1500 + "}"])
        with pytest.raises(ParseError, match=r"^line 1: invalid JSON \(nested too deeply\)$"):
            load_annotations(path)
        path.write_text("[" * 1_000_000 + "]" * 1_000_000 + "\n", encoding="utf-8")
        code = "import sys\nfrom pedintent.data import load_annotations\ntry:\n    load_annotations(sys.argv[1])\nexcept Exception as e:\n    print(e)"
        env = {**os.environ, "PYTHONPATH": str(Path(pedintent.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout.strip()) == (0, "line 1: invalid JSON (nested too deeply)"), proc.stderr

    def test_float_columns_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 64
        pose = rng.integers(0, 2**64, size=(n, 36), dtype=np.uint64).view(np.float64)
        pose[~np.isfinite(pose)] = 1.5
        tiny = np.finfo(np.float64).smallest_subnormal
        specials = [0.0, -0.0, tiny, -tiny, 3 * tiny, 1e308, -1e308, np.finfo(np.float64).max, -7.0, 2.0**60, 12345.0]
        pose[0, : len(specials)] = specials
        corners = np.sort(rng.random((n, 2, 2)) * rng.choice([1e-300, 1.0, 1e6], size=(n, 1, 1)), axis=1)
        bbox = corners.reshape(n, 4)  # x_tl, y_tl, x_br, y_br with tl <= br
        center = rng.random((n, 2)) * 1e3
        track = PedestrianTrack("p", np.arange(n), bbox, center, pose, ["stopped"] * n, 90, 1)
        path = tmp_path / "a.jsonl"
        save_annotations(path, [track])
        assert_same_tracks(load_annotations(path), [track])


class TestFrameStore:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 255, size=(5, 8, 6, 3)).astype(np.uint8)
        store = FrameStore(frames)
        path = tmp_path / "f.pvf"
        store.save(path)
        loaded = FrameStore.load(path)
        assert np.array_equal(loaded.frames, frames)
        raw = path.read_bytes()
        assert raw[:4] == b"PVF1"
        assert int.from_bytes(raw[4:8], "little") == 8
        assert int.from_bytes(raw[8:12], "little") == 6
        assert int.from_bytes(raw[12:16], "little") == 5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.pvf"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ParseError):
            FrameStore.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "f.pvf"
        path.write_bytes(b"PVF1" + b"\x00" * 8)
        with pytest.raises(ParseError):
            FrameStore.load(path)

    def test_load_maps_frames_read_only(self, tmp_path):
        frames = np.zeros((700, 100, 100, 3), np.uint8)
        frames[:, 0, 0] = np.arange(700 * 3).reshape(700, 3) % 251
        path = tmp_path / "f.pvf"
        FrameStore(frames).save(path)
        assert path.stat().st_size >= 20 << 20
        tracemalloc.start()
        try:
            loaded = FrameStore.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.array_equal(loaded.frames, frames)
        with pytest.raises(ValueError):
            loaded.get(3).pixels[0, 0, 0] = 1

    def test_length_mismatch(self, tmp_path):
        store = FrameStore(np.zeros((2, 4, 4, 3), np.uint8))
        path = tmp_path / "f.pvf"
        store.save(path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ParseError):
            FrameStore.load(path)

    def test_index_bounds(self):
        store = FrameStore(np.zeros((2, 4, 4, 3), np.uint8))
        with pytest.raises(IntegrityError):
            store.get(2)


class TestSyntheticGenerator:
    def test_same_seed_bit_identical(self):
        a_tracks, a_frames = generate_synthetic(9, 5, "random", track_len=30, frame_size=(40, 64))
        b_tracks, b_frames = generate_synthetic(9, 5, "random", track_len=30, frame_size=(40, 64))
        assert np.array_equal(a_frames.frames, b_frames.frames)
        for ta, tb in zip(a_tracks, b_tracks):
            assert ta.label == tb.label
            assert np.array_equal(ta.bbox, tb.bbox)
            assert np.array_equal(ta.pose, tb.pose)

    def test_motion_rule_oracle_is_perfect(self):
        tracks, _ = generate_synthetic(1, 30, "separable_motion")
        windows = [w for t in tracks for w in extract_windows(t, 16, (30, 60), 15)]
        assert windows
        assert all(motion_rule_oracle(w.nonvisual) == w.label for w in windows)

    def test_random_rule_label_independent_of_motion(self):
        tracks, _ = generate_synthetic(2, 120, "random")
        windows = [w for t in tracks for w in extract_windows(t, 16, (30, 60), 15)]
        scores = [float(motion_rule_oracle(w.nonvisual)) for w in windows]
        labels = [w.label for w in windows]
        report = evaluate(np.array(scores), labels)
        assert 0.35 <= report.auc <= 0.65

    def test_visual_rule_encodes_label_in_intensity_only(self):
        tracks, frames = generate_synthetic(4, 40, "separable_visual")
        # motion rule is uninformative
        windows = [w for t in tracks for w in extract_windows(t, 16, (30, 60), 15)]
        hits = np.mean([motion_rule_oracle(w.nonvisual) == w.label for w in windows])
        assert 0.3 <= hits <= 0.7
        # pedestrian pixels encode the label
        for t in tracks[:10]:
            x_tl, y_tl, x_br, y_br = t.bbox[10].astype(int)
            patch = frames.get(int(t.frames[10])).pixels[y_tl + 2 : y_br - 2, x_tl + 2 : x_br - 2]
            assert np.all(patch == (220 if t.label == 1 else 60))

    def test_pedestrian_rendered_at_bbox(self):
        tracks, frames = generate_synthetic(5, 3, "separable_motion", track_len=30, frame_size=(40, 64))
        x_tl, y_tl, x_br, y_br = tracks[0].bbox[5].astype(int)
        inside = frames.get(int(tracks[0].frames[5])).pixels[y_tl + 1 : y_br - 1, x_tl + 1 : x_br - 1]
        assert np.all(inside == 170)

    def test_bbox_coords_are_integers(self):
        tracks, _ = generate_synthetic(6, 3, "separable_motion", track_len=30, frame_size=(40, 64))
        arr = tracks[0].bbox
        assert np.array_equal(arr, np.round(arr))

    def test_unknown_rule(self):
        with pytest.raises(ConfigError):
            generate_synthetic(0, 2, "clairvoyant")


class TestSplitTracks:
    def test_fractions_and_determinism(self):
        tracks, _ = generate_synthetic(3, 20, "random", track_len=20, frame_size=(40, 64))
        a = split_tracks(tracks, seed=4)
        b = split_tracks(tracks, seed=4)
        assert [t.pedestrian_id for t in a["train"]] == [t.pedestrian_id for t in b["train"]]
        assert len(a["train"]) == 14 and len(a["val"]) == 3 and len(a["test"]) == 3
        ids = [t.pedestrian_id for s in ("train", "val", "test") for t in a[s]]
        assert sorted(ids) == sorted(t.pedestrian_id for t in tracks)
