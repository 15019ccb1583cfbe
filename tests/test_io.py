"""Annotation JSONL parsing, the frame container, and the synthetic
scenario generator."""

import json
import tracemalloc

import numpy as np
import pytest

from pedintent.data import (
    FrameStore,
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
