"""Domain types and preprocessing: delta encoding, crops, windowing,
channel stacking, rebalancing."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FROZEN_BUILD,
    FROZEN_GREY,
    assemble_nonvisual,
    frozen_global_context,
    frozen_local_context,
    frozen_local_surround,
    frozen_resize,
    window_channels,
)
from pedintent.data import (
    CHANNEL_COLUMNS,
    VISUAL_INPUTS,
    BoundingBox,
    ClipConfig,
    Frame,
    ObservationWindow,
    PedestrianTrack,
    bilinear_resize,
    build_global_context,
    build_local_context,
    build_local_surround,
    extract_window_at,
    extract_windows,
    generate_synthetic,
    resample_balance,
)
from pedintent.errors import (
    BalanceError,
    ConfigError,
    DegenerateCropError,
    DimensionError,
    IntegrityError,
    WindowError,
)
from pedintent.data import preprocess
from pedintent.data.preprocess import GREY_MASK_VALUE, _axis_plan, _column_plan, _resample, _row_plan
from pedintent.model import NAMED_CONFIGS, EncoderConfig, ModelSpec, named_model_spec
from pedintent.model.assembly import stack_windows


def make_frame(pixels):
    pixels = np.asarray(pixels, dtype=np.uint8)
    return Frame(pixels.shape[0], pixels.shape[1], pixels)


def make_track(n=20, pid="p0", start=0, label=1, vx=2.0):
    x = 10.0 + vx * np.arange(n)
    bbox = np.stack([x, np.full(n, 5.0), x + 8.0, np.full(n, 21.0)], axis=1)
    center = (bbox[:, :2] + bbox[:, 2:]) / 2.0
    return PedestrianTrack(pid, start + np.arange(n), bbox, center, np.zeros((n, 36)), ("stopped",) * n, start + n - 1, label)


def drop_frames(track, dropped):
    """`track` without the rows of the frame indices in `dropped`."""
    keep = ~np.isin(track.frames, dropped)
    speed = [s for s, k in zip(track.speed, keep) if k]
    rows = (track.frames[keep], track.bbox[keep], track.center[keep], track.pose[keep], speed)
    return PedestrianTrack(track.pedestrian_id, *rows, track.event_frame, track.label)


class TestTypes:
    def test_bbox_invariants(self):
        with pytest.raises(IntegrityError):
            BoundingBox(5.0, 0.0, 1.0, 4.0)
        with pytest.raises(IntegrityError):
            BoundingBox(-1.0, 0.0, 1.0, 4.0)
        track = make_track(n=3)
        inverted, negative = track.bbox.copy(), track.bbox.copy()
        inverted[1] = [5.0, 0.0, 1.0, 4.0]
        negative[2, 0] = -1.0
        for bbox in (inverted, negative):
            with pytest.raises(IntegrityError, match="bbox"):
                dataclasses.replace(track, bbox=bbox)

    def test_center_is_midpoint(self):
        tracks, _ = generate_synthetic(2, 3, "random", track_len=20, frame_size=(40, 64))
        for t in tracks:
            assert np.array_equal(t.center, (t.bbox[:, :2] + t.bbox[:, 2:]) / 2.0)

    def test_pose_arity(self):
        with pytest.raises(IntegrityError, match="pose"):
            dataclasses.replace(make_track(n=3), pose=np.zeros((3, 35)))

    def test_speed_one_hot(self):
        track = dataclasses.replace(make_track(n=3), speed=("stopped", "moving_fast", "accelerating"))
        w = extract_window_at(track, 3, 2)
        assert w.nonvisual[:, CHANNEL_COLUMNS["speed"]].tolist() == [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
        with pytest.raises(IntegrityError):
            dataclasses.replace(track, speed=("stopped", "warp", "stopped"))

    def test_window_fields_cannot_be_reassigned(self):
        """An assignment that would skip the window's checks raises; a
        checked copy by `dataclasses.replace` refuses the same array."""
        w = extract_window_at(make_track(n=16), 15, 15)
        bad = np.zeros((15, 5), np.float32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.nonvisual = bad
        with pytest.raises(IntegrityError, match="non-visual"):
            dataclasses.replace(w, nonvisual=bad)
        assert stack_windows(named_model_spec("ours2_nonvisual"), [w])[0].shape == (1,) + w.nonvisual.shape

    def test_track_monotone_frames(self):
        with pytest.raises(IntegrityError):
            dataclasses.replace(make_track(n=3), frames=np.array([0, 2, 2]))

    @pytest.mark.parametrize(
        "columns, field",
        [
            ({"frames": np.array([0.0, 1.0, 2.0])}, "frame"),
            ({"frames": np.array([True, False, True])}, "frame"),
            ({"label": 2}, "label"),
            ({"label": True}, "label"),
            ({"bbox": np.zeros((2, 4))}, "bbox"),
            ({"center": np.zeros((3, 3))}, "center"),
            ({"center": [[1.0, 2.0], [1.0, None], [1.0, 2.0]]}, "center"),
            ({"pose": np.full((3, 36), np.nan)}, "pose"),
            ({"pose": [["x"] * 36] * 3}, "pose"),
            ({"pose": [[0.0] * 36, [0.0] * 35, [0.0] * 36]}, "pose"),
            ({"speed": ("stopped",) * 2}, "speed"),
            ({"speed": ("stopped", "warp", "stopped")}, "speed"),
        ],
    )
    def test_track_column_checks(self, columns, field):
        """Every column is checked: row counts agree, widths, finite numbers, known categories."""
        with pytest.raises(IntegrityError, match=field):
            dataclasses.replace(make_track(n=3), **columns)

    def test_window_channel_alignment(self):
        """The non-visual array is (T, 47), and each clip keeps T + 1 frames."""
        for nonvisual, clip in [(np.zeros((3, 46)), None), (np.zeros(47), None), (np.zeros((3, 47)), np.zeros((3, 2, 2, 3)))]:
            with pytest.raises(IntegrityError):
                ObservationWindow(nonvisual.astype(np.float32), label=0, time_to_event=30, local_context=clip)


def _positions(track, bbox):
    """`track` with boxes `bbox` and their midpoints as centers."""
    return dataclasses.replace(track, bbox=bbox, center=(bbox[:, :2] + bbox[:, 2:]) / 2.0)


def _deltas(track, obs_len=None):
    """The bbox and center delta columns of the window over all of `track`'s frames."""
    w = extract_window_at(track, obs_len or len(track), int(track.frames[-1]))
    return w.nonvisual[:, CHANNEL_COLUMNS["bbox"]], w.nonvisual[:, CHANNEL_COLUMNS["center"]]


class TestDeltaEncode:
    def test_subtracts_first_frame(self):
        boxes = np.array([[10, 10, 20, 20], [12, 11, 22, 21], [14, 12, 24, 22]], dtype=float)
        bbox, center = _deltas(_positions(make_track(n=3), boxes))
        assert bbox.tolist() == [[2, 1, 2, 1], [4, 2, 4, 2]]
        assert center.tolist() == [[2, 1], [4, 2]]

    def test_identical_frames_zero(self):
        bbox, center = _deltas(make_track(n=5, vx=0.0))
        assert np.array_equal(bbox, np.zeros((4, 4))) and np.array_equal(center, np.zeros((4, 2)))

    def test_translation_invariance(self):
        # pixel-grid coordinates (integers and halves): shifting by a
        # constant leaves the deltas bit-identical
        rng = np.random.default_rng(0)
        corner = rng.integers(0, 200, size=(6, 2)).astype(np.float64) * 0.5
        boxes = np.hstack([corner, corner + rng.integers(1, 20, size=(6, 2)) * 0.5])
        track = make_track(n=6)
        for a, b in zip(_deltas(_positions(track, boxes)), _deltas(_positions(track, boxes + 5.0))):
            assert a.tobytes() == b.tobytes()

    @given(st.integers(min_value=2, max_value=12), st.floats(0, 1000, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance_property(self, n, c):
        track = make_track(n=n)
        shifted = _positions(track, track.bbox + c)
        for a, b in zip(_deltas(shifted), _deltas(track)):
            assert np.allclose(a, b, atol=1e-5)  # a shifted float64 delta may round to the next float32

    def test_too_short(self):
        with pytest.raises(WindowError):
            _deltas(make_track(n=20), obs_len=1)


def reference_bilinear(img, out_h, out_w):
    """Independent corner-aligned bilinear oracle: plain loops."""
    h, w = img.shape[:2]
    out = np.zeros((out_h, out_w, img.shape[2]), dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            y = i * (h - 1) / (out_h - 1) if out_h > 1 else 0.0
            x = j * (w - 1) / (out_w - 1) if out_w > 1 else 0.0
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = y - y0, x - x0
            top = img[y0, x0] + fx * (img[y0, x1] - img[y0, x0])
            bot = img[y1, x0] + fx * (img[y1, x1] - img[y1, x0])
            out[i, j] = top + fy * (bot - top)
    return out


class TestResize:
    def test_checkerboard_2x2_to_4x4(self):
        # corner-aligned positions 0, 1/3, 2/3, 1 between a=1 and b=0
        img = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])
        out = bilinear_resize(img, 4, 4)
        expected_row0 = [1.0, 2 / 3, 1 / 3, 0.0]
        assert np.allclose(out[0, :, 0], expected_row0, atol=1e-6)
        assert np.allclose(out[:, 0, 0], expected_row0, atol=1e-6)
        assert np.allclose(out[3, :, 0], expected_row0[::-1], atol=1e-6)

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(4)
        img = rng.random((5, 7, 3))
        out = bilinear_resize(img, 9, 4)
        assert np.allclose(out, reference_bilinear(img, 9, 4), atol=1e-5)

    def test_constant_image_exact(self):
        img = np.full((3, 5, 3), 0.625, dtype=np.float32)
        out = bilinear_resize(img, 7, 11)
        assert np.all(out == np.float32(0.625))

    @pytest.mark.parametrize("shape, out_h, out_w", [((5, 7, 3), 0, 4), ((5, 7, 3), -2, 4), ((5, 7, 3), 4, 0), ((5, 7), 4, 4)])
    def test_bad_shapes_raise(self, shape, out_h, out_w):
        with pytest.raises(DimensionError):
            bilinear_resize(np.zeros(shape, np.float32), out_h, out_w)

    def test_axis_plans_are_cached_read_only(self):
        assert _axis_plan.cache_info().maxsize is not None
        index, frac = _axis_plan(7, 5)
        assert _axis_plan(7, 5)[0] is index
        assert index.dtype == np.int64 and index.shape == (10,) and frac.dtype == np.float32 and frac.shape == (5,)
        for arr in (index, frac):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_column_plans_are_cached_read_only(self):
        assert _column_plan.cache_info().maxsize is not None
        index, frac = _column_plan(7, 3, 5)
        assert _column_plan(7, 3, 5)[0] is index
        assert index.dtype == np.int64 and index.shape == (30,) and frac.dtype == np.float32 and frac.shape == (15,)
        columns, fractions = _axis_plan(7, 5)
        assert index.tolist() == [3 * x + ch for x in columns.tolist() for ch in range(3)]
        assert frac.tobytes() == np.repeat(fractions, 3).tobytes()
        for arr in (index, frac):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_row_plans_are_cached_bounded_read_only(self):
        """The distinct rows of `_axis_plan`'s indices, sorted, and each
        index's place among them; the fractions are the axis plan's own."""
        assert _row_plan.cache_info().maxsize == 1024
        rows, at, frac = _row_plan(150, 5)
        assert _row_plan(150, 5)[0] is rows
        index, fractions = _axis_plan(150, 5)
        assert rows.tolist() == sorted(set(index.tolist())) and rows[at].tolist() == index.tolist()
        assert frac is fractions
        assert len(_row_plan(3, 5)[0]) == 3 and len(_row_plan(150, 5)[0]) == 9  # at most min(n, 2*out) rows
        assert rows.nbytes + at.nbytes <= 4 * 5 * 8  # the docstring's bound: 4*out int64 values
        for arr in (rows, at, frac):
            with pytest.raises(ValueError):
                arr[0] = 1


def reference_crop(pixels, bbox, ratio, size):
    """Loop-based oracle for the enlarged, zero-padded, resized crop."""
    cx, cy = (bbox.x_tl + bbox.x_br) / 2, (bbox.y_tl + bbox.y_br) / 2
    hw, hh = (bbox.x_br - bbox.x_tl) * ratio / 2, (bbox.y_br - bbox.y_tl) * ratio / 2
    x0, y0 = int(np.floor(cx - hw)), int(np.floor(cy - hh))
    x1, y1 = int(np.ceil(cx + hw)), int(np.ceil(cy + hh))
    patch = np.zeros((y1 - y0, x1 - x0, 3), dtype=np.float64)
    for yy in range(y0, y1):
        for xx in range(x0, x1):
            if 0 <= yy < pixels.shape[0] and 0 <= xx < pixels.shape[1]:
                patch[yy - y0, xx - x0] = pixels[yy, xx] / 255.0
    return reference_bilinear(patch, size[0], size[1])


class TestCrops:
    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    @pytest.mark.parametrize("build", [build_local_context, build_local_surround])
    def test_non_finite_ratio_raises(self, build, ratio):
        frame = make_frame(np.zeros((16, 16, 3)))
        with pytest.raises(ConfigError, match="finite"):
            build(frame, BoundingBox(4.0, 2.0, 12.0, 10.0), ratio, (8, 8))

    def test_ratio_one_is_exact_bbox(self):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 255, size=(16, 16, 3)).astype(np.uint8)
        frame = make_frame(pixels)
        bbox = BoundingBox(4.0, 2.0, 12.0, 10.0)
        out = build_local_context(frame, bbox, 1.0, (8, 8))
        assert np.allclose(out, pixels[2:10, 4:12] / 255.0, atol=1e-6)

    def test_white_frame_is_ones(self):
        frame = make_frame(np.full((16, 16, 3), 255, np.uint8))
        out = build_local_context(frame, BoundingBox(2, 2, 10, 10), 1.5, (12, 12))
        assert np.all(out == 1.0)

    def test_corner_bbox_pads_zeros(self):
        rng = np.random.default_rng(2)
        pixels = rng.integers(50, 255, size=(16, 16, 3)).astype(np.uint8)
        frame = make_frame(pixels)
        bbox = BoundingBox(0.0, 0.0, 8.0, 8.0)
        ratio = 1.5
        out = build_local_context(frame, bbox, ratio, (12, 12))
        oracle = reference_crop(pixels, bbox, ratio, (12, 12))
        assert np.allclose(out, oracle, atol=1e-5)
        assert out[0, 0].tolist() == [0.0, 0.0, 0.0]

    def test_matches_oracle_generic(self):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 255, size=(16, 16, 3)).astype(np.uint8)
        frame = make_frame(pixels)
        bbox = BoundingBox(5.0, 3.0, 11.0, 13.0)
        out = build_local_context(frame, bbox, 1.5, (10, 8))
        assert np.allclose(out, reference_crop(pixels, bbox, 1.5, (10, 8)), atol=1e-5)

    def test_degenerate_crop(self):
        frame = make_frame(np.zeros((8, 8, 3), np.uint8))
        with pytest.raises(DegenerateCropError):
            build_local_context(frame, BoundingBox(3.0, 3.0, 3.0, 7.0), 1.0, (4, 4))
        with pytest.raises(ConfigError):
            build_local_context(frame, BoundingBox(1, 1, 2, 2), 0.5, (4, 4))

    def test_outside_frame_crop(self):
        frame = make_frame(np.zeros((8, 8, 3), np.uint8))
        with pytest.raises(DegenerateCropError):
            build_local_context(frame, BoundingBox(20.0, 20.0, 25.0, 25.0), 1.0, (4, 4))


class TestLocalSurround:
    def _setting(self):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 255, size=(16, 16, 3)).astype(np.uint8)
        # bbox 4x4 at (6,6); ratio 1.5 -> enlarged box [5, 11) is 6x6, so a
        # (6, 6) output size makes the resize an exact identity gather
        bbox = BoundingBox(6.0, 6.0, 10.0, 10.0)
        return pixels, bbox

    def test_interior_is_grey(self):
        pixels, bbox = self._setting()
        out = build_local_surround(make_frame(pixels), bbox, 1.5, (6, 6))
        # the un-enlarged bbox [6,10) maps to crop rows/cols 1..4
        assert np.all(out[1:5, 1:5] == np.float32(128.0 / 255.0))

    def test_exterior_equals_local_context(self):
        pixels, bbox = self._setting()
        ctx = build_local_context(make_frame(pixels), bbox, 1.5, (6, 6))
        srd = build_local_surround(make_frame(pixels), bbox, 1.5, (6, 6))
        mask = np.zeros((6, 6), dtype=bool)
        mask[1:5, 1:5] = True
        assert np.array_equal(srd[~mask], ctx[~mask])

    def test_interior_pixels_do_not_leak(self):
        pixels, bbox = self._setting()
        altered = pixels.copy()
        altered[6:10, 6:10] = 255 - altered[6:10, 6:10]
        a = build_local_surround(make_frame(pixels), bbox, 1.5, (8, 12))
        b = build_local_surround(make_frame(altered), bbox, 1.5, (8, 12))
        assert np.array_equal(a, b)


class TestGlobalContext:
    def test_identity_size(self):
        rng = np.random.default_rng(6)
        pixels = rng.integers(0, 255, size=(12, 10, 3)).astype(np.uint8)
        out = build_global_context(make_frame(pixels), (12, 10))
        assert np.allclose(out, pixels / 255.0, atol=1e-6)

    def test_constant_color(self):
        out = build_global_context(make_frame(np.full((6, 8, 3), 51, np.uint8)), (4, 4))
        assert np.allclose(out, 51 / 255.0)


# The crop functions as they were before the resize took per-axis plans and
# the surround stopped greying a copy of the frame, frozen as the oracle the
# current ones must match bit for bit.


def _oracle_resize(image, out_h, out_w):
    img = np.asarray(image, dtype=np.float32)
    h, w = img.shape[:2]
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).astype(np.float32)[:, None, None]
    fx = (xs - x0).astype(np.float32)[None, :, None]
    ia = img[y0[:, None], x0[None, :]]
    ib = img[y0[:, None], x1[None, :]]
    ic = img[y1[:, None], x0[None, :]]
    idd = img[y1[:, None], x1[None, :]]
    top = ia + fx * (ib - ia)
    bot = ic + fx * (idd - ic)
    return top + fy * (bot - top)


def _oracle_pixel_box(x_tl, y_tl, x_br, y_br):
    return int(np.floor(x_tl)), int(np.floor(y_tl)), int(np.ceil(x_br)), int(np.ceil(y_br))


def _oracle_enlarged(bbox, ratio):
    cx = (bbox.x_tl + bbox.x_br) / 2.0
    cy = (bbox.y_tl + bbox.y_br) / 2.0
    half_w = bbox.width * ratio / 2.0
    half_h = bbox.height * ratio / 2.0
    return cx - half_w, cy - half_h, cx + half_w, cy + half_h


def _oracle_crop_padded(pixels, box):
    x0, y0, x1, y1 = box
    if x1 <= x0 or y1 <= y0:
        raise DegenerateCropError("crop region is empty")
    h, w = pixels.shape[:2]
    if x1 <= 0 or y1 <= 0 or x0 >= w or y0 >= h:
        raise DegenerateCropError("crop region lies entirely outside the frame")
    out = np.zeros((y1 - y0, x1 - x0, 3), dtype=np.float32)
    sx0, sy0 = max(x0, 0), max(y0, 0)
    sx1, sy1 = min(x1, w), min(y1, h)
    out[sy0 - y0 : sy1 - y0, sx0 - x0 : sx1 - x0] = pixels[sy0:sy1, sx0:sx1] / 255.0
    return out


def _oracle_local_context(frame, bbox, ratio, size):
    if ratio < 1.0:
        raise ConfigError("enlargement ratio must be >= 1")
    patch = _oracle_crop_padded(frame.pixels, _oracle_pixel_box(*_oracle_enlarged(bbox, ratio)))
    return _oracle_resize(patch, size[0], size[1])


def _oracle_local_surround(frame, bbox, ratio, size):
    if ratio < 1.0:
        raise ConfigError("enlargement ratio must be >= 1")
    x0, y0, x1, y1 = _oracle_pixel_box(bbox.x_tl, bbox.y_tl, bbox.x_br, bbox.y_br)
    masked = frame.pixels.copy()
    masked[max(y0, 0) : max(y1, 0), max(x0, 0) : max(x1, 0)] = 128
    return _oracle_local_context(Frame(frame.height, frame.width, masked), bbox, ratio, size)


def _oracle_global_context(frame, size):
    return _oracle_resize(frame.pixels.astype(np.float32) / 255.0, size[0], size[1])


def _outcome(fn, *args):
    """The output's dtype, shape and bytes, or the exception's type and message."""
    try:
        out = fn(*args)
    except (ConfigError, DegenerateCropError) as e:
        return type(e), str(e)
    return out.dtype, out.shape, out.tobytes()


def _assert_crops_match(pixels, bbox, ratio, size):
    frame = make_frame(pixels)
    for fn, oracle in ((build_local_context, _oracle_local_context), (build_local_surround, _oracle_local_surround)):
        assert _outcome(fn, frame, bbox, ratio, size) == _outcome(oracle, frame, bbox, ratio, size), fn.__name__
    assert _outcome(build_global_context, frame, size) == _outcome(_oracle_global_context, frame, size)


class TestCropsMatchTheOracle:
    @pytest.mark.parametrize(
        "bbox, ratio, size",
        [
            (BoundingBox(4.0, 3.0, 10.0, 11.0), 1.0, (6, 8)),  # interior, ratio 1
            (BoundingBox(4.3, 3.7, 10.2, 11.9), 2.5, (9, 7)),  # odd sizes; the enlarged box leaves at top left
            (BoundingBox(0.0, 0.0, 5.5, 4.0), 1.5, (1, 1)),  # output size 1, padding at top left
            (BoundingBox(9.5, 13.2, 20.0, 19.0), 1.0, (5, 1)),  # grey box partly outside at bottom right
            (BoundingBox(14.0, 0.5, 17.5, 3.0), 3.0, (1, 9)),  # grey box partly outside, crop padded on three sides
            (BoundingBox(2.0, 2.0, 2.0, 6.0), 1.5, (4, 4)),  # zero width: empty crop
            (BoundingBox(30.0, 40.0, 33.0, 44.0), 1.0, (4, 4)),  # fully outside the frame
            (BoundingBox(1.0, 1.0, 3.0, 3.0), 0.5, (4, 4)),  # ratio below 1
        ],
    )
    def test_edge_cases(self, bbox, ratio, size):
        pixels = np.random.default_rng(11).integers(0, 256, size=(16, 15, 3)).astype(np.uint8)
        _assert_crops_match(pixels, bbox, ratio, size)

    def test_random_frames_and_boxes(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            h, w = (int(n) for n in rng.integers(1, 24, 2))
            pixels = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
            x, y = rng.uniform(0, w + 3), rng.uniform(0, h + 3)
            bw, bh = (float(rng.choice([0.0, rng.uniform(0, 16)])) for _ in range(2))
            if rng.random() < 0.25:  # whole-pixel boxes put edges exactly on the grid
                x, y, bw, bh = (float(np.round(v)) for v in (x, y, bw, bh))
            ratio = float(rng.choice([1.0, rng.uniform(1.0, 3.0)]))
            size = tuple(int(n) for n in rng.integers(1, 10, 2))
            _assert_crops_match(pixels, BoundingBox(x, y, x + bw, y + bh), ratio, size)


def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_builds_match_frozen(frame, bbox, ratio, size):
    """Each `build_*` function and its frozen counterpart give the same
    dtype, shape and bytes, or the same error."""
    cases = [
        (build_local_context, frozen_local_context, (frame, bbox, ratio, size)),
        (build_local_surround, frozen_local_surround, (frame, bbox, ratio, size)),
        (build_global_context, frozen_global_context, (frame, size)),
    ]
    for fn, frozen, args in cases:
        assert _outcome(fn, *args) == _outcome(frozen, *args), (fn.__name__, frame.pixels.shape, bbox, ratio, size)


class TestCropKernelMatchesTheFrozenKernel:
    """The kernel gathers uint8 samples, scales only those and blends the
    distinct rows before the row planes; the frozen crop path scaled a
    float32 patch first and blended (2, out_h, 2, out_w, C) corners of
    12-byte pixels. The public functions must give the frozen bytes."""

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize(
        "in_hw, out_hw",
        [((1, 1), (5, 4)), ((1, 9), (3, 7)), ((8, 1), (1, 6)), ((5, 7), (1, 9)), ((40, 96), (32, 32)), ((24, 11), (32, 32)), ((70, 9), (8, 5))],
    )
    def test_resize_edge_shapes(self, channels, in_hw, out_hw):
        img = np.random.default_rng(21).random(in_hw + (channels,)).astype(np.float32)
        assert _same_bytes(bilinear_resize(img, *out_hw), frozen_resize(img, *out_hw))

    def test_resize_random_shapes(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            h, w, oh, ow = (int(n) for n in rng.integers(1, 40, 4))
            img = rng.normal(size=(h, w, int(rng.choice([1, 3])))) * 100
            assert _same_bytes(bilinear_resize(img, oh, ow), frozen_resize(img, oh, ow)), (img.shape, oh, ow)

    def test_build_functions(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            h, w = (int(n) for n in rng.integers(1, 48, 2))
            frame = make_frame(rng.integers(0, 256, size=(h, w, 3)))
            box = [rng.uniform(0, w + 2), rng.uniform(0, h + 2), rng.uniform(0.5, 20), rng.uniform(0.5, 30)]
            if rng.random() < 0.25:  # whole-pixel boxes put edges exactly on the grid
                box = [float(np.round(v)) for v in box]
            x, y, bw, bh = box
            ratio = float(rng.choice([1.0, rng.uniform(1.0, 3.0)]))
            size = tuple(int(n) for n in rng.choice([1, 2, 7, 32], 2))
            _assert_builds_match_frozen(frame, BoundingBox(x, y, x + bw, y + bh), ratio, size)

    @pytest.mark.parametrize(
        "bbox",
        [
            BoundingBox(0.0, 9.0, 5.0, 17.0),  # leaves at the left
            BoundingBox(10.0, 0.0, 17.0, 4.5),  # at the top
            BoundingBox(24.5, 8.0, 29.0, 15.0),  # at the right
            BoundingBox(9.0, 17.5, 16.0, 22.0),  # at the bottom
            BoundingBox(0.0, 0.0, 4.0, 6.0),  # at the top left corner
            BoundingBox(26.0, 19.0, 29.0, 22.0),  # at the bottom right corner
            BoundingBox(2.0, 1.0, 27.0, 21.0),  # on all four sides
        ],
    )
    @pytest.mark.parametrize("ratio", [1.0, 1.5, 2.7])
    def test_boxes_partly_outside_the_frame(self, bbox, ratio):
        """Padded patches, with the grey box cut by the frame's edge."""
        frame = make_frame(np.random.default_rng(24).integers(0, 256, size=(22, 29, 3)))
        for size in ((32, 32), (7, 12), (1, 1)):
            _assert_builds_match_frozen(frame, bbox, ratio, size)

    def test_tall_frame_gathers_only_the_rows_it_reads(self):
        """A frame taller than 2*out_h, so the kernel gathers its distinct
        rows before the columns."""
        frame = make_frame(np.random.default_rng(25).integers(0, 256, size=(150, 40, 3)))
        assert len(_row_plan(150, 32)[0]) <= 64
        # local patches of 130 rows, and of 177 rows padded at the top
        for bbox, ratio in ((BoundingBox(8.0, 10.0, 30.0, 140.0), 1.0), (BoundingBox(12.0, 3.0, 30.0, 120.0), 1.5)):
            _assert_builds_match_frozen(frame, bbox, ratio, (32, 32))
            _assert_builds_match_frozen(frame, bbox, ratio, (7, 5))

    def test_benchmark_frames(self, monkeypatch):
        """40x96 frames cropped to 32x32, as the benchmark's workloads read
        them, through `extract_windows` with the frozen `build_*`
        functions in place of the module's."""
        tracks, frames = generate_synthetic(7, 3, "random")
        cfg = ClipConfig(inputs=VISUAL_INPUTS)
        got = [extract_windows(track, 16, (30, 60), 15, frames=frames, clip_cfg=cfg) for track in tracks]
        for name, frozen in FROZEN_BUILD.items():
            monkeypatch.setattr(preprocess, name, frozen)
        want = [extract_windows(track, 16, (30, 60), 15, frames=frames, clip_cfg=cfg) for track in tracks]
        for a_windows, b_windows in zip(got, want):
            assert a_windows and len(a_windows) == len(b_windows)
            for a, b in zip(a_windows, b_windows):
                for name in VISUAL_INPUTS:
                    assert getattr(a, name).shape == (16, 32, 32, 3), name
                    assert _same_bytes(getattr(a, name), getattr(b, name)), name


class TestTheFactsTheKernelReliesOn:
    def test_scaling_any_uint8_value_gives_one_float32(self):
        """p / 255 has the same float32 bits for every uint8 p whether it is
        divided in float64 and rounded, divided in float32, or divided in
        place, as the kernel does on its samples."""
        pixels = np.arange(256, dtype=np.uint8)
        in_float64 = (pixels / 255.0).astype(np.float32)
        in_float32 = pixels.astype(np.float32) / 255.0
        in_place = pixels.astype(np.float32)
        in_place /= np.float32(255.0)
        kernel = _resample(pixels.reshape(1, 256, 1), 1, 256).reshape(-1)
        assert in_float32.dtype == np.float32 and kernel.dtype == np.float32
        for scaled in (in_float32, in_place, kernel):
            assert scaled.tobytes() == in_float64.tobytes()

    def test_scaled_grey_has_the_float_grey_bits(self):
        grey = _resample(np.full((2, 3, 3), GREY_MASK_VALUE, np.uint8), 1, 1)
        assert grey.tobytes() == np.full(3, FROZEN_GREY).tobytes()
        assert np.float32(GREY_MASK_VALUE / 255.0).tobytes() == FROZEN_GREY.tobytes()


class TestExtractWindows:
    def test_index_arithmetic(self):
        track = make_track(n=101, start=0)
        wins = extract_windows(track, 16, (30, 30), 15)
        assert len(wins) == 1
        # event 100, tte 30 -> raw frames 55..70 -> 15 delta rows
        assert wins[0].n_frames == 15
        assert wins[0].time_to_event == 30
        # first delta row = bbox(56) - bbox(55) from first frame removal
        expected = track.bbox[56] - track.bbox[55]
        assert np.allclose(wins[0].nonvisual[0, CHANNEL_COLUMNS["bbox"]], expected)

    def test_enumerates_tte_grid(self):
        track = make_track(n=101)
        wins = extract_windows(track, 16, (30, 60), 15)
        assert [w.time_to_event for w in wins] == [30, 45, 60]

    def test_short_track_empty(self):
        track = make_track(n=15)
        assert extract_windows(track, 16, (0, 0), 15) == []

    def test_never_overlaps_post_event_frames(self):
        track = make_track(n=101)
        for w in extract_windows(track, 16, (30, 60), 5):
            assert w.time_to_event >= 30

    def test_gap_skipped(self):
        """A window is kept exactly when the track holds all its frames: gaps
        inside it or at its ends, and the track's own ends, included."""
        frames = np.arange(101)  # event at frame 100; pose holds each row's frame index
        track = dataclasses.replace(make_track(n=101), pose=np.repeat(frames[:, None], 36, axis=1))
        cases = [
            ((60,), (30, 60), 15, [45, 60]),  # a gap inside the tte=30 window (frames 55..70)
            ((55,), (30, 60), 15, [60]),  # the first frame of tte=30's window, the last of tte=45's
            ((), (84, 86), 1, [84, 85]),  # tte=85 starts at the first frame; tte=86 would start at -1
            ((0,), (84, 85), 1, [84]),  # tte=85 is one frame short at the start
            ((), (0, 1), 1, [0, 1]),  # tte=0 ends at the last frame
            ((100,), (0, 1), 1, [1]),  # tte=0 is one frame short at the end
        ]
        for dropped, tte_range, stride, expected in cases:
            gappy = drop_frames(track, dropped)
            wins = extract_windows(gappy, 16, tte_range, stride)
            assert [w.time_to_event for w in wins] == expected, dropped
            for w in wins:  # each kept window holds the rows of its own frames
                end = track.event_frame - w.time_to_event
                assert w.nonvisual[:, CHANNEL_COLUMNS["pose"].start].tolist() == list(range(end - 14, end + 1))

    def test_huge_tte_bound_costs_no_more_than_the_track(self):
        """The tte values visited are bounded by the frames the track holds:
        an upper bound of 1e9 gives the windows of a tight bound, in their
        order and alignment, without looping over the range."""
        track = drop_frames(make_track(n=101), (60,))
        for lo, stride in ((0, 1), (3, 7), (30, 15)):
            tight = extract_windows(track, 16, (lo, 200), stride)
            start = time.perf_counter()
            huge = extract_windows(track, 16, (lo, 10**9), stride)
            assert time.perf_counter() - start < 1.0
            assert tight
            assert [(w.time_to_event, w.nonvisual.tobytes()) for w in huge] == [
                (w.time_to_event, w.nonvisual.tobytes()) for w in tight
            ]

    def test_bad_params(self):
        track = make_track()
        with pytest.raises(ConfigError):
            extract_windows(track, 1, (30, 60), 15)
        with pytest.raises(ConfigError):
            extract_windows(track, 16, (60, 30), 15)


class TestExtractWindowAt:
    def test_equals_the_window_for_that_tte(self):
        tracks, frames = generate_synthetic(3, 2, "random")
        cfg = ClipConfig(inputs=VISUAL_INPUTS, local_size=(8, 8), global_size=(8, 6))
        for track in tracks:
            wins = extract_windows(track, 16, (30, 60), 15, frames=frames, clip_cfg=cfg)
            assert wins
            for w in wins:
                at = extract_window_at(track, 16, track.event_frame - w.time_to_event, frames=frames, clip_cfg=cfg)
                for f in dataclasses.fields(w):
                    a, b = getattr(w, f.name), getattr(at, f.name)
                    if isinstance(a, np.ndarray):
                        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
                    else:
                        assert a == b, f.name

    def test_missing_frames_raise(self):
        track = make_track(n=101)
        with pytest.raises(WindowError):
            extract_window_at(track, 16, 10)  # would start at frame -5
        with pytest.raises(WindowError):
            extract_window_at(track, 16, 101)  # past the last frame
        gappy = drop_frames(track, [60])
        with pytest.raises(WindowError):
            extract_window_at(gappy, 16, 70)


class TestAssemble:
    @pytest.fixture(scope="class")
    def pairs(self):
        """Windows with clips of a few synthetic tracks, each with its track."""
        tracks, frames = generate_synthetic(4, 6, "random", track_len=70)
        cfg = ClipConfig(inputs=VISUAL_INPUTS, local_size=(8, 8), global_size=(8, 8))
        return [(w, t) for t in tracks for w in extract_windows(t, 16, (0, 50), 5, frames=frames, clip_cfg=cfg)]

    def _assert_matches_the_oracle(self, pairs, spec, dtype):
        nonvis, _ = stack_windows(spec, [w for w, _ in pairs], dtype=dtype)
        expected = np.stack([
            assemble_nonvisual(window_channels(t, t.event_frame - w.time_to_event, 16), spec.channels) for w, t in pairs
        ]).astype(dtype)
        assert nonvis.dtype == dtype and nonvis.shape == expected.shape and nonvis.flags.c_contiguous
        assert nonvis.tobytes() == expected.tobytes()

    def _spec(self, channels):
        return ModelSpec(channels=channels, nonvisual_encoder=EncoderConfig(1, 1, 8))

    def test_all_channels_width(self, pairs):
        nonvis, _ = stack_windows(self._spec(("bbox", "center", "pose", "speed")), [pairs[0][0]])
        assert nonvis.shape == (1, 15, 47)

    def test_bbox_only_width(self, pairs):
        nonvis, _ = stack_windows(self._spec(("bbox",)), [pairs[0][0]])
        assert nonvis.shape == (1, 15, 4)

    def test_empty_channels(self, pairs):
        spec = ModelSpec(local_context=named_model_spec("ours1").local_context)
        nonvis, clips = stack_windows(spec, [w for w, _ in pairs[:2]])
        assert nonvis is None and list(clips) == ["local_context"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", NAMED_CONFIGS)
    def test_named_configs_match_the_oracle(self, pairs, name, dtype):
        self._assert_matches_the_oracle(pairs, named_model_spec(name), dtype)

    @pytest.mark.parametrize("channels", [("speed", "bbox"), ("pose", "center"), ("speed", "pose", "center", "bbox")], ids="+".join)
    def test_channel_order_is_canonical(self, pairs, channels):
        """Columns come in the order bbox, center, pose, speed, not the spec's."""
        self._assert_matches_the_oracle(pairs, self._spec(channels), np.float32)

    def test_misaligned_channel(self, pairs):
        w = pairs[0][0]
        with pytest.raises(IntegrityError):
            ObservationWindow(w.nonvisual[:, :-1], w.label, w.time_to_event)


class TestResample:
    def _windows(self, n_pos, n_neg):
        track = make_track(n=101)
        base = extract_windows(track, 16, (30, 30), 15)[0]
        wins = []
        for i in range(n_pos + n_neg):
            w = ObservationWindow(
                base.nonvisual.copy(), label=1 if i < n_pos else 0, time_to_event=30, pedestrian_id=f"w{i}"
            )
            wins.append(w)
        return wins

    def test_balances_counts(self):
        out = resample_balance(self._windows(30, 70), seed=0)
        labels = [w.label for w in out]
        assert labels.count(1) == 70 and labels.count(0) == 70

    def test_already_balanced_unchanged(self):
        wins = self._windows(10, 10)
        assert resample_balance(wins, seed=0) == wins

    def test_majority_multiset_preserved_and_members_exist(self):
        wins = self._windows(5, 12)
        out = resample_balance(wins, seed=3)
        neg_in = [w for w in wins if w.label == 0]
        neg_out = [w for w in out if w.label == 0]
        assert neg_out[: len(neg_in)] == neg_in and len(neg_out) == len(neg_in)
        pos_in = {id(w) for w in wins if w.label == 1}
        assert all(id(w) in pos_in for w in out if w.label == 1)

    def test_deterministic(self):
        wins = self._windows(4, 9)
        a = [id(w) for w in resample_balance(wins, seed=5)]
        b = [id(w) for w in resample_balance(wins, seed=5)]
        assert a == b

    def test_single_class(self):
        with pytest.raises(BalanceError):
            resample_balance(self._windows(5, 0), seed=0)