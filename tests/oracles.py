"""Reference implementations that tests compare the package against, the
op names a tape recorded, the packing of per-head q, k and v into the
input of `attention`, the crop path as it stood before it scaled uint8
samples after the gather, and the tubelet path as it stood when a batch's
clips were stacked and then transposed into patches."""

import math

import numpy as np
from scipy.special import erf

import pedintent.tensor.core as core

from pedintent.data import CHANNEL_WIDTHS, NONVISUAL_CHANNELS, SPEED_CATEGORIES
from pedintent.data.preprocess import is_crop_size
from pedintent.errors import ConfigError, ContractError, DegenerateCropError, DimensionError, IntegrityError
from pedintent.metrics import _validate
from pedintent.tensor import Tensor, add, attention, concat_along_axis, matmul, mul, reshape, transpose


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


def _head_axis_perm(ndim: int) -> tuple:
    """Swap the two axes before the last: (..., a, b, c) -> (..., b, a, c)."""
    return tuple(range(ndim - 3)) + (ndim - 2, ndim - 3, ndim - 1)


def _merge_heads(x: Tensor) -> Tensor:
    """(..., H, S, dh) -> (..., S, H dh), head h in columns h dh .. (h + 1) dh."""
    lead, (h, s, dh) = x.shape[:-3], x.shape[-3:]
    return reshape(transpose(x, _head_axis_perm(x.ndim)), lead + (s, h * dh))


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(..., S, H dh) -> (..., H, S, dh): the inverse of `_merge_heads`."""
    lead, (s, d) = x.shape[:-2], x.shape[-2:]
    return transpose(reshape(x, lead + (s, n_heads, d // n_heads)), _head_axis_perm(x.ndim + 1))


def pack_heads(q, k, v) -> Tensor:
    """Per-head q, k and v of one shape (..., H, S, dh) as the packed
    (..., S, 3 H dh) input of `attention`, by tensor ops, so gradients
    reach q, k and v."""
    return concat_along_axis([_merge_heads(t) for t in (q, k, v)], axis=-1)


def attend(q, k, v, mask=None) -> Tensor:
    """`attention` of per-head q, k and v of one shape (..., H, S, dh),
    through `pack_heads`. Returns (..., H, S, dh). A rank-2 (S, dh) shape
    or an empty head axis counts as one head and keeps q's shape."""
    q, k, v = (t if isinstance(t, Tensor) else Tensor(t) for t in (q, k, v))
    if q.ndim < 3 or q.shape[-3] == 0:
        one = q.shape[:-2] + (1,) + q.shape[-2:]
        return reshape(attend(*(reshape(t, one) for t in (q, k, v)), mask=mask), q.shape)
    return attention(pack_heads(q, k, v), q.shape[-3], mask=mask)


def unpacked_attention_sublayer(x, params: dict, prefix: str, n_heads: int, mask=None, key_bias: bool = False) -> Tensor:
    """The multi-head attention sublayer as it stood before q, k and v came
    from one packed product, frozen: three projections, each split into
    heads, q scaled by 1/sqrt(dh) after its bias, then attention and the
    output projection, each bias its own `add`. With `key_bias`, k also
    gets a zero bias added, as every layer once had."""
    p = f"{prefix}attn."
    q = mul(_split_heads(add(matmul(x, params[f"{p}wq.w"]), params[f"{p}wq.b"]), n_heads), 1.0 / np.sqrt(x.shape[-1] // n_heads))
    k = matmul(x, params[f"{p}wk.w"])
    if key_bias:
        k = add(k, Tensor(np.zeros(k.shape[-1], k.data.dtype)))
    v = add(matmul(x, params[f"{p}wv.w"]), params[f"{p}wv.b"])
    ctx = _merge_heads(attend(q, _split_heads(k, n_heads), _split_heads(v, n_heads), mask=mask))
    return add(matmul(ctx, params[f"{p}wo.w"]), params[f"{p}wo.b"])


def gelu_input_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The input gradient of `gelu` as its backward rule stood when the
    tape kept x and cdf, frozen: g * (cdf + x * pdf), pdf = exp(-x^2 / 2)
    / sqrt(2 pi), by in-place passes over chunks, with cdf from the
    forward's erf (the rational one in float32, scipy's in float64)."""
    dt = x.dtype.type
    if x.dtype == np.float32:
        cdf = core._gelu32(x)[1]
    else:
        cdf = erf(x / dt(math.sqrt(2.0)))
        cdf += dt(1.0)
        cdf *= dt(0.5)
    xs, cs, gs = x.reshape(-1), cdf.reshape(-1), g.reshape(-1)
    dx = np.empty_like(xs)
    for i in range(0, xs.size, core.GELU_CHUNK):
        part = slice(i, i + core.GELU_CHUNK)
        d, xc = dx[part], xs[part]
        np.multiply(xc, dt(-0.5), out=d)
        d *= xc
        np.exp(d, out=d)
        d /= dt(math.sqrt(2.0 * math.pi))
        d *= xc
        d += cs[part]
        d *= gs[part]
    return dx.reshape(x.shape)


# The crop path of `pedintent.data.preprocess` as it stood when each crop
# scaled a float32 patch (or, for the whole frame, its corner samples) and
# a kernel blended (2, out_h, 2, out_w, C) corners of 12-byte pixels,
# frozen as whole functions: the current `build_*` functions and
# `bilinear_resize` must give the same bytes.


def _frozen_axis_plan(n: int, out: int) -> tuple[np.ndarray, np.ndarray]:
    pos = np.linspace(0.0, n - 1.0, out) if out > 1 else np.zeros(1)
    lower = np.floor(pos).astype(np.int64)
    return np.concatenate([lower, np.minimum(lower + 1, n - 1)]), (pos - lower).astype(np.float32)


def frozen_corners(image: np.ndarray, out_h: int, out_w: int):
    if image.ndim != 3 or 0 in image.shape[:2] or not (is_crop_size(out_h) and is_crop_size(out_w)):
        raise DimensionError(f"cannot resize an image of shape {image.shape} to ({out_h!r}, {out_w!r})")
    ys, fy = _frozen_axis_plan(image.shape[0], out_h)
    xs, fx = _frozen_axis_plan(image.shape[1], out_w)
    corners = image.take(ys, axis=0).take(xs, axis=1).reshape(2, out_h, 2, out_w, image.shape[2])
    return corners, fy, fx


def frozen_lerp(corners: np.ndarray, fy: np.ndarray, fx: np.ndarray) -> np.ndarray:
    left = corners[:, :, 0]
    rows = corners[:, :, 1] - left
    rows *= fx[:, None]
    rows += left
    out = rows[1] - rows[0]
    out *= fy[:, None, None]
    out += rows[0]
    return out


def frozen_resize(image, out_h: int, out_w: int) -> np.ndarray:
    """`bilinear_resize` by the frozen kernel."""
    return frozen_lerp(*frozen_corners(np.asarray(image, dtype=np.float32), out_h, out_w))


FROZEN_GREY = np.float32(128 / 255.0)  # the grey, scaled as the float patch held it


def _frozen_pixel_box(x_tl, y_tl, x_br, y_br) -> tuple[int, int, int, int]:
    return int(np.floor(x_tl)), int(np.floor(y_tl)), int(np.ceil(x_br)), int(np.ceil(y_br))


def _frozen_enlarged(bbox, ratio: float) -> tuple[float, float, float, float]:
    cx = (bbox.x_tl + bbox.x_br) / 2.0
    cy = (bbox.y_tl + bbox.y_br) / 2.0
    half_w = bbox.width * ratio / 2.0
    half_h = bbox.height * ratio / 2.0
    return cx - half_w, cy - half_h, cx + half_w, cy + half_h


def frozen_crop_padded(pixels: np.ndarray, box) -> np.ndarray:
    """The float32 patch of a half-open pixel box, scaled by 255 and
    zero-padded outside the frame."""
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


def _frozen_check_ratio(ratio: float):
    if ratio < 1.0:
        raise ConfigError("enlargement ratio must be >= 1")
    if not ratio < math.inf:
        raise ConfigError(f"enlargement ratio must be finite, got {ratio}")


def frozen_local_context(frame, bbox, ratio: float, size) -> np.ndarray:
    _frozen_check_ratio(ratio)
    patch = frozen_crop_padded(frame.pixels, _frozen_pixel_box(*_frozen_enlarged(bbox, ratio)))
    return frozen_resize(patch, size[0], size[1])


def frozen_local_surround(frame, bbox, ratio: float, size) -> np.ndarray:
    _frozen_check_ratio(ratio)
    gx0, gy0, gx1, gy1 = _frozen_pixel_box(bbox.x_tl, bbox.y_tl, bbox.x_br, bbox.y_br)
    x0, y0, x1, y1 = _frozen_pixel_box(*_frozen_enlarged(bbox, ratio))
    patch = frozen_crop_padded(frame.pixels, (x0, y0, x1, y1))
    top, left = max(gy0, y0, 0), max(gx0, x0, 0)
    bottom, right = max(min(gy1, y1, frame.height), top), max(min(gx1, x1, frame.width), left)
    patch[top - y0 : bottom - y0, left - x0 : right - x0] = FROZEN_GREY
    return frozen_resize(patch, size[0], size[1])


def frozen_global_context(frame, size) -> np.ndarray:
    corners, fy, fx = frozen_corners(frame.pixels, size[0], size[1])
    return frozen_lerp(corners.astype(np.float32) / 255.0, fy, fx)


FROZEN_BUILD = {
    "build_local_context": frozen_local_context,
    "build_local_surround": frozen_local_surround,
    "build_global_context": frozen_global_context,
}


# The tubelet path of `pedintent.model` as it stood when `stack_windows`
# stacked the (T+1, H, W, 3) clips into one (B, T+1, H, W, 3) array and
# `tubelet_embed` reshaped, transposed and reshaped that stack into patches
# before its matmul, frozen as one function: `tubelet_patches` followed by
# `tubelet_embed` must give the same bytes, and the same DimensionError
# messages.


def frozen_tubelet_tokens(clips, cfg, weight, bias, dtype=np.float32) -> Tensor:
    """(B, N, d_model) tokens of B stacked clips, N = T/t · H/h · W/w in
    time-major, then row, then column order."""
    clip = Tensor(np.stack(clips).astype(dtype, copy=False))
    t, h, w, c = clip.shape[-4:]
    if c != 3:
        raise DimensionError("clips must have 3 trailing channels")
    if t % cfg.t_patch or h % cfg.h_patch or w % cfg.w_patch:
        raise DimensionError(
            f"clip dims ({t},{h},{w}) not divisible by tubelet ({cfg.t_patch},{cfg.h_patch},{cfg.w_patch})"
        )
    lead = clip.shape[:-4]
    ts, hs, ws = t // cfg.t_patch, h // cfg.h_patch, w // cfg.w_patch
    x = reshape(clip, lead + (ts, cfg.t_patch, hs, cfg.h_patch, ws, cfg.w_patch, 3))
    base = len(lead)
    perm = tuple(range(base)) + tuple(base + i for i in (0, 2, 4, 1, 3, 5, 6))
    x = transpose(x, perm)
    x = reshape(x, lead + (ts * hs * ws, cfg.flat_size))
    return matmul(x, weight, bias)
