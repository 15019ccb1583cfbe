"""Command-line surface: synthetic data generation, training, fine-tuning,
ensemble-head training, evaluation, single-window prediction, and gradient
checking.

Settings come from the JSON run config (--config) for train, finetune and
ensemble; finetune and ensemble take the model spec from their checkpoints.
train and finetune store the config's window settings (its data section less
the paths) in the checkpoint; eval and predict read them there (the defaults
if absent), and --tte-lo, --tte-hi and --stride override which windows eval
scores. ensemble requires each member's stored settings to equal the
config's; a malformed checkpoint header is a data error. --data names a dataset directory (annotations.jsonl and, if present,
frames.pvf) and overrides the config's paths, as --out does its output dir.

Every command is deterministic given its flags and seeds. A fully-resolved
config snapshot is written into the output directory before long-running
work starts. Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import metrics as metrics_mod
from . import training as training_mod
from .data import (
    VISUAL_INPUTS,
    ClipConfig,
    FrameStore,
    extract_window_at,
    extract_windows,
    generate_synthetic,
    load_annotations,
    resample_balance,
    save_annotations,
    split_tracks,
)
from .data.preprocess import is_crop_size
from .errors import (
    BalanceError,
    CheckpointError,
    ConfigError,
    ContractError,
    DegenerateCropError,
    DegenerateMaskError,
    DeterminismError,
    DimensionError,
    InputError,
    IntegrityError,
    NumericalError,
    ParseError,
    WindowError,
)
from .model import ModelSpec, build, ensemble_predict, forward, load_model, named_model_spec, save_model
from .model.assembly import config_from_dict
from .model.verify import check_model_gradients
from .tensor import Tensor, save_checkpoint, write_atomic
from .training import TrainConfig, TrainState, fit_step

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_DATA_ERRORS = (
    ParseError,
    IntegrityError,
    WindowError,
    InputError,
    CheckpointError,
    BalanceError,
    DegenerateCropError,
    DimensionError,
    OSError,
)
_USAGE_ERRORS = (ConfigError, ContractError)
_NUMERIC_ERRORS = (NumericalError, DeterminismError, DegenerateMaskError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class DataConfig:
    annotations: Optional[str] = None
    frames: Optional[str] = None
    obs_len: int = 16
    tte_lo: int = 30
    tte_hi: int = 60
    stride: int = 15
    balance: bool = False
    split_seed: int = 0
    clip_ratio: float = 1.5
    local_size: tuple = (32, 32)
    global_size: tuple = (32, 32)

    def __post_init__(self):
        for key in ("local_size", "global_size"):
            size = getattr(self, key)
            if not (isinstance(size, (list, tuple)) and len(size) == 2 and all(map(is_crop_size, size))):
                raise ConfigError(f"data.{key} must be two ints >= 1, got {size!r}")
            setattr(self, key, tuple(size))
        if self.split_seed < 0:
            raise ConfigError(f"data.split_seed must be >= 0, got {self.split_seed}")
        if not 1.0 <= self.clip_ratio < math.inf:
            raise ConfigError(f"data.clip_ratio must be a finite number >= 1, got {self.clip_ratio}")


@dataclass
class RunConfig:
    """Union of model spec, training schedule, data paths and output dir."""

    model: ModelSpec
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    out: Optional[str] = None


def _model_from_dict(obj, where: str) -> ModelSpec:
    if not (isinstance(obj, dict) and "preset" in obj):
        return ModelSpec.from_dict(obj)
    extra = sorted(set(obj) - {"preset", "seed"})
    if extra:
        raise ConfigError(f"unknown config key '{where}.{extra[0]}' (a preset takes only 'seed')")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError(f"{where}.seed must be int, got {type(seed).__name__}")
    return named_model_spec(obj["preset"], seed=seed)


def load_run_config(path, data_dir: Optional[str] = None, out: Optional[str] = None) -> RunConfig:
    """Parse the JSON run config; CLI flags override file values. A
    malformed section or an unknown key raises ConfigError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except UnicodeDecodeError as e:
            raise ParseError(f"config {path}: not UTF-8 text ({e.reason})") from e
        except json.JSONDecodeError as e:
            raise ParseError(f"config {path}: invalid JSON ({e.msg})") from e
    if not isinstance(obj, dict) or "model" not in obj:
        raise ConfigError(f"config {path}: the top level must be a JSON object with a 'model' section")
    cfg = config_from_dict(
        RunConfig,
        obj,
        "",
        model=_model_from_dict,
        train=partial(config_from_dict, TrainConfig),
        data=partial(config_from_dict, DataConfig),
    )
    if data_dir is not None:
        _use_data_dir(cfg.data, data_dir)
    if out is not None:
        cfg.out = out
    for key, value in (("data.annotations", cfg.data.annotations), ("data.frames", cfg.data.frames), ("out", cfg.out)):
        if value is not None and "\0" in value:  # no OS path holds one; open() would raise ValueError
            raise ConfigError(f"{key} contains a NUL character")
    return cfg


def _write_resolved(cfg: RunConfig, out_dir: Path, extra: Optional[dict] = None):
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = dataclasses.asdict(cfg)
    if extra:
        doc.update(extra)
    write_atomic(out_dir / "resolved_config.json", json.dumps(doc, indent=2).encode("utf-8"))


def _use_data_dir(data: DataConfig, data_dir) -> DataConfig:
    """Point `data` at the annotations.jsonl and, if present, frames.pvf in `data_dir`."""
    data.annotations = str(Path(data_dir) / "annotations.jsonl")
    frames = Path(data_dir) / "frames.pvf"
    data.frames = str(frames) if frames.exists() else None
    return data


def _window_settings(data: DataConfig) -> dict:
    """The settings of `data` a checkpoint stores: all but the paths."""
    return {k: v for k, v in dataclasses.asdict(data).items() if k not in ("annotations", "frames")}


def _trained_data(model, path) -> DataConfig:
    """The window settings stored with `model`, loaded from `path` (the defaults if absent)."""
    try:
        return config_from_dict(DataConfig, model.data, "checkpoint data")
    except ConfigError as e:
        raise CheckpointError(f"{path}: {e}") from e


def _load_trained(args) -> tuple:
    """The --checkpoint model and its window settings, for the dataset in --data."""
    model = load_model(args.checkpoint)
    return model, _use_data_dir(_trained_data(model, args.checkpoint), args.data)


def _load_inputs(data: DataConfig, inputs: tuple) -> tuple:
    """Tracks, frames (None without `inputs`) and the ClipConfig rendering the visual inputs `inputs`."""
    if data.annotations is None:
        raise ConfigError("no annotations path configured; pass --data or set data.annotations")
    tracks = load_annotations(data.annotations)
    frames = None
    if inputs:
        if data.frames is None:
            raise ConfigError("model enables visual inputs but no frame container is configured")
        frames = FrameStore.load(data.frames)
    clip_cfg = ClipConfig(inputs=inputs, ratio=data.clip_ratio, local_size=data.local_size, global_size=data.global_size)
    return tracks, frames, clip_cfg


def _load_split_windows(data: DataConfig, inputs: tuple, names: Sequence[str]) -> dict:
    """Windows, with clips of the visual inputs `inputs`, of the named splits
    ("train", "val", "test" or "all"); tracks of other splits are not extracted."""
    tracks, frames, clip_cfg = _load_inputs(data, inputs)
    splits = split_tracks(tracks, data.split_seed)
    splits["all"] = splits["train"] + splits["val"] + splits["test"]

    def windows(track):
        return extract_windows(track, data.obs_len, (data.tte_lo, data.tte_hi), data.stride, frames=frames, clip_cfg=clip_cfg)

    return {name: [w for track in splits[name] for w in windows(track)] for name in names}


def _training_run(args) -> tuple:
    """The run config and output directory of train, finetune or ensemble, checked before any write."""
    cfg = load_run_config(args.config, data_dir=args.data, out=args.out)
    if cfg.out is None:
        raise ConfigError("no output directory; pass --out or set 'out' in the config")
    if cfg.train.max_epochs < 1:
        raise ConfigError(f"train.max_epochs is {cfg.train.max_epochs}; training needs at least 1 epoch")
    return cfg, Path(cfg.out)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# commands


def _cmd_generate(args) -> int:
    tracks, frames = generate_synthetic(
        args.seed, args.tracks, args.rule, track_len=args.track_len, frame_size=(args.frame_height, args.frame_width)
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_annotations(out_dir / "annotations.jsonl", tracks)
    frames.save(out_dir / "frames.pvf")
    defaults = DataConfig()
    tte_range = (defaults.tte_lo, defaults.tte_hi)
    n_windows = sum(len(extract_windows(t, defaults.obs_len, tte_range, defaults.stride)) for t in tracks)
    print(f"tracks={len(tracks)} frames={len(frames)} windows={n_windows} out={out_dir}")
    return EXIT_OK


def _cmd_train(args) -> int:
    """`train` builds the config's model; `finetune` continues the --checkpoint
    model (its spec replaces the config's) on the fine-tune schedule."""
    cfg, out_dir = _training_run(args)
    if args.checkpoint is None:
        model, fit, extra = build(cfg.model), training_mod.train, None
    else:
        model, fit = load_model(args.checkpoint), training_mod.finetune
        cfg.model, extra = model.spec, {"finetune_from": str(args.checkpoint)}
    _write_resolved(cfg, out_dir, extra)
    splits = _load_split_windows(cfg.data, cfg.model.visual_inputs, ("train", "val"))
    train_windows = splits["train"]
    if cfg.data.balance:
        train_windows = resample_balance(train_windows, cfg.train.seed)
    history = fit(model, train_windows, splits["val"], cfg.train)
    model.data = _window_settings(cfg.data)
    save_model(model, out_dir / "checkpoint.itn")
    training_mod.history_to_csv(history, out_dir / "history.csv")
    last = history[-1]
    print(
        f"epochs={last.epoch} train_loss={last.train_loss:.6f} val_loss={last.val_loss:.6f} "
        f"lr={last.lr:.2e} checkpoint={out_dir / 'checkpoint.itn'}"
    )
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    cfg, out_dir = _training_run(args)
    hashes_before = [_sha256(p) for p in args.members]
    members = [load_model(p) for p in args.members]
    # Every member is scored on the config's windows, so each must have been
    # trained on the same window settings.
    settings = _window_settings(cfg.data)
    for path, member in zip(args.members, members):
        stored = _window_settings(_trained_data(member, path))
        key = next((k for k in settings if stored[k] != settings[k]), None)
        if key is not None:
            raise ConfigError(f"ensemble member {path} was trained with data.{key}={stored[key]!r}, the config has {settings[key]!r}")
    cfg.model = members[0].spec
    _write_resolved(cfg, out_dir, extra={"ensemble_members": args.members, "member_sha256": hashes_before})

    # One extraction serves every member: it renders each visual input some
    # member enables, and each member stacks only its own.
    inputs = tuple(name for name in VISUAL_INPUTS if any(name in m.spec.visual_inputs for m in members))
    windows = _load_split_windows(cfg.data, inputs, ("train",))["train"]
    labels = np.array([w.label for w in windows], dtype=np.float32)
    scores = [training_mod.predict_scores(member, windows) for member in members]
    member_probs = np.stack(scores, axis=1).astype(np.float32)  # (B, 3)

    w = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros((), dtype=np.float32), requires_grad=True)
    head_params = {"ensemble.w": w, "ensemble.b": b}
    weights = training_mod.class_weights(labels) if cfg.train.use_class_weights else None
    state = TrainState(lr=cfg.train.lr, rng=np.random.default_rng(cfg.train.seed))
    for _ in range(cfg.train.max_epochs):
        loss_val = fit_step(head_params, lambda: ensemble_predict(Tensor(member_probs), w, b), labels, weights, state)

    hashes_after = [_sha256(p) for p in args.members]
    if hashes_after != hashes_before:
        raise IntegrityError("member checkpoints changed during ensemble-head training; aborting")
    save_checkpoint(out_dir / "ensemble.itn", head_params, {"members": args.members, "member_sha256": hashes_before})
    print(
        f"ensemble head trained: loss={loss_val:.6f} w={np.round(w.data, 4).tolist()} "
        f"b={float(b.data):.4f} out={out_dir / 'ensemble.itn'}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, data = _load_trained(args)
    for name in ("tte_lo", "tte_hi", "stride"):
        if getattr(args, name) is not None:
            setattr(data, name, getattr(args, name))
    windows = _load_split_windows(data, model.spec.visual_inputs, (args.split,))[args.split]
    if not windows:
        raise WindowError(f"split {args.split!r} produced no observation windows")
    scores = training_mod.predict_scores(model, windows)
    report = metrics_mod.evaluate(scores, [w.label for w in windows])
    csv_text = metrics_mod.report_to_csv(report)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "metrics.csv", csv_text.encode("utf-8"))
    print(csv_text.strip())
    return EXIT_OK


def _cmd_predict(args) -> int:
    model, data = _load_trained(args)
    tracks, frames, clip_cfg = _load_inputs(data, model.spec.visual_inputs)
    track = next((t for t in tracks if t.pedestrian_id == args.pid), None)
    if track is None:
        raise IntegrityError(f"no pedestrian {args.pid!r} in {args.data}")
    window = extract_window_at(track, data.obs_len, args.frame, frames=frames, clip_cfg=clip_cfg)
    prob = forward(model, window)
    decision = "crossing" if prob >= 0.5 else "not_crossing"
    print(f"pid={args.pid} frame={args.frame} probability={prob:.6f} decision={decision}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    cfg = load_run_config(args.config)
    model = build(cfg.model, dtype=np.float64)
    tracks, frames = generate_synthetic(cfg.train.seed, 2, "random", track_len=70)
    clip_cfg = ClipConfig(inputs=cfg.model.visual_inputs)
    windows = extract_windows(tracks[0], 4, (30, 60), 30, frames=frames, clip_cfg=clip_cfg)[:2]
    report = check_model_gradients(model, windows, eps=args.eps, max_elements=args.elements)
    tol = 1e-5
    status = "ok" if report.max_rel_err < tol else "FAIL"
    print(
        f"gradcheck {status}: max_rel_err={report.max_rel_err:.3e} "
        f"mean_rel_err={report.mean_rel_err:.3e} checked={report.n_checked} tol={tol:.0e} "
        f"worst={report.worst_param}[{report.worst_index}]"
    )
    if report.max_rel_err >= tol:
        raise NumericalError(f"gradient check failed: max relative error {report.max_rel_err:.3e} >= {tol:.0e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="pedintent", description="Pedestrian crossing-intention models, desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = _Parser(add_help=False)  # the inputs of the commands that train
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--data", default=None, help="dataset directory (overrides config paths)")
    trained = _Parser(add_help=False)  # the inputs of the commands that score a checkpoint
    trained.add_argument("--checkpoint", required=True)
    trained.add_argument("--data", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset (annotations.jsonl + frames.pvf)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tracks", type=int, required=True)
    p.add_argument("--rule", choices=("separable_motion", "separable_visual", "random"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--track-len", type=int, default=78)
    p.add_argument("--frame-height", type=int, default=40)
    p.add_argument("--frame-width", type=int, default=96)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("train", parents=[run], help="train a model from a JSON run config")
    p.set_defaults(fn=_cmd_train, checkpoint=None)

    p = sub.add_parser("finetune", parents=[run], help="second-phase training from an existing checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("ensemble", parents=[run], help="train the 3-member frozen-ensemble head")
    p.add_argument("--members", nargs=3, required=True, metavar=("M1", "M2", "M3"))
    p.set_defaults(fn=_cmd_ensemble)

    p = sub.add_parser("eval", parents=[trained], help="evaluate a checkpoint; writes metrics.csv")
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--out", required=True)
    p.add_argument("--tte-lo", type=int, default=None, dest="tte_lo")
    p.add_argument("--tte-hi", type=int, default=None, dest="tte_hi")
    p.add_argument("--stride", type=int, default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("predict", parents=[trained], help="single-window crossing probability")
    p.add_argument("--pid", required=True)
    p.add_argument("--frame", type=int, required=True)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of all model gradients")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--elements", type=int, default=150)
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
