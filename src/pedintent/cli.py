"""Command-line surface: synthetic data generation, training, fine-tuning,
ensemble-head training, evaluation, single-window prediction, and gradient
checking.

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
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import metrics as metrics_mod
from . import training as training_mod
from .data import (
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
        self.local_size = tuple(self.local_size)
        self.global_size = tuple(self.global_size)
        if self.split_seed < 0:
            raise ConfigError(f"data.split_seed must be >= 0, got {self.split_seed}")


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
        cfg.data.annotations = str(Path(data_dir) / "annotations.jsonl")
        frames = Path(data_dir) / "frames.pvf"
        cfg.data.frames = str(frames) if frames.exists() else None
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


def _clip_config(spec: ModelSpec, data: DataConfig) -> ClipConfig:
    return ClipConfig(
        inputs=spec.visual_inputs,
        ratio=data.clip_ratio,
        local_size=data.local_size,
        global_size=data.global_size,
    )


def _load_split_windows(spec: ModelSpec, data: DataConfig, names: Sequence[str]) -> dict:
    """Observation windows of the named splits ("train", "val", "test" or
    "all"); tracks of other splits are not extracted."""
    if data.annotations is None:
        raise ConfigError("no annotations path configured; pass --data or set data.annotations")
    tracks = load_annotations(data.annotations)
    frames = None
    if spec.visual_inputs:
        if data.frames is None:
            raise ConfigError("model enables visual inputs but no frame container is configured")
        frames = FrameStore.load(data.frames)
    clip_cfg = _clip_config(spec, data)
    splits = split_tracks(tracks, data.split_seed)
    splits["all"] = splits["train"] + splits["val"] + splits["test"]

    def windows(track):
        return extract_windows(track, data.obs_len, (data.tte_lo, data.tte_hi), data.stride, frames=frames, clip_cfg=clip_cfg)

    return {name: [w for track in splits[name] for w in windows(track)] for name in names}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


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
    n_windows = sum(len(extract_windows(t, 16, (30, 60), 15)) for t in tracks)
    print(f"tracks={len(tracks)} frames={len(frames)} windows={n_windows} out={out_dir}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config, data_dir=args.data, out=args.out)
    if cfg.out is None:
        raise ConfigError("no output directory; pass --out or set 'out' in the config")
    if cfg.train.max_epochs < 1:
        raise ConfigError(f"train.max_epochs is {cfg.train.max_epochs}; training needs at least 1 epoch")
    out_dir = Path(cfg.out)
    _write_resolved(cfg, out_dir)
    splits = _load_split_windows(cfg.model, cfg.data, ("train", "val"))
    train_windows = splits["train"]
    if cfg.data.balance:
        train_windows = resample_balance(train_windows, cfg.train.seed)
    model = build(cfg.model)
    history = training_mod.train(model, train_windows, splits["val"], cfg.train)
    save_model(model, out_dir / "checkpoint.itn")
    training_mod.history_to_csv(history, out_dir / "history.csv")
    last = history[-1]
    print(
        f"epochs={last.epoch} train_loss={last.train_loss:.6f} val_loss={last.val_loss:.6f} "
        f"lr={last.lr:.2e} checkpoint={out_dir / 'checkpoint.itn'}"
    )
    return EXIT_OK


def _cmd_finetune(args) -> int:
    cfg = load_run_config(args.config, data_dir=args.data, out=args.out)
    if cfg.out is None:
        raise ConfigError("no output directory; pass --out or set 'out' in the config")
    model = load_model(args.checkpoint)
    cfg.model = model.spec
    out_dir = Path(cfg.out)
    _write_resolved(cfg, out_dir, extra={"finetune_from": str(args.checkpoint)})
    splits = _load_split_windows(cfg.model, cfg.data, ("train", "val"))
    train_windows = splits["train"]
    if cfg.data.balance:
        train_windows = resample_balance(train_windows, cfg.train.seed)
    history = training_mod.finetune(model, train_windows, splits["val"], cfg.train)
    save_model(model, out_dir / "checkpoint.itn")
    training_mod.history_to_csv(history, out_dir / "history.csv")
    print(f"finetuned for {len(history)} epochs; checkpoint={out_dir / 'checkpoint.itn'}")
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    if len(args.members) != 3:
        raise ConfigError("the ensemble takes exactly 3 member checkpoints")
    cfg = load_run_config(args.config, data_dir=args.data, out=args.out)
    if cfg.out is None:
        raise ConfigError("no output directory; pass --out or set 'out' in the config")
    hashes_before = [_sha256(p) for p in args.members]
    members = [load_model(p) for p in args.members]
    cfg.model = members[0].spec
    out_dir = Path(cfg.out)
    member_paths = [str(p) for p in args.members]
    _write_resolved(cfg, out_dir, extra={"ensemble_members": member_paths, "member_sha256": hashes_before})

    # Member specs may enable different inputs; build windows per member.
    labels, scores = None, []
    for member in members:
        windows = _load_split_windows(member.spec, cfg.data, ("train",))["train"]
        if labels is None:
            labels = np.array([w.label for w in windows], dtype=np.float32)
        scores.append(training_mod.predict_scores(member, windows))
    member_probs = np.stack(scores, axis=1).astype(np.float32)  # (B, 3)

    w = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros((), dtype=np.float32), requires_grad=True)
    head_params = {"ensemble.w": w, "ensemble.b": b}
    weights = training_mod.class_weights(labels) if cfg.train.use_class_weights else None
    state = TrainState(lr=cfg.train.lr, rng=np.random.default_rng(cfg.train.seed))
    loss_val = float("nan")
    for _ in range(cfg.train.max_epochs):
        loss_val = fit_step(head_params, lambda: ensemble_predict(Tensor(member_probs), w, b), labels, weights, state)

    hashes_after = [_sha256(p) for p in args.members]
    if hashes_after != hashes_before:
        raise IntegrityError("member checkpoints changed during ensemble-head training; aborting")
    save_checkpoint(out_dir / "ensemble.itn", head_params, {"members": member_paths, "member_sha256": hashes_before})
    print(
        f"ensemble head trained: loss={loss_val:.6f} w={np.round(w.data, 4).tolist()} "
        f"b={float(b.data):.4f} out={out_dir / 'ensemble.itn'}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = load_model(args.checkpoint)
    data = DataConfig(annotations=str(Path(args.data) / "annotations.jsonl"))
    frames_path = Path(args.data) / "frames.pvf"
    data.frames = str(frames_path) if frames_path.exists() else None
    for name, value in (("obs_len", args.obs_len), ("tte_lo", args.tte_lo), ("tte_hi", args.tte_hi), ("stride", args.stride)):
        if value is not None:
            setattr(data, name, value)
    windows = _load_split_windows(model.spec, data, (args.split,))[args.split]
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
    model = load_model(args.checkpoint)
    tracks = load_annotations(Path(args.data) / "annotations.jsonl")
    track = next((t for t in tracks if t.pedestrian_id == args.pid), None)
    if track is None:
        raise IntegrityError(f"no pedestrian {args.pid!r} in {args.data}")
    frames = None
    if model.spec.visual_inputs:
        frames = FrameStore.load(Path(args.data) / "frames.pvf")
    data_cfg = DataConfig(obs_len=args.obs_len if args.obs_len is not None else 16)
    clip_cfg = _clip_config(model.spec, data_cfg)
    window = extract_window_at(track, data_cfg.obs_len, args.frame, frames=frames, clip_cfg=clip_cfg)
    prob = forward(model, window)
    decision = "crossing" if prob >= 0.5 else "not_crossing"
    print(f"pid={args.pid} frame={args.frame} probability={prob:.6f} decision={decision}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    cfg = load_run_config(args.config)
    spec = cfg.model
    model = build(spec, dtype=np.float64)
    tracks, frames = generate_synthetic(cfg.train.seed, 2, "random", track_len=70)
    clip_cfg = _clip_config(spec, DataConfig(local_size=(32, 32), global_size=(32, 32)))
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

    p = sub.add_parser("generate", help="write a synthetic dataset (annotations.jsonl + frames.pvf)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tracks", type=int, required=True)
    p.add_argument("--rule", choices=("separable_motion", "separable_visual", "random"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--track-len", type=int, default=78)
    p.add_argument("--frame-height", type=int, default=40)
    p.add_argument("--frame-width", type=int, default=96)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("train", help="train a model from a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--data", default=None, help="dataset directory (overrides config paths)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("finetune", help="second-phase training from an existing checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--data", default=None)
    p.set_defaults(fn=_cmd_finetune)

    p = sub.add_parser("ensemble", help="train the 3-member frozen-ensemble head")
    p.add_argument("--members", nargs=3, required=True, metavar=("M1", "M2", "M3"))
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--data", default=None)
    p.set_defaults(fn=_cmd_ensemble)

    p = sub.add_parser("eval", help="evaluate a checkpoint; writes metrics.csv")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--out", required=True)
    p.add_argument("--obs-len", type=int, default=None, dest="obs_len")
    p.add_argument("--tte-lo", type=int, default=None, dest="tte_lo")
    p.add_argument("--tte-hi", type=int, default=None, dest="tte_hi")
    p.add_argument("--stride", type=int, default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("predict", help="single-window crossing probability")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pid", required=True)
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--obs-len", type=int, default=None, dest="obs_len")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of all model gradients")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", type=float, default=1e-5)
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
