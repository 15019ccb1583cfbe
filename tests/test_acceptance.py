"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget. Run with `pytest tests/test_acceptance.py -v`.
"""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
from scipy.special import expit

from oracles import auc_oracle
from pedintent.cli import main as cli_main
from pedintent.data import ClipConfig, extract_windows, generate_synthetic
from pedintent.metrics import evaluate
from pedintent.model import (
    NAMED_CONFIGS,
    EncoderConfig,
    FusionConfig,
    ModelSpec,
    TubeletConfig,
    ViViTConfig,
    build,
    ensemble_predict,
    forward_batch,
    init_encoder_params,
    named_model_spec,
)
from pedintent.model.assembly import stack_windows, _branch_outputs
from pedintent.model.encoder import encode
from pedintent.model.verify import check_model_gradients
from pedintent.tensor import Tensor, check_gradients, load_checkpoint
from pedintent.training import TrainConfig, TrainState, early_stopping, plateau_scheduler, predict_scores, train, weighted_bce

from test_tensor import _CASES, _f32_cases, _rng


def desk_windows(seed=31, rule="separable_motion", n=2):
    """Windows at desk scale: obs_len 4 (so clips carry 4 frames), 32x32 clips."""
    tracks, frames = generate_synthetic(seed, 2, rule, track_len=70)
    cfg = ClipConfig(
        inputs=("local_context", "local_surround", "global_context"),
        local_size=(32, 32),
        global_size=(32, 32),
    )
    wins = extract_windows(tracks[0], 4, (30, 60), 15, frames=frames, clip_cfg=cfg)
    return wins[:n]


def windows_for(tracks, frames=None, obs_len=16, tte=(30, 60), stride=15, clip_inputs=()):
    cfg = ClipConfig(inputs=tuple(clip_inputs), local_size=(32, 32), global_size=(32, 32))
    out = []
    for t in tracks:
        out.extend(extract_windows(t, obs_len, tte, stride, frames=frames, clip_cfg=cfg))
    return out


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_c01_gradient_fidelity():
    """Every registered op and every named ModelSpec matches central finite
    differences: < 1e-5 at 64-bit, < 1e-3 at 32-bit; runtime < 60 s."""
    start = time.monotonic()
    for op, (shape, fn) in _CASES.items():
        x = Tensor(_rng(11).normal(size=shape), dtype=np.float64)
        report = check_gradients(fn, x, eps=1e-5)
        assert report.max_rel_err < 1e-5, f"op {op}: {report.max_rel_err:.2e}"
    for op, (shape, fn) in _f32_cases().items():
        x = Tensor((_rng(13).normal(size=shape) * 0.6).astype(np.float32))
        report = check_gradients(fn, x, eps=1e-3)
        assert report.max_rel_err < 1e-3, f"op {op} (f32): {report.max_rel_err:.2e}"
    wins = desk_windows()
    for name in NAMED_CONFIGS:
        model = build(named_model_spec(name), dtype=np.float64)
        report = check_model_gradients(model, wins, eps=1e-5, max_elements=100)
        assert report.max_rel_err < 1e-5, f"{name}: {report.max_rel_err:.2e}"
    assert time.monotonic() - start < 60.0


def test_c02_metric_oracle_equivalence():
    """Rank-based AUC equals the exhaustive pairwise oracle to 1e-12 on
    1,000 random sets; hand-computed confusion example; runtime < 10 s."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 201))
        scores = np.round(rng.random(n), 2)  # coarse grid produces ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        assert abs(evaluate(scores, labels).auc - auc_oracle(scores, labels)) < 1e-12
        checked += 1
    report = evaluate([0.9, 0.2, 0.8, 0.7], [1, 0, 0, 1])
    assert report.accuracy == 0.75
    assert abs(report.precision - 2 / 3) < 1e-12
    assert report.recall == 1.0
    assert abs(report.f1 - 0.8) < 1e-12
    assert time.monotonic() - start < 10.0


def test_c03_causal_mask_property():
    """Ours 9: perturbing frames after position t moves non-visual encoder
    outputs at positions <= t by < 1e-6 on 100 random inputs; < 30 s."""
    start = time.monotonic()
    spec = named_model_spec("ours9_causal")
    model = build(spec)
    wins = desk_windows(seed=77, n=1)
    nonvis, clips = stack_windows(spec, wins)
    rng = np.random.default_rng(7)
    t_len = nonvis.shape[1]
    for case in range(100):
        t = int(rng.integers(0, t_len - 1))
        perturbed = nonvis.copy()
        perturbed[:, t + 1 :] += rng.normal(size=perturbed[:, t + 1 :].shape).astype(np.float32) * 10
        base = _branch_outputs(model, nonvis, clips, False, None)[0].data
        moved = _branch_outputs(model, perturbed, clips, False, None)[0].data
        assert np.max(np.abs(base[:, : t + 1] - moved[:, : t + 1])) < 1e-6, f"case {case}, t={t}"
    assert time.monotonic() - start < 30.0


def test_c04_permutation_equivariance():
    """encode without positional encoding commutes with row permutations to
    1e-5 on 100 random cases."""
    cfg = EncoderConfig(n_layers=2, n_heads=4, d_model=64, dropout_rate=0.0)
    params = {}
    init_encoder_params(params, "enc.", cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for case in range(100):
        s = int(rng.integers(2, 12))
        x = rng.normal(size=(s, 64)).astype(np.float32)
        perm = rng.permutation(s)
        base = encode(Tensor(x), cfg, params, "enc.").data
        shuffled = encode(Tensor(x[perm]), cfg, params, "enc.").data
        assert np.max(np.abs(shuffled - base[perm])) < 1e-5, f"case {case}"


def test_c05_learning_sanity_motion():
    """ours6 on 200 separable-motion windows: train accuracy >= 0.95 within
    200 epochs and held-out AUC >= 0.9; on label-coin-flip data the held-out
    AUC stays in [0.35, 0.65]; runtime < 5 min."""
    start = time.monotonic()
    tracks, _ = generate_synthetic(101, 100, "separable_motion")
    wins = windows_for(tracks)
    train_w, held = wins[:200], wins[200:]
    model = build(named_model_spec("ours6_bboxes", seed=0))
    train(model, train_w, held, TrainConfig(max_epochs=200, batch_size=32, seed=0))
    train_acc = evaluate(predict_scores(model, train_w), [w.label for w in train_w]).accuracy
    held_auc = evaluate(predict_scores(model, held), [w.label for w in held]).auc
    assert train_acc >= 0.95, f"train accuracy {train_acc:.3f}"
    assert held_auc >= 0.9, f"held-out AUC {held_auc:.3f}"

    tracks_r, _ = generate_synthetic(102, 100, "random")
    wins_r = windows_for(tracks_r)
    model_r = build(named_model_spec("ours6_bboxes", seed=0))
    train(model_r, wins_r[:200], wins_r[200:], TrainConfig(max_epochs=200, batch_size=32, seed=0))
    auc_r = evaluate(predict_scores(model_r, wins_r[200:]), [w.label for w in wins_r[200:]]).auc
    assert 0.35 <= auc_r <= 0.65, f"random-rule AUC {auc_r:.3f}"
    assert time.monotonic() - start < 300.0


def test_c06_visual_branch_sanity():
    """On data whose label lives only in pixels, a video-only model reaches
    held-out AUC >= 0.85 while the non-visual model stays <= 0.65; < 15 min."""
    start = time.monotonic()
    tracks, frames = generate_synthetic(202, 150, "separable_visual")
    wins = windows_for(tracks, frames=frames, obs_len=8, clip_inputs=("local_context",))
    train_w, held = wins[:200], wins[200:]
    held_labels = [w.label for w in held]

    vivit_spec = ModelSpec(
        channels=(),
        local_context=ViViTConfig(
            variant="spatiotemporal",
            tubelet=TubeletConfig(2, 16, 16, 32),
            spatial=EncoderConfig(2, 4, 32),
        ),
        fusion=FusionConfig("gap"),
        seed=0,
    )
    visual = build(vivit_spec)
    train(visual, train_w, held, TrainConfig(max_epochs=60, batch_size=32, seed=0))
    auc_visual = evaluate(predict_scores(visual, held), held_labels).auc

    nonvisual = build(named_model_spec("ours2_nonvisual", seed=0))
    train(nonvisual, train_w, held, TrainConfig(max_epochs=40, batch_size=32, seed=0))
    auc_nonvisual = evaluate(predict_scores(nonvisual, held), held_labels).auc

    assert auc_visual >= 0.85, f"visual AUC {auc_visual:.3f}"
    assert auc_nonvisual <= 0.65, f"non-visual AUC {auc_nonvisual:.3f}"
    assert time.monotonic() - start < 900.0


def test_c07_schedule_traces():
    """Plateau: constant losses, patience 5, factor 0.2 take lr 3e-4 to 6e-5
    after epoch 6. Early stop: patience 15 halts at epoch 16 and restores the
    best snapshot exactly."""
    state = TrainState(lr=3e-4, rng=np.random.default_rng(0))
    lrs = [plateau_scheduler(state, 1.0, patience=5, factor=0.2) for _ in range(6)]
    assert np.allclose(lrs[:5], 3e-4) and abs(lrs[5] - 6e-5) < 1e-15

    params = {"w": Tensor(np.arange(4, dtype=np.float32), requires_grad=True)}
    state = TrainState(lr=3e-4, rng=np.random.default_rng(0))
    early_stopping(state, 0.37, 15, params)  # snapshot of the best epoch
    best = params["w"].data.copy()
    params["w"].data = params["w"].data + 123.0
    stops = [early_stopping(state, 0.37, 15, params) for _ in range(15)]
    assert stops == [False] * 14 + [True]
    assert np.array_equal(params["w"].data, best)
    assert state.best_val_loss == 0.37


def test_c08_loss_identities():
    """Unit-weight weighted_bce equals the plain binary cross-entropy to
    1e-7 relative on random batches; y=[1,0], p=[0.5,0.5] gives ln 2."""
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 65))
        p = rng.uniform(0.01, 0.99, size=n)
        y = rng.integers(0, 2, size=n)
        ours = float(weighted_bce(y, Tensor(p, dtype=np.float64)).data)
        plain = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert abs(ours - plain) / plain < 1e-7
    ln2 = float(weighted_bce([1, 0], Tensor(np.array([0.5, 0.5], np.float64))).data)
    assert abs(ln2 - np.log(2)) < 1e-9


def test_c09_reproducibility(tmp_path):
    """Two full training runs with identical seed/config produce bit-identical
    checkpoints and history CSVs."""
    data_dir = tmp_path / "data"
    assert cli_main(["generate", "--seed", "5", "--tracks", "12", "--rule", "separable_motion", "--out", str(data_dir)]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"preset": "ours6_bboxes", "seed": 2},
                "train": {"lr": 3e-4, "batch_size": 16, "max_epochs": 6, "seed": 2},
                "data": {"obs_len": 16, "tte_lo": 30, "tte_hi": 60, "stride": 15},
            }
        ),
        encoding="utf-8",
    )
    for name in ("r1", "r2"):
        assert cli_main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / name)]) == 0
    assert sha(tmp_path / "r1" / "checkpoint.itn") == sha(tmp_path / "r2" / "checkpoint.itn")
    assert sha(tmp_path / "r1" / "history.csv") == sha(tmp_path / "r2" / "history.csv")


def test_c10_ensemble_freeze(tmp_path):
    """After ensemble-head training the member checkpoints hash unchanged and
    the head reproduces sigma(w.p + b) to 1e-6."""
    data_dir = tmp_path / "data"
    assert cli_main(["generate", "--seed", "6", "--tracks", "12", "--rule", "separable_motion", "--out", str(data_dir)]) == 0
    members = []
    for seed in (21, 22, 23):
        cfg = tmp_path / f"c{seed}.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"preset": "ours6_bboxes", "seed": seed},
                    "train": {"batch_size": 16, "max_epochs": 3, "seed": seed},
                    "data": {"obs_len": 16, "tte_lo": 30, "tte_hi": 60, "stride": 15},
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / f"m{seed}"
        assert cli_main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(out)]) == 0
        members.append(out / "checkpoint.itn")
    before = [sha(m) for m in members]
    ens_cfg = tmp_path / "ens.json"
    ens_cfg.write_text(
        json.dumps(
            {
                "model": {"preset": "ours6_bboxes"},
                "train": {"batch_size": 16, "max_epochs": 40, "seed": 0},
                "data": {"obs_len": 16, "tte_lo": 30, "tte_hi": 60, "stride": 15},
            }
        ),
        encoding="utf-8",
    )
    assert cli_main(
        ["ensemble", "--members", *map(str, members), "--config", str(ens_cfg), "--data", str(data_dir), "--out", str(tmp_path / "ens")]
    ) == 0
    assert [sha(m) for m in members] == before

    _, head = load_checkpoint(tmp_path / "ens" / "ensemble.itn")
    w, b = head["ensemble.w"], head["ensemble.b"]
    probs = np.array([0.8, 0.6, 0.7], np.float64)
    ours = float(ensemble_predict(probs.astype(np.float32), Tensor(w), Tensor(b)).data)
    assert abs(ours - expit(float(probs @ w) + float(b))) < 1e-6


def test_c11_delta_encoding_invariance():
    """Translating every bbox/center coordinate by a constant leaves each
    non-visual-only model's outputs bit-identical."""
    tracks, _ = generate_synthetic(11, 10, "separable_motion")
    shift = 37.0
    shifted_tracks = [dataclasses.replace(t, bbox=t.bbox + shift, center=t.center + shift) for t in tracks]
    base_w = windows_for(tracks)
    shift_w = windows_for(shifted_tracks)
    for name in ("ours2_nonvisual", "ours6_bboxes", "ours8_ft"):
        model = build(named_model_spec(name, seed=1))
        a = forward_batch(model, base_w).data
        b = forward_batch(model, shift_w).data
        assert np.array_equal(a, b), name
