"""Loss, optimizer, schedules, and the full training loop."""

import gc
import tracemalloc

import numpy as np
import pytest

from pedintent.data import extract_windows, generate_synthetic
from pedintent.errors import BalanceError, ConfigError, ContractError, NumericalError, WindowError
from pedintent.model import build, ensemble_predict, forward_batch, named_model_spec
from pedintent.tensor import Tape, Tensor, add, backward, mul
from pedintent import training
from pedintent.training import (
    EVAL_CHUNK,
    EpochStats,
    TrainConfig,
    TrainState,
    adam_step,
    class_weights,
    early_stopping,
    evaluate_loss,
    finetune,
    fit_step,
    history_to_csv,
    plateau_scheduler,
    predict_scores,
    train,
    weighted_bce,
)


def make_windows(n_tracks=20, rule="separable_motion", seed=0):
    tracks, _ = generate_synthetic(seed, n_tracks, rule)
    return [w for t in tracks for w in extract_windows(t, 16, (30, 60), 15)]


def fresh_state(lr=3e-4, seed=0):
    return TrainState(lr=lr, rng=np.random.default_rng(seed))


class TestClassWeights:
    def test_imbalanced(self):
        w = class_weights([1] * 30 + [0] * 70)
        assert abs(w[1] - 100 / 60) < 1e-9
        assert abs(w[0] - 100 / 140) < 1e-9

    def test_balanced_is_unit(self):
        w = class_weights([0, 1] * 25)
        assert w == {0: 1.0, 1: 1.0}

    def test_weighted_count_equals_total(self):
        labels = [1] * 13 + [0] * 37
        w = class_weights(labels)
        assert abs(13 * w[1] + 37 * w[0] - 50) < 1e-9

    def test_single_class(self):
        with pytest.raises(BalanceError):
            class_weights([1, 1, 1])


class TestWeightedBCE:
    def test_unit_weights_ln2(self):
        loss = weighted_bce([1, 0], Tensor(np.array([0.5, 0.5], np.float32)))
        assert abs(float(loss.data) - np.log(2)) < 1e-6

    def test_class_weighted_hand_value(self):
        loss = weighted_bce([1, 0], Tensor(np.array([0.5, 0.5], np.float32)), {1: 1.0, 0: 2.0})
        assert abs(float(loss.data) - 1.5 * np.log(2)) < 1e-6

    def test_perfect_prediction_near_zero(self):
        probs = Tensor(np.array([1.0 - 1e-7, 1e-7], np.float32))
        loss = weighted_bce([1, 0], probs)
        assert float(loss.data) < 1e-5

    def test_clamp_keeps_loss_finite(self):
        loss = weighted_bce([1, 0], Tensor(np.array([1e-9, 1.0 - 1e-9], np.float64)))
        assert np.isfinite(float(loss.data))

    def test_matches_plain_bce_formula(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.02, 0.98, size=16)
        y = rng.integers(0, 2, size=16)
        loss = float(weighted_bce(y, Tensor(p, dtype=np.float64)).data)
        expected = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert abs(loss - expected) / expected < 1e-7

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            weighted_bce([1, 0, 1], Tensor(np.array([0.5, 0.5], np.float32)))


class TestAdam:
    def _params(self, values):
        return {"w": Tensor(np.array(values, np.float32), requires_grad=True)}

    def test_zero_grad_no_change(self):
        params = self._params([1.0, -2.0])
        state = fresh_state()
        adam_step(params, {"w": np.zeros(2, np.float32)}, state, 1e-3)
        assert params["w"].data.tolist() == [1.0, -2.0]
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        params = self._params([1.0, -2.0, 0.3])
        g = np.array([0.5, -3.0, 1e-4], np.float32)
        adam_step(params, {"w": g}, fresh_state(), 1e-3)
        moved = np.array([1.0, -2.0, 0.3], np.float32) - params["w"].data
        # bias-corrected m/sqrt(v) = sign(g) on step one (up to eps)
        assert np.allclose(moved, 1e-3 * np.sign(g), rtol=1e-3)

    def test_missing_grad_treated_as_zero(self):
        params = self._params([4.0])
        adam_step(params, {}, fresh_state(), 1e-3)
        assert params["w"].data.tolist() == [4.0]

    def test_nan_grad_aborts_with_name(self):
        params = self._params([1.0])
        with pytest.raises(NumericalError, match="'w'"):
            adam_step(params, {"w": np.array([np.nan], np.float32)}, fresh_state(), 1e-3)

    def test_nan_in_last_gradient_changes_nothing(self):
        params = {name: Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True) for name in ("a", "b", "c")}
        state = fresh_state()
        adam_step(params, {name: np.array([0.5, -1.0], np.float32) for name in params}, state, 1e-3)
        before = {name: (p.data.tobytes(), state.m[name].tobytes(), state.v[name].tobytes()) for name, p in params.items()}
        grads = {"a": np.ones(2, np.float32), "b": np.ones(2, np.float32), "c": np.array([1.0, np.nan], np.float32)}
        with pytest.raises(NumericalError, match="'c' at step 2"):
            adam_step(params, grads, state, 1e-3)
        after = {name: (p.data.tobytes(), state.m[name].tobytes(), state.v[name].tobytes()) for name, p in params.items()}
        assert after == before
        assert state.step == 1

    def test_deterministic_trajectory(self):
        rng = np.random.default_rng(1)
        grads = [rng.normal(size=3).astype(np.float32) for _ in range(5)]
        results = []
        for _ in range(2):
            params = self._params([0.1, 0.2, 0.3])
            state = fresh_state()
            for g in grads:
                adam_step(params, {"w": g}, state, 1e-3)
            results.append(params["w"].data.copy())
        assert np.array_equal(results[0], results[1])


class TestFitStep:
    def test_non_finite_gradient_names_its_parameter_and_changes_nothing(self):
        """`backward` finds the non-finite gradient; `fit_step` names the
        first parameter, in `params` order, that holds one, and leaves the
        parameters, moments and step count as they were."""
        x = Tensor(np.array([[1.0, 0.5, 2.0], [0.0, 1.0, 1.0]], np.float32))
        params = {name: Tensor(np.full(3, 0.1, np.float32), requires_grad=True) for name in ("a", "w")}
        params["c"] = Tensor(np.zeros((), np.float32), requires_grad=True)
        a, w, c = params.values()
        state = fresh_state(lr=0.1)
        fit_step(params, lambda: ensemble_predict(x, add(a, w), c), [1, 0], None, state)
        w.data = np.zeros(3, np.float32)
        before = {name: (p.data.tobytes(), state.m[name].tobytes(), state.v[name].tobytes()) for name, p in params.items()}
        # w is 0, so the forward stays finite, but w's gradient is scaled by 9e76
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match=r"^non-finite gradient for parameter 'w' at step 2$"):
            fit_step(params, lambda: ensemble_predict(x, add(a, mul(mul(w, 3e38), 3e38)), c), [1, 0], None, state)
        assert np.all(np.isinf(w.grad)) and np.all(np.isfinite(a.grad)) and np.isfinite(c.grad)
        after = {name: (p.data.tobytes(), state.m[name].tobytes(), state.v[name].tobytes()) for name, p in params.items()}
        assert after == before
        assert state.step == 1

    def test_names_the_first_parameter_in_params_order(self):
        """The tape meets w before a, and both gradients overflow: backward
        assigns every gradient before it raises, so a is named."""
        x = Tensor(np.array([[1.0, 0.5, 2.0], [0.0, 1.0, 1.0]], np.float32))
        params = {name: Tensor(np.zeros(3, np.float32), requires_grad=True) for name in ("a", "w")}
        a, w = params.values()
        big = lambda t: mul(mul(t, 3e38), 3e38)  # noqa: E731
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="'a' at step 1"):
            fit_step(params, lambda: ensemble_predict(x, add(big(w), big(a)), Tensor(np.zeros((), np.float32))), [1, 0], None, fresh_state())

    def test_returns_loss_before_update_and_takes_one_adam_step(self):
        w = Tensor(np.zeros(3, np.float32), requires_grad=True)
        b = Tensor(np.zeros((), np.float32), requires_grad=True)
        params = {"w": w, "b": b}
        x = Tensor(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]], np.float32))
        state = fresh_state(lr=0.1)
        loss = fit_step(params, lambda: ensemble_predict(x, w, b), [1, 0], None, state)
        assert abs(loss - np.log(2.0)) < 1e-6  # sigmoid(0) = 1/2 for both samples
        assert state.step == 1
        # a first Adam step moves each parameter by lr against its gradient's
        # sign; b's gradient is exactly 0 (the two samples cancel)
        assert np.allclose(w.data, [0.1, -0.1, 0.1], atol=1e-6)
        assert float(b.data) == 0.0

    def test_matches_hand_rolled_step(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.random((6, 3)).astype(np.float32))
        b = Tensor(np.zeros((), np.float32))
        labels = np.array([1, 0, 1, 1, 0, 0])
        runs = []
        for use_helper in (True, False):
            w = Tensor(np.full(3, 0.1, np.float32), requires_grad=True)
            params, state = {"w": w}, fresh_state(lr=0.05)
            for _ in range(3):
                if use_helper:
                    fit_step(params, lambda: ensemble_predict(x, w, b), labels, {0: 2.0, 1: 0.5}, state)
                else:
                    with Tape():
                        loss = weighted_bce(labels, ensemble_predict(x, w, b), {0: 2.0, 1: 0.5})
                        backward(loss)
                    adam_step(params, {"w": w.grad}, state, state.lr)
            runs.append(w.data.copy())
        assert np.array_equal(runs[0], runs[1])


class TestPlateauScheduler:
    def test_constant_loss_trace(self):
        state = fresh_state(lr=3e-4)
        lrs = [plateau_scheduler(state, 1.0, patience=5, factor=0.2) for _ in range(6)]
        assert np.allclose(lrs[:5], 3e-4)
        assert abs(lrs[5] - 6e-5) < 1e-12

    def test_decreasing_loss_keeps_lr(self):
        state = fresh_state(lr=3e-4)
        for epoch, loss in enumerate([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]):
            assert plateau_scheduler(state, loss, 5, 0.2) == 3e-4

    def test_improvement_at_patience_boundary_resets(self):
        state = fresh_state(lr=3e-4)
        for loss in [1.0, 1.0, 1.0, 1.0, 1.0]:  # 4 stale epochs after the first
            plateau_scheduler(state, loss, 5, 0.2)
        assert plateau_scheduler(state, 0.5, 5, 0.2) == 3e-4  # improves on the boundary
        assert state.plateau_count == 0

    def test_tiny_improvement_below_min_delta_counts_stale(self):
        state = fresh_state(lr=1e-3)
        plateau_scheduler(state, 1.0, 2, 0.5)
        plateau_scheduler(state, 1.0 - 1e-6, 2, 0.5)
        assert plateau_scheduler(state, 1.0 - 2e-6, 2, 0.5) == 5e-4


class TestEarlyStopping:
    def _params(self):
        return {"w": Tensor(np.array([1.0], np.float32), requires_grad=True)}

    def test_improving_never_stops(self):
        state, params = fresh_state(), self._params()
        for loss in np.linspace(1.0, 0.1, 30):
            assert not early_stopping(state, float(loss), 15, params)

    def test_constant_loss_stops_at_epoch_16(self):
        state, params = fresh_state(), self._params()
        stops = [early_stopping(state, 1.0, 15, params) for _ in range(16)]
        assert stops[:15] == [False] * 15
        assert stops[15] is True

    def test_restores_best_weights(self):
        state, params = fresh_state(), self._params()
        early_stopping(state, 0.5, 3, params)  # best snapshot at w=1
        params["w"].data = np.array([999.0], np.float32)
        for _ in range(3):
            early_stopping(state, 0.9, 3, params)
        assert params["w"].data.tolist() == [1.0]
        assert state.best_val_loss == 0.5


class TestTrainLoop:
    def test_loss_decreases_on_separable_data(self):
        windows = make_windows(12)
        model = build(named_model_spec("ours6_bboxes", seed=0))
        cfg = TrainConfig(max_epochs=15, batch_size=16, seed=0, early_stop_patience=15)
        history = train(model, windows, windows[:8], cfg)
        assert history[-1].train_loss < history[0].train_loss

    def test_single_sample_step_decreases_loss(self):
        """One small-lr gradient step on one sample lowers that sample's loss."""
        windows = make_windows(10)
        for i in range(10):
            model = build(named_model_spec("ours6_bboxes", seed=i))
            sample = [windows[i]]
            before = evaluate_loss(model, sample)
            state = fresh_state(lr=1e-3, seed=i)
            with Tape():
                probs = forward_batch(model, sample, training=False)
                loss = weighted_bce([sample[0].label], probs)
                backward(loss)
            adam_step(model.params, {k: p.grad for k, p in model.params.items()}, state, 1e-3)
            after = evaluate_loss(model, sample)
            assert after < before

    def test_taped_step_leaves_no_garbage(self):
        windows = make_windows(4)[:8]
        model = build(named_model_spec("ours6_bboxes", seed=1))

        def step():
            with Tape():
                probs = forward_batch(model, windows, training=True, rng=np.random.default_rng(1))
                backward(weighted_bce([w.label for w in windows], probs))

        gc.collect()
        gc.disable()
        try:
            step()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ft_step_peak_below_full_score_tensors(self):
        """One ours8_ft step at B=4 (706 tokens, 2 layers, 4 heads) peaks
        below the three (4, 4, 706, 706) float32 score tensors per layer
        that the unfused attention chain kept for backward."""
        windows = make_windows(4)[:4]
        model = build(named_model_spec("ours8_ft", seed=0))
        gc.collect()
        tracemalloc.start()
        try:
            with Tape():
                probs = forward_batch(model, windows, training=True, rng=np.random.default_rng(0))
                backward(weighted_bce([w.label for w in windows], probs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 * 4 * 4 * 706 * 706 * 4

    def test_bit_identical_reproducibility(self):
        windows = make_windows(10)
        outs = []
        for _ in range(2):
            model = build(named_model_spec("ours6_bboxes", seed=4))
            cfg = TrainConfig(max_epochs=4, batch_size=8, seed=4)
            history = train(model, windows[:24], windows[24:30], cfg)
            outs.append((history, model.state_dict()))
        assert outs[0][0] == outs[1][0]
        for name in outs[0][1]:
            assert np.array_equal(outs[0][1][name], outs[1][1][name])

    def test_lr_trace_non_increasing(self):
        windows = make_windows(8, rule="random")
        model = build(named_model_spec("ours6_bboxes", seed=2))
        cfg = TrainConfig(max_epochs=25, batch_size=16, seed=2, plateau_patience=2, early_stop_patience=25)
        history = train(model, windows[:16], windows[16:24], cfg)
        lrs = [h.lr for h in history]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_history_csv_layout(self, tmp_path):
        path = tmp_path / "h.csv"
        history_to_csv([EpochStats(1, 0.5, 0.6, 3e-4), EpochStats(2, 0.4, 0.55, 3e-4)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert lines[1].startswith("1,0.5,0.6,")
        assert len(lines) == 3
        assert path.read_bytes().count(b"\r\n") == 3  # csv module line ends

    def test_final_weights_reproduce_best_val_loss(self):
        windows = make_windows(12, rule="random", seed=3)
        model = build(named_model_spec("ours6_bboxes", seed=3))
        cfg = TrainConfig(max_epochs=10, batch_size=16, seed=3)
        history = train(model, windows[:20], windows[20:30], cfg)
        best = min(h.val_loss for h in history)
        assert abs(evaluate_loss(model, windows[20:30]) - best) < 1e-6


class TestEvalChunks:
    """Eval runs EVAL_CHUNK windows per forward, so its memory is bounded by
    the chunk, not by the number of windows."""

    def test_chunked_matches_one_batch(self, monkeypatch):
        windows = make_windows(30)[:70]
        assert len(windows) == 70
        model = build(named_model_spec("ours6_bboxes", seed=1))
        one = forward_batch(model, windows).data
        sizes = []

        def sized(model, batch, **kwargs):
            sizes.append(len(batch))
            return forward_batch(model, batch, **kwargs)

        monkeypatch.setattr(training, "forward_batch", sized)
        chunked = predict_scores(model, windows)
        assert sizes == [EVAL_CHUNK, EVAL_CHUNK, 70 - 2 * EVAL_CHUNK]
        assert chunked.dtype == np.float64 and np.max(np.abs(chunked - one)) < 1e-6

    def test_one_chunk_bit_identical(self):
        model = build(named_model_spec("ours6_bboxes", seed=1))
        for n in (1, EVAL_CHUNK):
            windows = make_windows(12)[:n]
            one = forward_batch(model, windows)
            assert predict_scores(model, windows).tobytes() == one.data.astype(np.float64).tobytes()
            labels = [w.label for w in windows]
            assert evaluate_loss(model, windows) == float(weighted_bce(labels, one).data)
        assert predict_scores(model, []).shape == (0,)


class TestEmptyTrainSplit:
    def test_no_windows_named_as_the_cause(self):
        model = build(named_model_spec("ours6_bboxes"))
        with pytest.raises(WindowError, match="no training windows"):
            train(model, [], make_windows(4)[:4], TrainConfig(max_epochs=1))


class TestFinetune:
    def test_zero_epochs_unchanged(self):
        windows = make_windows(8)
        model = build(named_model_spec("ours6_bboxes", seed=5))
        before = model.state_dict()
        finetune(model, windows[:12], windows[12:16], TrainConfig(max_epochs=0, seed=5))
        after = model.state_dict()
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_forces_unit_weights_and_factor(self):
        windows = make_windows(10, seed=6)
        model = build(named_model_spec("ours6_bboxes", seed=6))
        # single-class training data would make class_weights raise; finetune
        # must not compute them at all
        ones = [w for w in windows if w.label == 1][:10]
        history = finetune(model, ones, windows[:6], TrainConfig(max_epochs=1, seed=6))
        assert len(history) == 1

    def test_fresh_optimizer_state(self):
        windows = make_windows(8, seed=7)
        model = build(named_model_spec("ours6_bboxes", seed=7))
        cfg = TrainConfig(max_epochs=2, batch_size=8, seed=7)
        train(model, windows[:12], windows[12:16], cfg)
        # finetune starts from step 0 moments: its first step magnitude is
        # ~lr per element, which only holds with zeroed moments
        h = finetune(model, windows[:12], windows[12:16], TrainConfig(max_epochs=1, batch_size=8, seed=7))
        assert len(h) == 1

    def test_wide_window_pretrain_then_narrow_finetune(self):
        """Pretrain on events up to 120 frames out, then fine-tune on 30-60."""
        tracks, _ = generate_synthetic(8, 10, "separable_motion", track_len=140, frame_size=(40, 160))
        wide = [w for t in tracks for w in extract_windows(t, 16, (30, 120), 30)]
        narrow = [w for t in tracks for w in extract_windows(t, 16, (30, 60), 15)]
        assert len(wide) > len(narrow) // 3
        model = build(named_model_spec("ours6_bboxes", seed=8))
        pre = train(model, wide, wide[:12], TrainConfig(max_epochs=3, batch_size=16, seed=8))
        post = finetune(model, narrow, narrow[:12], TrainConfig(max_epochs=3, batch_size=16, seed=8))
        assert len(pre) == 3 and len(post) == 3


class TestTrainConfigValidation:
    def test_bad_factor(self):
        with pytest.raises(ConfigError):
            TrainConfig(plateau_factor=1.5)

    def test_bad_patience(self):
        with pytest.raises(ConfigError):
            TrainConfig(early_stop_patience=0)
