"""Model construction from specs, named configurations, forward contracts."""

import contextlib
import dataclasses
import gc
import hashlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from pedintent.data import CHANNEL_COLUMNS, VISUAL_INPUTS, ClipConfig, extract_windows, generate_synthetic
from pedintent.errors import CheckpointError, ConfigError, InputError
from pedintent.model import (
    NAMED_CONFIGS,
    EncoderConfig,
    FusionConfig,
    ModelSpec,
    build,
    forward,
    forward_arrays,
    forward_batch,
    load_model,
    named_model_spec,
    save_model,
)
from pedintent.model import assembly, encoder, vivit
from pedintent.model.assembly import stack_windows
from pedintent.model.verify import check_model_gradients
from pedintent.model.vivit import vivit_forward
from pedintent.tensor import Tape, backward, save_checkpoint, tensor_sum
from pedintent.training import TrainState, fit_step

from oracles import unpacked_attention_sublayer


@pytest.fixture(scope="module")
def windows():
    tracks, frames = generate_synthetic(21, 4, "separable_motion", track_len=70)
    cfg = ClipConfig(
        inputs=("local_context", "local_surround", "global_context"),
        local_size=(32, 32),
        global_size=(32, 32),
    )
    wins = []
    for t in tracks:
        wins.extend(extract_windows(t, 8, (30, 60), 15, frames=frames, clip_cfg=cfg))
    return wins


class TestSpecValidation:
    def test_no_branches(self):
        with pytest.raises(ConfigError, match="at least one branch"):
            ModelSpec(channels=())

    def test_channels_without_encoder(self):
        with pytest.raises(ConfigError):
            ModelSpec(channels=("bbox",), nonvisual_encoder=None)

    def test_unknown_channel(self):
        with pytest.raises(ConfigError, match="unknown channels"):
            ModelSpec(channels=("bbox", "gait"), nonvisual_encoder=EncoderConfig(1, 2, 8))

    def test_feature_tokenizer_with_causal_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec(
                channels=("bbox",),
                nonvisual_encoder=EncoderConfig(1, 2, 8),
                use_feature_tokenizer=True,
                causal=True,
            )

    def test_d_model_mismatch_across_branches(self):
        from pedintent.model import TubeletConfig, ViViTConfig

        vivit = ViViTConfig(
            variant="spatiotemporal", tubelet=TubeletConfig(2, 16, 16, 32), spatial=EncoderConfig(1, 2, 32)
        )
        with pytest.raises(ConfigError, match="d_model"):
            ModelSpec(channels=("bbox",), nonvisual_encoder=EncoderConfig(1, 2, 16), local_context=vivit)

    @pytest.mark.parametrize("tokenizer", [False, True], ids=["projection", "tokenizer"])
    def test_nonvisual_encoder_causal_rejected(self, tokenizer):
        """Causal masking has one switch, model.causal; encoders have none."""
        d = named_model_spec("ours8_ft" if tokenizer else "ours2_nonvisual").to_dict()
        d["nonvisual_encoder"]["causal"] = True
        with pytest.raises(ConfigError, match="unknown config key 'model.nonvisual_encoder.causal'"):
            ModelSpec.from_dict(d)

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: d.update(bogus=1), "model.bogus"),
            (lambda d: d["nonvisual_encoder"].update(depth=2), "model.nonvisual_encoder.depth"),
            (lambda d: d["local_context"].pop("tubelet"), "tubelet"),
            (lambda d: d.update(local_context=[1, 2]), "model.local_context"),
            (lambda d: d.update(fusion={"encoder": None}), "strategy"),
            (lambda d: d.update(channels="bbox"), "model.channels"),
            (lambda d: d.update(seed="2"), "model.seed"),
        ],
        ids=["top-key", "encoder-key", "no-tubelet", "section-type", "no-strategy", "channels-type", "seed-type"],
    )
    def test_malformed_dict_names_the_key(self, edit, key):
        d = named_model_spec("ours1").to_dict()
        edit(d)
        with pytest.raises(ConfigError, match=key):
            ModelSpec.from_dict(d)

    def test_json_round_trip(self):
        for name in NAMED_CONFIGS:
            spec = named_model_spec(name, seed=5)
            assert ModelSpec.from_dict(spec.to_dict()) == spec


class TestBuild:
    def test_deterministic_checkpoints(self, tmp_path):
        a = build(named_model_spec("ours3", seed=7))
        b = build(named_model_spec("ours3", seed=7))
        pa, pb = tmp_path / "a.itn", tmp_path / "b.itn"
        save_model(a, pa)
        save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        a = build(named_model_spec("ours6_bboxes", seed=1))
        b = build(named_model_spec("ours6_bboxes", seed=2))
        assert not np.array_equal(a.params["nonvisual.proj.w"].data, b.params["nonvisual.proj.w"].data)

    def test_ours6_smaller_than_ours3(self):
        assert build(named_model_spec("ours6_bboxes")).parameter_count < build(named_model_spec("ours3")).parameter_count

    def test_attention_keys_have_no_bias(self):
        counts = {}
        for name in NAMED_CONFIGS:
            model = build(named_model_spec(name))
            assert not [k for k in model.params if k.endswith("attn.wk.b")], name
            counts[name] = model.parameter_count
        assert counts == {
            "ours1": 334_401,
            "ours2_nonvisual": 111_425,
            "ours3": 747_649,
            "ours4_factorised": 599_041,
            "ours6_bboxes": 108_673,
            "ours8_ft": 114_433,
            "ours9_causal": 334_401,
        }

    def test_zero_key_bias_changes_no_probability(self, windows, monkeypatch):
        """A fresh float32 build scores bit-identically to the same build
        run through the frozen unpacked attention sublayer with a zero key
        bias added back, as every layer once had: the packed q/k/v product
        with the scale folded into the query weights changes no bit."""

        def unpacked_with_key_bias(x, params, prefix, n_heads, mask=None):
            return unpacked_attention_sublayer(x, params, prefix, n_heads, mask=mask, key_bias=True)

        for name in NAMED_CONFIGS:
            model = build(named_model_spec(name))
            expected = forward_batch(model, windows[:8]).data
            with monkeypatch.context() as patch:
                patch.setattr(encoder, "multi_head_attention", unpacked_with_key_bias)
                got = forward_batch(model, windows[:8]).data
            assert got.tobytes() == expected.tobytes(), name

    def test_every_named_config_builds_and_runs(self, windows):
        for name in NAMED_CONFIGS:
            model = build(named_model_spec(name))
            p = forward(model, windows[0])
            assert 0.0 < p < 1.0, name

    def test_named_configs_gradient_check(self, windows):
        for name in NAMED_CONFIGS:
            model = build(named_model_spec(name), dtype=np.float64)
            small = [w for w in windows[:2]]
            report = check_model_gradients(model, small, eps=1e-6, max_elements=40)
            assert report.max_rel_err < 1e-5, f"{name}: {report.max_rel_err}"


class TestForward:
    def test_eval_mode_pure(self, windows):
        model = build(named_model_spec("ours1"))
        a = forward_batch(model, windows[:3]).data
        b = forward_batch(model, windows[:3]).data
        assert np.array_equal(a, b)

    def test_ours2_ignores_pixels(self, windows):
        model = build(named_model_spec("ours2_nonvisual"))
        w = windows[0]
        base = forward(model, w)
        w2 = type(w)(
            w.nonvisual, w.label, w.time_to_event, w.pedestrian_id,
            local_context=np.zeros_like(w.local_context),
            local_surround=w.local_surround,
            global_context=w.global_context,
        )
        assert forward(model, w2) == base

    def test_channel_ablation_soundness(self, windows):
        """Disabling a channel makes the output exactly invariant to it."""
        spec = ModelSpec(channels=("bbox", "center"), nonvisual_encoder=EncoderConfig(2, 4, 64), seed=3)
        model = build(spec)
        w = windows[0]
        base = forward(model, w)
        pose, speed = CHANNEL_COLUMNS["pose"], CHANNEL_COLUMNS["speed"]
        nonvisual = w.nonvisual.copy()
        nonvisual[:, pose] = w.nonvisual[:, pose] * 100 + 7
        nonvisual[:, speed] = w.nonvisual[:, speed][:, ::-1]
        w2 = type(w)(nonvisual, w.label, w.time_to_event, w.pedestrian_id)
        assert forward(model, w2) == base

    def test_missing_enabled_channel_named(self, windows):
        model = build(named_model_spec("ours1"))
        w = windows[0]
        bare = type(w)(w.nonvisual, w.label, w.time_to_event)
        with pytest.raises(InputError, match="local_context"):
            forward(model, bare)

    def test_causal_truncation_property(self, windows):
        """ours9: outputs at position t of the non-visual encoder are the
        same whether or not later frames exist."""
        from pedintent.model.assembly import _branch_outputs, stack_windows

        spec = named_model_spec("ours9_causal")
        model = build(spec)
        nonvis, clips = stack_windows(spec, windows[:1])
        full = _branch_outputs(model, nonvis, clips, False, None)[0].data
        t = 4
        truncated = _branch_outputs(model, nonvis[:, :t], {k: v for k, v in clips.items()}, False, None)[0].data
        assert np.allclose(full[:, :t], truncated, atol=1e-6)


class TestStackPerBranch:
    """forward_batch cuts each clip input's patches inside its branch's
    tubelet projection, and no copy of them outlives it, in eval or under
    a tape; a tape's backward cuts them once more."""

    @pytest.mark.parametrize("training", [False, True])
    def test_earlier_clips_dead_when_a_branch_starts(self, windows, monkeypatch, training):
        model = build(named_model_spec("ours3"))
        stacked = {}  # visual input name -> weakrefs to the arrays stack_windows returned
        alive_at_stack = []  # per stack_windows call: the inputs whose stacked clips are alive
        alive_at_start = []  # per branch: (its input, the inputs whose stacked clips are alive)

        def alive():
            return [name for name, refs in stacked.items() if any(r() is not None for r in refs)]

        def recording_stack(*args, **kwargs):
            alive_at_stack.append(alive())
            nonvis, clips = stack_windows(*args, **kwargs)
            for name, clip in clips.items():
                stacked.setdefault(name, []).append(weakref.ref(clip))
            return nonvis, clips

        def recording_vivit(clip, cfg, params, prefix, **kwargs):
            alive_at_start.append((prefix.rstrip("."), alive()))
            return vivit_forward(clip, cfg, params, prefix, **kwargs)

        monkeypatch.setattr(assembly, "stack_windows", recording_stack)
        monkeypatch.setattr(assembly, "vivit_forward", recording_vivit)
        cuts = 2 if training else 1  # forward's, and backward's for the weight gradient
        with Tape():
            probs = forward_batch(model, windows[:4], training=training, rng=np.random.default_rng(0))
            assert alive() == []
            if training:
                backward(tensor_sum(probs))
            assert alive() == []
        assert alive_at_start == [(name, []) for name in model.spec.visual_inputs]
        assert alive_at_stack == [[]] * (1 + cuts * len(model.spec.visual_inputs))
        assert {name: len(refs) for name, refs in stacked.items()} == dict.fromkeys(model.spec.visual_inputs, cuts)

    @pytest.mark.parametrize("config", ["ours3", "ours4_factorised"])
    def test_patch_buffer_dead_when_its_first_encode_starts(self, windows, monkeypatch, config):
        """A branch's patch array and the buffer under it die at its tubelet
        projection, untaped as eval scoring runs and under a tape as
        training runs; the array backward cuts again dies in backward."""
        model = build(named_model_spec(config))
        for training in (False, True):
            buffers = {}  # visual input name -> weakrefs to its patch arrays and the buffers under them
            alive_at_first_encode = {}  # input -> whether any of its buffers was alive then

            def alive(name=None):
                refs = buffers[name] if name else [r for rs in buffers.values() for r in rs]
                return any(r() is not None for r in refs)

            def recording_stack(*args, **kwargs):
                nonvis, clips = stack_windows(*args, **kwargs)
                for name, patches in clips.items():
                    buffers.setdefault(name, []).extend(weakref.ref(a) for a in (patches, patches.base) if a is not None)
                return nonvis, clips

            def recording_encode(tokens, cfg, params, prefix, **kwargs):
                name = prefix.split(".")[0]
                alive_at_first_encode.setdefault(name, alive(name))
                return encoder.encode(tokens, cfg, params, prefix, **kwargs)

            monkeypatch.setattr(assembly, "stack_windows", recording_stack)
            monkeypatch.setattr(vivit, "encode", recording_encode)
            tape = Tape() if training else contextlib.nullcontext()
            with tape:
                probs = forward_batch(model, windows[:4], training=training, rng=np.random.default_rng(0))
                alive_after_forward = alive()
                if training:
                    backward(tensor_sum(probs))
            assert alive_at_first_encode == dict.fromkeys(model.spec.visual_inputs, False)
            assert not alive_after_forward and not alive()
            assert {name: len(refs) for name, refs in buffers.items()} == dict.fromkeys(
                model.spec.visual_inputs, 4 if training else 2
            )

    def test_eval_peak_holds_one_input_buffer(self):
        """The tracemalloc peak of an eval forward over 8 ours4_factorised
        windows, taken after extraction, stays under one input's patch
        buffer plus a quarter of a buffer of slack for the branches'
        activations. Neither a second copy of the input, such as a stacked
        (B, T+1, H, W, 3) clip next to its transposed patches, nor a bool
        finiteness mask of the buffer (a quarter of it) fits."""
        tracks, frames = generate_synthetic(21, 4, "separable_motion", track_len=70)
        cfg = ClipConfig(inputs=("local_surround", "global_context"), local_size=(32, 32), global_size=(32, 32))
        batch = [w for t in tracks for w in extract_windows(t, 16, (30, 60), 15, frames=frames, clip_cfg=cfg)][:8]
        assert len(batch) == 8
        model = build(named_model_spec("ours4_factorised"))
        forward_batch(model, batch)  # a first call allocates what later calls reuse
        buffer = sum(w.local_surround.nbytes for w in batch)  # float32 patches hold the clips' bytes
        gc.collect()
        tracemalloc.start()
        try:
            forward_batch(model, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buffer <= peak < 1.25 * buffer, (peak, buffer)

    def test_training_step_peak_holds_no_patch_array(self):
        """The tracemalloc peak of one ours3 `fit_step` over 8 windows, above
        what the model, its gradients and its optimiser state hold when the
        step starts, stays under 3.3 times the batch's clip bytes (all three
        inputs' float32 patch buffers together). The step's activations,
        new gradients and Adam's temporaries take about 3.1 of them. Keeping
        the last step's gradients alive beside the new ones takes about
        3.5, and a tape that also kept the three patch arrays for the
        tubelet weight gradients about 4.5."""
        tracks, frames = generate_synthetic(21, 4, "separable_motion", track_len=70)
        cfg = ClipConfig(inputs=VISUAL_INPUTS, local_size=(32, 32), global_size=(32, 32))
        batch = [w for t in tracks for w in extract_windows(t, 16, (30, 60), 15, frames=frames, clip_cfg=cfg)][:8]
        assert len(batch) == 8
        labels = np.array([w.label for w in batch])
        model = build(named_model_spec("ours3"))
        state = TrainState(lr=3e-4, rng=np.random.default_rng(0))

        def step():
            fit_step(model.params, lambda: forward_batch(model, batch, training=True, rng=state.rng), labels, None, state)

        clip_bytes = sum(w.clip(name).nbytes for w in batch for name in VISUAL_INPUTS)
        gc.collect()
        tracemalloc.start()
        try:
            step()  # Adam's moments and the first gradients, traced
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 3.3 * clip_bytes, (peak - start, clip_bytes)

    @pytest.mark.parametrize("config", ["ours3", "ours4_factorised", "ours9_causal"])
    def test_same_bits_as_forward_arrays(self, windows, config):
        """Eval and training probabilities and every parameter gradient."""
        model = build(named_model_spec(config))
        batch = windows[:4]

        def batched(**kwargs):
            return forward_batch(model, batch, **kwargs)

        def prestacked(**kwargs):
            return forward_arrays(model, *stack_windows(model.spec, batch), **kwargs)

        results = []
        for run in (batched, prestacked):
            with Tape():
                probs = run(training=True, rng=np.random.default_rng(5))
                backward(tensor_sum(probs))
            grads = {name: p.grad.tobytes() for name, p in model.params.items()}
            results.append((run().data.tobytes(), probs.data.tobytes(), grads))
        assert results[0] == results[1]

    def test_missing_input_raises_before_any_branch(self, windows, monkeypatch):
        model = build(named_model_spec("ours3"))
        branches = []
        for fn in ("encode", "vivit_forward"):
            monkeypatch.setattr(assembly, fn, lambda *args, _fn=fn, **kwargs: branches.append(_fn))
        batch = [windows[0], dataclasses.replace(windows[1], global_context=None)]
        with pytest.raises(InputError, match=r"^model enables visual input 'global_context' but window 1 provides none$"):
            forward_batch(model, batch)
        assert branches == []


class TestPersistence:
    def test_save_load_round_trip(self, windows, tmp_path):
        model = build(named_model_spec("ours4_factorised", seed=11))
        path = tmp_path / "m.itn"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data)
        assert forward(loaded, windows[0]) == forward(model, windows[0])

    def test_one_file_holds_spec_and_weights(self, tmp_path):
        """The checkpoint is ITN2, the spec and the payload digest as its
        header, then the weight entries exactly as a checkpoint without a
        spec stores them."""

        def split(raw):
            n = int.from_bytes(raw[4:8], "little")
            return json.loads(raw[8 : 8 + n].decode("utf-8")), raw[8 + n :]

        for name in NAMED_CONFIGS:
            model = build(named_model_spec(name, seed=4))
            path, bare = tmp_path / "m.itn", tmp_path / "bare.itn"
            save_model(model, path)
            save_checkpoint(bare, model.params)
            raw = path.read_bytes()
            assert raw[:4] == b"ITN2"
            header, payload = split(raw)
            assert list(header) == ["model", "payload_sha256"] and ModelSpec.from_dict(header["model"]) == model.spec
            assert header["payload_sha256"] == hashlib.sha256(payload).hexdigest()
            assert split(bare.read_bytes()) == ({"payload_sha256": header["payload_sha256"]}, payload)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["bare.itn", "m.itn"], name

    def test_data_round_trip(self, tmp_path):
        model = build(named_model_spec("ours6_bboxes"))
        model.data = {"obs_len": 12, "split_seed": 5, "local_size": [16, 16], "balance": True}
        save_model(model, tmp_path / "m.itn")
        assert load_model(tmp_path / "m.itn").data == model.data

    def test_header_without_data_means_the_defaults(self, tmp_path):
        model = build(named_model_spec("ours6_bboxes"))
        assert model.data == {}
        save_checkpoint(tmp_path / "m.itn", model.params, {"model": model.spec.to_dict()})
        loaded = load_model(tmp_path / "m.itn")
        assert loaded.data == {}
        assert all(np.array_equal(loaded.params[k].data, p.data) for k, p in model.params.items())

    def test_header_without_model(self, tmp_path):
        path = tmp_path / "ensemble.itn"
        save_checkpoint(path, {"ensemble.w": np.zeros(3, np.float32)}, {"members": ["a", "b", "c"]})
        with pytest.raises(CheckpointError, match="no 'model'"):
            load_model(path)

    def test_failed_load_leaves_model_unchanged(self):
        model = build(named_model_spec("ours6_bboxes"))
        before = model.state_dict()
        state = {k: v + 1.0 for k, v in before.items()}
        last = list(state)[-1]
        state[last] = np.zeros((2,) + state[last].shape, np.float32)  # only the last shape is wrong
        with pytest.raises(CheckpointError, match=last):
            model.load_state_dict(state)
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name

    def test_spec_checkpoint_mismatch(self):
        model = build(named_model_spec("ours6_bboxes"))
        other = build(named_model_spec("ours2_nonvisual"))
        with pytest.raises(CheckpointError):
            other.load_state_dict({k: v.data for k, v in model.params.items()})
        state = {k: v.data for k, v in other.params.items()}
        state["nonvisual.enc.L0.attn.wk.b"] = np.zeros(64, np.float32)  # the key bias of older checkpoints
        with pytest.raises(CheckpointError, match=r"extra \['nonvisual\.enc\.L0\.attn\.wk\.b'\]"):
            other.load_state_dict(state)
