"""Command-line surface: determinism, exit codes, file outputs."""

import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pedintent import cli, errors, training
from pedintent.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, load_run_config, main
from pedintent.data import load_annotations, split_tracks
from pedintent.model import build, load_model, named_model_spec, save_model
from pedintent.tensor import load_checkpoint, mul, save_checkpoint


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path, preset="ours6_bboxes", seed=1, epochs=4, extra_data=None, train_extra=None):
    train = {"lr": 3e-4, "batch_size": 16, "max_epochs": epochs, "seed": seed}
    if train_extra:
        train.update(train_extra)
    data = {"obs_len": 16, "tte_lo": 30, "tte_hi": 60, "stride": 15}
    if extra_data:
        data.update(extra_data)
    path.write_text(
        json.dumps({"model": {"preset": preset, "seed": seed}, "train": train, "data": data}),
        encoding="utf-8",
    )
    return path


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["generate", "--seed", "5", "--tracks", "12", "--rule", "separable_motion", "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    root = tmp_path_factory.mktemp("run")
    cfg = write_config(root / "config.json")
    assert main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(root / "out")]) == EXIT_OK
    return root / "out"


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "--seed", "9", "--tracks", "4", "--rule", "random", "--out", str(out)]) == EXIT_OK
        assert sha(a / "annotations.jsonl") == sha(b / "annotations.jsonl")
        assert sha(a / "frames.pvf") == sha(b / "frames.pvf")

    def test_prints_counts(self, tmp_path, capsys):
        main(["generate", "--seed", "1", "--tracks", "3", "--rule", "random", "--out", str(tmp_path / "d")])
        out = capsys.readouterr().out
        assert "tracks=3" in out and "windows=" in out

    @pytest.mark.parametrize(
        "seed, height, message",
        [("-1", "40", "seed must be >= 0, got -1"), ("1", "16", "frame height must be >= 17")],
        ids=["negative-seed", "frame-height-16"],
    )
    def test_bad_value_exit_1_one_line(self, tmp_path, capsys, seed, height, message):
        out = tmp_path / "d"
        argv = ["generate", "--seed", seed, "--tracks", "3", "--rule", "random", "--frame-height", height, "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    def test_least_frame_height(self, tmp_path):
        """17 px frames hold the tallest pedestrian, which seed 2 draws."""
        out = tmp_path / "d"
        argv = ["generate", "--seed", "2", "--tracks", "8", "--rule", "random", "--frame-height", "17", "--out", str(out)]
        assert main(argv) == EXIT_OK
        heights = [t.bbox[:, 3] - t.bbox[:, 1] for t in load_annotations(out / "annotations.jsonl")]
        assert np.max(heights) == 17


class TestTrainEval:
    def test_outputs_exist(self, trained):
        assert sorted(p.name for p in trained.iterdir()) == ["checkpoint.itn", "history.csv", "resolved_config.json"]

    def test_resolved_config_has_expanded_model(self, trained):
        doc = json.loads((trained / "resolved_config.json").read_text())
        assert doc["model"]["channels"] == ["bbox"]
        assert doc["train"]["max_epochs"] == 4

    def test_eval_writes_metrics_csv(self, trained, dataset, tmp_path, capsys):
        rc = main(
            ["eval", "--checkpoint", str(trained / "checkpoint.itn"), "--data", str(dataset), "--split", "train", "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        text = (tmp_path / "metrics.csv").read_text()
        assert text.splitlines()[0] == "accuracy,auc,f1,precision,recall"
        acc = float(text.splitlines()[1].split(",")[0])
        assert acc > 0.8  # separable data, trained model

    def test_eval_missing_checkpoint_exit_2(self, dataset, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "nope.itn"), "--data", str(dataset), "--split", "test", "--out", str(tmp_path)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err != ""

    def test_zero_epochs_exit_1_before_writing(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", epochs=0)
        rc = main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.strip()
        assert "train.max_epochs" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_zero_epoch_finetune_exit_1_before_writing(self, trained, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", epochs=0)
        argv = ["finetune", "--checkpoint", str(trained / "checkpoint.itn"), "--config", str(cfg)]
        rc = main([*argv, "--data", str(dataset), "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert "train.max_epochs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_training_windows_exit_2_names_cause(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", extra_data={"obs_len": 70})  # 78-frame tracks
        rc = main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert "no training windows" in err and len(err.splitlines()) == 1

    def test_non_finite_gradient_exit_3_names_the_parameter(self, dataset, tmp_path, monkeypatch, capsys):
        """A loss scaled to 3e38 is finite, but gradients overflow: the one
        line names the parameter and the step."""
        bce = training.weighted_bce
        monkeypatch.setattr(training, "weighted_bce", lambda *args: mul(bce(*args), 3e38))
        cfg = write_config(tmp_path / "c.json")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "out")])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err.strip()
        assert re.fullmatch(r".*non-finite gradient for parameter '[\w.]+' at step 1", err), err

    @pytest.mark.parametrize(
        "name", ["resolved_config.json", "checkpoint.itn", "history.csv", "metrics.csv", "annotations.jsonl", "frames.pvf"]
    )
    def test_failed_write_keeps_the_previous_file(self, trained, dataset, tmp_path, monkeypatch, capsys, name):
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_bytes(b"previous")
        replace = os.replace

        def fail_on_name(src, dst):
            if Path(dst).name == name:
                raise OSError(f"disk full writing {name}")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_name)
        if name == "metrics.csv":
            argv = ["eval", "--checkpoint", str(trained / "checkpoint.itn"), "--data", str(dataset), "--out", str(out)]
        elif name in ("annotations.jsonl", "frames.pvf"):
            argv = ["generate", "--seed", "1", "--tracks", "2", "--rule", "random", "--out", str(out)]
        else:
            cfg = write_config(tmp_path / "c.json", epochs=1)
            argv = ["train", "--config", str(cfg), "--data", str(dataset), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert "disk full" in capsys.readouterr().err
        assert (out / name).read_bytes() == b"previous"
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_train_reproducible_bitwise(self, dataset, tmp_path):
        cfg = write_config(tmp_path / "c.json", seed=3, epochs=3)
        for name in ("r1", "r2"):
            assert main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / name)]) == EXIT_OK
        assert sha(tmp_path / "r1" / "checkpoint.itn") == sha(tmp_path / "r2" / "checkpoint.itn")
        assert sha(tmp_path / "r1" / "history.csv") == sha(tmp_path / "r2" / "history.csv")


class TestPredict:
    def test_prints_probability_and_decision(self, trained, dataset, capsys):
        rc = main(["predict", "--checkpoint", str(trained / "checkpoint.itn"), "--data", str(dataset), "--pid", "ped_0000", "--frame", "40"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "probability=" in out and ("decision=crossing" in out or "decision=not_crossing" in out)

    def test_unknown_pid_exit_2(self, trained, dataset, capsys):
        rc = main(["predict", "--checkpoint", str(trained / "checkpoint.itn"), "--data", str(dataset), "--pid", "ghost", "--frame", "40"])
        assert rc == EXIT_DATA


class TestFinetune:
    def test_finetune_runs_and_writes(self, trained, dataset, tmp_path):
        cfg = write_config(tmp_path / "c.json", epochs=2)
        rc = main(
            ["finetune", "--checkpoint", str(trained / "checkpoint.itn"), "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "ft")]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "ft" / "checkpoint.itn").exists()
        doc = json.loads((tmp_path / "ft" / "resolved_config.json").read_text())
        assert doc["finetune_from"].endswith("checkpoint.itn")


class TestEnsemble:
    def test_members_frozen_and_head_saved(self, dataset, tmp_path, capsys):
        members = []
        for seed in (11, 12, 13):
            cfg = write_config(tmp_path / f"c{seed}.json", seed=seed, epochs=2)
            out = tmp_path / f"m{seed}"
            assert main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(out)]) == EXIT_OK
            members.append(out / "checkpoint.itn")
        before = [sha(m) for m in members]
        cfg = write_config(tmp_path / "ens.json", epochs=30)
        rc = main(
            ["ensemble", "--members", *map(str, members), "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "ens")]
        )
        assert rc == EXIT_OK
        assert [sha(m) for m in members] == before
        assert sorted(p.name for p in (tmp_path / "ens").iterdir()) == ["ensemble.itn", "resolved_config.json"]
        meta, head = load_checkpoint(tmp_path / "ens" / "ensemble.itn")
        assert meta == {"members": list(map(str, members)), "member_sha256": before}
        assert list(head) == ["ensemble.w", "ensemble.b"]

    def test_members_trained_on_other_windows_exit_1(self, dataset, tmp_path, capsys, monkeypatch):
        """Members saved with 16x16 crops and a config without a data
        section (32x32 crops) are rejected before any window is extracted."""
        extracted = []
        monkeypatch.setattr(cli, "extract_windows", lambda *a, **k: extracted.append(a) or [])
        members = []
        for seed in (1, 2, 3):
            model = build(named_model_spec("ours1", seed=seed))
            model.data = {"local_size": [16, 16], "global_size": [16, 16]}
            members.append(tmp_path / f"m{seed}.itn")
            save_model(model, members[-1])
        cfg = tmp_path / "ens.json"
        cfg.write_text(json.dumps({"model": {"preset": "ours1"}, "train": {"max_epochs": 2}}), encoding="utf-8")
        argv = ["ensemble", "--members", *map(str, members), "--config", str(cfg), "--data", str(dataset)]
        assert main([*argv, "--out", str(tmp_path / "ens")]) == EXIT_USAGE
        err = capsys.readouterr().err.strip()
        assert str(members[0]) in err and "data.local_size" in err and len(err.splitlines()) == 1
        assert extracted == [] and not (tmp_path / "ens").exists()

    def test_wrong_member_count_exit_1(self, tmp_path):
        rc = main(["ensemble", "--members", "a", "b", "--config", "x", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE  # argparse rejects nargs mismatch


class TestGradcheckCommand:
    def test_ok_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["gradcheck", "--config", str(cfg), "--elements", "40"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gradcheck ok" in out
        worst = out.split("worst=")[1].split("[")[0]
        assert worst in build(named_model_spec("ours6_bboxes")).params

    def test_bad_eps_exit_usage(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["gradcheck", "--config", str(cfg), "--eps", "0.5"]) == EXIT_USAGE

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_no_elements_exit_usage(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path / "c.json")
        assert main(["gradcheck", "--config", str(cfg), "--elements", n]) == EXIT_USAGE
        assert "max_elements" in capsys.readouterr().err


class TestSplits:
    """Commands extract windows only for the splits they use."""

    @pytest.fixture
    def extracted(self, monkeypatch):
        tracks = []
        extract = cli.extract_windows

        def counting(track, *args, **kwargs):
            tracks.append(track.pedestrian_id)
            return extract(track, *args, **kwargs)

        monkeypatch.setattr(cli, "extract_windows", counting)
        return tracks

    def _split_ids(self, dataset, names, split_seed=0):
        splits = split_tracks(load_annotations(dataset / "annotations.jsonl"), split_seed)
        return [t.pedestrian_id for name in names for t in splits[name]]

    def test_eval_extracts_only_its_split(self, trained, dataset, tmp_path, extracted, capsys):
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint.itn"), "--data", str(dataset), "--split", "val", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert extracted == self._split_ids(dataset, ["val"])

    def test_train_extracts_train_and_val(self, dataset, tmp_path, extracted):
        cfg = write_config(tmp_path / "c.json", epochs=1)
        assert main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert extracted == self._split_ids(dataset, ["train", "val"])

    def test_eval_follows_the_checkpoint_split_seed(self, small_clips, dataset, tmp_path, extracted, capsys):
        rc = main(["eval", "--checkpoint", str(small_clips / "checkpoint.itn"), "--data", str(dataset), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert extracted == self._split_ids(dataset, ["test"], split_seed=5)

    def test_eval_without_checkpoint_data_uses_the_defaults(self, dataset, tmp_path, extracted, capsys):
        save_model(build(named_model_spec("ours6_bboxes")), tmp_path / "bare.itn")
        rc = main(["eval", "--checkpoint", str(tmp_path / "bare.itn"), "--data", str(dataset), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert extracted == self._split_ids(dataset, ["test"])

    def test_ensemble_extracts_each_train_track_once(self, dataset, tmp_path, extracted, capsys):
        members = []
        for name in ("ours6_bboxes", "ours2_nonvisual", "ours1"):  # one member renders clips
            members.append(tmp_path / f"{name}.itn")
            save_model(build(named_model_spec(name, seed=3)), members[-1])
        cfg = write_config(tmp_path / "ens.json", epochs=2)
        argv = ["ensemble", "--members", *map(str, members), "--config", str(cfg), "--data", str(dataset)]
        assert main([*argv, "--out", str(tmp_path / "ens")]) == EXIT_OK
        assert extracted == self._split_ids(dataset, ["train"])

    def test_unknown_split_rejected_before_extracting(self, trained, dataset, tmp_path, extracted, capsys):
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint.itn"), "--data", str(dataset), "--split", "dev", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "dev" in capsys.readouterr().err
        assert extracted == []


@pytest.fixture(scope="module")
def small_clips(tmp_path_factory, dataset):
    """An ours1 run trained with split seed 5, 12-frame windows and 16x16 clips."""
    root = tmp_path_factory.mktemp("small")
    data = {"split_seed": 5, "obs_len": 12, "local_size": [16, 16], "global_size": [16, 16]}
    cfg = write_config(root / "config.json", preset="ours1", epochs=1, extra_data=data)
    assert main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(root / "out")]) == EXIT_OK
    return root / "out"


class TestCheckpointData:
    """eval and predict read the window settings from the checkpoint."""

    def test_checkpoint_holds_the_window_settings(self, small_clips):
        data = load_model(small_clips / "checkpoint.itn").data
        assert data["split_seed"] == 5 and data["obs_len"] == 12 and data["local_size"] == [16, 16]
        assert "annotations" not in data and "frames" not in data

    @pytest.mark.parametrize("data, key", [([16], "checkpoint data"), ({"bogus": 1}, "checkpoint data.bogus")])
    def test_malformed_checkpoint_data_exit_2(self, dataset, tmp_path, capsys, data, key):
        model = build(named_model_spec("ours6_bboxes"))
        save_checkpoint(tmp_path / "m.itn", model.params, {"model": model.spec.to_dict(), "data": data})
        assert main(["eval", "--checkpoint", str(tmp_path / "m.itn"), "--data", str(dataset), "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert err.startswith("data error:") and key in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("spec, key", [([16], "model must be"), ({"bogus": 1}, "model.bogus")])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_malformed_checkpoint_model_exit_2(self, dataset, tmp_path, capsys, spec, key, command):
        model = build(named_model_spec("ours6_bboxes"))
        save_checkpoint(tmp_path / "m.itn", model.params, {"model": spec})
        argv = [command, "--checkpoint", str(tmp_path / "m.itn"), "--data", str(dataset)]
        argv += ["--out", str(tmp_path)] if command == "eval" else ["--pid", "ped_0000", "--frame", "40"]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert err.startswith("data error:") and key in err and len(err.splitlines()) == 1

    def test_changed_payload_byte_exit_2(self, trained, dataset, tmp_path, capsys):
        """A checkpoint whose last weight byte changed is a data error, not
        another model."""
        raw = bytearray((trained / "checkpoint.itn").read_bytes())
        raw[-1] ^= 0x01
        (tmp_path / "m.itn").write_bytes(bytes(raw))
        assert main(["eval", "--checkpoint", str(tmp_path / "m.itn"), "--data", str(dataset), "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert err.startswith("data error:") and "payload_sha256" in err and len(err.splitlines()) == 1

    def _fed_clips(self, monkeypatch):
        shapes = []

        def record(fn):
            def recording(model, windows, *args, **kwargs):
                for w in windows if isinstance(windows, list) else [windows]:
                    shapes.append(w.local_context.shape)
                return fn(model, windows, *args, **kwargs)

            return recording

        monkeypatch.setattr(cli.training_mod, "predict_scores", record(cli.training_mod.predict_scores))
        monkeypatch.setattr(cli, "forward", record(cli.forward))
        return shapes

    def test_eval_feeds_the_trained_clip_size(self, small_clips, dataset, tmp_path, monkeypatch, capsys):
        shapes = self._fed_clips(monkeypatch)
        argv = ["eval", "--checkpoint", str(small_clips / "checkpoint.itn"), "--data", str(dataset), "--split", "all"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert shapes and set(shapes) == {(12, 16, 16, 3)}

    def test_predict_feeds_the_trained_clip_size(self, small_clips, dataset, monkeypatch, capsys):
        shapes = self._fed_clips(monkeypatch)
        argv = ["predict", "--checkpoint", str(small_clips / "checkpoint.itn"), "--data", str(dataset)]
        assert main([*argv, "--pid", "ped_0000", "--frame", "40"]) == EXIT_OK
        assert shapes == [(12, 16, 16, 3)]


class TestUndecodableInput:
    """A config or annotations file that is not UTF-8 exits 2 naming it."""

    BYTES = b"\xff\xfe{}"

    def test_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(self.BYTES)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert str(cfg) in err and "UTF-8" in err and len(err.splitlines()) == 1

    def test_data_annotations(self, tmp_path, capsys):
        ann = tmp_path / "a.jsonl"
        ann.write_bytes(self.BYTES)
        cfg = write_config(tmp_path / "c.json", extra_data={"annotations": str(ann)})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert str(ann) in err and "UTF-8" in err and len(err.splitlines()) == 1

    def test_eval_data_directory(self, trained, tmp_path, capsys):
        (tmp_path / "annotations.jsonl").write_bytes(self.BYTES)
        argv = ["eval", "--checkpoint", str(trained / "checkpoint.itn"), "--data", str(tmp_path)]
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert "annotations.jsonl" in err and "UTF-8" in err and len(err.splitlines()) == 1


class TestMalformedNumbers:
    """A malformed or out-of-range number in an annotations file exits 2
    with one line naming the line and the field."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bbox", [1.0, "x", 3.0, 4.0]),
            ("pose", ["x"] * 36),
            ("center", [None, 3.0]),
            ("center", None),
            ("pose", [0.0] * 35 + [float("nan")]),
            ("bbox", [1.0, 2.0, float("inf"), 4.0]),
            ("bbox", [5.0, 2.0, 3.0, 4.0]),
            ("bbox", [-1.0, 2.0, 3.0, 4.0]),
            ("frame", True),
            ("label", True),
        ],
        ids=[
            "string-in-bbox",
            "string-in-pose",
            "null-in-center",
            "null-center",
            "nan-in-pose",
            "inf-in-bbox",
            "inverted-bbox",
            "negative-bbox",
            "bool-frame",
            "bool-label",
        ],
    )
    def test_train_exit_2(self, tmp_path, capsys, field, value):
        good = {"pid": "p", "frame": 0, "bbox": [1.0, 2.0, 3.0, 4.0], "center": [2.0, 3.0], "pose": [0.0] * 36}
        good.update(speed="stopped", event_frame=50, label=1)
        bad = {**good, "frame": 1, field: value}
        (tmp_path / "annotations.jsonl").write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path / "c.json")
        assert main(["train", "--config", str(cfg), "--data", str(tmp_path), "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert err.startswith("data error: line 2:") and field in err and len(err.splitlines()) == 1, err


class TestOSErrors:
    """An operating-system error exits 2 with a one-line message."""

    def _assert_data_error(self, argv, capsys):
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert err.startswith("data error:") and len(err.splitlines()) == 1

    def test_config_is_a_directory(self, tmp_path, capsys):
        self._assert_data_error(["train", "--config", str(tmp_path), "--out", str(tmp_path / "o")], capsys)

    def test_annotations_is_a_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", extra_data={"annotations": str(tmp_path)})
        self._assert_data_error(["train", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)

    def test_out_below_a_file(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        self._assert_data_error(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(cfg / "x")], capsys)


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["train"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv", [["eval", "--out", "o"], ["predict", "--pid", "p", "--frame", "40"]], ids=["eval", "predict"]
    )
    def test_obs_len_flag_removed(self, capsys, argv):
        assert main([*argv, "--checkpoint", "m.itn", "--data", "d", "--obs-len", "8"]) == EXIT_USAGE
        assert "--obs-len" in capsys.readouterr().err

    def test_bad_config_missing_model(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"model": {"preset": "ours6_bboxes"}, "train": {"bogus": 1}}, "train.bogus"),
            ({"model": {"preset": "ours6_bboxes"}, "data": {"bogus": 3}}, "data.bogus"),
            ({"model": {"preset": "ours6_bboxes"}, "train": {"lr": "fast"}}, "train.lr"),
            ({"model": {"preset": "ours6_bboxes"}, "data": []}, "data"),
            ({"model": {"preset": "ours6_bboxes", "causal": True}}, "model.causal"),
            ({"model": {"preset": "ours6_bboxes", "seed": -1}}, "seed must be >= 0"),
            ({"model": {"preset": "ours6_bboxes"}, "train": {"seed": -1}}, "seed >= 0"),
            ({"model": {"preset": "ours6_bboxes"}, "data": {"split_seed": -1}}, "data.split_seed"),
            ({"model": {"preset": "ours6_bboxes"}, "data": {"local_size": [0, 16]}}, "data.local_size"),
            ({"model": {"preset": "ours6_bboxes"}, "data": {"local_size": [16.0, 16]}}, "data.local_size"),
            ({"model": {"preset": "ours6_bboxes"}, "data": {"global_size": [16]}}, "data.global_size"),
            ({"model": {"preset": "ours6_bboxes"}, "data": {"global_size": [16, True]}}, "data.global_size"),
            ({"model": {"preset": "ours3"}, "data": {"clip_ratio": float("nan")}}, "data.clip_ratio"),
            ({"model": {"preset": "ours3"}, "data": {"clip_ratio": float("inf")}}, "data.clip_ratio"),
            ({"model": {"preset": "ours3"}, "data": {"clip_ratio": 0.5}}, "data.clip_ratio"),
            ({"model": {"preset": "ours6_bboxes"}, "train": {"lr": float("nan")}}, "lr must be finite"),
            ({"model": {"preset": "ours6_bboxes"}, "train": {"lr": float("inf")}}, "lr must be finite"),
            ({"model": {"preset": "ours6_bboxes"}, "train": {"lr": True}}, "train.lr"),
            ({"model": {"preset": "ours6_bboxes"}, "train": {"batch_size": True}}, "train.batch_size"),
            ({"model": {"preset": "ours3"}, "data": {"clip_ratio": True}}, "data.clip_ratio"),
            (
                {
                    "model": {
                        "local_context": {
                            "variant": "spatiotemporal",
                            "spatial": {"n_layers": 1, "n_heads": 2, "d_model": 8},
                        }
                    }
                },
                "tubelet",
            ),
            ([{"model": {"preset": "ours6_bboxes"}}], "top level"),
        ],
        ids=[
            "train-key",
            "data-key",
            "train-type",
            "data-section",
            "preset-key",
            "model-seed",
            "train-seed",
            "split-seed",
            "local-size-zero",
            "local-size-float",
            "global-size-one-int",
            "global-size-bool",
            "clip-ratio-nan",
            "clip-ratio-infinity",
            "clip-ratio-below-1",
            "lr-nan",
            "lr-infinity",
            "lr-bool",
            "batch-size-bool",
            "clip-ratio-bool",
            "no-tubelet",
            "array",
        ],
    )
    def test_malformed_config_exit_1_names_key(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err.strip()
        assert key in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()


# Keys and strings of the run-config schema, so that generated documents
# reach the nested sections as well as the top level.
_KEYS = (
    "model train data out preset seed channels nonvisual_encoder use_feature_tokenizer causal "
    "local_context local_surround global_context fusion strategy encoder variant tubelet spatial "
    "temporal n_layers n_heads d_model d_ff dropout_rate t_patch h_patch w_patch lr batch_size "
    "max_epochs plateau_factor obs_len local_size annotations"
).split()
_WORDS = ["ours1", "ours8_ft", "bbox", "pose", "speed", "spatiotemporal", "factorised", "concat_ffn", "transformer"]
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(0, 64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_WORDS)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=30,
)
_MAPPED = cli._USAGE_ERRORS + cli._DATA_ERRORS + cli._NUMERIC_ERRORS


def test_every_error_class_has_one_exit_code():
    """Each package error class is listed in exactly one of the CLI's
    usage, data and numeric error tuples."""
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.PedintentError)]
    classes.remove(errors.PedintentError)
    assert classes
    for c in classes:
        groups = [g for g in (cli._USAGE_ERRORS, cli._DATA_ERRORS, cli._NUMERIC_ERRORS) if c in g]
        assert len(groups) == 1, f"{c.__name__} is in {len(groups)} of the CLI's error tuples"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_JSON | st.fixed_dictionaries({"model": _JSON}, optional={"train": _JSON, "data": _JSON, "out": _JSON}))
def test_load_run_config_raises_only_mapped_errors(tmp_path, doc):
    """Whatever JSON value the config file holds, loading it returns a
    config or raises an error class `main` maps to an exit code."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_run_config(path)
    except _MAPPED:
        pass


# A directory, an empty path, a path no OS accepts, a missing file.
_PATHS = st.sampled_from([".", "", "a\0", "missing.jsonl"])
_RUN_CONFIG = st.fixed_dictionaries(
    {"model": st.just({"preset": "ours6_bboxes"}) | _JSON},
    optional={
        "train": _JSON,
        "data": st.fixed_dictionaries({}, optional={"annotations": _PATHS | _JSON, "frames": _PATHS | _JSON}) | _JSON,
        "out": _JSON,
    },
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_JSON | _RUN_CONFIG)
def test_train_command_always_returns_an_exit_code(tmp_path, monkeypatch, capsys, doc):
    """Whatever JSON value the config file holds, `pedintent train` returns
    a documented exit code and raises nothing. It runs in an empty working
    directory, so relative data paths in the config name nothing."""
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    monkeypatch.chdir(work)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) in {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC}
