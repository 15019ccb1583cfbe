"""tools/: the pair summary of bench_pairs.py, the process reaping of
bench_collect.py and the probability and trained-parameter comparisons of
compare_probs.py on fixed numbers, with its clip digests."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pedintent.tensor import Tensor

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change, name, change_correct=None):
    change_correct = change_correct or [True] * len(change)
    return [
        {"parent": {name: p}, "change": {name: c}, "parent_correct": True, "change_correct": ok}
        for p, c, ok in zip(parent, change, change_correct)
    ]


def test_pair_summary_of_a_clear_gain():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 12.0]
    change = [v + 3.0 for v in parent]
    change[3] = 12.0  # one loss: 12 < 13
    s = _load("bench_pairs").summarize_pairs(_pairs(parent, change, "windows_per_s"), {"windows_per_s": "higher"}, {"windows_per_s": 0.25})
    w = s["windows_per_s"]
    assert w["parent"] == {"median": 12.0, "q1": 11.125, "q3": 12.875, "n": 10}
    assert w["change"]["median"] == 14.75
    assert (w["wins"], w["pairs"]) == (9, 10)
    assert w["gain"] == pytest.approx(2.75) and w["parent_iqr"] == pytest.approx(1.75)
    assert w["gap_exceeds_iqr"] and w["claim_holds"]


def test_pair_summary_of_lower_is_better_with_ties_and_a_small_gap():
    """Ties count for neither side; a gap inside the parent's spread is no
    claim even with every pair won."""
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    s = _load("bench_pairs").summarize_pairs(_pairs(parent, [0.5, 2.0, 2.5, 3.5, 4.5], "setup_s"), {"setup_s": "lower"}, {"setup_s": 0.25})
    t = s["setup_s"]
    assert t["wins"] == 4 and t["gain"] == pytest.approx(0.5) and t["parent_iqr"] == pytest.approx(2.0)
    assert not t["gap_exceeds_iqr"] and not t["claim_holds"]
    s = _load("bench_pairs").summarize_pairs(_pairs(parent, [v - 0.1 for v in parent], "setup_s"), {"setup_s": "lower"}, {"setup_s": 0.25})
    assert s["setup_s"]["wins"] == 5 and not s["setup_s"]["claim_holds"]


@pytest.mark.parametrize(
    "parent, shift, better, verdict",
    [
        ([10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 12.0], -2.0, "higher", "within bound"),
        ([10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 12.0], -4.0, "higher", "beyond bound"),
        ([10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 12.0], 4.0, "lower", "beyond bound"),
        ([4.0, 8.0, 12.0, 16.0, 20.0], -1.0, "higher", "unresolved"),
        ([4.0, 8.0, 12.0, 16.0, 20.0], 17.0, "higher", "within bound"),
        ([4.0, 8.0, 12.0, 16.0, 20.0], 17.0, "lower", "beyond bound"),
        ([4.0, 8.0, 12.0, 16.0, 20.0], 1.0, "lower", "unresolved"),
    ],
)
def test_no_regression_verdict(parent, shift, better, verdict):
    """Bound 0.25 of the parent's median (12, a limit of 3). The first
    parent's IQR, 1.75, is inside the limit, so its medians decide: worse by
    2 is within bound, by 4 beyond it. The second parent's IQR, 8, exceeds
    it: overlapping runs are unresolved whichever median is better, and
    runs that all read better or all worse than every parent run are
    judged by their median."""
    change = [v + shift for v in parent]
    s = _load("bench_pairs").summarize_pairs(_pairs(parent, change, "m"), {"m": better}, {"m": 0.25})
    assert s["m"]["verdict"] == verdict


def test_no_claim_when_the_change_has_more_incorrect_runs():
    """A clear gain does not count when more change runs fail their checks
    than parent runs."""
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 12.0]
    change = [v + 3.0 for v in parent]
    correct = [True] * 9 + [False]
    pairs = _pairs(parent, change, "windows_per_s", correct)
    bench_pairs = _load("bench_pairs")
    w = bench_pairs.summarize_pairs(pairs, {"windows_per_s": "higher"}, {"windows_per_s": 0.25})["windows_per_s"]
    assert w["wins"] == 10 and w["gap_exceeds_iqr"] and not w["claim_holds"]
    assert bench_pairs.incorrect_runs(pairs) == {"parent": 0, "change": 1}
    pairs[0]["parent_correct"] = False  # as many failures on each side
    assert bench_pairs.summarize_pairs(pairs, {"windows_per_s": "higher"}, {"windows_per_s": 0.25})["windows_per_s"]["claim_holds"]


def test_exit_status_is_one_when_the_change_fails_more_runs(monkeypatch, tmp_path, capsys):
    """main runs each side through bench_collect.run at BENCHMARK.json's
    length and exits 1 when the change has more incorrect runs."""
    bench_pairs = _load("bench_pairs")
    names = [m["name"] for m in json.loads((TOOLS.parent / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def fake_run(workload, seed, root):
        calls.append((workload, seed, root))
        correct = root == tmp_path or seed != 2
        usage = {"minflt": 4000 * seed if root == tmp_path else seed, "maxrss_mib": 100.0 + seed}
        return {}, {"correct": correct, "metrics": {name: {"value": 1.0} for name in names}}, usage

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    argv = ["--parent", str(tmp_path), "--workload", "train_ft", "--seeds", "1", "2"]
    assert bench_pairs.main(argv) == 1
    assert [c[2] == tmp_path for c in calls] == [True, False, False, True]  # sides swap each pair
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        "minor page faults per run, median: parent 6000 change 2",
        "peak RSS MiB per run, median: parent 101.5 change 101.5",
        "incorrect runs: parent 0, change 1, of 2 each",
    ]
    with pytest.raises(SystemExit):
        bench_pairs.main(argv + ["--seconds", "5"])


def test_run_reaps_the_benchmark_process_for_its_own_usage(tmp_path):
    """run() reports the faults and peak memory of the process it started,
    as read when that process is reaped: at least what the process read of
    itself just before it exited, and no more than a few MiB above it."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, resource\n"
        "block = b'x' * (48 << 20)  # writes every page\n"
        "use = resource.getrusage(resource.RUSAGE_SELF)\n"
        "print(json.dumps({'report': {'minflt': use.ru_minflt, 'maxrss_kib': use.ru_maxrss}}))\n"
        "print(json.dumps({'correct': True}))\n",
        encoding="utf-8",
    )
    report, result, usage = _load("bench_collect").run("w", 1, tmp_path)
    assert result == {"correct": True}
    assert report["minflt"] <= usage["minflt"] < report["minflt"] + 1000
    assert report["maxrss_kib"] / 1024 <= usage["maxrss_mib"] < report["maxrss_kib"] / 1024 + 8
    assert usage["maxrss_mib"] >= 48


def test_run_raises_with_the_stderr_of_a_failed_run(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("import sys\nsys.exit('no source here')\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="exited 1:\nno source here"):
        _load("bench_collect").run("w", 1, tmp_path)


def test_compare_probs_maxima():
    """Per config and seed, the largest absolute difference; sides that
    score different configs or window counts are refused."""
    compare_probs = _load("compare_probs")
    parent = {"ours1 seed 0": [0.25, 0.5, 0.75], "ours3 seed 3": [0.125, 0.875], "ours8_ft seed 0": []}
    change = {"ours1 seed 0": [0.25, 0.5 - 2**-22, 0.75 + 2**-21], "ours3 seed 3": [0.125, 0.875], "ours8_ft seed 0": []}
    assert compare_probs.max_abs_differences(parent, change) == {"ours1 seed 0": 2**-21, "ours3 seed 3": 0.0, "ours8_ft seed 0": 0.0}
    with pytest.raises(ValueError, match="ours3 seed 3"):
        compare_probs.max_abs_differences(parent, {**change, "ours3 seed 3": [0.125]})
    with pytest.raises(ValueError, match="different configs"):
        compare_probs.max_abs_differences(parent, {"ours1 seed 0": change["ours1 seed 0"]})


def test_compare_probs_trained_parameters():
    """The digest covers every parameter's name, dtype, shape and bits, in
    name order; sides that train different configs are refused."""
    compare_probs = _load("compare_probs")
    params = {"head.w": Tensor(np.array([0.25, -1.5], np.float32)), "head.b": Tensor(np.zeros((), np.float32))}
    digest = compare_probs.parameter_digest(params)
    assert compare_probs.parameter_digest(dict(reversed(params.items()))) == digest
    w = params["head.w"].data
    changed = [
        {**params, "head.w": Tensor(np.nextafter(w, np.float32(1)))},
        {**params, "head.b": Tensor(np.array(-0.0, np.float32))},
        {**params, "head.w": Tensor(w.astype(np.float64))},
        {**params, "head.w": Tensor(w.reshape(1, 2))},
        {"head.v": params["head.w"], "head.b": params["head.b"]},
    ]
    assert all(compare_probs.parameter_digest(p) != digest for p in changed)
    parent = {"ours1 seed 0": "aa", "ours3 seed 3": "bb"}
    assert compare_probs.same_parameters(parent, {"ours1 seed 0": "aa", "ours3 seed 3": "cc"}) == {
        "ours1 seed 0": True,
        "ours3 seed 3": False,
    }
    with pytest.raises(ValueError, match="different configs"):
        compare_probs.same_parameters(parent, {"ours1 seed 0": "aa"})


def test_compare_probs_report_states_the_post_step_difference():
    """Each config's line gives the largest difference before and after the
    training step and whether the parameters are identical; the overall
    line gives both maxima with their keys. Sides that score different
    configs after the step are refused."""
    compare_probs = _load("compare_probs")
    parent = {
        "probabilities": {"ours1 seed 0": [0.25, 0.5], "ours3 seed 3": [0.75]},
        "trained_probabilities": {"ours1 seed 0": [0.25, 0.5], "ours3 seed 3": [0.75]},
        "digests": {"ours1 seed 0": "aa", "ours3 seed 3": "bb"},
        "clips": {"local_context": "c1", "global_context": "c2"},
    }
    change = {
        "probabilities": {"ours1 seed 0": [0.25, 0.5], "ours3 seed 3": [0.75]},
        "trained_probabilities": {"ours1 seed 0": [0.25, 0.5 + 2**-20], "ours3 seed 3": [0.75 - 2**-23]},
        "digests": {"ours1 seed 0": "ab", "ours3 seed 3": "bb"},
        "clips": {"local_context": "c1", "global_context": "c2"},
    }
    assert compare_probs.report(parent, change) == [
        f"ours1 seed 0: max |parent - change| 0, after one step {2**-20:.3g}, trained parameters different",
        f"ours3 seed 3: max |parent - change| 0, after one step {2**-23:.3g}, trained parameters identical",
        f"overall: 0 (ours1 seed 0); after one step {2**-20:.3g} (ours1 seed 0); trained parameters identical for 1 of 2",
        "clips: local_context identical, global_context identical",
    ]
    with pytest.raises(ValueError, match="different configs"):
        compare_probs.report(parent, {**change, "trained_probabilities": {"ours1 seed 0": [0.25, 0.5]}})


def test_compare_probs_report_says_which_clips_differ():
    """The clips line names each input with whether its digest is the
    parent's; sides that render different inputs are refused."""
    compare_probs = _load("compare_probs")
    side = {
        "probabilities": {"ours1 seed 0": [0.5]},
        "trained_probabilities": {"ours1 seed 0": [0.5]},
        "digests": {"ours1 seed 0": "aa"},
        "clips": {"local_context": "c1", "local_surround": "c2", "global_context": "c3"},
    }
    changed = {**side, "clips": {**side["clips"], "local_surround": "c4"}}
    assert compare_probs.report(side, changed)[-1] == "clips: local_context identical, local_surround different, global_context identical"
    with pytest.raises(ValueError, match="different inputs: \\['global_context'\\]"):
        compare_probs.report(side, {**side, "clips": {"local_context": "c1", "local_surround": "c2"}})


def test_compare_probs_clip_digests():
    """One digest per input over its clips in window order: a changed
    byte, dtype, shape or window order changes it."""
    compare_probs = _load("compare_probs")
    rng = np.random.default_rng(0)
    windows = [SimpleNamespace(local_context=rng.random((2, 3, 3, 3)).astype(np.float32)) for _ in range(2)]
    digest = compare_probs.clip_digests(windows, ("local_context",))
    assert list(digest) == ["local_context"]
    assert compare_probs.clip_digests([SimpleNamespace(local_context=w.local_context.copy()) for w in windows], ("local_context",)) == digest
    clip = windows[1].local_context
    bumped = clip.copy()
    bumped[0, 0, 0, 0] = np.nextafter(bumped[0, 0, 0, 0], np.float32(2))
    for other in (bumped, clip.astype(np.float64), clip.reshape(2, 9, 3)):
        assert compare_probs.clip_digests([windows[0], SimpleNamespace(local_context=other)], ("local_context",)) != digest
    assert compare_probs.clip_digests(windows[::-1], ("local_context",)) != digest
