"""Workloads, measurement and output checks of the benchmark (run.py is
the command-line entry point).

A workload drives one user path of pedintent through the public functions
its CLI commands call, with one closed-loop caller: each call starts when
the previous one has returned.

- train_ft: `training.train` on ours8_ft, separable_motion data, no clips.
  Its feature tokenizer makes 706 tokens, so the (32, 4, 706, 706)
  attention scores dominate time and memory while the data layer idles.
- train_vivit: `training.train` on ours3, separable_visual data (the label
  is only in the pixels): three 32x32 clips through three ViViT branches
  of 32 tokens and a transformer fusion over 111 tokens. Sequences are
  short and ops many, so per-op overhead, backward bookkeeping and Adam
  dominate; set-up is dominated by clip extraction.
- score_clips: an ours4_factorised checkpoint scores an on-disk dataset.
  Phase A extracts the held-out windows with clips, scores them with one
  `predict_scores` call and runs `metrics.evaluate` (as `pedintent eval`);
  phase B sends single-window requests, `extract_window_at` plus `forward`
  (as `pedintent predict`). Forward only: no tape, backward or Adam.

Every input (synthetic tracks, annotation and frame files, the score
checkpoint) is written before any timer starts, from the run's seed.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import pedintent
from pedintent import metrics, training
from pedintent.data import io, preprocess
from pedintent.data.synthetic import generate_synthetic
from pedintent.model import assembly

import tracer

OBS_LEN = 16
TTE_RANGE = (30, 60)
STRIDE = 15
F64_TOL = 1e-5  # largest |p32 - p64| allowed against the float64 build of the same weights
F64_SAMPLE = 8  # windows per phase checked against the float64 build
MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_SHARE = 0.1  # set-up repeats take up to this share of the measured time
REQUESTS_PER_PASS = 32  # phase-B requests sent after each phase-A pass
PEAK_REQUESTS = 32
REQUEST_PLAN = 100_000
MODEL_SEED = 0  # init and training seed; --seed varies the data

# The host's pace: the few cores a run gets are shared with other work,
# and code of many small numpy ops runs up to a third slower for minutes
# at a time. A fixed reference kernel of such ops, which uses nothing of
# pedintent, is timed just before and just after every set-up and, on a
# workload whose calls are such code (`paced`), every call; the paced time
# is the measured time times REF_SECONDS over the kernel's mean time, that
# is, the time at the pace at which the kernel takes REF_SECONDS (about its
# median on a 2-vCPU Xeon host). The report holds the raw figures and the
# pace too.
REF_LOOPS = 300
REF_SECONDS = 2.5e-3
_REF_A = np.linspace(-1.0, 1.0, 32 * 32, dtype=np.float32).reshape(32, 32)

END_TO_END_UNITS = {
    "setup_s": "s",
    "windows_per_s": "windows/s",
    "peak_mib": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_calls"):
        return "count"
    if name.startswith("trace."):
        return "fraction"
    if name.endswith("us_per_op"):
        return "us"
    return "ms"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "score"
    config: str  # named model config
    rule: str  # synthetic labelling rule
    n_tracks: int
    epochs: int = 1
    batch_size: int = 32
    min_requests: int = 1000  # a p99 needs at least ten samples beyond it
    paced: bool = False  # windows_per_s from paced call times


WORKLOADS = {
    w.name: w
    for w in (
        # 16 tracks: 32 train windows (one batch), 6 val.
        Workload("train_ft", "train", "ours8_ft", "separable_motion", n_tracks=16, epochs=1),
        # 31 tracks: 64 train windows (two batches), 15 val, 93 windows of clips at set-up.
        Workload("train_vivit", "train", "ours3", "separable_visual", n_tracks=31, epochs=2),
        # 64 tracks: 9 held-out tracks give 27 windows per phase-A pass.
        # Phase A is mostly crop and resize, small numpy ops: paced.
        Workload("score_clips", "score", "ours4_factorised", "random", n_tracks=64, paced=True),
    )
}


@dataclass
class Call:
    """One timed call of the workload's user path."""

    seconds: float
    value: object = None  # train history, score array or probability
    windows: int = 0
    error: str = ""
    ref: float = REF_SECONDS  # reference kernel's mean time around the call

    @property
    def paced_seconds(self) -> float:
        """The call's time at the reference pace."""
        return self.seconds * REF_SECONDS / self.ref


class Checks:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, n: int, why: str):
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


def reference_seconds() -> float:
    """Time of the reference kernel: small matmuls, elementwise ops and
    reductions in a Python loop."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(REF_LOOPS):
        y = _REF_A @ _REF_A
        y = np.maximum(y * 0.5 + 1.0, 0.0)
        total += float(y.sum(axis=1)[0])
    return time.perf_counter() - start


def _guarded(fn, *args) -> Call:
    start = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # a failed call is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return Call(time.perf_counter() - start, windows=1, error=f"{type(exc).__name__}: {exc}")


def _repeat(unit, seconds: float, min_count: int = 1, between=None) -> list:
    """Run unit(i) back to back until `seconds` of call time have passed
    and at least `min_count` calls ran, stopping early when one more call
    would end beyond 1.25x `seconds`, or after a failed call. `between`,
    if given, is called with the call time so far after every call."""
    calls, busy = [], 0.0
    while True:
        n = len(calls)
        if n and calls[-1].error:
            break
        if n >= min_count and (busy >= seconds or busy + busy / n > 1.25 * seconds):
            break
        call = unit(n)
        calls.append(call)
        busy += call.seconds
        if between is not None:
            between(busy)
    return calls


def _paced(fn, *args) -> Call:
    """fn(*args) guarded, with the reference kernel timed around it."""
    before = reference_seconds()
    call = _guarded(fn, *args)
    call.ref = (before + reference_seconds()) / 2
    return call


def _units(fn, t, traced: list, paced: bool):
    """unit(i) for _repeat: call i of fn, untraced, and paced if `paced`
    is true. With a tracer, each untraced call is followed by the same
    call traced, appended to `traced`, so that both sample the machine at
    the same moments."""
    untraced = _paced if paced else _guarded

    def unit(i):
        plain = untraced(fn, i, contextlib.nullcontext)
        if t is None:
            return plain
        t.install()
        try:
            traced.append(_guarded(fn, i, t.timed_root))
        finally:
            t.uninstall()
        return plain

    return unit


def _rates(calls) -> dict:
    """windows_per_s, the median over calls of windows per paced second
    (per second on an unpaced workload), and the raw median."""
    good = [c for c in calls if not c.error]
    return {
        "windows_per_s": statistics.median(c.windows / c.paced_seconds for c in good),
        "windows_per_s_raw": statistics.median(c.windows / c.seconds for c in good),
    }


def _traced_peak_mib(fn) -> float:
    """tracemalloc peak of the allocations fn makes, in MiB. Collecting
    first frees the reference cycles of earlier tapes, which would
    otherwise be freed at a point that depends on what ran before."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / tracer.MIB
    finally:
        tracemalloc.stop()


def _extract(tracks, frames, clip_cfg) -> list:
    return [
        w
        for t in tracks
        for w in preprocess.extract_windows(t, OBS_LEN, TTE_RANGE, STRIDE, frames=frames, clip_cfg=clip_cfg)
    ]


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def make_inputs(w: Workload, seed: int, workdir: Path) -> int:
    """Write the workload's on-disk inputs; never timed. Returns the split
    seed: the first from `seed` on whose train split holds both classes,
    which class-weighted training needs."""
    tracks, frames = generate_synthetic(seed, w.n_tracks, w.rule)
    io.save_annotations(workdir / "annotations.jsonl", tracks)
    spec = assembly.named_model_spec(w.config, seed=MODEL_SEED)
    if spec.visual_inputs:
        frames.save(workdir / "frames.pvf")
    if w.kind == "score":
        assembly.save_model(assembly.build(spec), workdir / "checkpoint.itn")
    for split_seed in range(seed, seed + 100):
        if len({t.label for t in preprocess.split_tracks(tracks, split_seed)["train"]}) == 2:
            return split_seed
    raise ValueError(f"seed {seed}: no split of {w.n_tracks} tracks puts both classes in train")


# ---------------------------------------------------------------------------
# train workloads


class TrainBench:
    def __init__(self, w: Workload, seed: int, split_seed: int, workdir: Path):
        self.w, self.split_seed, self.workdir = w, split_seed, workdir
        self.spec = assembly.named_model_spec(w.config, seed=MODEL_SEED)
        # Patience above the epoch count: every call runs all epochs.
        self.cfg = training.TrainConfig(
            batch_size=w.batch_size,
            max_epochs=w.epochs,
            plateau_patience=w.epochs + 1,
            early_stop_patience=w.epochs + 1,
            seed=MODEL_SEED,
        )

    def setup(self):
        """Inputs on disk to ready to train, as `pedintent train` does it."""
        tracks = io.load_annotations(self.workdir / "annotations.jsonl")
        frames = io.FrameStore.load(self.workdir / "frames.pvf") if self.spec.visual_inputs else None
        clip_cfg = preprocess.ClipConfig(inputs=self.spec.visual_inputs)
        splits = {name: _extract(part, frames, clip_cfg) for name, part in preprocess.split_tracks(tracks, self.split_seed).items()}
        # Whole batches only, so that every step is a step at batch_size.
        train = splits["train"]
        self.train = train[: len(train) - len(train) % self.w.batch_size or len(train)]
        self.val = splits["val"]

    def _call(self, i: int, span) -> Call:
        model = assembly.build(self.spec)  # every call starts from the same weights
        # A step's tape is freed only by the cycle collector; collecting
        # here, untimed, starts every call from the memory state of a fresh
        # `pedintent train` process instead of carrying the last call's
        # activations (2 GiB on train_ft).
        gc.collect()
        with span():
            start = time.perf_counter()
            history = training.train(model, self.train, self.val, self.cfg)
            seconds = time.perf_counter() - start
        value = tuple((h.train_loss, h.val_loss, h.lr) for h in history)
        return Call(seconds, value, windows=len(self.train) * len(history))

    def run(self, seconds: float, t=None, between=None):
        """Train calls for `seconds`; with a tracer, also their traced twins."""
        traced = []
        return _repeat(_units(self._call, t, traced, self.w.paced), seconds, between=between), traced

    def busy(self, calls) -> float:
        return sum(c.seconds for c in calls)

    def check(self, calls, checks: Checks, perturb: float = 0.0):
        checks.attempted += len(calls)
        good = [c for c in calls if not c.error]
        if len(good) < len(calls):
            checks.fail(len(calls) - len(good), next(c.error for c in calls if c.error))
        for c in good:
            if not all(math.isfinite(v) for row in c.value for v in row):
                checks.fail(1, f"non-finite train history {c.value}")
            elif c.value != good[0].value:
                checks.fail(1, "a train call's history differs from the first call's")

    def compare(self, calls, traced, checks: Checks):
        checks.attempted += len(traced)
        for a, b in zip(calls, traced):
            if b.error or a.value != b.value:
                checks.fail(1, "traced train history differs from the untraced one")

    def metrics(self, calls) -> dict:
        return _rates(calls)

    def peak_mib(self) -> float:
        model = assembly.build(self.spec)
        return _traced_peak_mib(lambda: training.train(model, self.train, self.val, self.cfg))

    def val_peak_mib(self) -> float:
        model = assembly.build(self.spec)
        return _traced_peak_mib(lambda: training.evaluate_loss(model, self.val))

    def units(self, traced, t: tracer.Tracer) -> int:
        return t.calls["training.adam"]

    def detail(self, calls) -> dict:
        return {
            "train_calls": len(calls),
            "train_windows": len(self.train),
            "val_windows": len(self.val),
            "epochs": self.w.epochs,
            "batch_size": self.w.batch_size,
            "train_loss": calls[0].value[-1][0] if not calls[0].error else None,
            "call_seconds": [round(c.seconds, 4) for c in calls],
        }


# ---------------------------------------------------------------------------
# score workload


class ScoreBench:
    def __init__(self, w: Workload, seed: int, split_seed: int, workdir: Path):
        self.w, self.seed, self.split_seed, self.workdir = w, seed, split_seed, workdir
        self.windows = []  # phase-A windows of the first pass, for the checks

    def setup(self):
        """Inputs on disk to ready to score: model, annotations, frames."""
        self.model = assembly.load_model(self.workdir / "checkpoint.itn")
        tracks = io.load_annotations(self.workdir / "annotations.jsonl")
        self.frames = io.FrameStore.load(self.workdir / "frames.pvf")
        self.tracks = preprocess.split_tracks(tracks, self.split_seed)["test"]
        self.clip_cfg = preprocess.ClipConfig(inputs=self.model.spec.visual_inputs)
        rng = np.random.default_rng([self.seed, 1])
        self.plan_track = rng.integers(0, len(self.tracks), REQUEST_PLAN)
        self.plan_tte = rng.integers(0, TTE_RANGE[1] + 1, REQUEST_PLAN)

    def _pass(self, i: int, span) -> Call:
        with span():
            start = time.perf_counter()
            windows = _extract(self.tracks, self.frames, self.clip_cfg)
            scores = training.predict_scores(self.model, windows)
            metrics.evaluate(scores, [w.label for w in windows])
            seconds = time.perf_counter() - start
        if not self.windows:
            self.windows = windows
        return Call(seconds, scores, windows=len(windows))

    def _request_window(self, i: int):
        track = self.tracks[self.plan_track[i % REQUEST_PLAN]]
        end_frame = track.event_frame - int(self.plan_tte[i % REQUEST_PLAN])
        return preprocess.extract_window_at(track, OBS_LEN, end_frame, frames=self.frames, clip_cfg=self.clip_cfg)

    def _request(self, i: int, span) -> Call:
        with span():
            start = time.perf_counter()
            window = self._request_window(i)
            prob = assembly.forward(self.model, window)
            seconds = time.perf_counter() - start
        return Call(seconds, prob, windows=1)

    def run(self, seconds: float, t=None, between=None):
        """Rounds of one phase-A pass and REQUESTS_PER_PASS phase-B
        requests, for `seconds` and at least `min_requests` requests, so
        that both phases sample the whole run; with a tracer, also the
        traced twins of both."""
        passes, requests, traced = [], [], ([], [])
        do_pass = _units(self._pass, t, traced[0], self.w.paced)
        do_request = _units(self._request, t, traced[1], paced=False)  # only reported

        def one_round(i):
            calls = [do_pass(len(passes))]
            passes.append(calls[0])
            while len(calls) <= REQUESTS_PER_PASS and not calls[-1].error:
                calls.append(do_request(len(requests)))
                requests.append(calls[-1])
            return Call(sum(c.seconds for c in calls), error=next((c.error for c in calls if c.error), ""))

        rounds = math.ceil(self.w.min_requests / REQUESTS_PER_PASS)
        _repeat(one_round, seconds, min_count=rounds, between=between)
        return (passes, requests), traced

    def busy(self, calls) -> float:
        return sum(c.seconds for part in calls for c in part)

    def check(self, calls, checks: Checks, perturb: float = 0.0):
        passes, requests = calls
        if perturb and passes and not passes[0].error:
            passes[0].value = passes[0].value.copy()
            passes[0].value[0] += perturb
        for c in passes + requests:
            checks.attempted += c.windows
            if c.error:
                checks.fail(c.windows, c.error)
                continue
            p = np.atleast_1d(np.asarray(c.value, dtype=np.float64))
            bad = int((~(np.isfinite(p) & (p > 0.0) & (p < 1.0))).sum())
            if bad:
                checks.fail(bad, f"{bad} probabilities not finite or outside (0, 1)")
        good = [c for c in passes if not c.error]
        for c in good[1:]:
            if not _same_bits(c.value, good[0].value):
                checks.fail(c.windows, "a phase-A pass scored differently from the first pass")
        self._check_float64(good[0].value if good else None, requests, checks)

    def _check_float64(self, scores, requests, checks: Checks):
        """Sampled probabilities against a float64 build of the same weights."""
        model64 = assembly.build(self.model.spec, np.float64)
        model64.load_state_dict(self.model.state_dict())
        if scores is not None:
            sample = self.windows[:F64_SAMPLE]
            ref = training.predict_scores(model64, sample)
            bad = int((np.abs(scores[: len(sample)] - ref) > F64_TOL).sum())
            if bad:
                checks.fail(bad, f"{bad} phase-A scores differ from the float64 build by more than {F64_TOL}")
        for i, c in enumerate(requests[:F64_SAMPLE]):
            if not c.error and abs(c.value - assembly.forward(model64, self._request_window(i))) > F64_TOL:
                checks.fail(1, f"request {i} differs from the float64 build by more than {F64_TOL}")

    def compare(self, calls, traced, checks: Checks):
        for a, b in zip(calls[0] + calls[1], traced[0] + traced[1]):
            checks.attempted += b.windows
            if b.error or a.error or not _same_bits(a.value, b.value):
                checks.fail(b.windows, "traced scores differ from the untraced ones")

    def metrics(self, calls) -> dict:
        return _rates(calls[0])

    def peak_mib(self) -> float:
        def work():
            self._pass(0, contextlib.nullcontext)
            for i in range(PEAK_REQUESTS):
                self._request(i, contextlib.nullcontext)

        return _traced_peak_mib(work)

    def val_peak_mib(self) -> float:
        return 0.0

    def units(self, traced, t: tracer.Tracer) -> int:
        return sum(c.windows for part in traced for c in part)

    def detail(self, calls) -> dict:
        passes, requests = calls
        ms = sorted(1e3 * c.seconds for c in requests if not c.error)
        k = math.ceil(0.99 * len(ms)) - 1  # nearest-rank p99
        return {
            "passes": len(passes),
            "windows_per_pass": passes[0].windows if passes else 0,
            "requests": len(requests),
            "predict_p50_ms": statistics.median(ms) if ms else None,
            "predict_p99_ms": ms[k] if ms else None,
            "requests_beyond_p99": len(ms) - k - 1 if ms else 0,
        }


# ---------------------------------------------------------------------------
# a run


def machine_info(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(root),
        "source_sha256": _source_hash(Path(pedintent.__file__).parent),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit(root: Path):
    if not (root / ".git").exists():
        return None  # a plain checkout; source_sha256 identifies the code
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_hash(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path, perturb: float = 0.0):
    """One benchmark run. Returns (checks, values, report): values maps
    every end-to-end (trace off) or per-layer (trace on) metric to its
    value. `perturb` is added to one recorded score before the checks, to
    test that they trip."""
    split_seed = make_inputs(w, seed, workdir)
    bench = (TrainBench if w.kind == "train" else ScoreBench)(w, seed, split_seed, workdir)
    checks = Checks()

    if not trace:
        setups: list[Call] = []

        def set_up():
            gc.collect()  # untimed, so that set-up never pays for the calls' garbage
            before = reference_seconds()
            start = time.perf_counter()
            bench.setup()
            seconds = time.perf_counter() - start
            setups.append(Call(seconds, ref=(before + reference_seconds()) / 2))

        def set_up_if_due(busy):
            # Spread over the run, set-up samples the machine as the calls do.
            if len(setups) < MAX_SETUPS and sum(c.seconds for c in setups) < SETUP_SHARE * busy:
                set_up()

        set_up()
        peak = bench.peak_mib()  # its own pass; it also warms the path up before timing
        calls, _ = bench.run(seconds, between=set_up_if_due)
        while len(setups) < MIN_SETUPS:
            set_up()
        bench.check(calls, checks, perturb)
        values = {
            "setup_s": statistics.median(c.paced_seconds for c in setups),
            "setup_s_raw": statistics.median(c.seconds for c in setups),
            "pace": statistics.median(REF_SECONDS / c.ref for c in setups),
            **bench.metrics(calls),
            "peak_mib": peak,
        }
        return checks, values, {"setup_reps": len(setups), **bench.detail(calls)}

    t = tracer.Tracer()
    t.install()
    try:
        for _ in range(MIN_SETUPS):
            with t.root(timed=False):
                bench.setup()
    finally:
        t.uninstall()
    bench.peak_mib()  # warm-up, as in the untraced run
    calls, traced = bench.run(seconds, t)
    bench.check(calls, checks, perturb)
    bench.compare(calls, traced, checks)
    values = tracer.layer_metrics(t, bench.units(traced, t), MIN_SETUPS)
    values["training.val_peak_mib"] = bench.val_peak_mib()
    values["trace.overhead_frac"] = bench.busy(traced) / bench.busy(calls) - 1.0
    report = {
        "setup_reps": MIN_SETUPS,
        **bench.detail(calls),
        "untraced_seconds": bench.busy(calls),
        "traced_seconds": bench.busy(traced),
        "untraced_functions": t.missing,
        "spans": tracer.span_table(t),
    }
    return checks, values, report
