"""One-off baseline listing of the named configs (not a benchmark workload).

For each named config: parameter count, eval forward time at batch 32,
train step time at batch 32 (forward, weighted BCE, backward, Adam), and
the tracemalloc peak of one train step. Times are the mean of 3 repetitions
after one warm-up. Data: generate_synthetic(3, 12, "random"), obs_len 16,
all three clips at 32x32.

    python3 bench/baseline.py
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from harness import machine_info  # noqa: E402
from tracer import MIB  # noqa: E402
from pedintent import training  # noqa: E402
from pedintent.data import ClipConfig, VISUAL_INPUTS, extract_windows, generate_synthetic  # noqa: E402
from pedintent.model import NAMED_CONFIGS, build, forward_batch, named_model_spec  # noqa: E402
from pedintent.tensor import Tape, backward  # noqa: E402

BATCH = 32
REPS = 3


def _mean_seconds(fn) -> float:
    fn()  # warm-up
    times = []
    for _ in range(REPS):
        gc.collect()  # frees the last step's tape, a reference cycle
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.mean(times)


def main() -> int:
    tracks, frames = generate_synthetic(3, 12, "random")
    clip_cfg = ClipConfig(inputs=VISUAL_INPUTS)
    windows = [w for t in tracks for w in extract_windows(t, 16, (30, 60), 15, frames=frames, clip_cfg=clip_cfg)]
    batch = windows[:BATCH]
    labels = np.array([w.label for w in batch])
    weights = training.class_weights(labels) if 0 < labels.sum() < len(labels) else None

    print(json.dumps({"machine": machine_info(ROOT)}))
    print("| config | params | eval fwd (B=32) | train step (B=32) | train-step peak |")
    print("|---|---|---|---|---|")
    for name in NAMED_CONFIGS:
        model = build(named_model_spec(name))
        state = training.TrainState(lr=3e-4, rng=np.random.default_rng(0))

        def step():
            with Tape():
                probs = forward_batch(model, batch, training=True, rng=state.rng)
                loss = training.weighted_bce(labels, probs, weights)
                backward(loss)
            training.adam_step(model.params, {k: p.grad for k, p in model.params.items()}, state, state.lr)

        eval_s = _mean_seconds(lambda: forward_batch(model, batch, training=False))
        step_s = _mean_seconds(step)
        gc.collect()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
        print(f"| {name} | {model.parameter_count:,} | {1e3 * eval_s:,.0f} ms | {1e3 * step_s:,.0f} ms | {peak:,.0f} MiB |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
