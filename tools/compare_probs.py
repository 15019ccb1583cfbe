"""Largest difference between a parent checkout's float32 eval
probabilities and this tree's, before and after one training step,
whether that step gives the same parameters, and whether the two trees
render the same clips.

Builds every named config fresh at seeds 0 and 3 in each tree, scores the
same fixed synthetic windows (all three clips) in eval mode, then runs one
`training.fit_step` on those windows in training mode (dropout on, its
generator seeded with the config seed) and scores them again in eval mode.
For each config and seed it prints the maximum absolute difference of the
probabilities before and after the step and whether the sha256 of the
updated parameters equals the parent's, then the overall maxima and the
count of identical parameter sets, then one line saying, per visual
input, whether the sha256 of its clips over the fixed windows is the
parent's. Trained parameters that differ only by rounding show as
"different"; the post-step difference says by how much:

    git clone -q . ../parent && git -C ../parent checkout -q <parent-sha>
    python3 tools/compare_probs.py --parent ../parent

Each tree's results come from a child process that imports that tree's
src/ (`--dump` prints them as JSON), so the two trees never share a
module. The exit status is 1 when the two trees score different configs or
windows, or render different inputs; different clip bytes only show in
the clips line.

The windows lie in 40x96 frames, cropped to 32x32: 48 of their 192 local
crops are zero-padded at the frame's edge, the rest lie inside it. Boxes
leaving the frame on each side, tall frames and other sizes are left to
the unit tests of the crop kernel.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 3)


def parameter_digest(params: dict) -> str:
    """sha256 over every parameter's name, dtype, shape and bytes, in name
    order."""
    h = hashlib.sha256()
    for name in sorted(params):
        data = params[name].data
        h.update(f"{name} {data.dtype} {data.shape}".encode())
        h.update(data.tobytes())
    return h.hexdigest()


def clip_digests(windows, inputs) -> dict[str, str]:
    """Per visual input, the sha256 over the windows' clips of that input,
    in window order: each clip's dtype, shape and bytes."""
    out = {}
    for name in inputs:
        h = hashlib.sha256()
        for window in windows:
            clip = getattr(window, name)
            h.update(f"{clip.dtype} {clip.shape}".encode())
            h.update(clip.tobytes())
        out[name] = h.hexdigest()
    return out


def results() -> dict[str, dict]:
    """"probabilities": "<config> seed <s>" -> float32 eval probabilities
    on the fixed windows; "trained_probabilities": the same after one
    seeded training step on them; "digests": the parameter digest after
    that step; "clips": the `clip_digests` of the windows. From the
    pedintent package on the import path."""
    import numpy as np

    from pedintent.data import ClipConfig, extract_windows, generate_synthetic
    from pedintent.model import NAMED_CONFIGS, build, forward_batch, named_model_spec
    from pedintent.training import TrainConfig, TrainState, class_weights, fit_step

    tracks, frames = generate_synthetic(21, 4, "separable_motion", track_len=70)
    cfg = ClipConfig(
        inputs=("local_context", "local_surround", "global_context"), local_size=(32, 32), global_size=(32, 32)
    )
    windows = [w for t in tracks for w in extract_windows(t, 8, (30, 60), 15, frames=frames, clip_cfg=cfg)]
    labels = np.array([w.label for w in windows])
    probs, trained, digests = {}, {}, {}
    for name in NAMED_CONFIGS:
        for seed in SEEDS:
            key = f"{name} seed {seed}"
            model = build(named_model_spec(name, seed))
            probs[key] = forward_batch(model, windows).data.tolist()
            state = TrainState(lr=TrainConfig().lr, rng=np.random.default_rng(seed))
            fit_step(
                model.params,
                lambda: forward_batch(model, windows, training=True, rng=state.rng),
                labels,
                class_weights(labels),
                state,
            )
            trained[key] = forward_batch(model, windows).data.tolist()
            digests[key] = parameter_digest(model.params)
    return {"probabilities": probs, "trained_probabilities": trained, "digests": digests, "clips": clip_digests(windows, cfg.inputs)}


def max_abs_differences(parent: dict[str, list[float]], change: dict[str, list[float]]) -> dict[str, float]:
    """Per key, the largest |parent - change| over its probabilities. Both
    sides must hold the same keys with lists of one length each."""
    if parent.keys() != change.keys():
        raise ValueError(f"the trees score different configs: {sorted(parent.keys() ^ change.keys())}")
    out = {}
    for key, p in parent.items():
        c = change[key]
        if len(p) != len(c):
            raise ValueError(f"{key}: {len(p)} parent probabilities against {len(c)}")
        out[key] = max((abs(a - b) for a, b in zip(p, c)), default=0.0)
    return out


def same_parameters(parent: dict[str, str], change: dict[str, str]) -> dict[str, bool]:
    """Per key, whether the two parameter digests are equal. Both sides
    must hold the same keys."""
    if parent.keys() != change.keys():
        raise ValueError(f"the trees train different configs: {sorted(parent.keys() ^ change.keys())}")
    return {key: digest == change[key] for key, digest in parent.items()}


def report(parent: dict, change: dict) -> list[str]:
    """The printed lines for two trees' `results`: one per config and seed,
    the overall line, then the clips line. Raises ValueError when the trees
    score or train different configs or window counts, or render different
    inputs."""
    before = max_abs_differences(parent["probabilities"], change["probabilities"])
    after = max_abs_differences(parent["trained_probabilities"], change["trained_probabilities"])
    same = same_parameters(parent["digests"], change["digests"])
    lines = [
        f"{key}: max |parent - change| {d:.3g}, after one step {after[key]:.3g}, "
        f"trained parameters {'identical' if same[key] else 'different'}"
        for key, d in before.items()
    ]
    worst, worst_after = max(before, key=before.get), max(after, key=after.get)
    lines.append(
        f"overall: {before[worst]:.3g} ({worst}); after one step {after[worst_after]:.3g} ({worst_after}); "
        f"trained parameters identical for {sum(same.values())} of {len(same)}"
    )
    if parent["clips"].keys() != change["clips"].keys():
        raise ValueError(f"the trees render different inputs: {sorted(parent['clips'].keys() ^ change['clips'].keys())}")
    clips = (f"{name} {'identical' if digest == change['clips'][name] else 'different'}" for name, digest in parent["clips"].items())
    lines.append("clips: " + ", ".join(clips))
    return lines


def _dump_of(root: Path) -> dict:
    """The probabilities and parameter digests a child process computes
    from `root`'s src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, __file__, "--dump"], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"scoring in {root} exited {proc.returncode}:\n{proc.stderr.strip()}")
    dump = json.loads(proc.stdout)
    if not Path(dump["module"]).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"scoring in {root} imported pedintent from {dump['module']}")
    return dump


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--parent", type=Path, help="a checkout of the parent commit")
    group.add_argument("--dump", action="store_true", help="print this import path's results as JSON")
    args = p.parse_args(argv)
    if args.dump:
        import pedintent

        print(json.dumps({"module": pedintent.__file__, **results()}))
        return 0
    parent, change = _dump_of(args.parent.resolve()), _dump_of(ROOT)
    try:
        lines = report(parent, change)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
