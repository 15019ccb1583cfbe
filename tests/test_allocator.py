"""The allocator policy that `import pedintent` sets on glibc: freed array
memory stays in the process, so a repeated pass faults no pages in."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import pedintent

# A score_clips phase-A pass in a fresh process: an ours4_factorised model
# scores the 27 windows (two 16x32x32 clips each) of 9 synthetic tracks,
# extraction included. Prints the window count and each pass's minor faults.
_CHILD = """
import resource
import pedintent
from pedintent import training
from pedintent.data import preprocess
from pedintent.data.synthetic import generate_synthetic
from pedintent.model import assembly

tracks, frames = generate_synthetic(3, 9, "random")
spec = assembly.named_model_spec("ours4_factorised", seed=0)
model = assembly.build(spec)
cfg = preprocess.ClipConfig(inputs=spec.visual_inputs)


def one_pass():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    windows = [w for t in tracks for w in preprocess.extract_windows(t, 16, (30, 60), 15, frames=frames, clip_cfg=cfg)]
    training.predict_scores(model, windows)
    return len(windows), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


(n, first), (_, second) = one_pass(), one_pass()
print(n, first, second)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_repeated_scoring_pass_faults_no_pages_in():
    """Without the policy, glibc trims the heap after each branch and the
    second pass faults about 3,700 pages in again."""
    env = {**os.environ, "PYTHONPATH": str(Path(pedintent.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    n_windows, first, second = map(int, proc.stdout.split())
    assert n_windows == 27
    assert second < 200, f"second pass faulted {second} pages in (first {first})"
