"""Collect end-to-end benchmark figures into one BENCH_<name>.json file.

Runs `bench/run.py --trace 0` as a subprocess once for each workload and
seed, in that order, and writes the median and quartiles over seeds of
every end-to-end metric of each workload, with every run's result, its
minor page faults (`minflt`) and peak resident memory (`maxrss_mib`), and
the machine block of the report line:

    python3 tools/bench_collect.py --out BENCH_7.json

If src/ differs from the checked-out commit, the machine block's commit
reads `<sha>+dirty`: the figures are of the source that `source_sha256`
names, not of that commit.

A run that exits non-zero or prints no result stops the collection with
its stderr; a run whose result is not correct is kept and counted in
`failed_runs`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def run(workload: str, seed: int, root: Path = ROOT) -> tuple[dict, dict, dict]:
    """The report and result lines of one benchmark run of BENCHMARK.json's
    length in the checkout `root`, and the run's own resource use: its minor
    page faults and its peak resident memory in MiB, as `wait4` reports
    them when it reaps the process."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=root, stdout=out, stderr=err)
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait for it again
        out.seek(0)
        err.seek(0)
        lines = out.read().decode().strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{err.read().decode().strip()}")
    usage = {"minflt": rusage.ru_minflt, "maxrss_mib": rusage.ru_maxrss / 1024}  # Linux counts KiB
    return json.loads(lines[-2])["report"], json.loads(lines[-1]), usage


def summarize(values: list) -> dict:
    """Median and quartiles (inclusive method) of a list of figures."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _src_is_dirty() -> bool:
    """Whether src/ has changes, staged or not, against the checked-out commit."""
    cmd = ["git", "status", "--porcelain", "--", "src"]
    return bool(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip())


def collect() -> dict:
    """Every run of every workload of BENCHMARK.json and every seed, summarized."""
    dirty = _src_is_dirty()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {"seconds": SECONDS, "seeds": list(SEEDS), "machine": None, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = []
        for seed in SEEDS:
            report, result, usage = run(workload, seed)
            out["machine"] = out["machine"] or report["machine"]
            runs.append({"seed": seed, **result, **usage})
        out["workloads"][workload] = {
            "metrics": {
                m["name"]: {"unit": m["unit"], **summarize([r["metrics"][m["name"]]["value"] for r in runs])}
                for m in declared["end_to_end"]
            },
            "failed_runs": sum(not r["correct"] for r in runs),
            "runs": runs,
        }
    if dirty:
        out["machine"]["commit"] += "+dirty"
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="the JSON file to write")
    args = p.parse_args(argv)
    doc = collect()
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
