"""Benchmark of pedintent's two user paths: training a model, and scoring
windows with a saved one.

Run from the repository root:

    python3 bench/run.py --workload train_ft --seed 1 --seconds 25 --trace 0

The run writes its inputs from --seed into a scratch directory under
bench/, sets the program up several times (setup_s is the median), drives
the workload for --seconds, checks every output and prints two JSON lines:
a report (machine, sample counts, every figure measured, the span table)
and, last, the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1). attempted/failed count the operations
(train calls, scored windows) that were run and that raised or failed an
output check, so failed/attempted is the failed fraction.

--trace 1 follows every untraced call with the same call traced, with
spans around each layer's public functions (tracer.py), requires the
traced outputs to be bit-identical and reports the tracing overhead. The
program source must be in src/ beside bench/; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def select(values: dict, unit_of, declared: list) -> dict:
    """The declared metrics with their measured values; a metric the run
    did not measure, or measured in another unit, is an error."""
    out = {}
    for m in declared:
        name = m["name"]
        if name not in values:
            raise KeyError(f"metric {name!r} of BENCHMARK.json was not measured")
        if unit_of(name) != m["unit"]:
            raise ValueError(f"metric {name!r} is measured in {unit_of(name)}, BENCHMARK.json says {m['unit']}")
        out[name] = {"value": values[name], "unit": m["unit"]}
    return out


def main(argv=None, workloads=None, work_root: Path = BENCH / "_work") -> int:
    source = SRC / "pedintent" / "__init__.py"
    if not source.is_file():
        print(f"bench: program source not found at {source.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if Path(harness.pedintent.__file__).resolve() != source.resolve():
        print(f"bench: imported pedintent from {harness.pedintent.__file__}, not {source}", file=sys.stderr)
        return 2
    workloads = workloads or harness.WORKLOADS
    args = parse_args(argv, workloads)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)

    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        checks, values, report = harness.run(workloads[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        metrics = select(values, harness.layer_unit, declared["per_layer"])
    else:
        metrics = select(values, harness.END_TO_END_UNITS.get, declared["end_to_end"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": harness.machine_info(ROOT),
        "problems": checks.problems,
        "all_metrics": values,
        **report,
    }
    print(json.dumps({"report": report}))
    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
