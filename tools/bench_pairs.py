"""Alternating parent/change pairs of one benchmark workload.

Runs `bench/run.py --trace 0` once in a parent checkout and once in this
tree for each seed, swapping which side goes first every pair, then prints
each pair's end-to-end metrics, each side's median and quartiles, the
change's win count (ties count for neither side) and whether the gap
between the medians exceeds the parent's interquartile range, in the
direction the metric counts as better:

    git clone -q . ../parent && git -C ../parent checkout -q <parent-sha>
    python3 tools/bench_pairs.py --parent ../parent --workload train_ft \\
        --seeds 71 72 73 74 75 76 77 78 79 80

A gain holds when the change wins at least nine pairs in ten, its median
beats the parent's by more than the parent's interquartile range, and it
has no more incorrect runs than the parent. Each metric also gets a
no-regression verdict against its bound, a fraction of the parent's
median: "unresolved" when the parent's interquartile range exceeds the
bound and the two sides' runs overlap, else "within bound" when the
change's median is worse than the parent's by no more than the bound, else
"beyond bound". The metrics, their directions and bounds and the run
length are read from this tree's BENCHMARK.json. After the metrics come
each side's medians of the runs' minor page faults and peak resident
memory, as figures without a verdict. The exit status is 1 when the change
has more incorrect runs than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_collect import ROOT, run, summarize  # noqa: E402

SIDES = ("parent", "change")
USAGE = {"minflt": ("minor page faults", ".0f"), "maxrss_mib": ("peak RSS MiB", ".1f")}


def incorrect_runs(pairs: list[dict]) -> dict[str, int]:
    """Each side's count of runs whose result is not correct."""
    return {side: sum(not p[f"{side}_correct"] for p in pairs) for side in SIDES}


def summarize_pairs(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric: each side's summary, the change's wins, the signed gain
    of its median (positive is better), whether that gain exceeds the
    parent's interquartile range, whether the claim holds and the
    no-regression verdict. `pairs` holds {"parent": {metric: value},
    "change": {metric: value}, "parent_correct": bool, "change_correct":
    bool}; `better` maps each metric to "higher" or "lower", `bounds` to
    its bound. No claim holds when the change has more incorrect runs."""
    failed = incorrect_runs(pairs)
    no_more_failures = failed["change"] <= failed["parent"]
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        ps, cs = summarize(parent), summarize(change)
        gain = sign * (cs["median"] - ps["median"])
        iqr = ps["q3"] - ps["q1"]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        limit = bounds[name] * abs(ps["median"])
        overlap = min(change) <= max(parent) and min(parent) <= max(change)
        if iqr > limit and overlap:
            verdict = "unresolved"
        else:
            verdict = "within bound" if -gain <= limit else "beyond bound"
        out[name] = {
            "parent": ps,
            "change": cs,
            "wins": wins,
            "pairs": len(pairs),
            "gain": gain,
            "parent_iqr": iqr,
            "gap_exceeds_iqr": gain > iqr,
            "claim_holds": 10 * wins >= 9 * len(pairs) and gain > iqr and no_more_failures,
            "verdict": verdict,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="a checkout of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two pairs")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            _, result, usage = run(args.workload, seed, sides[side])
            pair[side] = {name: result["metrics"][name]["value"] for name in better}
            pair[f"{side}_correct"] = result["correct"]
            pair[f"{side}_usage"] = usage
        pairs.append(pair)
        print(json.dumps(pair), flush=True)
    for name, s in summarize_pairs(pairs, better, bounds).items():
        ps, cs = s["parent"], s["change"]
        print(
            f"{name}: parent {ps['median']:.4g} [{ps['q1']:.4g}-{ps['q3']:.4g}]"
            f" change {cs['median']:.4g} [{cs['q1']:.4g}-{cs['q3']:.4g}]"
            f" wins {s['wins']}/{s['pairs']} gain {s['gain']:+.4g}"
            f" parent IQR {s['parent_iqr']:.4g} gap>IQR {s['gap_exceeds_iqr']} claim {s['claim_holds']}"
            f" verdict {s['verdict']}"
        )
    for key, (label, fmt) in USAGE.items():
        medians = {side: statistics.median(p[f"{side}_usage"][key] for p in pairs) for side in SIDES}
        print(f"{label} per run, median: parent {medians['parent']:{fmt}} change {medians['change']:{fmt}}")
    failed = incorrect_runs(pairs)
    print(f"incorrect runs: parent {failed['parent']}, change {failed['change']}, of {len(pairs)} each")
    return 1 if failed["change"] > failed["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
