#!/usr/bin/env python3
"""Run perfbench on a parent and a change checkout in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --seeds 51-60 \\
        --out BENCH_name.json [--claim campaign_default:campaign_s]

Each checkout runs its own `perfbench/run.py --workload W --seed S --seconds T
--trace 0` from its root on every workload and for the run_seconds T that
the parent's BENCHMARK.json declares.  Each run gets a fresh, empty
PYTHONPYCACHEPREFIX in the temporary directory, outside both checkouts, and
it is removed after the run: bytecode left in one checkout's source tree
cannot make that side start faster, since both sides compile the same way.
PYTHONDONTWRITEBYTECODE is dropped from the run's environment, so that the
run's first import fills its cache and its setup probes import from it, as
they would on a default install, instead of compiling numpy at every probe.
For each workload, pair i runs both sides on the i-th seed, the parent first
when i is even and the change first when i is odd.  The output keeps every
run's metrics, `correct`, `failed` and `attempted`, and per end-to-end
metric each side's median and quartiles (inclusive method), the
change/parent median ratio and the pairs the change wins, in the direction
BENCHMARK.json gives.  Each metric with a bound in BENCHMARK.json also gets
that bound; within_bound, whether the change's median is worse than the
parent's by no more than the bound, as a share of the parent's median;
parent_spread, the parent's interquartile range over its median; and
unresolved, whether that spread is wider than the bound while not every
change run beats every parent run.  Each workload lists in outside_bound
the metrics that are not within their bound.  A claim holds when the change
wins at least 9 in 10 pairs and its median beats the parent's by more than
the parent's interquartile range, every run is correct and exits 0, and the
change fails no larger share of its attempted operations than the parent;
otherwise the claim gives its reasons.  The output file is written after
each workload and at the end, whatever the runs gave.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run, with a bytecode cache of its own that starts empty,
    is written and is removed after the run; a run without a result line
    reads as incorrect."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_pycache_") as cache:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              env={**env, "PYTHONPYCACHEPREFIX": cache})
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return {"seed": seed, "exit": proc.returncode, "correct": result.get("correct") is True,
            "failed": result.get("failed"), "attempted": result.get("attempted"),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict | None = None) -> dict:
    """pairs: [{"seed", "parent": run, "change": run}]; better: metric -> "lower" | "higher";
    bounds: metric -> the share of the parent's median by which the change may be worse."""
    runs = [p[side] for p in pairs for side in ("parent", "change")]
    names = [k for k in pairs[0]["parent"]["metrics"] if all(k in r["metrics"] for r in runs)] if pairs else []
    metrics = {}
    for name in names:
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        pv = [p["parent"]["metrics"][name] for p in pairs]
        cv = [p["change"]["metrics"][name] for p in pairs]
        parent, change = quartiles(pv), quartiles(cv)
        metrics[name] = {
            "better": better.get(name, "lower"),
            "parent": parent,
            "change": change,
            "change_over_parent_median": change["median"] / parent["median"] if parent["median"] else None,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(pv, cv)),
            "pairs": [[p, c] for p, c in zip(pv, cv)],
            **bound_result(parent, sign * (change["median"] - parent["median"]),
                           all(sign * (c - p) < 0 for p in pv for c in cv), (bounds or {}).get(name)),
        }
    return {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "all_correct": all(r["correct"] for r in runs),
        "all_exit_zero": all(r["exit"] == 0 for r in runs),
        "failed": sum(r["failed"] or 0 for r in runs),
        "attempted": sum(r["attempted"] or 0 for r in runs),
        "failed_share": {side: failed_share([p[side] for p in pairs]) for side in ("parent", "change")},
        "outside_bound": [name for name, m in metrics.items() if m["within_bound"] is False],
        "metrics": metrics,
        "runs": pairs,
    }


def bound_result(parent: dict, worse: float, all_beat: bool, bound: float | None) -> dict:
    """A metric against its bound: worse is how far the change's median is on
    the worse side of the parent's (negative when better), all_beat whether
    every change run beats every parent run; None fields when it has no bound."""
    iqr, median = parent["q3"] - parent["q1"], abs(parent["median"])
    spread = iqr / median if median else (math.inf if iqr else 0.0)
    if bound is None:
        return {"bound": None, "within_bound": None, "parent_spread": spread, "unresolved": None}
    return {"bound": bound, "within_bound": worse <= bound * median, "parent_spread": spread,
            "unresolved": spread > bound and not all_beat}


def failed_share(runs: list[dict]) -> float | None:
    """Failed over attempted operations of runs; None when none was attempted."""
    attempted = sum(r["attempted"] or 0 for r in runs)
    return sum(r["failed"] or 0 for r in runs) / attempted if attempted else None


def claim_result(summary: dict, metric: str) -> dict:
    """Whether the change wins at least 9 in 10 pairs on metric and its median
    beats the parent's by more than the parent's interquartile range, with
    every run correct and exiting 0 and the change's failed share no higher
    than the parent's; "reasons" says why not."""
    result = {"metric": metric}
    reasons = []
    if not summary["all_correct"]:
        reasons.append("a run is not correct")
    if not summary["all_exit_zero"]:
        reasons.append("a run exited non-zero")
    parent, change = summary["failed_share"]["parent"], summary["failed_share"]["change"]
    if (change or 0.0) > (parent or 0.0):
        reasons.append(f"the change failed {change:.3g} of its operations, the parent {parent or 0.0:.3g}")
    m = summary["metrics"].get(metric)
    if m is None:
        reasons.append(f"{metric} is missing from a run")
    else:
        gain = m["parent"]["median"] - m["change"]["median"]
        if m["better"] == "higher":
            gain = -gain
        iqr = m["parent"]["q3"] - m["parent"]["q1"]
        wins, n = m["change_wins"], summary["pairs"]
        result.update({"change_wins": f"{wins}/{n}", "median_gain": gain, "parent_iqr": iqr})
        if wins < math.ceil(0.9 * n):
            reasons.append(f"the change won {wins} of {n} pairs")
        if not gain > iqr:
            reasons.append("the median gain is not above the parent's interquartile range")
    return {**result, "met": not reasons, "reasons": reasons}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 51-60")
    parser.add_argument("--claim", help="workload:metric judged by the 9-in-10 rule")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.claim:
        claimed, _, metric = args.claim.partition(":")
        if claimed not in workloads or metric not in better:
            parser.error(f"--claim {args.claim}: not a workload:metric of BENCHMARK.json")
    doc = {"command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                      "--trace 0, from each checkout's root",
           "order": "parent first on even pair index, change first on odd",
           "workloads": {}}
    for workload in workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed}
            for side in sides:
                pair[side] = run_once(getattr(args, side), workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: correct={pair[side]['correct']} "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
            pairs.append(pair)
        doc["workloads"][workload] = summarize(pairs, better, bounds)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.claim:
        doc["claim"] = {"workload": claimed, **claim_result(doc["workloads"][claimed], metric)}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
