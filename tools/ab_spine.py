"""A/B the benchmark spine: a parent revision against this checkout.

Checks the parent out into a temporary ``git worktree``, then runs
``benchmarks/spine/run.py --workload W --trace 0`` on both sides for N
pairs, alternating which side goes first, and prints per end-to-end
metric each side's median and quartiles, the pairs each side won, and
whether the medians differ by more than the parent's interquartile range
(the ``choosing-metrics`` rule for claiming a gain: >= 9/10 of the pairs
won *and* the medians further apart than the parent's own spread).

It only reads the spine's last output line (the driver contract's JSON)
and ``BENCHMARK.json`` (which way is better); it changes nothing under
``benchmarks/spine``.  Pair ``k`` runs both sides on seed ``--seed + k``.

Usage::

    python tools/ab_spine.py --parent HEAD~1 --pairs 10
    python tools/ab_spine.py --parent HEAD --pairs 1 --scale smoke \\
        --workload service-small          # CI: the tool itself cannot rot
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPINE = Path("benchmarks") / "spine" / "run.py"
MIN_PAIRS = 10  # fewer pairs than this carry no verdict


def run_spine(checkout: Path, workload: str, seed: int, args) -> dict:
    """One spine run in ``checkout``; returns its last-line JSON."""
    cmd = [sys.executable, str(checkout / SPINE), "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--scale", args.scale]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=checkout, text=True, check=True,
                          stdout=subprocess.PIPE)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(workload: str, metrics: list[dict], parent: list[dict],
            change: list[dict]) -> None:
    """Print one workload's table from the paired last-line results."""
    pairs = len(parent)
    print(f"\n== {workload}: {pairs} pairs, parent vs change "
          f"(median [q1, q3]) ==")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        lost = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        beyond = abs(bm - am) > a3 - a1
        better = (bm < am) if lower else (bm > am)
        if pairs < MIN_PAIRS:
            verdict = f"no verdict under {MIN_PAIRS} pairs"
        elif won >= 0.9 * pairs and beyond and better:
            verdict = "GAIN"
        elif lost >= 0.9 * pairs and beyond and not better:
            verdict = "WORSE"
        else:
            verdict = "unresolved"
        ratio = f"{bm / am:.3f}x" if am else "n/a"
        print(f"  {name:<20s} {am:>10.5g} [{a1:.5g}, {a3:.5g}]  ->  "
              f"{bm:>10.5g} [{b1:.5g}, {b3:.5g}]  {ratio:>7s} "
              f"({metric['better']} is better)  change won {won}/{pairs}, "
              f"lost {lost}  medians {'beyond' if beyond else 'within'} "
              f"parent IQR {a3 - a1:.3g}: {verdict}")
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        print(f"  {side}: {failed}/{attempted} chains failed")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1",
                        help="revision to compare this checkout against")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="the spine's --seconds (default: its own)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    worktree = Path(tempfile.mkdtemp(prefix="ab-spine-")) / "parent"
    subprocess.run(["git", "worktree", "add", "--detach", str(worktree),
                    args.parent], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    try:
        for workload in args.workload or names:
            sides = {"parent": [], "change": []}
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    checkout = worktree if side == "parent" else ROOT
                    sides[side].append(run_spine(checkout, workload,
                                                 args.seed + k, args))
                print(f"{workload} pair {k + 1}/{args.pairs} done "
                      f"({order[0]} first)", file=sys.stderr, flush=True)
            compare(workload, spec["end_to_end"], sides["parent"],
                    sides["change"])
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(worktree)], cwd=ROOT, check=False)
        worktree.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
