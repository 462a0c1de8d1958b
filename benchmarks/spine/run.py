#!/usr/bin/env python3
"""The benchmark spine of the live runtime (``repro.runtime``).

    python3 benchmarks/spine/run.py                     every workload
    python3 benchmarks/spine/run.py --workload chain-kill --trace 1
    python3 benchmarks/spine/run.py --aa --runs 10      A/A noise check
    python3 benchmarks/spine/run.py --scale smoke       CI size, ~15 s

With ``--workload`` this is the driver contract's command: it measures
one workload for ``--seconds`` seconds on inputs made from ``--seed``,
checks every chain against the in-process reference, and prints one JSON
object as its last line — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, the per-layer metrics with ``--trace 1`` (``2`` =
both).  Without it, every workload runs in a process of its own (the
peak-RSS metric is per process), so the load always comes from one
process.  See README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402 - needs HERE on the path

#: smoke scale: a fixed handful of chains instead of a timed window
SMOKE_CHAINS_PER_CLIENT = 3


def program_on_path() -> None:
    """Measure the checkout this file sits in, never an installed copy;
    without the program there is nothing to run."""
    src = ROOT / "src"
    if not (src / "repro" / "runtime").is_dir():
        sys.exit(f"spine: nothing to measure, {src}/repro/runtime is missing")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        sys.exit(f"spine: imported repro from {repro.__file__}, not {src}")


def host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


# ------------------------------------------------------------------ one run
def measure(workload: spec.Workload, args) -> dict:
    """One workload in this process: untraced end-to-end repeats
    (``--trace`` 0/2) and/or the replay plus one traced chain (1/2)."""
    import endtoend
    import layers
    from repro.obs import RecordingTracer

    smoke = args.scale == "smoke"
    seconds = 0.0 if smoke else args.seconds
    per_client = SMOKE_CHAINS_PER_CLIENT if smoke else None
    work_root = OUT / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    service = workload.kind == "service"
    result: dict = {"workload": workload.name, "seed": args.seed,
                    "scale": args.scale, "host": host(),
                    "end_to_end": None, "per_layer": None}
    attempted, failures = 0, []
    speed = endtoend.HostSpeed()

    def untraced(secs: float, min_repeats: int) -> dict:
        nonlocal attempted
        if service:
            window = endtoend.run_service_window(
                workload, args.seed, work_root, speed, seconds=secs,
                chains_per_client=per_client)
            failures.extend(endtoend.check_window(window))
            attempted += len(window.chains)
            return endtoend.service_metrics(workload, window)
        repeats = endtoend.run_chain_repeats(workload, args.seed, secs,
                                             min_repeats, work_root, speed)
        failures.extend(endtoend.check_repeats(repeats))
        attempted += len(repeats)
        return endtoend.chain_metrics(workload, repeats)

    # Order matters: every chain forks its workers from this process, so
    # the traced chain and the timed repeats run before the reference
    # cluster and the replay have grown (and fragmented) this heap.
    if not service and not smoke:  # at smoke size the warm-up is the chain
        endtoend.warm_up(workload, args.seed, work_root)
    tracer = traced_run = None
    if args.trace in (1, 2):
        tracer = RecordingTracer()
        if service:
            traced_run = endtoend.run_service_window(
                workload, args.seed + 1, work_root, endtoend.HostSpeed(),
                seconds=seconds / 4,
                chains_per_client=per_client, tracer=tracer, solo=True)
            attempted += len(traced_run.chains) + 1
        else:
            traced_run = endtoend.run_chain(
                workload, endtoend.chain_config(workload, args.seed),
                work_root, tracer=tracer)
            attempted += 1
        tracer.export(str(OUT / f"{workload.name}.trace.json"))
    if args.trace in (0, 2):
        setup = endtoend.sample_setup(
            workload, args.seed, work_root, speed,
            batches=1 if smoke else endtoend.SETUP_BATCHES)
        baseline = result["end_to_end"] = {
            "setup_s": setup, **untraced(seconds, 1 if smoke else 3)}
    else:
        # the tracing overhead needs an untraced wall to compare with
        baseline = untraced(seconds / 4, 1)
    if traced_run is not None:
        untraced_wall = baseline["chain_wall_s"]["median"]
        if service:
            failures.extend(endtoend.check_window(traced_run))
            traced = layers.service_layers(workload, traced_run,
                                           tracer.events, untraced_wall)
        else:
            failed = endtoend.check_repeats([traced_run])
            if failed:
                raise RuntimeError(f"traced chain failed: {failed[0]}")
            traced = layers.chain_layers(workload, traced_run,
                                         tracer.events, untraced_wall)
        replayed, aux = layers.replay(workload, args.seed, work_root)
        units = {m.name: m.unit for m in spec.PER_LAYER}
        result["per_layer"] = {
            name: {"value": value, "unit": units[name]} for name, value
            in layers.complete({**replayed, **traced}).items()}
        result["predicted_cpu_s_per_mrec"] = layers.predicted_cpu_s_per_mrec(
            workload, replayed, aux)
        result["measured_cpu_s_per_mrec"] = baseline["cpu_s_per_mrec"]["value"]
    if result["end_to_end"]:
        # last, so that everything above compared measured with measured
        speed.calibrate(result["end_to_end"])
        result["host_speed"] = speed.speed
        result["host_kernel_s"] = speed.slices
    result.update(attempted=attempted, failed=len(failures),
                  failures=failures)
    return result


def report(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"scale: {result['scale']} ==")
    if result["end_to_end"]:
        print(f"end-to-end (untraced; value = fast quartile of the samples; "
              f"timings and rates scaled by host speed "
              f"{result['host_speed']:.3f} to the nominal host)")
        for name, m in result["end_to_end"].items():
            extra = f"  measured {m['raw']:.6g}" if "raw" in m else ""
            if "q1" in m:
                extra += (f"  median {m['median']:.6g}  q1 {m['q1']:.6g}"
                          f"  q3 {m['q3']:.6g}")
            if "n" in m:
                extra += f"  n {m['n']}"
            print(f"  {name:<22s} {m['value']:>14.6g} {m['unit']:<6s}{extra}")
    if result["per_layer"]:
        print("per-layer (replay: median of 3; traced: one chain)")
        for name, m in result["per_layer"].items():
            print(f"  {name:<38s} {m['value']:>14.6g} {m['unit']}")
        layer_sum = sum(result["per_layer"][name]["value"]
                        for name in spec.WALL_LAYERS)
        print(f"  {'sum of coordinator.* wall layers':<38s} "
              f"{layer_sum:>14.6g} s")
        predicted = result["predicted_cpu_s_per_mrec"]
        measured = result["measured_cpu_s_per_mrec"]
        print(f"  replay predicts {predicted:.3f} cpu-s per million "
              f"record-visits, measured {measured:.3f}: "
              f"{1 - predicted / measured:.0%} unexplained")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(result: dict) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    metrics = {}
    if result["end_to_end"]:
        for m in spec.CONTRACT_END_TO_END:
            value = result["end_to_end"][m.name]
            metrics[m.name] = {"value": value["value"], "unit": value["unit"]}
    if result["per_layer"]:
        metrics.update(result["per_layer"])
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_one(args) -> int:
    program_on_path()
    workload = spec.at_scale(spec.BY_NAME[args.workload], args.scale)
    t0 = time.monotonic()
    result = measure(workload, args)
    result["elapsed_s"] = time.monotonic() - t0
    report(result)
    print(f"elapsed {result['elapsed_s']:.1f} s")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}.result.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(contract_line(result))
    return 0


# ----------------------------------------------------- suites of child runs
def child(workload: str, args, seed: int, trace: int, echo: bool) -> dict:
    """Run one workload in a process of its own; returns its result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--scale", args.scale]
    done = subprocess.run(cmd, text=True,
                          stdout=None if echo else subprocess.PIPE)
    if done.returncode != 0:
        sys.exit(f"spine: {' '.join(cmd)} exited {done.returncode}")
    return json.loads((OUT / f"{workload}.result.json").read_text())


def run_suite(args) -> int:
    program_on_path()
    t0 = time.monotonic()
    failed = 0
    elapsed = {}
    for workload in spec.WORKLOADS:
        result = child(workload.name, args, args.seed, trace=2, echo=True)
        elapsed[workload.name] = result["elapsed_s"]
        failed += result["failed"]
        print()
    for name, secs in elapsed.items():
        print(f"{name:<14s} {secs:6.1f} s")
    print(f"{'total':<14s} {time.monotonic() - t0:6.1f} s   "
          f"failed chains: {failed}")
    return 1 if failed else 0


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (the driver's
    steadiness measure); 0 for fewer than two runs or an all-zero
    metric."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_aa(args) -> int:
    """Two full sets of the same code back to back: how far do their
    medians disagree, and is that inside each metric's bound?"""
    program_on_path()
    t0 = time.monotonic()
    #: set label -> workload -> metric -> one value per run; ``raw`` is
    #: the same before host-speed calibration, to show what it buys
    values: dict[str, dict[str, dict[str, list[float]]]] = {}
    raw: dict[str, dict[str, dict[str, list[float]]]] = {}
    for label in "AB":
        for workload in spec.WORKLOADS:
            for k in range(args.runs):
                run = child(workload.name, args, args.seed + k, trace=0,
                            echo=False)
                for name, metric in run["end_to_end"].items():
                    for into, key in ((values, "value"), (raw, "raw")):
                        into.setdefault(label, {}).setdefault(
                            workload.name, {}).setdefault(name, []).append(
                            metric.get(key, metric["value"]))
                wall = run["end_to_end"]["chain_wall_s"]
                print(f"set {label} {workload.name:<14s} seed "
                      f"{args.seed + k:<3d} chain_wall_s {wall['value']:.4f}"
                      f"  measured {wall['raw']:.4f}  host speed "
                      f"{run['host_speed']:.3f}  failed {run['failed']}  "
                      f"({run['elapsed_s']:.1f} s)", flush=True)
    payload = {"claim": None, "host": host(), "scale": args.scale,
               "runs_per_set": args.runs, "seconds": args.seconds,
               "first_seed": args.seed, "runs": values, "runs_raw": raw}
    aa_json = OUT / "aa.json"
    aa_json.write_text(json.dumps(payload, indent=1) + "\n")  # 40 min of runs
    exceeded = []
    rows = payload["rows"] = []
    print(f"\n{'workload':<14s} {'metric':<20s} {'median A':>12s} "
          f"{'median B':>12s} {'disagree':>9s} {'bound':>6s} "
          f"{'spread A':>9s} {'spread B':>9s} {'uncalibrated':>13s}")
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            if not metric.applies(workload.name):
                continue
            a, b = (values[label][workload.name][metric.name]
                    for label in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            raw_a, raw_b = (statistics.median(
                raw[label][workload.name][metric.name]) for label in "AB")
            if metric.name == "failed_fraction":
                bound, disagree, raw_disagree = 0.0, max(med_a, med_b), 0.0
            else:
                bound = metric.bound or spec.AA_BOUND
                disagree = abs(med_b - med_a) / med_a
                raw_disagree = abs(raw_b - raw_a) / raw_a
            if disagree > bound:
                exceeded.append(f"{workload.name} {metric.name}")
            rows.append({"workload": workload.name, "metric": metric.name,
                         "median_a": med_a, "median_b": med_b,
                         "disagreement": disagree, "bound": bound,
                         "spread_a": spread(a), "spread_b": spread(b),
                         "uncalibrated_disagreement": raw_disagree})
            print(f"{workload.name:<14s} {metric.name:<20s} {med_a:>12.5g} "
                  f"{med_b:>12.5g} {disagree:>9.3f} {bound:>6.2f} "
                  f"{spread(a):>9.3f} {spread(b):>9.3f} {raw_disagree:>13.3f}"
                  + ("  EXCEEDED" if disagree > bound else ""))
    print("\nreplay-predicted vs measured CPU (one traced run each)")
    cpu = payload["cpu"] = {}
    per_layer = payload["per_layer"] = {}
    for workload in spec.WORKLOADS:
        run = child(workload.name, args, args.seed, trace=1, echo=False)
        per_layer[workload.name] = {
            name: m["value"] for name, m in run["per_layer"].items()}
        predicted = run["predicted_cpu_s_per_mrec"]
        measured = statistics.median(  # as measured, like the replay
            raw["A"][workload.name]["cpu_s_per_mrec"])
        per_job = (spec.at_scale(workload, args.scale).records_per_node
                   * spec.N_NODES / 1e6)
        cpu[workload.name] = {"predicted_cpu_s_per_mrec": predicted,
                              "measured_cpu_s_per_mrec": measured}
        print(f"{workload.name:<14s} predicted {predicted * per_job:7.3f} "
              f"cpu-s/job ({predicted:6.2f} s/Mrec)  measured "
              f"{measured * per_job:7.3f} cpu-s/job ({measured:6.2f} s/Mrec)"
              f"  unexplained {1 - predicted / measured:.0%}")
    aa_json.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"\ntotal {time.monotonic() - t0:.1f} s   written to {aa_json}")
    for name in exceeded:
        print(f"A/A disagreement exceeds the bound: {name}")
    return 1 if exceeded else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                        help="0 end-to-end, 1 per-layer, 2 both")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: 256 records/node, 1 repeat, 6 service "
                             "chains; never compare with committed numbers")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets back to back and compare them")
    parser.add_argument("--runs", type=int, default=1,
                        help="--aa: runs (seeds) per workload and set")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload:
        return run_one(args)
    return run_aa(args) if args.aa else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
