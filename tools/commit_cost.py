"""Measure what committing a small map output costs, four ways.

Each way makes the same promise — the bytes are fsync'd before the commit
is acknowledged — for ``--bytes`` of payload, on the filesystem under
``--dir`` (default: the system temp dir):

``each``    one tmp file + fsync + rename per commit (the old layout)
``batch5``  five tmp files written, then five fsyncs, then five renames
``one5``    five commits' payloads in one tmp file, one fsync, one rename
``append``  one append + fsync to an already-open file per commit (the
            layout now, map outputs and reduce pieces alike)

Prints wall and CPU milliseconds **per commit** with 1 and with 4
processes committing at once (each in its own directory), and how much
more the 4 commit per second than the 1 — the markdown table of
EXPERIMENTS.md "Commit cost, measured".

Usage::

    python tools/commit_cost.py [--commits 400] [--bytes 3072] [--dir D]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import tempfile
import time


def _commit_files(root: str, names: list[str], payload: bytes) -> None:
    """Write every tmp, then fsync every tmp, then rename every tmp."""
    handles = []
    for name in names:
        fh = open(os.path.join(root, name + ".tmp"), "wb")
        fh.write(payload)
        fh.flush()
        handles.append(fh)
    for fh in handles:
        os.fsync(fh.fileno())
        fh.close()
    for name in names:
        os.replace(os.path.join(root, name + ".tmp"),
                   os.path.join(root, name))


def run(way: str, root: str, commits: int, payload: bytes,
        results=None) -> tuple[float, float]:
    """``(wall s, CPU s)`` of ``commits`` commits done ``way``."""
    os.makedirs(root, exist_ok=True)
    log = open(os.path.join(root, "log"), "ab")
    w0, c0 = time.perf_counter(), time.process_time()
    for i in range(0, commits, 5 if way in ("batch5", "one5") else 1):
        if way == "each":
            _commit_files(root, [f"t{i}"], payload)
        elif way == "batch5":
            _commit_files(root, [f"t{i + k}" for k in range(5)], payload)
        elif way == "one5":
            _commit_files(root, [f"w{i}"], payload * 5)
        else:
            log.write(payload)
            log.flush()
            os.fsync(log.fileno())
    spent = time.perf_counter() - w0, time.process_time() - c0
    log.close()
    if results is not None:
        results.put(spent)
    return spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commits", type=int, default=400)
    parser.add_argument("--bytes", type=int, default=3072)
    parser.add_argument("--dir", default=None)
    args = parser.parse_args(argv)
    payload = os.urandom(args.bytes)
    ctx = multiprocessing.get_context("spawn")
    print("| way | 1 process: wall / CPU ms per commit | 4 processes: "
          "wall / CPU ms per commit | commits/s, 4 vs 1 |")
    print("|---|---|---|---|")
    with tempfile.TemporaryDirectory(dir=args.dir) as root:
        for way in ("each", "batch5", "one5", "append"):
            wall1, cpu1 = run(way, f"{root}/{way}-solo", args.commits,
                              payload)
            results = ctx.Queue()
            procs = [ctx.Process(target=run, args=(
                way, f"{root}/{way}-{p}", args.commits, payload, results))
                for p in range(4)]
            for proc in procs:
                proc.start()
            spent = [results.get(timeout=600) for _ in procs]
            for proc in procs:
                proc.join(60)
            wall4 = max(wall for wall, _ in spent)
            cpu4 = sum(cpu for _, cpu in spent) / 4
            n = args.commits
            print(f"| {way} | {wall1 / n * 1e3:.2f} / {cpu1 / n * 1e3:.2f} "
                  f"| {wall4 / n * 1e3:.2f} / {cpu4 / n * 1e3:.2f} "
                  f"| {4 * wall1 / wall4:.2f}x |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
