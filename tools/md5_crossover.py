"""Measure where the batch MD5 kernel overtakes the ``hashlib`` loop.

Prints, for value matrices of ``n`` rows x ``L`` bytes and for the
``b"%d:%d"`` text form, microseconds per row through
``repro.localexec.records._digests`` with the kernel forced off and
forced on (best of ``--reps``), as the markdown table behind
``records.MD5_KERNEL_MIN_ROWS`` (docs/architecture.md §7).  The two
sides' digests are asserted equal byte for byte.

``--passes`` measures the kernel's pass size instead
(``repro.localexec.md5._CHUNK``): microseconds per row of ``md5_rows``
on 16-byte and 64-byte rows and of ``md5_text`` on ``b"%d:%d"`` texts,
by pass size, with ``--procs`` copies of the sweep running at once, in
step (4 = the spine's workers on one host), so that the cache they
share is part of the number.  Each cell is the median over the copies
of each copy's best CPU time of ``--reps`` (CPU, as more copies than
cores wait their turn); every cell's digests are asserted equal to
``hashlib``'s.

``--stages`` splits one kernel pass (15 000 rows, as the spine's map
runs and reduce partitions make them) into its two stages: microseconds
per row of building the message words and of ``_compress``, in CPU time
(best of ``--reps`` each), for ``md5_rows`` on 16-byte and 64-byte rows
and for ``md5_text`` on the three kinds of number the chain job formats
(row numbers, 32-bit and 64-bit keys), with the minor page faults of a
pass once the allocator is warm (median); every cell's digests are
asserted equal to ``hashlib``'s.

Usage::

    PYTHONPATH=src python tools/md5_crossover.py [--reps 9]
    PYTHONPATH=src python tools/md5_crossover.py --passes [--procs 4]
    PYTHONPATH=src python tools/md5_crossover.py --stages [--reps 9]
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import resource
import statistics
import time

import numpy as np

from repro.localexec import md5, records
from repro.localexec.md5 import n_blocks

ROWS = (64, 256, 1000, 2000, 3000, 4000, 8000, 15000, 30000)
LENGTHS = (14, 16, 64, 128, 192, 448)


def measure(kernel: bool, reps: int, column, head) -> tuple[float, bytes]:
    """``(best µs/row, digest bytes)`` of ``_digests`` with the kernel
    forced on or off."""
    records.MD5_KERNEL_MIN_ROWS = 0 if kernel else 2 ** 31
    records.MD5_KERNEL_MAX_BLOCKS = 2 ** 31
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        digests = records._digests(column, head)
        best = min(best, time.perf_counter() - t0)
    return best / len(column) * 1e6, digests.tobytes()


PASSES = (4096, 8192, 12288, 16384, 24576, 32768)
#: rows per digest call of the pass sweep: whole passes at every size
PASS_ROWS = 2 * max(PASSES)


def _pass_columns() -> dict:
    """The sweep's inputs: label -> (digest call, column, the column's
    digests as ``hashlib`` makes them)."""
    rng = np.random.default_rng(0)
    inputs = {}
    for length in (16, 64):
        column = rng.integers(0, 256, (PASS_ROWS, length), dtype=np.uint8)
        inputs[f"{length} B"] = (md5.md5_rows, column,
                                 [bytes(row) for row in column])
    numbers = rng.integers(0, 2 ** 64, PASS_ROWS, dtype=np.uint64)
    inputs['text `b"%d:%d"`'] = (
        lambda column: md5.md5_text(b"2:", column), numbers,
        [b"2:%d" % number for number in numbers.tolist()])
    return {label: (digest, column, b"".join(
                hashlib.md5(message).digest() for message in messages))
            for label, (digest, column, messages) in inputs.items()}


def _sweep_passes(columns: dict, reps: int, barrier, results) -> None:
    """One copy of the sweep: best µs/row per (label, pass size), each
    cell started in step with the other copies."""
    cells = {}
    for label, (digest, column, want) in columns.items():
        for rows in PASSES:
            md5._CHUNK = rows
            barrier.wait()
            best = float("inf")
            for _ in range(reps):  # CPU, not wall: copies share cores
                t0 = time.process_time()
                got = digest(column)
                best = min(best, time.process_time() - t0)
            assert got.tobytes() == want, (label, rows)
            cells[label, rows] = best / PASS_ROWS * 1e6
    results.put(cells)


def passes(reps: int, procs: int) -> None:
    """Print the pass-size table (see the module docstring)."""
    columns = _pass_columns()
    # forked, the copies inherit the columns instead of unpickling them
    context = multiprocessing.get_context("fork")
    barrier, results = context.Barrier(procs), context.Queue()
    workers = [context.Process(target=_sweep_passes,
                               args=(columns, reps, barrier, results))
               for _ in range(procs)]
    for worker in workers:
        worker.start()
    copies = [results.get() for _ in workers]
    for worker in workers:
        worker.join()
        assert worker.exitcode == 0
    print("| pass rows | " + " | ".join(f"{label} µs/row" for label in columns)
          + " |")
    print("|---:|" + "---:|" * len(columns))
    for rows in PASSES:
        cells = [statistics.median(copy[label, rows] for copy in copies)
                 for label in columns]
        print(f"| {rows} | " + " | ".join(f"{c:.4f}" for c in cells) + " |")


STAGE_ROWS = 15000


def stages(reps: int) -> None:
    """Print the stage table (see the module docstring)."""
    rng = np.random.default_rng(0)
    inputs = {}
    for length in (16, 64):
        column = rng.integers(0, 256, (STAGE_ROWS, length), dtype=np.uint8)
        inputs[f"`md5_rows`, {length} B"] = (
            md5.md5_rows, column, [bytes(row) for row in column])
    for label, numbers in (
            ("row numbers", np.arange(STAGE_ROWS, dtype=np.uint64) + 30000),
            ("32-bit keys", rng.integers(0, 2 ** 32, STAGE_ROWS, np.uint64)),
            ("64-bit keys", rng.integers(0, 2 ** 64, STAGE_ROWS, np.uint64))):
        inputs[f"`md5_text`, {label}"] = (
            lambda column: md5.md5_text(b"2:", column), numbers,
            [b"2:%d" % number for number in numbers.tolist()])
    compress, spent = md5._compress, [0.0]

    def timed(*args):
        t0 = time.process_time()
        try:
            return compress(*args)
        finally:
            spent[0] += time.process_time() - t0

    md5._compress = timed
    print("| messages | build µs/row | `_compress` µs/row | build share "
          "| minor faults per pass |")
    print("|---|---:|---:|---:|---:|")
    for label, (digest, column, messages) in inputs.items():
        want = b"".join(hashlib.md5(message).digest() for message in messages)
        digest(column)  # the allocator's steady state, as in a worker
        builds, compresses, faults = [], [], []
        for _ in range(reps):
            spent[0] = 0.0
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.process_time()
            got = digest(column)
            total = time.process_time() - t0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
            builds.append(total - spent[0])
            compresses.append(spent[0])
            assert got.tobytes() == want, label
        build, hashed = min(builds), min(compresses)
        print(f"| {label} | {build / STAGE_ROWS * 1e6:.4f} "
              f"| {hashed / STAGE_ROWS * 1e6:.4f} "
              f"| {build / (build + hashed):.0%} "
              f"| {statistics.median(faults):g} |")
    md5._compress = compress


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--passes", action="store_true",
                        help="sweep the kernel's pass size instead")
    parser.add_argument("--procs", type=int, default=4,
                        help="copies of the --passes sweep run at once")
    parser.add_argument("--stages", action="store_true",
                        help="split a pass into message building and "
                             "compression instead")
    args = parser.parse_args()
    if args.passes:
        return passes(args.reps, args.procs)
    if args.stages:
        return stages(args.reps)
    reps = args.reps
    rng = np.random.default_rng(0)
    shipped = records.MD5_KERNEL_MIN_ROWS, records.MD5_KERNEL_MAX_BLOCKS
    print("| messages | rows | `hashlib` loop µs/row | kernel µs/row "
          "| kernel / loop | runs the |")
    print("|---|---:|---:|---:|---:|---|")
    for length in (*LENGTHS, None):  # None: the text form
        blocks = 1 if length is None else n_blocks(length)
        label = 'text `b"%d:%d"`' if length is None else f"{length} B"
        for n in ROWS:
            if length is None:
                column = rng.integers(0, 2 ** 64, n, dtype=np.uint64)
                head = b"2:"
            else:
                column = rng.integers(0, 256, (n, length), dtype=np.uint8)
                head = None
            loop, want = measure(False, reps, column, head)
            kernel, got = measure(True, reps, column, head)
            assert got == want
            (records.MD5_KERNEL_MIN_ROWS,
             records.MD5_KERNEL_MAX_BLOCKS) = shipped
            choice = "kernel" if records._kernel_pays(n, blocks) else "loop"
            print(f"| {label}, {blocks} block{'s' * (blocks > 1)} | {n} "
                  f"| {loop:.3f} | {kernel:.3f} | {kernel / loop:.2f} "
                  f"| {choice} |")


if __name__ == "__main__":
    main()
