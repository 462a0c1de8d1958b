"""Measure where the batch MD5 kernel overtakes the ``hashlib`` loop.

Prints, for value matrices of ``n`` rows x ``L`` bytes and for the
``b"%d:%d"`` text form, microseconds per row through
``repro.localexec.records._digests`` with the kernel forced off and
forced on (best of ``--reps``), as the markdown table behind
``records.MD5_KERNEL_MIN_ROWS`` (docs/architecture.md §7).  The two
sides' digests are asserted equal byte for byte.

Usage::

    PYTHONPATH=src python tools/md5_crossover.py [--reps 9]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.localexec import records
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9)
    reps = parser.parse_args().reps
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
