"""Run ``python -m csvnet ARGS...`` in this process and record its peak RSS.

Usage, from the repository root:

    python3 perfbench/peak.py PEAK_FILE ARGS...

A child's ``ru_maxrss`` also counts the memory of the parent that spawned it
(the pages it held until exec), so the benchmark would read its own size
instead of csvnet's. This wrapper instead writes the high-water mark of its
own address space after exec (``VmHWM``, in KiB) to PEAK_FILE at exit.
"""

import atexit
import runpy
import sys


def _record(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as out:
        out.write(kib)


if __name__ == "__main__":
    atexit.register(_record, sys.argv[1])
    sys.argv = ["csvnet", *sys.argv[2:]]
    runpy.run_module("csvnet", run_name="__main__", alter_sys=True)
