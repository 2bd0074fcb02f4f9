"""Wall time and peak resident memory of one `zetacorr` command line.

    python tools/peak_rss.py sample --t0 100 --t1 200 --step 0.01 --out g.zgrd

Runs `python -m zetacorr.cli` with the arguments given, in a fresh
process, the command's own output passed through, then prints one JSON
line to stderr: the exit code, the wall time in seconds and the child's
`ru_maxrss` in MB (Linux counts it in kB).  Exits with the command's
exit code.  Standard library only; the package must be importable, as
with `PYTHONPATH=src`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def measure(argv) -> dict:
    """{"exit", "wall_s", "maxrss_mb"} of `zetacorr *argv` in a fresh process."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "zetacorr.cli", *argv])
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)    # reaped by wait4
    return {"exit": child.returncode, "wall_s": wall,
            "maxrss_mb": usage.ru_maxrss / 1024.0}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    result = measure(argv)
    print(json.dumps(result), file=sys.stderr)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
