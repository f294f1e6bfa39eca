"""Starts and times the benchmark's child processes from a small process.

On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process that
spawned it, so a CLI command spawned straight from ``run.py`` (numpy,
generated inputs, oracle arrays) would report that process's peak, not its
own.  ``run.py`` therefore starts this script once per run and sends it the
commands; it imports only the standard library and stays far below the
memory of any CLI command.

Protocol: one JSON request per line on standard input,
``{"argv": [...], "cwd": "...", "stdout": path or null, "stderr": path,
"timeout": seconds}``, answered by one JSON line on standard output,
``{"wall": seconds, "rss_mb": peak RSS, "code": exit code}``.  Wall time runs
from spawn to exit.  A child still running after ``timeout`` is killed.
The script exits when its standard input closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def spawn(argv, cwd, stdout, stderr, timeout) -> dict:
    with open(stdout or os.devnull, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(spawn(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
