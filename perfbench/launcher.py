"""Starts the measured processes on behalf of ``run.py``.

Linux carries the peak RSS of the process that forks into the
``ru_maxrss`` of the child, across ``exec``.  ``run.py`` holds numpy and
parsed artifacts, so children it started directly would report its
size instead of their own.  This process imports only the stdlib and
stays small, so the peak RSS it reports is the child's.

Protocol: one JSON request per line on stdin (``argv``, ``cwd``, ``env``,
``stdout``, ``stderr``, ``timeout``), one JSON reply per line on stdout
(``code``, ``wall_s``, ``cpu_s``, ``maxrss_kib``).  It exits when stdin
closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    """Run one child to completion; time it and take its rusage from ``wait4``."""
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
