"""Run one command; print its exit code, wall time and resource usage as JSON.

On Linux a child's ``ru_maxrss`` starts from the memory high-water mark
of the process that forked it, and that mark never falls. The benchmark
holds generated inputs and parsed reports, so it does not fork the
measured program itself: it starts this launcher, whose memory stays at
that of a bare interpreter, and the launcher forks the program.

Usage: spawn.py TIMEOUT_S STDOUT_PATH STDERR_PATH COMMAND...
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    timeout, out_path, err_path, *command = sys.argv[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump({"code": proc.returncode, "wall_s": wall,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "maxrss_kb": usage.ru_maxrss}, sys.stdout)


if __name__ == "__main__":
    main()
