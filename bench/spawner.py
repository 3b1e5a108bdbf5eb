"""Runs the benchmark's child commands from a small process.

Linux carries a process's peak RSS across fork and exec, so a command
started straight from the benchmark, which holds the generated inputs,
would report at least the benchmark's own footprint as its ru_maxrss. This
process stays small and starts every command instead.

Protocol: one JSON request per stdin line, {"argv", "cwd", "env", "stdout",
"stderr", "timeout"}; one JSON reply per stdout line, {"wall_s",
"maxrss_kib", "exit_code"}. It exits at end of input and kills the running
command when terminated.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

_running = None


def _terminate(signum, frame):
    if _running is not None:
        _running.kill()
        os.waitpid(_running.pid, 0)
    sys.exit(1)


def main() -> None:
    global _running
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            _running = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                        stdout=out, stderr=err)
            killer = threading.Timer(req["timeout"], _running.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(_running.pid, 0)
            finally:
                killer.cancel()
                _running = None
            wall = time.perf_counter() - start
        print(json.dumps({"wall_s": wall, "maxrss_kib": usage.ru_maxrss,
                          "exit_code": os.waitstatus_to_exitcode(status)}),
              flush=True)


if __name__ == "__main__":
    main()
