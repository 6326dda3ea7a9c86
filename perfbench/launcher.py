"""Spawn and time benchmark children on behalf of the benchmark process.

Linux reports a child's peak RSS as at least the peak RSS of the process that
spawned it, so children are started from this small process rather than from
the benchmark, whose memory grows while it generates workloads.

Protocol: one JSON request per stdin line, {"argv", "cwd", "env", "log",
"timeout"}; one JSON reply per stdout line, {"code", "wall_s", "rss_mib"}. The
child is killed after `timeout` seconds. The launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(request["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "rss_mib": usage.ru_maxrss / 1024.0}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
