"""Run one command as a child, and report its wall time and rusage.

Usage: python3 -I -S bench/spawn.py <fd> <program> <arguments...>

The driver starts every timed process through this small interpreter. A
child's ru_maxrss counts the memory of the process it was forked from, so a
child forked by the driver itself would report at least the driver's peak.
Forked from here, it counts only the few MB of this process. After reaping
the child, one line goes to file descriptor <fd>:

    <wall seconds from fork to reap> <user + system CPU seconds> <ru_maxrss KiB>

The exit code is the child's, or 128 + the signal that ended it.
"""

import os
import sys
from time import perf_counter


def main() -> None:
    fd = int(sys.argv[1])
    t0 = perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(fd)
        try:
            os.execv(sys.argv[2], sys.argv[2:])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - t0
    os.write(fd, f"{wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n".encode())
    code = os.waitstatus_to_exitcode(status)
    os._exit(code if code >= 0 else 128 - code)


main()
