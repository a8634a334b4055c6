"""Run one command; report its wall time, exit code, peak RSS and a speed probe.

    python -S bench/launch.py STDOUT_FILE STDERR_FILE PROGRAM [ARG ...]

Prints "<wall s> <exit code> <peak RSS KiB> <probe s>" on standard output.

The probe tracks how fast the machine runs Python around the call.  It is
the geometric mean of two fixed pure-Python loops.  The arithmetic loop
stays in the first-level cache and, run before and after the call, misses
part of a slowdown caused by other tenants.  The table loop walks a few
MB and overstates one.  Their mean tracked the CLI's wall time best.  The
table loop runs only after the call, so that its memory is not charged to
the child.

The benchmark times each call through this small process rather than
directly, because Linux charges a child's peak RSS with the resident size
of the process that spawned it, and the benchmark itself holds mpmath and
numpy.
"""

import os
import random
import sys
import time


def loop_probe() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - start


def table_probe() -> float:
    start = time.perf_counter()
    table = {f"k{i}": float(i) for i in range(20_000)}
    keys = list(table)
    random.Random(1).shuffle(keys)
    acc = 0.0
    for _ in range(6):
        for key in keys:
            acc += table[key] * 0.5
    return time.perf_counter() - start


out, err, *argv = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
           (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
before = loop_probe()
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
loop = (before + loop_probe()) / 2
print(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, (loop * table_probe()) ** 0.5)
