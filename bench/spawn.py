"""Small process that starts the benchmark's child processes and times them.

    python3 -I -S bench/spawn.py

Reads one JSON request per line on stdin, ``{"cmd", "cwd", "stdout",
"stderr", "timeout"}``, runs the command to completion and answers with one
line, ``{"wall_s", "rc", "maxrss_kb", "probe_s"}``. It exits when stdin closes.

Why a separate process: Linux charges a child the resident size of the
process it was forked from, so a child started by the benchmark, which holds
parsed outputs, would report the benchmark's size as its peak RSS. This
process stays small, so ``maxrss_kb`` from ``os.wait4`` is the child's own.

``probe_s`` is the mean time of a fixed job (``probe``) run just before and
just after the child. A shared host's speed changes from one second to the
next (consecutive calls of one op differ by up to 1.5x), so the benchmark
divides each child's time by the probe bracketing it. The process pins itself,
and so every child, to one CPU (``CPU``): the host's vCPUs change speed
independently, and the probe tracks only the one it runs on.
"""

import json
import os
import subprocess
import sys
import threading
import time

# %.15g formatting in a Python loop and a copy of 8 MiB (beyond a 2 MiB L2):
# the interpreter and memory work the workloads spend their time on. About
# 40 ms on a 2-vCPU Xeon host.
PROBE_FLOATS = 20_000
PROBE_BYTES = 8 << 20
CPU = min(os.sched_getaffinity(0))


def probe() -> float:
    """Wall time of the fixed job; its buffers are freed before it returns."""
    t0 = time.perf_counter()
    text = "".join([f"{i * 0.37:.15g}," for i in range(PROBE_FLOATS)])
    data = b"\x01" * PROBE_BYTES
    copy = bytearray(data)
    del text, data, copy
    return time.perf_counter() - t0


def serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        before = probe()
        with open(req["stdout"], "wb") as so, open(req["stderr"], "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=so, stderr=se)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({"wall_s": wall, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss,
                                  "probe_s": (before + probe()) / 2}) + "\n")
        replies.flush()


if __name__ == "__main__":
    os.sched_setaffinity(0, {CPU})
    serve(sys.stdin, sys.stdout)
