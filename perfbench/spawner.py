"""A small process that starts the benchmark's gbgc processes and measures them.

Linux folds the peak RSS of the process that starts a child into that child's
ru_maxrss, through fork and through exec. A gbgc process started straight
from the benchmark, which holds the generated inputs, would therefore report
the benchmark's own memory. The spawner is forked before the benchmark
imports numpy or generates anything, so the floor it adds is that of a bare
interpreter, below any gbgc process's own peak.
"""

from __future__ import annotations

import json
import os
import subprocess
import time


class Spawner:
    def __init__(self):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(request_w)
            os.close(reply_r)
            try:
                _serve(request_r, reply_w)
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        self.requests = os.fdopen(request_w, "w")
        self.replies = os.fdopen(reply_r)

    def run(self, command: list[str], log, env: dict, cwd) -> tuple[float, float, int]:
        """Run one command to completion, output to `log`.

        Returns (wall seconds, peak RSS in MB of the process and every
        descendant it reaped, exit code)."""
        request = {"command": command, "log": str(log), "env": env, "cwd": str(cwd)}
        self.requests.write(json.dumps(request) + "\n")
        self.requests.flush()
        line = self.replies.readline()
        if not line:
            raise RuntimeError("spawner process ended unexpectedly")
        reply = json.loads(line)
        if "error" in reply:
            raise OSError(f"could not start {command[0]}: {reply['error']}")
        return reply["wall"], reply["rss_mb"], reply["code"]

    def close(self) -> None:
        """End the spawner and wait for it; it exits when its request pipe closes."""
        self.requests.close()
        os.waitpid(self.pid, 0)
        self.replies.close()


def _serve(request_fd: int, reply_fd: int) -> None:
    with os.fdopen(request_fd) as requests, os.fdopen(reply_fd, "w") as replies:
        for line in requests:
            request = json.loads(line)
            try:
                with open(request["log"], "wb") as log:
                    start = time.perf_counter()
                    proc = subprocess.Popen(request["command"], stdout=log,
                                            stderr=subprocess.STDOUT,
                                            env=request["env"], cwd=request["cwd"])
                    _, status, usage = os.wait4(proc.pid, 0)
                    wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
                reply = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024,
                         "code": proc.returncode}
            except OSError as exc:
                reply = {"error": repr(exc)}
            replies.write(json.dumps(reply) + "\n")
            replies.flush()
