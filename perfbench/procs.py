"""Child processes that are timed and always waited for."""

from __future__ import annotations

import subprocess
import threading


def run_process(cmd: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """Like subprocess.run(cmd, timeout=timeout, **kwargs), without its
    polling: given a timeout, Popen.wait sleeps in steps of up to 50 ms, which
    would round the measured wall time up by as much.  Here a timer kills the
    process when the timeout passes, and the wait blocks until it ends."""
    killed = threading.Event()
    with subprocess.Popen(cmd, **kwargs) as proc:

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    if killed.is_set():
        raise subprocess.TimeoutExpired(cmd, timeout, out, err)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)
