"""``epg dash`` exits cleanly on SIGTERM and on SIGINT.

Runs the real CLI in a subprocess on an ephemeral port (read back from
its ``-v`` log line), waits for ``/healthz``, sends the signal, and
requires exit code 0 with no traceback on stderr.
"""

import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro


def _wait_healthy(log: Path, proc: subprocess.Popen,
                  timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert proc.poll() is None, log.read_text()
        match = re.search(r"dashboard on (http://[^/\s]+)/", log.read_text())
        if match:
            with urllib.request.urlopen(match.group(1) + "/healthz",
                                        timeout=timeout) as resp:
                assert resp.status == 200
            return
        time.sleep(0.05)
    raise AssertionError(f"dashboard never came up:\n{log.read_text()}")


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                         ids=["SIGTERM", "SIGINT"])
def test_dash_exits_zero_on_signal(tmp_path, signum):
    root = tmp_path / "runs"
    root.mkdir()
    log = tmp_path / "stderr.txt"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    with open(log, "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "-v", "dash", str(root),
             "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=stderr, env=env)
    try:
        _wait_healthy(log, proc)
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == 0, log.read_text()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert "Traceback" not in log.read_text()
