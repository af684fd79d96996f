"""A ``repro serve`` subprocess: spawn, health check, peak memory, shutdown."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.server.client import ServeAPIError, ServeClient

__all__ = ["Daemon", "DaemonError"]

WORKERS = 2
_LISTENING = re.compile(r"listening on (http://\S+)")


class DaemonError(RuntimeError):
    pass


def _proc_table() -> List[Tuple[int, int, int]]:
    """(pid, parent pid, process group) of every live process."""
    table = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            table.append((int(entry), int(fields[1]), int(fields[2])))
    return table


class Daemon:
    """``python -m repro serve`` on an ephemeral port, in its own session so
    that it and its worker processes can be stopped as one group.

    ``src`` is the repository's ``src`` directory; ``inject`` (traced runs)
    is put in front of it on ``PYTHONPATH`` together with ``env``.
    """

    def __init__(self, src: str, backend: str, log_path: str, *,
                 inject: Optional[str] = None,
                 env: Optional[Dict[str, str]] = None) -> None:
        path = [inject, src] if inject else [src]
        environ = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                       **(env or {}))
        argv = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                "--port", "0", "--backend", backend,
                "--workers", str(WORKERS)]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(argv, env=environ, stdout=subprocess.PIPE,
                                     stderr=self._log, start_new_session=True)
        self.url = ""

    def wait_healthy(self, timeout_s: float = 120.0) -> None:
        deadline = time.monotonic() + timeout_s
        line = b""
        while not line.endswith(b"\n"):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise DaemonError(f"daemon did not start (rc={self.proc.poll()})")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise DaemonError("daemon closed its output before listening")
                line += chunk
        match = _LISTENING.search(line.decode("utf-8", "replace"))
        if match is None:
            raise DaemonError(f"unexpected daemon banner: {line!r}")
        self.url = match.group(1)
        client = ServeClient(self.url, timeout=5.0, max_retries=0)
        while True:
            try:
                if client.healthz()["status"] == "ok":
                    return
            except ServeAPIError:
                pass
            if time.monotonic() > deadline:
                raise DaemonError(f"daemon at {self.url} never became healthy")
            time.sleep(0.01)

    def pids(self) -> List[int]:
        """The daemon and every live descendant (process-backend workers)."""
        children: Dict[int, List[int]] = {}
        for pid, ppid, _ in _proc_table():
            children.setdefault(ppid, []).append(pid)
        out, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            todo.extend(children.get(pid, ()))
        return out

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of the daemon and its workers."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """Interrupt the daemon (a clean shutdown that also stops its worker
        pool and runs exit handlers), then make sure the group is gone."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(10)
            # Workers and multiprocessing helpers share the daemon's process
            # group; none may outlive the run.
            group = self.proc.pid
            deadline = time.monotonic() + 10.0
            while any(pgrp == group for _, _, pgrp in _proc_table()):
                try:
                    os.killpg(group, signal.SIGKILL)
                except ProcessLookupError:
                    break
                if time.monotonic() > deadline:
                    raise DaemonError(f"processes of group {group} survived SIGKILL")
                time.sleep(0.05)
        finally:
            self.proc.stdout.close()
            self._log.close()
