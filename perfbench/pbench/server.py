"""Boot and tear down ``python -m repro serve`` with process hygiene.

Every run boots its own server from the checkout's ``src`` and shuts it
down through ``POST /shutdown``.  Teardown then waits until every member
of the process tree (the daemon, or the router and its shard children)
has exited, and fails loudly otherwise.  The pids of a live server are
kept in ``<workdir>/server.pids`` so a later run can tell a leftover from
an earlier one; :func:`refuse_strays` blocks a run while any leftover or
any other ``repro serve`` process is alive.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from . import proctree

READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0
STRAY_WAIT_S = 15.0


class HygieneError(RuntimeError):
    """A server process outlived its run, or a stray blocks a new one."""


def _start_time(pid: int) -> str | None:
    """Field 22 of ``/proc/<pid>/stat``: tells a pid from a reused pid."""
    fields = proctree.stat_fields(Path("/proc"), pid)
    return fields[19] if fields is not None else None


def _leftovers(pid_file: Path) -> list[int]:
    if not pid_file.exists():
        return []
    recorded = json.loads(pid_file.read_text())
    return [
        int(pid) for pid, started in recorded.items()
        if proctree.alive(int(pid)) and _start_time(int(pid)) == started
    ]


def refuse_strays(workdir: Path) -> None:
    """Wait briefly for leftover servers to exit; raise if any remain."""
    pid_file = workdir / "server.pids"
    deadline = time.monotonic() + STRAY_WAIT_S
    while True:
        strays = sorted(set(_leftovers(pid_file)) | set(proctree.stray_servers()))
        if not strays:
            pid_file.unlink(missing_ok=True)
            return
        if time.monotonic() >= deadline:
            raise HygieneError(
                f"refusing to start: server processes {strays} from an earlier run are alive"
            )
        time.sleep(0.2)


class ServeProcess:
    """One ``repro serve`` process tree (``shards`` = 1 is the daemon)."""

    def __init__(self, root: Path, workdir: Path, shards: int) -> None:
        self.root = root
        self.workdir = workdir
        self.shards = shards
        self.proc: subprocess.Popen | None = None
        self.members: list[int] = []
        self.host = ""
        self.port = 0

    def start(self) -> tuple[str, int]:
        ready = self.workdir / "ready"
        ready.unlink(missing_ok=True)
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--allow-shutdown", "--ready-file", str(ready),
        ]
        if self.shards > 1:
            cmd += ["--shards", str(self.shards)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with (self.workdir / "serve.log").open("ab") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            text = ready.read_text() if ready.exists() else ""
            if text.endswith("\n"):
                break
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode} before it was ready "
                    f"(see {self.workdir / 'serve.log'})"
                )
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("repro serve did not become ready in time")
            time.sleep(0.002)
        host, port = text.split()
        self.host, self.port = host, int(port)
        self.snapshot_tree()
        return self.host, self.port

    def snapshot_tree(self) -> list[int]:
        """Record the live process tree (call again once shards are up)."""
        assert self.proc is not None
        self.members = sorted(set(self.members) | set(proctree.tree(self.proc.pid)))
        (self.workdir / "server.pids").write_text(
            json.dumps({str(pid): _start_time(pid) for pid in self.members})
        )
        return self.members

    def stop(self) -> None:
        """Graceful shutdown, then assert that the whole tree has exited."""
        if self.proc is None:
            return
        self.snapshot_tree()
        try:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=EXIT_TIMEOUT_S)
            conn.request("POST", "/shutdown", body=b"{}")
            conn.getresponse().read()
            conn.close()
        except (OSError, http.client.HTTPException):
            pass  # already gone: the wait below decides
        try:
            self.proc.wait(EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise HygieneError("repro serve ignored /shutdown and was killed")
        self._await_members()

    def _await_members(self) -> None:
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        while True:
            lingering = [pid for pid in self.members if proctree.alive(pid)]
            if not lingering:
                break
            if time.monotonic() > deadline:
                for pid in lingering:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                raise HygieneError(f"server processes {lingering} outlived shutdown; killed")
            time.sleep(0.01)
        (self.workdir / "server.pids").unlink(missing_ok=True)
        self.proc = None
        self.members = []

    def kill(self) -> None:
        """Last resort on an error path: kill the tree and reap the root."""
        if self.proc is None:
            return
        members = set(self.members) | set(proctree.tree(self.proc.pid))
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.proc.wait(EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        self.members = sorted(members)
        try:
            self._await_members()
        except HygieneError:
            pass
