"""Read a server's process tree from ``/proc``: members, CPU time, peak RSS.

Everything takes a ``proc`` root so the tests can point it at a fake tree.
CPU time is ``utime + stime`` from ``/proc/<pid>/stat`` (fields 14 and 15,
in clock ticks; they include threads that already exited).  Peak memory is
``VmHWM`` from ``/proc/<pid>/status``.
"""

from __future__ import annotations

import os
from pathlib import Path

CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def stat_fields(proc: Path, pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or ``None``.

    The command name is parenthesised and may itself hold spaces or
    parentheses, so the split starts after the *last* ``)``.
    """
    try:
        raw = (proc / str(pid) / "stat").read_text()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return raw[raw.rindex(")") + 2 :].split()


def pids(proc: Path = Path("/proc")) -> list[int]:
    return [int(entry.name) for entry in proc.iterdir() if entry.name.isdigit()]


def alive(pid: int, proc: Path = Path("/proc")) -> bool:
    """Whether ``pid`` exists and is not a zombie waiting to be reaped."""
    fields = stat_fields(proc, pid)
    return fields is not None and fields[0] not in ("Z", "X")


def tree(root: int, proc: Path = Path("/proc")) -> list[int]:
    """``root`` and every live descendant (children, grandchildren, ...)."""
    if not alive(root, proc):
        return []
    children: dict[int, list[int]] = {}
    for pid in pids(proc):
        fields = stat_fields(proc, pid)
        if fields is None or fields[0] in ("Z", "X"):
            continue
        children.setdefault(int(fields[1]), []).append(pid)
    members, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        members.append(pid)
        frontier.extend(children.get(pid, ()))
    return sorted(members)


def cpu_seconds(members: list[int], proc: Path = Path("/proc")) -> float:
    """User plus system CPU seconds summed over ``members`` (gone ones count 0)."""
    ticks = 0
    for pid in members:
        fields = stat_fields(proc, pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / CLOCK_TICKS


def peak_rss_mb(members: list[int], proc: Path = Path("/proc")) -> float:
    """``VmHWM`` summed over ``members``, in MiB."""
    total_kb = 0
    for pid in members:
        try:
            status = (proc / str(pid) / "status").read_text()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def cmdline(pid: int, proc: Path = Path("/proc")) -> list[str]:
    try:
        raw = (proc / str(pid) / "cmdline").read_bytes()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return []
    return [part.decode(errors="replace") for part in raw.split(b"\0") if part]


def is_repro_serve(argv: list[str]) -> bool:
    """``python -m repro serve ...`` (the daemon or a cluster router)."""
    for index in range(len(argv) - 2):
        if argv[index : index + 3] == ["-m", "repro", "serve"]:
            return True
    return False


def stray_servers(proc: Path = Path("/proc"), ignore: frozenset[int] = frozenset()) -> list[int]:
    """Live ``repro serve`` processes not in ``ignore``."""
    return [
        pid
        for pid in pids(proc)
        if pid not in ignore and alive(pid, proc) and is_repro_serve(cmdline(pid, proc))
    ]
