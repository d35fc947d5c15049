"""Process hygiene and memory readings for the benchmark.

Every process the benchmark starts is a child of the benchmark process:
the forked serving process of the ``query`` phase and the
``MiningPool`` workers of the ``stream`` phase. Three safeguards keep
them from outliving a run and skewing the next one:

- :func:`install_child_reaper` makes every forked child receive SIGKILL
  when the benchmark process dies, even by SIGKILL (``PR_SET_PDEATHSIG``);
- :func:`install_signal_exit` turns SIGTERM into ``SystemExit`` so the
  ``finally`` blocks that close pools and stop servers also run then
  (SIGINT already raises ``KeyboardInterrupt``);
- :func:`reap_children` kills and waits for whatever child is left at
  the end of a run.

:func:`leftover_processes` finds processes of an earlier run that are
still alive when a run starts, so the result can flag them.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from pathlib import Path

_PR_SET_PDEATHSIG = 1
_RUN_MARKER = "perfbench/run.py"


def _set_parent_death_signal() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def install_child_reaper() -> None:
    """Have every child forked from here die with the benchmark process.

    Children are forked only from the main thread (the pool and the
    server are both started there), which lives as long as the process,
    so the parent-death signal fires exactly when the benchmark ends.
    """
    os.register_at_fork(after_in_child=_set_parent_death_signal)


def install_signal_exit() -> None:
    """Make SIGTERM unwind the stack like Ctrl-C does."""

    def _exit(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)


def child_pids(pid: int | None = None) -> list[int]:
    """Direct children of ``pid`` (default: this process), from procfs."""
    pid = os.getpid() if pid is None else pid
    children: set[int] = set()
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return []
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.update(int(token) for token in text.split())
    return sorted(children)


def _ancestors() -> set[int]:
    pids = set()
    pid = os.getpid()
    while pid > 1:
        pids.add(pid)
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            break
        pid = int(stat.rsplit(")", 1)[1].split()[1])
    return pids


def leftover_processes() -> list[int]:
    """Live processes of an earlier benchmark run (same command line).

    A pool worker or serving process orphaned by a killed run keeps the
    command line of the run that forked it.
    """
    mine = _ancestors()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) in mine:
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if _RUN_MARKER.encode() in cmdline:
            found.append(int(entry.name))
    return sorted(found)


def reap_children(timeout: float = 5.0) -> list[int]:
    """Kill every remaining child and wait for each; returns their pids."""
    pids = child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid in pids:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.01)
    return pids


def _status_kib(pid: int, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mib(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` since its last reset, MiB."""
    return _status_kib(os.getpid() if pid is None else pid, "VmHWM") / 1024.0


def reset_peak_rss(pid: int | None = None) -> None:
    """Restart ``VmHWM`` from the current RSS (Linux ``clear_refs`` 5)."""
    try:
        Path(f"/proc/{os.getpid() if pid is None else pid}/clear_refs").write_text("5")
    except OSError:
        pass


def machine_context() -> dict[str, object]:
    """CPU count and load average, recorded with every result."""
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {"cpu_count": os.cpu_count(), "loadavg": [float(v) for v in loadavg]}
