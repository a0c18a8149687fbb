"""The ``serve`` subprocess: launch, /proc accounting, and tree teardown.

The server runs in a session of its own (``start_new_session``), so every
process it forks (the shard workers of ``--workers N``, say) keeps its
session id even after it is re-parented.  :meth:`ServerProcess.stop` therefore finds
and kills the whole tree by session id, not by parentage.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Seconds ``serve`` may take to build its backend and announce its address.
ANNOUNCE_TIMEOUT = 60.0


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            raw = handle.read()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def session_pids(sid: int) -> List[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        # fields[0] is the state, fields[3] the session id.
        if fields is not None and fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(name))
    return pids


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU of ``pids`` (utime and stime are fields 14 and 15)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _CLOCK_TICKS


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_steal_ticks() -> int:
    """Host-wide CPU steal, in clock ticks (the 8th value of ``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def loadavg() -> List[float]:
    with open("/proc/loadavg") as handle:
        return [float(value) for value in handle.read().split()[:3]]


class ServerProcess:
    """``python -m repro.experiments serve`` as a user would launch it."""

    def __init__(
        self,
        snapshot: str,
        workdir: str,
        env: Dict[str, str],
    ) -> None:
        self.announce = os.path.join(workdir, "announce")
        self.log_path = os.path.join(workdir, "serve.log")
        self.argv = [
            sys.executable, "-m", "repro.experiments", "serve",
            "--snapshot", snapshot, "--announce", self.announce,
        ]
        self._env = env
        self._log = None
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> Tuple[str, int]:
        """Spawn the server and wait for its announced ``(host, port)``."""
        if os.path.exists(self.announce):
            os.unlink(self.announce)
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            self.argv,
            env=self._env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited with code {self.proc.returncode} before "
                    f"announcing; see {self.log_path}"
                )
            try:
                with open(self.announce) as handle:
                    text = handle.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                host, port = text.split()
                return host, int(port)
            if time.monotonic() > deadline:
                raise RuntimeError(f"serve did not announce within {ANNOUNCE_TIMEOUT}s")
            time.sleep(0.002)

    def tree(self) -> List[int]:
        """The server and every process of its session."""
        if self.proc is None:
            return []
        return session_pids(self.proc.pid)

    def stop(self, grace: float = 10.0) -> None:
        """Drain with SIGINT, then SIGKILL whatever of the session is left."""
        if self.proc is None:
            return
        sid = self.proc.pid
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(grace)
                except subprocess.TimeoutExpired:
                    pass
            deadline = time.monotonic() + grace
            while True:
                left = session_pids(sid)
                if not left:
                    break
                for pid in left:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                if self.proc.poll() is None:
                    try:
                        self.proc.wait(1.0)
                    except subprocess.TimeoutExpired:
                        pass
                if time.monotonic() > deadline:
                    raise RuntimeError(f"server session {sid} survived SIGKILL: {left}")
                time.sleep(0.01)
            self.proc.wait()
        finally:
            if self._log is not None:
                self._log.close()
                self._log = None
            self.proc = None
