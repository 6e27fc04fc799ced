"""Host-side plumbing: the server child process, peak RSS, run fingerprint."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import queue
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class ServerProcess:
    """``perfbench/server.py`` as a child process with a line command channel."""

    def __init__(self, workload: str, seed: int, timeout: float = 120.0) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "server.py"),
                "--workload", workload, "--seed", str(seed),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.ready = self._read(timeout)
        except BaseException:
            self.kill()
            raise
        if not self.ready.get("ready"):
            self.kill()
            raise RuntimeError(f"server did not become ready: {self.ready}")

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _read(self, timeout: float) -> Dict[str, Any]:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("server did not answer in time") from None
        if line is None:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, text: str, timeout: float = 60.0) -> Dict[str, Any]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        reply = self._read(timeout)
        if not reply.get("ok"):
            raise RuntimeError(f"server command {text!r} failed: {reply}")
        return reply

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout: float = 30.0) -> None:
        """Ask the server to shut down cleanly; kill it if it does not."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            self.proc.stdin.close()
            self.proc.wait(timeout=timeout)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        self._reader.join(timeout=5.0)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ---------------------------------------------------------------------- #
# memory
# ---------------------------------------------------------------------- #
def _descendants(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat[stat.rfind(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def _peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(root: int) -> float:
    """Peak RSS of ``root`` plus every live descendant, in MiB.

    Each process's own high-water mark is summed, so this bounds the
    simultaneous peak from above.
    """
    pids = [root] + _descendants(root)
    return sum(_peak_rss_kib(pid) for pid in pids) / 1024.0


# ---------------------------------------------------------------------- #
# fingerprint
# ---------------------------------------------------------------------- #
def _commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    """SHA-256 over the program's source files (works without git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(seed: int, kernels: str, shm: bool) -> Dict[str, Any]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "kernels": kernels,
        "shm": shm,
        "seed": seed,
        "commit": _commit(),
        "source_digest": source_digest(),
        "machine": platform.machine(),
    }
