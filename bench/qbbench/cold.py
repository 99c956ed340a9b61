"""Cold ``qbuffer`` commands: spawn a fresh interpreter, wait for it, time it."""

from __future__ import annotations

import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .workloads import ColdCommand, Problem

COLD_MAIN = Path(__file__).resolve().parents[1] / "cold_main.py"


@dataclass
class ColdResult:
    label: str
    exit_code: int
    cpu_s: float          # the child's user + system time, spawn -> exit
    wall_s: float         # spawn -> exit
    setup_s: float        # the child's CPU time until qbuffer.cli is imported
    peak_rss_mb: float
    texts: dict[str, str]
    problems: list[Problem]
    import_log: str = ""  # standard error of an ``-X importtime`` child

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def run_cold(command: ColdCommand, work_dir: Path, env: dict[str, str],
             importtime: bool = False) -> ColdResult:
    """Run one command in ``work_dir`` (emptied first) and check its outputs."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    for name, text in command.files.items():
        (work_dir / name).write_text(text)
    stamp = work_dir / "stamp"
    stdout, stderr = work_dir / "stdout", work_dir / "stderr"
    argv = [sys.executable, *(["-X", "importtime"] if importtime else []),
            str(COLD_MAIN), str(stamp), str(work_dir), *command.argv]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - start
    exit_code = os.waitstatus_to_exitcode(status)
    try:
        setup = float(stamp.read_text())
    except (OSError, ValueError):
        setup = float("nan")
    texts, problems = {}, []
    for name in command.outputs:
        path = stdout if name == "-" else work_dir / name
        try:
            texts[name] = path.read_text()
        except OSError:
            problems.append(Problem(f"{command.label}: no output {name}", False))
    if not problems:
        problems = command.verify(texts)
    return ColdResult(command.label, exit_code, usage.ru_utime + usage.ru_stime, wall,
                      setup, usage.ru_maxrss / 1024.0, texts, problems,
                      stderr.read_text() if importtime else "")


def parse_importtime(log: str) -> dict[str, float]:
    """Seconds spent importing: everything, scipy.optimize, and qbuffer.

    Each ``-X importtime`` line reads ``import time: self | cumulative | name``
    with two spaces of indent per nesting level; the total is the sum of the
    cumulative times of top-level imports.
    """
    total, found = 0, {}
    for line in log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        cumulative_us = int(cumulative)
        if depth == 0:
            total += cumulative_us
        found.setdefault(name.strip(), cumulative_us)
    return {"total_s": total * 1e-6,
            "scipy_optimize_s": found.get("scipy.optimize", 0) * 1e-6,
            "qbuffer_s": found.get("qbuffer", 0) * 1e-6}
