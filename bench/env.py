"""Where things are, and what a result says about its host."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def require_repro() -> None:
    """Put the program under test on ``sys.path``; exit non-zero when the
    checkout holds the benchmark but not the program."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"bench: no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch(name: str) -> Path:
    """A fresh per-process directory under ``bench/out``."""
    path = OUT / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository


def host_block(seed: int, digests: dict[str, str]) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "op_stream_digests": digests,
    }
