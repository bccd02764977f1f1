"""The machine and software a result was measured on."""

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    caches = []
    for index in sorted(CACHE_DIR.glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        if size:
            caches.append(f"L{level} {kind} {size}")
    return caches


def _ram_mb():
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) // 1024
    return None


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return None
    return {k: {f: v.get(f) for f in ("name", "version")} for k, v in deps.items()
            if k in ("blas", "lapack")}


def _git_commit():
    """The checkout's commit, or None when it is not a git work tree."""
    if not Path(".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def collect(seed):
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "ram_mb": _ram_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "seed": seed,
    }
