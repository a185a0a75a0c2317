"""Record of the machine and numeric stack a run measured on."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_symbol(lib, stem: str):
    # numpy and scipy wheels ship OpenBLAS with prefixed, sometimes 64-bit names.
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                return getattr(lib, f"{prefix}_{stem}{suffix}")
            except AttributeError:
                continue
    return None


def blas_libraries() -> list[dict]:
    """OpenBLAS libraries loaded in this process, with config and thread count."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    paths = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                    if "openblas" in line.rsplit("/", 1)[-1].lower() and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)  # already loaded: this only returns its handle
        entry = {"library": Path(path).name}
        get_config = _openblas_symbol(lib, "get_config")
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            entry["config"] = get_config().decode().strip()
        get_threads = _openblas_symbol(lib, "get_num_threads")
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            entry["threads"] = get_threads()
        found.append(entry)
    return found


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def record() -> dict:
    """Versions, BLAS configuration and threads, CPU model and cache sizes.

    Call after numpy and scipy are imported, so their BLAS is loaded.
    """
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_policy": "unpinned: the library default a user gets",
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
    }
