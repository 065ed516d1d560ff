"""Helpers shared by the benchmark's modules and its offline worker.

Nothing here imports ``repro``, so ``run.py`` can check that the
program is present before anything imports it.
"""

from __future__ import annotations

import os
from pathlib import Path

#: Repository root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Scratch directory for daemon sockets, relative to the checkout root.
#: Kept relative because AF_UNIX paths are limited to ~108 bytes and
#: the checkout may sit deep in the file system; every process the
#: benchmark starts runs with the checkout root as its working directory.
RUN_DIR = ".perfbench_run"


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def scrub_knobs() -> None:
    """Drop every ``REPRO_*`` variable from this process's environment.

    The benchmark measures the default configuration; a knob inherited
    from the caller's shell would silently change what is measured.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def child_env() -> dict[str, str]:
    """Environment for a program process: no knobs, ``src`` importable."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


def metric(value: float, unit: str) -> dict:
    """One entry of the result's ``metrics`` object."""
    return {"value": float(value), "unit": unit}
