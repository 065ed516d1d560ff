"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload offline_train_eval --seed 1 \\
        --seconds 40 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``offline_train_eval`` -- cold train -> evaluate -> package pipeline.
* ``serve_mixed_closed`` -- closed-loop adapt + decide mix at a serve
  daemon.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separately timed run. Every workload reports
every metric ``BENCHMARK.json`` names for the mode, so a traced run
also runs the other workload's part briefly. The last stdout line is
the result object (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it holds the run's provenance and
details. A run that cannot measure every named metric prints no result
and exits 3.

Run from the root of a checkout; it imports the program from ``src``
and exits 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

import common

WORKLOADS = ("offline_train_eval", "serve_mixed_closed")
#: Load seconds of the brief serve part of a traced offline run.
BRIEF_SERVE_S = 5.0


def manifest_metrics(trace: bool) -> list[str]:
    """Names of the metrics ``BENCHMARK.json`` asks for in this mode."""
    with open(common.ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    return [m["name"] for m in manifest["per_layer" if trace
                                        else "end_to_end"]]


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result, detail)."""
    import offline
    import serving

    if not trace:
        module = offline if workload == "offline_train_eval" else serving
        return module.run(seed, seconds, False)
    # Offline layers come from one untraced and one traced repetition
    # (more while the budget allows); serve layers from a loaded daemon.
    if workload == "offline_train_eval":
        # The serve part takes about 3 x its load: reference answers,
        # a cold daemon, warm-up and idle probes come on top.
        parts = [(offline, seconds - 3 * BRIEF_SERVE_S),
                 (serving, BRIEF_SERVE_S)]
    else:
        parts = [(offline, 0.0), (serving, seconds / 2)]
    result = {"attempted": 0, "failed": 0, "metrics": {}}
    detail = {}
    for module, budget in parts:
        part, detail[module.__name__] = module.run(seed, budget, True)
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update(part["metrics"])
    return result, detail


def source_digest() -> str:
    """SHA-256 over every file under ``src``: names the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(common.SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(common.SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (common.ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not common.program_present():
        print(f"perfbench: no program at {common.SRC}/repro; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    common.scrub_knobs()
    sys.path.insert(0, str(common.SRC))
    prov = provenance(args)
    result, detail = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps({"provenance": prov, "detail": detail}))
    names = manifest_metrics(bool(args.trace))
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        print(f"perfbench: no value for {missing}; "
              f"{result['failed']} of {result['attempted']} failed",
              file=sys.stderr)
        return 3
    result["metrics"] = {name: result["metrics"][name] for name in names}
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
