"""One cold run of the paper's offline pipeline, in a fresh process.

Run by ``offline.py``, one process per repetition, so every run pays
for its own imports, trace synthesis and simulation, as a user running
the pipeline once does::

    PYTHONPATH=src python3 perfbench/offline_worker.py --seed 7 --traced 0 \\
        --t0 "$(python3 -c 'import time; print(time.monotonic())')"

Prints one JSON object. ``setup_s`` is the time from ``--t0`` (the
parent's ``time.monotonic()`` just before it spawned this process;
CLOCK_MONOTONIC is system-wide on Linux) to the end of the imports.

With ``--traced 1`` the run first simulates every train and test
(trace, mode) pair in one cold ``IntervalModel.simulate_batch`` call,
so the later layers run with simulation warm and each layer's time is
its own; the layer timers wrap public calls only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import time

from repro.core.pipeline import (GRANULARITY_FACTORS, select_counters,
                                 train_dual_predictor)
from repro.data.builders import dataset_from_traces, hdtr_traces
from repro.eval.runner import evaluate_predictor
from repro.firmware.deploy import package_firmware
from repro.ml.forest import RandomForestClassifier
from repro.obs.metrics import METRICS
from repro.rng import derive_seed
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.modes import Mode
from repro.workloads.spec2017 import spec2017_traces

from common import vm_hwm_mb

#: Offset separating the held-out SPEC-like suite's seed from the
#: training corpus seed (the value the CLI and the figure benches use).
TEST_SEED_OFFSET = 92
#: PF selection runs on a stride sample of about this many training
#: traces, as ``build_standard_models`` does.
SELECTION_TRACES = 60
MODEL = "best_rf"


def best_rf(seed: int, mode: Mode) -> RandomForestClassifier:
    """The paper's Best RF: 8 trees of depth 8 (Section 7)."""
    return RandomForestClassifier(
        n_trees=8, max_depth=8,
        seed=derive_seed(seed, "best-rf", mode.value))


def dataset_digest(datasets: dict) -> str:
    h = hashlib.sha256()
    for mode in Mode:
        ds = datasets[mode]
        for arr in (ds.counter_ids, ds.x, ds.y):
            h.update(arr.tobytes())
    return h.hexdigest()


def run_pipeline(seed: int, traced: bool) -> dict:
    layers: dict[str, float] = {}

    @contextlib.contextmanager
    def span(name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            layers[name] = time.perf_counter() - start

    mark = METRICS.mark()
    start = time.perf_counter()
    with span("workloads.generate_s"):
        train = hdtr_traces(seed)
        test = spec2017_traces(seed + TEST_SEED_OFFSET,
                               intervals_per_trace=240,
                               traces_per_workload=1)
    collector = TelemetryCollector()
    if traced:
        with span("uarch.simulate_s"):
            collector.model.simulate_batch(train + test)
    with span("telemetry.select_s"):
        stride = max(1, len(train) // SELECTION_TRACES)
        counter_ids = select_counters(train[::stride], collector)
    factor = GRANULARITY_FACTORS[MODEL]
    with span("data.build_s"):
        datasets = dataset_from_traces(train, counter_ids,
                                       collector=collector,
                                       granularity_factor=factor)
    with span("ml.fit_s"):
        predictor = train_dual_predictor(
            MODEL, functools.partial(best_rf, seed), datasets, factor,
            seed=derive_seed(seed, MODEL))
    with span("eval.closed_loop_s"):
        suite = evaluate_predictor(predictor, test, collector=collector)
    with span("firmware.package_s"):
        image = package_firmware(predictor)
    wall_s = time.perf_counter() - start

    counters = METRICS.delta(mark)["counters"]
    hits = counters.get("interval_lru.hit", 0)
    misses = counters.get("interval_lru.miss", 0)
    out = {
        "seed": seed,
        "traced": traced,
        "wall_s": wall_s,
        "ppw_gain_pct": suite.mean_ppw_gain * 100.0,
        "rsv_pct": suite.mean_rsv * 100.0,
        "dataset_digest": dataset_digest(datasets),
        "firmware_checksum": image.checksum,
        "firmware_ok": bool(image.verify()),
        "train_traces": len(train),
        "test_traces": len(test),
    }
    if traced:
        # Only timed spans are in ``layers`` so far.
        layers["offline.unattributed_s"] = wall_s - sum(layers.values())
        sim_inst = len(Mode) * sum(t.n_intervals * t.interval_instructions
                                   for t in train + test)
        layers["uarch.sim_minst_per_s"] = (
            sim_inst / 1e6 / layers["uarch.simulate_s"])
        layers["uarch.lru_hit_ratio"] = hits / max(hits + misses, 1)
        layers["data.rows"] = sum(ds.n_samples for ds in datasets.values())
        layers["ml.trees_fit"] = sum(len(m.trees_)
                                     for m in predictor.models.values())
        out["layers"] = layers
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    args = parser.parse_args()
    setup_s = time.monotonic() - args.t0
    out = run_pipeline(args.seed, bool(args.traced))
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = vm_hwm_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
