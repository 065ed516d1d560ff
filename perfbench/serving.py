"""Workload ``serve_mixed_closed``: a forest daemon under mixed load.

A ``python3 -m repro serve`` daemon runs in a subprocess with default
flags, so it serves its default corpus (``repro.config.
experiment_seed()``, 7 with no ``REPRO_SEED``). ``CONNECTIONS``
closed-loop clients each run rounds of ``ADAPT_EVERY`` requests, one
``adapt`` over the LRU-warm corpus and the rest ``decide`` on 16-row
windows, sending each request when the last one is answered. The run's
seed draws the windows, the adapted traces and each round's op order.

The corpus is not drawn by the run's seed: one served corpus's mean PPW
gain ranges from 5% to 27% across corpus seeds, far wider than any
bound ``ppw_gain_pct`` could have, while over the default corpus the
mean of a run's served adapts moves only with which traces are picked.

Every response is compared with the answer computed in this process
from the same corpus (``Reference``). A wrong answer, an error, a shed
request or a timeout counts as failed and misses the latency limit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from statistics import median

import numpy as np

from common import ROOT, RUN_DIR, child_env, metric, vm_hwm_mb

from repro.config import experiment_seed
from repro.core.adaptive_cpu import AdaptiveCPU
from repro.data.builders import dataset_from_traces
from repro.errors import BatchTimeoutError, BusyError, ServeError
from repro.rng import stream
from repro.serve import (DecideRequest, ServeClient, adapt_payload,
                         decide_payload, encode_frame,
                         quick_forest_predictor, serving_corpus)
from repro.uarch.modes import Mode

#: ``repro serve``'s default corpus shape (--apps, --workloads-per-app,
#: --intervals); the daemon is started without these flags.
CORPUS = {"n_apps": 8, "workloads_per_app": 2, "intervals": 96}
WINDOW_ROWS = 16
#: Distinct decide windows per run, each answered once in-process.
WINDOW_POOL = 128
CONNECTIONS = 2
ADAPT_EVERY = 4
#: Latency limits per op: a traced run reports the share of requests
#: sent that complete OK within them beside p50 and p99.
SLO_MS = {"decide": 10.0, "adapt": 25.0}
#: Daemon cold starts per untraced run; ``setup_s`` is their median.
#: One start takes 0.7-1.0 s on a shared 2-vCPU host; with 3 starts the
#: median still spread by 0.28 of itself over ten runs.
SPAWNS = 5
READY_TIMEOUT_S = 60.0
#: Repetitions of each in-process micro-measurement in traced runs.
PROBES = 200


class Reference:
    """The answers a correct daemon gives, computed in this process.

    Builds the corpus and the quick forest exactly as ``repro serve``
    does with default flags, and draws the decide windows by ``seed``
    from the corpus's own normalised telemetry rows: 16 consecutive
    rows of one trace in one mode, so the forest sees inputs like the
    ones it was trained on.
    """

    def __init__(self, seed: int) -> None:
        self.traces = serving_corpus(seed=experiment_seed(), **CORPUS)
        self.predictor = quick_forest_predictor(self.traces)
        self.cpu = AdaptiveCPU(self.predictor)
        self.adapt = [adapt_payload(self.cpu.run(t)) for t in self.traces]
        datasets = dataset_from_traces(self.traces,
                                       self.predictor.counter_ids)
        rng = stream(seed, "perfbench", "windows")
        modes = list(Mode)
        self.windows: list[tuple[Mode, list, dict]] = []
        for _ in range(WINDOW_POOL):
            mode = modes[int(rng.integers(len(modes)))]
            ds = datasets[mode]
            trace = self.traces[int(rng.integers(len(self.traces)))]
            rows = np.flatnonzero(ds.traces == trace.name)
            start = int(rng.integers(len(rows) - WINDOW_ROWS + 1))
            window = ds.x[rows[start:start + WINDOW_ROWS]]
            probs = self.predictor.predict_proba(window, mode)
            threshold = self.predictor.model_for(mode).decision_threshold
            self.windows.append((mode, window.tolist(),
                                 decide_payload(probs, threshold)))


class Daemon:
    """One ``repro serve`` subprocess and its teardown checks."""

    def __init__(self, index: int) -> None:
        stem = os.path.join(RUN_DIR, f"{os.getpid()}-{index}")
        self.sock = stem + ".sock"
        self.log_path = stem + ".log"
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn and wait for the first ping; return the seconds taken."""
        cmd = [sys.executable, "-m", "repro", "serve", "--socket", self.sock]
        with open(ROOT / self.log_path, "w") as log:
            t0 = time.monotonic()
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                         stdout=log,
                                         stderr=subprocess.STDOUT)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode} "
                                   f"before ready: {self._log_tail()}")
            try:
                with ServeClient(self.sock, timeout_s=5.0) as client:
                    if client.ping():
                        return time.monotonic() - t0
            except (OSError, ServeError):
                pass
            if time.monotonic() - t0 > READY_TIMEOUT_S:
                raise RuntimeError(f"daemon not ready after "
                                   f"{READY_TIMEOUT_S}s: {self._log_tail()}")
            time.sleep(0.005)

    def _log_tail(self) -> str:
        with open(ROOT / self.log_path) as fh:
            return fh.read()[-400:]

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> list[str]:
        """Shut down via the ``shutdown`` op and check nothing is left:
        the process exited 0, the socket is unlinked and no child of
        the daemon survives. Returns the problems found."""
        problems = []
        children = child_pids(self.proc.pid)
        try:
            with ServeClient(self.sock, timeout_s=10.0) as client:
                client.shutdown()
        except (OSError, ServeError) as exc:
            problems.append(f"shutdown op failed: {exc}")
        try:
            code = self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            problems.append("daemon still running 30s after shutdown")
            self.kill()
        else:
            if code != 0:
                problems.append(f"daemon exited {code}: {self._log_tail()}")
        if os.path.exists(ROOT / self.sock):
            problems.append("daemon left its socket behind")
            os.unlink(ROOT / self.sock)
        leaked = [pid for pid in children if pid_alive(pid)]
        for pid in leaked:
            os.kill(pid, 9)
        if leaked:
            problems.append(f"daemon children survived shutdown: {leaked}")
        return problems

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _clean_run_dir() -> None:
    """Remove this run's sockets and logs, and the directory if empty."""
    run_dir = ROOT / RUN_DIR
    for path in run_dir.glob(f"{os.getpid()}-*"):
        path.unlink()
    try:
        run_dir.rmdir()
    except OSError:
        pass  # another run's files are still there


def _proc_stat(pid: int | str) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name (state,
    ppid, ...), or None when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def pid_alive(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def child_pids(parent: int) -> list[int]:
    """Live processes whose parent is ``parent``."""
    out = []
    for entry in os.listdir("/proc"):
        fields = _proc_stat(entry) if entry.isdigit() else None
        if fields and fields[0] != "Z" and int(fields[1]) == parent:
            out.append(int(entry))
    return out


# ---------------------------------------------------------------------
# Requests. Each returns an outcome: "ok", or why it failed.
# ---------------------------------------------------------------------
def _call(fn, expected: dict, keys: tuple[str, ...]) -> str:
    try:
        response = fn()
    except BusyError:
        return "shed"
    except BatchTimeoutError:
        return "timeout"
    except (ServeError, OSError) as exc:
        return f"error:{type(exc).__name__}"
    if any(response.get(k) != expected[k] for k in keys):
        return "wrong"
    return "ok"


def decide(client: ServeClient, ref: Reference, k: int) -> str:
    mode, window, expected = ref.windows[k]
    return _call(lambda: client.decide(mode.value, window), expected,
                 ("probs", "decisions", "digest"))


def adapt(client: ServeClient, ref: Reference, i: int) -> str:
    return _call(lambda: client.adapt(i)["result"], ref.adapt[i],
                 tuple(ref.adapt[i]))


class Tally:
    """Per-op latencies and outcomes, and per-round times, shared by
    the load threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latency_ms: dict[str, list[float]] = {"decide": [],
                                                   "adapt": []}
        self.sent = {"decide": 0, "adapt": 0}
        self.slo_ok = {"decide": 0, "adapt": 0}
        self.failures: dict[str, int] = {}
        #: Wall of each round whose requests all came back correct.
        self.round_ms: list[float] = []
        #: PPW gain of each correct adapt answer, in percent.
        self.ppw_pct: list[float] = []

    def record(self, op: str, outcome: str, latency_s: float) -> None:
        with self.lock:
            self.sent[op] += 1
            if outcome != "ok":
                self.failures[outcome] = self.failures.get(outcome, 0) + 1
                return
            self.latency_ms[op].append(latency_s * 1e3)
            if latency_s * 1e3 <= SLO_MS[op]:
                self.slo_ok[op] += 1

    def record_round(self, ok: bool, wall_s: float,
                     ppw_gain: float | None) -> None:
        with self.lock:
            if ok:
                self.round_ms.append(wall_s * 1e3)
            if ppw_gain is not None:
                self.ppw_pct.append(ppw_gain * 100.0)

    @property
    def attempted(self) -> int:
        return sum(self.sent.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _run_threads(target, n: int) -> None:
    threads = [threading.Thread(target=target, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def closed_loop(sock: str, ref: Reference, seed: int, seconds: float,
                tally: Tally) -> float:
    """Mixed closed-loop clients; returns the measured wall seconds."""
    deadline = time.perf_counter() + seconds

    def client_loop(cid: int) -> None:
        rng = stream(seed, "perfbench", "mixed", cid)
        with ServeClient(sock) as client:
            while time.perf_counter() < deadline:
                adapt_at = int(rng.integers(ADAPT_EVERY))
                round_ok = True
                ppw_gain = None
                round_start = time.perf_counter()
                for slot in range(ADAPT_EVERY):
                    start = time.perf_counter()
                    if slot == adapt_at:
                        i = int(rng.integers(len(ref.traces)))
                        outcome = adapt(client, ref, i)
                        op = "adapt"
                        if outcome == "ok":
                            ppw_gain = ref.adapt[i]["ppw_gain"]
                    else:
                        outcome = decide(client, ref, int(
                            rng.integers(WINDOW_POOL)))
                        op = "decide"
                    tally.record(op, outcome, time.perf_counter() - start)
                    round_ok = round_ok and outcome == "ok"
                tally.record_round(round_ok,
                                   time.perf_counter() - round_start,
                                   ppw_gain)

    start = time.perf_counter()
    _run_threads(client_loop, CONNECTIONS)
    return time.perf_counter() - start


def warm(sock: str, ref: Reference, tally: Tally) -> None:
    """First requests of a fresh daemon: a decide per mode and one
    adapt per trace, so its simulation LRU is warm. Checked like the
    rest but not timed."""
    with ServeClient(sock) as client:
        seen = set()
        for k, (mode, _, _) in enumerate(ref.windows):
            if mode not in seen:
                seen.add(mode)
                tally.record("decide", decide(client, ref, k), 0.0)
        for i in range(len(ref.traces)):
            tally.record("adapt", adapt(client, ref, i), 0.0)


def _median_us(fn, args_list) -> float:
    times = []
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return median(times) * 1e6


def layer_probes(sock: str, ref: Reference) -> dict:
    """In-process and idle-daemon timings of the decide path's parts."""
    with ServeClient(sock) as client:
        ping_ms = []
        for _ in range(PROBES):
            start = time.perf_counter()
            client.ping()
            ping_ms.append((time.perf_counter() - start) * 1e3)
    picks = [ref.windows[i % WINDOW_POOL] for i in range(PROBES)]
    frames = [encode_frame(DecideRequest(mode=m.value, window=w).to_wire())
              for m, w, _ in picks]
    out = {
        "serve.ping_p50_ms": median(ping_ms),
        "serve.protocol_encode_us": _median_us(
            encode_frame, [(DecideRequest(mode=m.value, window=w)
                            .to_wire(),) for m, w, _ in picks]),
        "serve.protocol_decode_us": _median_us(
            lambda f: json.loads(f[4:].decode("utf-8")),
            [(f,) for f in frames]),
        "ml.predict_16row_us": _median_us(
            ref.predictor.predict_proba,
            [(np.asarray(w), m) for m, w, _ in picks]),
    }
    n = len(ref.traces)
    out["core.adapt_run_ms"] = _median_us(
        ref.cpu.run, [(ref.traces[i % n],) for i in range(2 * n)]) / 1e3
    return out


def _stats_delta(before: dict, after: dict) -> dict:
    hist_b = before.get("batch_size") or {}
    hist_a = after.get("batch_size") or {}
    batches = hist_a.get("count", 0) - hist_b.get("count", 0)
    items = hist_a.get("total", 0.0) - hist_b.get("total", 0.0)
    full = after["flush_full"] - before["flush_full"]
    wait = after["flush_wait"] - before["flush_wait"]
    return {
        "serve.batch_size_mean": items / batches if batches else 0.0,
        "serve.flush_wait_share": wait / (full + wait) if full + wait
        else 0.0,
        "serve.shed": after["shed"] - before["shed"],
    }


def run(seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Load a daemon for ``seconds``; return (result, detail).

    An untraced run cold-starts ``SPAWNS`` daemons for ``setup_s`` and
    loads the last one; a traced run starts one and reports the serve
    layers instead.
    """
    os.makedirs(ROOT / RUN_DIR, exist_ok=True)
    ref = Reference(seed)
    tally = Tally()
    problems: list[str] = []
    lifecycles = 0
    setup_s: list[float] = []
    daemon = None
    try:
        spawns = 1 if trace else SPAWNS
        for index in range(spawns):
            lifecycles += 1
            daemon = Daemon(index)
            setup_s.append(daemon.start())
            if index < spawns - 1:
                problems += daemon.stop()
        sock = daemon.sock
        warm(sock, ref, tally)
        warm_tally = (tally.attempted, tally.failed)
        tally = Tally()
        with ServeClient(sock) as client:
            before = client.stats()
        wall_s = closed_loop(sock, ref, seed, seconds, tally)
        with ServeClient(sock) as client:
            after = client.stats()
        probes = layer_probes(sock, ref) if trace else {}
        peak_rss_mb = daemon.peak_rss_mb()
        problems += daemon.stop()
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
        _clean_run_dir()
    leftover = child_pids(os.getpid())
    if leftover:
        problems.append(f"benchmark children still running: {leftover}")

    attempted = tally.attempted + warm_tally[0] + lifecycles
    failed = tally.failed + warm_tally[1] + (1 if problems else 0)
    p50 = {op: float(np.percentile(v, 50)) for op, v in
           tally.latency_ms.items() if v}
    # A value with no correct answer behind it is left out; run.py
    # then refuses to print a result.
    if not trace:
        values = {
            "setup_s": (median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "success_frac": (1.0 - failed / attempted, "frac"),
        }
        if tally.round_ms:
            values["job_p50_ms"] = (median(tally.round_ms), "ms")
        if tally.ppw_pct:
            values["ppw_gain_pct"] = (
                sum(tally.ppw_pct) / len(tally.ppw_pct), "%")
    else:
        ok = sum(len(v) for v in tally.latency_ms.values())
        layers = {**probes, **_stats_delta(before, after),
                  "serve.throughput_rps": ok / wall_s}
        for op, value in p50.items():
            layers[f"serve.{op}_p50_ms"] = value
        if "decide" in p50:
            layers["serve.wait_ms"] = (
                p50["decide"] - layers["serve.ping_p50_ms"]
                - (layers["serve.protocol_encode_us"]
                   + layers["serve.protocol_decode_us"]
                   + layers["ml.predict_16row_us"]) / 1e3)
        units = {"serve.batch_size_mean": "count", "serve.shed": "count",
                 "serve.flush_wait_share": "frac",
                 "serve.throughput_rps": "1/s"}
        values = {name: (value, units.get(name) or name[-2:])
                  for name, value in layers.items()}
    metrics = {name: metric(value, unit)
               for name, (value, unit) in values.items()}
    detail = {
        "requests": dict(tally.sent),
        "rounds": len(tally.round_ms),
        "latency_ms": {op: {"n": len(v), "p50": p50[op],
                            "p99": float(np.percentile(v, 99))}
                       for op, v in tally.latency_ms.items() if v},
        "slo_frac": {op: tally.slo_ok[op] / n
                     for op, n in tally.sent.items() if n},
        "failures": tally.failures,
        "warm_up": {"attempted": warm_tally[0], "failed": warm_tally[1]},
        "setup_s": setup_s,
        "problems": problems,
    }
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics}, detail
