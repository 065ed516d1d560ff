"""Global machine and experiment configuration.

Every tunable of the reproduced system lives here: the parameters of the
two-cluster scaled-Skylake core, the microcontroller's computation
budget, the SLA the paper targets, the experiment scale knobs, and the
runtime knobs of the reproduction's own engine.

The values mirror the paper wherever the paper states them:

* CPU: 2.0 GHz, 8-wide in high-performance mode (two 4-wide clusters),
  16,000 MIPS peak (Table 3 header).
* Microcontroller: 500 MHz, 1-wide, 500 MIPS, 50% of cycles safely
  available for inference (Section 3 / Table 3).
* SLA: low-power mode must retain ``P_SLA = 90%`` of high-performance
  IPC over ``T_SLA = 1 ms`` windows, guaranteed to 99% (Section 3.1).
* Low-power mode consumes ~35% less power on average (Section 3).

Each runtime knob is one :class:`ExecConfig` field declared by
:func:`_knob`. ``from_env``/``from_cli``/``to_env``, validation, the
memo key, the CLI flags (:mod:`repro.cli`) and the README knob table
are all generated from those declarations (:data:`KNOBS`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from collections.abc import Callable

from repro.errors import ConfigurationError

#: Environment variable that scales dataset sizes for experiments.
#: ``1.0`` is the scaled default documented in EXPERIMENTS.md; larger
#: values approach the paper's original dataset sizes.
SCALE_ENV_VAR = "REPRO_SCALE"

#: Environment variable holding the global experiment seed.
SEED_ENV_VAR = "REPRO_SEED"

#: Default global seed; all experiments are deterministic given it.
DEFAULT_SEED = 7

#: Instructions per telemetry snapshot interval (Section 4.1).
BASE_INTERVAL_INSTRUCTIONS = 10_000

#: Execution backends; ``auto`` probes and picks serial or process.
EXEC_BACKENDS = ("serial", "thread", "process", "auto")

#: Cycle-level kernels: structure-of-arrays and the per-uop reference.
CYCLE_KERNELS = ("soa", "reference")


# Parsers map one raw string (environment value or CLI argument) to a
# typed value, or raise an error that the caller prefixes with a name.
def _choice(options: tuple[str, ...], error: type = ValueError):
    def parse(raw: str) -> str:
        if raw not in options:
            raise error(f"must be one of {options}, got {raw!r}")
        return raw
    parse.choices = options
    return parse


def _bool(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(f"must be '0' or '1', got {raw!r}")
    return raw == "1"


_bool.choices = ("0", "1")


def _text(raw: str) -> str | None:
    return raw or None


def _number(cast: type, low: float, strict: bool = False,
            optional: bool = False, error: type = ValueError):
    """A number ``>= low`` (``> low`` if ``strict``). ``optional``: ""
    means unset (``None``), and so does 0 when ``low`` is 0."""
    kind = "an int" if cast is int else "a float"

    def parse(raw: str):
        if optional and raw == "":
            return None
        try:
            value = cast(raw)
        except ValueError:
            raise ValueError(f"must be {kind}, got {raw!r}") from None
        if not (value > low if strict else value >= low):  # NaN fails
            raise error(f"must be {'>' if strict else '>='} {low}, "
                        f"got {value}")
        return None if optional and value == low == 0 else value
    return parse


_POSITIVE = _number(float, 0, strict=True)


def _knob(default, env: str, parse: Callable[[str], object],
          flag: str | None, doc: str, **cli):
    """Declare a runtime knob; ``cli`` holds extra ``argparse`` keywords
    for ``flag`` (``metavar``, ``nargs``/``const``, ``action``)."""
    return dataclasses.field(default=default, metadata={
        "env": env, "parse": parse, "flag": flag, "doc": doc, "cli": cli})


@dataclasses.dataclass(frozen=True)
class Knob:
    """One runtime knob's declaration, as collected in :data:`KNOBS`."""

    name: str
    default: object
    env: str
    parse: Callable[[str], object]
    flag: str | None
    doc: str
    cli: dict

    @property
    def serving(self) -> bool:
        """A daemon knob: its flag exists on ``repro serve`` only."""
        return self.name.startswith(("serve_", "online_"))

    def parse_as(self, label: str, raw: str):
        """``parse(raw)``, with errors prefixed by ``label``."""
        try:
            return self.parse(raw)
        except (ValueError, ConfigurationError) as exc:
            raise type(exc)(f"{label} {exc}") from None

    def read(self):
        """This knob's value in the environment (default when unset)."""
        raw = os.environ.get(self.env)
        return self.default if raw is None else self.parse_as(self.env, raw)

    def format(self, value) -> str | None:
        """The raw string that :meth:`parse` maps back to ``value``."""
        if value is None:
            return None
        if isinstance(value, bool):
            return "1" if value else "0"
        return repr(value) if isinstance(value, float) else str(value)


@dataclasses.dataclass(frozen=True)
class ExecConfig:
    """The typed face of every runtime knob the engine reads.

    Build it with :meth:`from_env`, :meth:`from_cli` or directly; scope
    it with :meth:`override`. Call sites read
    ``active_exec_config().<field>``; ``None`` leaves the choice to the
    engine at use time (see each knob's doc).
    """

    backend: str = _knob(
        "serial", "REPRO_EXEC_BACKEND",
        _choice(EXEC_BACKENDS, ConfigurationError), "--exec-backend",
        "fan-out backend; auto fans out only when workers would win")
    workers: int | None = _knob(
        None, "REPRO_EXEC_WORKERS",
        _number(int, 1, optional=True, error=ConfigurationError),
        "--exec-workers",
        "worker count for pool backends (unset: the CPU count)")
    pool: str = _knob(
        "persistent", "REPRO_EXEC_POOL", _choice(("persistent", "fresh")),
        None, "keep one warm pool per process, or make one per map")
    arena: bool = _knob(
        True, "REPRO_EXEC_ARENA", _bool, "--exec-arena",
        "ship corpora to process workers in a zero-copy mmap arena")
    shmres: bool = _knob(
        True, "REPRO_EXEC_SHMRES", _bool, "--exec-shmres",
        "return large process-worker results through shared memory")
    shard: int | None = _knob(
        None, "REPRO_EXEC_SHARD", _number(int, 0, optional=True),
        "--exec-shard", "stream corpora in shards of N (0: one pass)",
        metavar="N")
    chunk: int | None = _knob(
        None, "REPRO_EXEC_CHUNK", _number(int, 1, optional=True),
        "--exec-chunk", "items per parallel task (unset: adaptive)")
    retries: int = _knob(
        2, "REPRO_EXEC_RETRIES", _number(int, 0), "--exec-retries",
        "retries of a failed chunk before degrading or raising")
    timeout: float | None = _knob(
        None, "REPRO_EXEC_TIMEOUT", _number(float, 0, optional=True),
        "--exec-timeout", "per-task timeout in s, pool backends (0: off)")
    simcache_dir: str | None = _knob(
        None, "REPRO_SIMCACHE_DIR", _text, None,
        "on-disk simulation cache directory (unset: no cache)")
    simcache_verify: bool = _knob(
        True, "REPRO_SIMCACHE_VERIFY", _bool, None,
        "verify each simulation-cache entry's checksum on read")
    fault_spec: str | None = _knob(
        None, "REPRO_FAULT_SPEC", _text, "--fault-spec",
        "fault-injection spec, e.g. seed=7,crash=0.05 (unset: off)")
    cycle_kernel: str = _knob(
        "soa", "REPRO_CYCLE_KERNEL", _choice(CYCLE_KERNELS), None,
        "cycle-level kernel (the two are bit-identical)")
    batch_sim: bool = _knob(
        True, "REPRO_BATCH_SIM", _bool, None,
        "stacked simulation and batched inference (0: per-pair paths)")
    interval_lru: int = _knob(
        1024, "REPRO_INTERVAL_LRU", _number(int, 1), None,
        "entries in the interval model's (trace, mode) memo")
    trace: str | None = _knob(
        None, "REPRO_TRACE", lambda raw: None if raw in ("", "0") else raw,
        "--trace", "JSON trace file (1: repro_trace.json; 0: off)",
        nargs="?", const="1", metavar="PATH")
    trace_sample: int = _knob(
        8, "REPRO_TRACE_SAMPLE", _number(int, 1), None,
        "keep 1 in N spans once the tracer's buffer is half full")
    serve_batch_max: int = _knob(
        8, "REPRO_SERVE_BATCH_MAX", _number(int, 1), "--serve-batch-max",
        "micro-batch bound: flush at this many pending requests")
    serve_queue_bound: int = _knob(
        64, "REPRO_SERVE_QUEUE_BOUND", _number(int, 1), "--serve-queue-bound",
        "admission queue depth beyond which requests are shed")
    serve_batch_timeout_s: float = _knob(
        30.0, "REPRO_SERVE_BATCH_TIMEOUT", _POSITIVE, "--serve-batch-timeout",
        "seconds a batch may run before the watchdog fails it")
    serve_breaker_threshold: int = _knob(
        3, "REPRO_SERVE_BREAKER_THRESHOLD", _number(int, 1), None,
        "consecutive batch failures that trip the breaker one rung")
    serve_breaker_cooldown_s: float = _knob(
        1.0, "REPRO_SERVE_BREAKER_COOLDOWN", _POSITIVE, None,
        "seconds a tripped breaker stays open before a half-open probe")
    serve_checkpoint: str | None = _knob(
        None, "REPRO_SERVE_CHECKPOINT", _text, "--checkpoint",
        "warm-state checkpoint file (unset: off)", metavar="PATH")
    serve_restarts: int = _knob(
        3, "REPRO_SERVE_RESTARTS", _number(int, 0), "--serve-restarts",
        "re-execs of a crashed daemon under --supervise")
    online_enabled: bool = _knob(
        False, "REPRO_ONLINE", _bool, "--online", "retrain on telemetry "
        "drift and hot-swap promoted models", action="store_true")
    online_ring: int = _knob(
        2048, "REPRO_ONLINE_RING", _number(int, 8), "--online-ring",
        "telemetry ring capacity (entries)")
    online_sample: int = _knob(
        1, "REPRO_ONLINE_SAMPLE", _number(int, 1), "--online-sample",
        "sample 1 in N served requests into the ring")
    online_drift_window: int = _knob(
        64, "REPRO_ONLINE_DRIFT_WINDOW", _number(int, 8),
        "--online-drift-window", "samples per drift-check window")
    online_drift_threshold: float = _knob(
        0.25, "REPRO_ONLINE_DRIFT_THRESHOLD", _POSITIVE,
        "--online-drift-threshold", "PSI score that trips a retrain")
    online_interval_s: float = _knob(
        2.0, "REPRO_ONLINE_INTERVAL_S", _POSITIVE, "--online-interval",
        "seconds between learner drift polls")

    def __post_init__(self) -> None:
        # Valid means the environment spelling parses back to the value.
        for knob in KNOBS.values():
            value = getattr(self, knob.name)
            if value is None:
                valid = knob.default is None
            else:
                valid = knob.parse_as(knob.name, knob.format(value)) == value
            if not valid:
                raise ValueError(f"{knob.name} cannot be {value!r}")

    @classmethod
    def from_env(cls) -> "ExecConfig":
        """Every knob from the environment, memoized on the raw strings
        (an unchanged environment costs a tuple compare)."""
        global _FROM_ENV_CACHE
        key = _env_memo_key()
        cached = _FROM_ENV_CACHE
        if cached is not None and cached[0] == key:
            return cached[1]
        config = cls(**{knob.name: knob.read() for knob in KNOBS.values()})
        _FROM_ENV_CACHE = (key, config)
        return config

    @classmethod
    def from_cli(cls, args) -> "ExecConfig":
        """:meth:`from_env` with the passed knob flags on top: the flags
        of :func:`repro.cli.build_parser` store their parsed value under
        the field name only when given."""
        given = {name: value for name, value in vars(args).items()
                 if name in KNOBS and KNOBS[name].flag}
        return dataclasses.replace(cls.from_env(), **given)

    def to_env(self) -> dict[str, str | None]:
        """Environment image (``None``: unset) that :meth:`from_env`
        maps back to an equal config."""
        return {knob.env: knob.format(getattr(self, knob.name))
                for knob in KNOBS.values()}

    def apply_env(self) -> None:
        """Write :meth:`to_env` into ``os.environ``, where process-pool
        workers inherit it (they do not see :meth:`override`)."""
        for var, value in self.to_env().items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value

    @contextlib.contextmanager
    def override(self):
        """Make this the active config for a ``with`` block."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous


#: Every runtime knob's declaration, by :class:`ExecConfig` field name.
KNOBS: dict[str, Knob] = {
    field.name: Knob(field.name, field.default, **field.metadata)
    for field in dataclasses.fields(ExecConfig)}

#: Every variable :meth:`ExecConfig.from_env` reads, in memo-key order.
EXEC_ENV_VARS = tuple(knob.env for knob in KNOBS.values())

# The memo key reads the environment's data mapping with pre-encoded
# names: ``os.environ.get`` re-encodes each name per lookup, which would
# dominate hot paths that read the active config per (trace, mode)
# pair. ``os.environ`` mutations update ``_data`` in place.
_ENV_DATA = getattr(os.environ, "_data", None)
_ENV_KEYS = (tuple(os.environ.encodekey(var) for var in EXEC_ENV_VARS)
             if _ENV_DATA is not None and hasattr(os.environ, "encodekey")
             else None)


def _env_memo_key() -> tuple:
    if _ENV_KEYS is not None:
        return tuple(map(_ENV_DATA.get, _ENV_KEYS))
    return tuple(os.environ.get(var) for var in EXEC_ENV_VARS)


_FROM_ENV_CACHE: tuple[tuple, ExecConfig] | None = None
_ACTIVE: ExecConfig | None = None


def active_exec_config() -> ExecConfig:
    """The :meth:`ExecConfig.override` config, else ``from_env()``."""
    return _ACTIVE if _ACTIVE is not None else ExecConfig.from_env()


def experiment_scale() -> float:
    """Return the dataset scale factor from ``REPRO_SCALE`` (default 1.0)."""
    raw = os.environ.get(SCALE_ENV_VAR, "1.0")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{SCALE_ENV_VAR} must be a float, got {raw!r}"
        ) from exc
    if value <= 0:
        raise ValueError(f"{SCALE_ENV_VAR} must be positive, got {value}")
    return value


def experiment_seed() -> int:
    """Return the global experiment seed from ``REPRO_SEED`` (default 7)."""
    raw = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV_VAR} must be an int, got {raw!r}") from exc


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Resources of one out-of-order execution cluster.

    The paper's core is a scaled Skylake with two such clusters
    (Figure 2); each cluster owns its scheduler, execution units and a
    Memory Execution Unit (MEU).
    """

    issue_width: int = 4
    scheduler_entries: int = 48
    load_queue_entries: int = 36
    store_queue_entries: int = 28
    mshr_entries: int = 4
    alu_units: int = 4
    fpu_units: int = 2
    load_ports: int = 2
    store_ports: int = 1


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """The full two-cluster CPU plus memory hierarchy and timing.

    ``width_high_perf``/``width_low_power`` are the effective issue
    widths in the two operating modes; all latencies are in core cycles.
    """

    frequency_ghz: float = 2.0
    cluster: ClusterConfig = dataclasses.field(default_factory=ClusterConfig)
    num_clusters: int = 2
    rob_entries: int = 224
    retire_width: int = 8
    # Memory hierarchy.
    l1i_kib: int = 32
    l1d_kib: int = 32
    l2_kib: int = 1024
    l3_kib: int = 8192
    line_bytes: int = 64
    l1_latency: int = 4
    l2_latency: int = 12
    l3_latency: int = 40
    memory_latency: int = 200
    # Front end.
    branch_mispredict_penalty: int = 16
    icache_miss_penalty: int = 20
    uop_cache_entries: int = 1536
    # TLBs.
    tlb_miss_penalty: int = 30
    # Cluster interplay.
    intercluster_latency: int = 2
    intercluster_uop_fraction: float = 0.15
    # Mode switching (Section 3): a microcode flow transfers up to 32
    # register dependencies, one micro-op each, taking low tens of
    # cycles while execution continues on cluster 1.
    max_register_transfers: int = 32
    mode_switch_base_cycles: int = 8

    @property
    def width_high_perf(self) -> int:
        """Issue width with both clusters enabled."""
        return self.cluster.issue_width * self.num_clusters

    @property
    def width_low_power(self) -> int:
        """Issue width with cluster 2 clock-gated."""
        return self.cluster.issue_width

    @property
    def peak_mips(self) -> float:
        """Peak instruction throughput in MIPS (Table 3: 16,000)."""
        return self.frequency_ghz * 1_000.0 * self.width_high_perf


@dataclasses.dataclass(frozen=True)
class MicrocontrollerConfig:
    """The existing on-die microcontroller that hosts adaptation models.

    Section 3: 500 MHz, single issue, integer and floating point but no
    vector instructions; 50% of its cycles are safely available for
    generating adaptation predictions.
    """

    frequency_mhz: float = 500.0
    issue_width: int = 1
    available_fraction: float = 0.5
    sram_bytes: int = 1 << 20  # 1 MiB firmware data budget.

    @property
    def mips(self) -> float:
        """Peak throughput in MIPS."""
        return self.frequency_mhz * self.issue_width

    def ops_budget(self, granularity_instructions: int,
                   machine: MachineConfig | None = None) -> int:
        """Ops available per prediction at a given gating granularity.

        Reproduces the left half of Table 3: the CPU retires
        ``peak_mips`` instructions per second, so a prediction every
        ``granularity_instructions`` leaves
        ``granularity / (cpu_mips / uc_mips)`` microcontroller ops, of
        which ``available_fraction`` may be used.
        """
        machine = machine or MachineConfig()
        ratio = machine.peak_mips / self.mips  # e.g. 16000/500 = 32
        max_ops = granularity_instructions / ratio
        return int(max_ops * self.available_fraction)


@dataclasses.dataclass(frozen=True)
class SLAConfig:
    """A service level agreement per Section 3.1.

    ``performance_floor`` is :math:`P_{SLA}`: low-power-mode IPC must be
    at least this fraction of high-performance-mode IPC. ``window_ms``
    is :math:`T_{SLA}`, the measurement window. ``guarantee`` is the
    fraction of windows that must meet the floor (99%).
    """

    performance_floor: float = 0.90
    window_ms: float = 1.0
    guarantee: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.performance_floor <= 1.0:
            raise ValueError(
                f"performance_floor must be in (0, 1], got "
                f"{self.performance_floor}"
            )
        if self.window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {self.window_ms}")
        if not 0.0 < self.guarantee <= 1.0:
            raise ValueError(f"guarantee must be in (0, 1], got {self.guarantee}")

    def window_predictions(self, machine: MachineConfig,
                           granularity_instructions: int) -> int:
        """Sample size ``W`` for the SLA-violation expectation (Eq. 2).

        ``W = R * T_SLA * L`` with R the peak instruction throughput and
        L the prediction rate; e.g. 16 G inst/s * 1 ms / 10k inst =
        1600 predictions.
        """
        per_second = machine.peak_mips * 1e6
        window_instructions = per_second * (self.window_ms / 1e3)
        return max(1, int(window_instructions / granularity_instructions))


#: The SLA used throughout the paper except Section 7.3.
DEFAULT_SLA = SLAConfig()

#: The two relaxed SLAs evaluated in Table 5.
RELAXED_SLAS = (SLAConfig(performance_floor=0.80),
                SLAConfig(performance_floor=0.70))

#: Gating granularities the architecture supports (Section 3).
SUPPORTED_GRANULARITIES = tuple(range(10_000, 110_000, 10_000))
