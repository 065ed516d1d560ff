"""Firmware virtual machine.

Executes compiled :class:`~repro.firmware.codegen.FirmwareProgram`
images with float32 arithmetic — the microcontroller supports scalar
integer and floating point only — and meters executed operations using
the same per-primitive costs the compiler charges, so measured cost
equals the static ``ops_per_prediction``. Outputs match the host numpy
models to float32 tolerance; a parity test guards this. Trees and
forests run the host's :class:`~repro.ml.tree.ForestTable` walk.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

from repro.errors import ConfigurationError
from repro.firmware import codegen
from repro.firmware.codegen import FirmwareProgram
from repro.ml.tree import ForestTable

_F32 = np.float32


def _sigmoid32(z: np.ndarray) -> np.ndarray:
    z = z.astype(_F32)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = _F32(1.0) / (_F32(1.0) + np.exp(-z[pos], dtype=_F32))
    ez = np.exp(z[~pos], dtype=_F32)
    out[~pos] = ez / (_F32(1.0) + ez)
    return out


def _run_heaps(buf: bytes, offset: int, n_trees: int, depth: int,
               x: np.ndarray) -> tuple[np.ndarray, int]:
    """Walk a packed heap table through its quantised view: uint8
    features, float32 thresholds and leaf probabilities uint8 / 255."""
    n_internal = (1 << depth) - 1
    rows = np.frombuffer(buf, np.uint8, n_trees * (6 * n_internal + 1),
                         offset).reshape(n_trees, -1)
    table = ForestTable(
        depth, rows[:, :n_internal].astype(np.intp),
        np.ascontiguousarray(rows[:, n_internal:5 * n_internal]).view("<f4"),
        rows[:, 5 * n_internal:].astype(_F32) / _F32(255.0))
    return table.predict_proba(x), codegen.forest_ops(n_trees, depth)


@dataclasses.dataclass
class ExecutionTrace:
    """Accounting of one batch execution."""

    predictions: np.ndarray
    probabilities: np.ndarray
    ops_executed: int
    ops_per_prediction: int


class FirmwareVM:
    """Interprets firmware programs over batches of counter vectors."""

    def run(self, program: FirmwareProgram, x: np.ndarray,
            ) -> ExecutionTrace:
        """Execute a program on every row of ``x``."""
        x = np.asarray(x, dtype=_F32)
        if x.ndim != 2:
            raise ConfigurationError(f"X must be 2-D, got {x.shape}")
        if x.shape[1] != program.n_inputs:
            raise ConfigurationError(
                f"program expects {program.n_inputs} inputs, got "
                f"{x.shape[1]}"
            )
        handler = getattr(self, f"_run_{program.kind}", None)
        if handler is None:
            raise ConfigurationError(f"unknown program kind {program.kind}")
        probs, ops_each = handler(program, x)
        threshold = _F32(program.metadata.get("threshold", 0.5))
        return ExecutionTrace(
            predictions=(probs >= threshold).astype(np.int64),
            probabilities=probs,
            ops_executed=ops_each * x.shape[0],
            ops_per_prediction=ops_each,
        )

    # ------------------------------------------------------------------
    def _run_mlp(self, program: FirmwareProgram, x: np.ndarray,
                 ) -> tuple[np.ndarray, int]:
        buf = program.image
        (n_sizes,) = struct.unpack_from("<I", buf, 0)
        sizes = struct.unpack_from(f"<{n_sizes}I", buf, 4)
        offset = 4 + 4 * n_sizes
        d = sizes[0]
        mean = np.frombuffer(buf, "<f4", d, offset); offset += 4 * d
        scale = np.frombuffer(buf, "<f4", d, offset); offset += 4 * d
        h = ((x - mean) / scale).astype(_F32)
        ops = 0
        last = len(sizes) - 2
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            w = np.frombuffer(buf, "<f4", fan_in * fan_out, offset)
            offset += 4 * fan_in * fan_out
            b = np.frombuffer(buf, "<f4", fan_out, offset)
            offset += 4 * fan_out
            z = h @ w.reshape(fan_in, fan_out).astype(_F32) + b
            ops += codegen.MAC_OPS * fan_in * fan_out
            if i == last:
                h = _sigmoid32(z)
            else:
                h = np.maximum(z, _F32(0.0))
                ops += codegen.RELU_OPS * fan_out
        return h[:, 0], ops

    def _run_forest(self, program: FirmwareProgram, x: np.ndarray,
                    ) -> tuple[np.ndarray, int]:
        n_trees, depth, _ = struct.unpack_from("<III", program.image, 0)
        return _run_heaps(program.image, 12, n_trees, depth, x)

    def _run_tree(self, program: FirmwareProgram, x: np.ndarray,
                  ) -> tuple[np.ndarray, int]:
        depth, _ = struct.unpack_from("<II", program.image, 0)
        return _run_heaps(program.image, 8, 1, depth, x)

    def _run_logistic(self, program: FirmwareProgram, x: np.ndarray,
                      ) -> tuple[np.ndarray, int]:
        buf = program.image
        (d,) = struct.unpack_from("<I", buf, 0)
        offset = 4
        mean = np.frombuffer(buf, "<f4", d, offset); offset += 4 * d
        scale = np.frombuffer(buf, "<f4", d, offset); offset += 4 * d
        coef = np.frombuffer(buf, "<f4", d, offset); offset += 4 * d
        (intercept,) = np.frombuffer(buf, "<f4", 1, offset)
        z = ((x - mean) / scale).astype(_F32) @ coef + intercept
        ops = (codegen.MAC_OPS * d + codegen.LOGISTIC_OVERHEAD_OPS
               + codegen.SIGMOID_OPS)
        return _sigmoid32(z), ops

    def _run_linear_svm(self, program: FirmwareProgram, x: np.ndarray,
                        ) -> tuple[np.ndarray, int]:
        buf = program.image
        members, d = struct.unpack_from("<II", buf, 0)
        offset = 8
        mean = np.frombuffer(buf, "<f4", d, offset); offset += 4 * d
        scale = np.frombuffer(buf, "<f4", d, offset); offset += 4 * d
        coefs = np.frombuffer(buf, "<f4", members * d, offset)
        offset += 4 * members * d
        intercepts = np.frombuffer(buf, "<f4", members, offset)
        xs = ((x - mean) / scale).astype(_F32)
        margins = xs @ coefs.reshape(members, d).T.astype(_F32) + intercepts
        ops = (members * (codegen.MAC_OPS * d
                          + codegen.LINEAR_SVM_MEMBER_OVERHEAD) + 2)
        return _sigmoid32(margins.mean(axis=1, dtype=_F32)), ops

    def _run_kernel_svm(self, program: FirmwareProgram, x: np.ndarray,
                        ) -> tuple[np.ndarray, int]:
        buf = program.image
        n_sv, d = struct.unpack_from("<II", buf, 0)
        offset = 8
        lo = np.frombuffer(buf, "<f4", d, offset); offset += 4 * d
        rng = np.frombuffer(buf, "<f4", d, offset); offset += 4 * d
        sv = np.frombuffer(buf, "<f4", n_sv * d, offset).reshape(n_sv, d)
        offset += 4 * n_sv * d
        alpha_y = np.frombuffer(buf, "<f4", n_sv, offset)
        offset += 4 * n_sv
        intercept, gamma = np.frombuffer(buf, "<f4", 2, offset)
        xs = np.clip((x - lo) / rng, _F32(0.0), _F32(1.0)).astype(_F32)
        diff = xs[:, None, :] - sv[None, :, :]
        denom = xs[:, None, :] + sv[None, :, :]
        denom = np.where(denom <= 0, _F32(1.0), denom)
        dist = (diff * diff / denom).sum(axis=2, dtype=_F32)
        gram = np.exp(-gamma * dist, dtype=_F32)
        z = gram @ alpha_y + intercept
        ops = n_sv * (codegen.KERNEL_DIM_OPS * d + 1) + codegen.SIGMOID_OPS
        return _sigmoid32(z), ops

    def _run_srch(self, program: FirmwareProgram, x: np.ndarray,
                  ) -> tuple[np.ndarray, int]:
        buf = program.image
        n_counters, n_buckets, n_features = struct.unpack_from("<III",
                                                               buf, 0)
        offset = 12
        n_edges = n_counters * (n_buckets - 1)
        edges = np.frombuffer(buf, "<f4", n_edges, offset).reshape(
            n_counters, n_buckets - 1)
        offset += 4 * n_edges
        mean = np.frombuffer(buf, "<f4", n_features, offset)
        offset += 4 * n_features
        scale = np.frombuffer(buf, "<f4", n_features, offset)
        offset += 4 * n_features
        coef = np.frombuffer(buf, "<f4", n_features, offset)
        offset += 4 * n_features
        (intercept,) = np.frombuffer(buf, "<f4", 1, offset)
        features = np.zeros((x.shape[0], n_features), dtype=_F32)
        for c in range(n_counters):
            buckets = np.searchsorted(edges[c], x[:, c], side="right")
            features[np.arange(x.shape[0]), c * n_buckets + buckets] = 1.0
        z = ((features - mean) / scale).astype(_F32) @ coef + intercept
        ops = (codegen.MAC_OPS * n_features
               + codegen.LOGISTIC_OVERHEAD_OPS + codegen.SIGMOID_OPS)
        return _sigmoid32(z), ops
