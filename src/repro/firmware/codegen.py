"""Compile trained estimators into firmware programs.

A firmware program is (a) a packed little-endian parameter image, the
bytes a firmware update would ship, and (b) an inference op schedule
whose per-primitive costs are calibrated to the paper's hand-optimised
microcontroller assembly:

* an inner-product step (load, multiply, accumulate — Listing 1) costs
  :data:`MAC_OPS`;
* a ReLU costs :data:`RELU_OPS` (the fldz/fucomi/fcmovnbe sequence);
* one branch-free decision-tree level (indexed load, compare, cmov —
  Listing 2) costs :data:`TREE_LEVEL_OPS`;
* evaluating the logistic function costs :data:`SIGMOID_OPS` (the
  paper notes ``exp()`` needs up to 60 operations with 12 branches).

Random-forest trees are padded to full depth with trivial comparisons,
exactly as the paper does to equalise prediction cost, which also
yields its 5-bytes-per-node footprint (1-byte feature index + 4-byte
threshold). The image packs the host's :class:`~repro.ml.tree.ForestTable`.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.ml.base import Estimator
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LogisticRegression
from repro.ml.mlp import MLPClassifier
from repro.ml.svm import KernelSVM, LinearSVM
from repro.ml.tree import DecisionTreeClassifier, ForestTable

#: Ops per multiply-accumulate (fld + fmul + fadd, Listing 1).
MAC_OPS = 3

#: Ops per ReLU activation (branch-free compare/select, Listing 1).
RELU_OPS = 4

#: Ops per branch-free tree level (indexed loads + fucompi + cmova,
#: Listing 2).
TREE_LEVEL_OPS = 8

#: Per-tree epilogue (leaf load + vote accumulate).
TREE_EPILOGUE_OPS = 3

#: Forest prologue/vote ops.
FOREST_OVERHEAD_OPS = 10

#: Evaluating the logistic function (exp() ~60 ops with 12 branches,
#: plus the add/divide).
SIGMOID_OPS = 120

#: Logistic-regression non-MAC overhead (bias add + compare).
LOGISTIC_OVERHEAD_OPS = 2

#: Per-member linear-SVM overhead (margin compare + calibration).
LINEAR_SVM_MEMBER_OVERHEAD = 46

#: Kernel-SVM per-support-vector per-dimension cost: subtract, square,
#: add, guarded divide, accumulate (branch-free chi-square distance).
KERNEL_DIM_OPS = 10


@dataclasses.dataclass(frozen=True)
class FirmwareProgram:
    """A compiled adaptation model."""

    kind: str
    image: bytes
    ops_per_prediction: int
    n_inputs: int
    metadata: dict

    @property
    def memory_bytes(self) -> int:
        """Honest firmware data footprint (the packed image size)."""
        return len(self.image)


def _pack_floats(values: np.ndarray) -> bytes:
    return np.asarray(values, dtype="<f4").tobytes()


# ----------------------------------------------------------------------
# MLP
# ----------------------------------------------------------------------
def compile_mlp(model: MLPClassifier) -> FirmwareProgram:
    """Pack an MLP: topology header, then per-layer weights and biases."""
    if model.weights_ is None or model.biases_ is None:
        raise NotFittedError("MLP must be fitted before compilation")
    assert model.scaler_ is not None
    sizes = [model.weights_[0].shape[0]]
    sizes += [w.shape[1] for w in model.weights_]
    header = struct.pack("<I", len(sizes))
    header += struct.pack(f"<{len(sizes)}I", *sizes)
    body = _pack_floats(model.scaler_.mean_)
    body += _pack_floats(model.scaler_.scale_)
    for w, b in zip(model.weights_, model.biases_):
        body += _pack_floats(w.ravel())
        body += _pack_floats(b)
    hidden_units = sum(sizes[1:-1])
    macs = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    ops = MAC_OPS * macs + RELU_OPS * hidden_units
    return FirmwareProgram(
        kind="mlp",
        image=header + body,
        ops_per_prediction=ops,
        n_inputs=sizes[0],
        metadata={"sizes": sizes,
                  "threshold": model.decision_threshold,
                  # Paper's Table-3 footprint convention: 8 bytes per
                  # filter (see EXPERIMENTS.md for the discrepancy with
                  # true parameter bytes).
                  "paper_footprint_bytes": 8 * hidden_units
                  + 8 * sizes[-1]},
    )


# ----------------------------------------------------------------------
# Decision trees / random forests
# ----------------------------------------------------------------------
def forest_ops(n_trees: int, depth: int) -> int:
    """Analytic random-forest (or, with one tree, tree) inference cost."""
    return (n_trees * (depth * TREE_LEVEL_OPS + TREE_EPILOGUE_OPS)
            + FOREST_OVERHEAD_OPS)


def _table_image(table: ForestTable) -> bytes:
    """Pack a heap table: per tree, uint8 features, float32 thresholds
    and leaf probabilities quantised to uint8 (x255, round half even)."""
    return np.concatenate(
        [table.features.astype(np.uint8),
         table.thresholds.astype("<f4").view(np.uint8),
         np.rint(table.leaves * 255).astype(np.uint8)], axis=1).tobytes()


def compile_tree(tree: DecisionTreeClassifier,
                 depth: int | None = None) -> FirmwareProgram:
    """Compile one decision tree (Table 3's depth-16 entry)."""
    if tree.feature_ is None:
        raise NotFittedError("tree must be fitted before compilation")
    depth = depth or tree.max_depth
    header = struct.pack("<II", depth, tree.n_features_ or 0)
    image = header + _table_image(ForestTable.from_trees([tree], depth))
    n_nodes = (1 << (depth + 1)) - 1
    return FirmwareProgram(
        kind="tree",
        image=image,
        ops_per_prediction=forest_ops(1, depth),
        n_inputs=tree.n_features_ or 0,
        metadata={"depth": depth,
                  "threshold": tree.decision_threshold,
                  "paper_footprint_bytes": 5 * n_nodes},
    )


def compile_forest(forest: RandomForestClassifier) -> FirmwareProgram:
    """Compile a random forest: its heap table plus a vote."""
    if forest.trees_ is None:
        raise NotFittedError("forest must be fitted before compilation")
    table = forest.table
    depth = table.depth
    n_features = forest.trees_[0].n_features_ or 0
    n_trees = len(forest.trees_)
    header = struct.pack("<III", n_trees, depth, n_features)
    n_nodes = n_trees * ((1 << (depth + 1)) - 1)
    return FirmwareProgram(
        kind="forest",
        image=header + _table_image(table),
        ops_per_prediction=forest_ops(n_trees, depth),
        n_inputs=n_features,
        metadata={"n_trees": n_trees, "depth": depth,
                  "threshold": forest.decision_threshold,
                  "paper_footprint_bytes": 5 * n_nodes},
    )


# ----------------------------------------------------------------------
# Linear models and SVMs
# ----------------------------------------------------------------------
def compile_logistic(model: LogisticRegression) -> FirmwareProgram:
    """Compile logistic regression: scaler, coefficients, intercept."""
    if model.coef_ is None:
        raise NotFittedError("logistic model must be fitted first")
    assert model.scaler_ is not None and model.intercept_ is not None
    d = model.coef_.shape[0]
    header = struct.pack("<I", d)
    image = (header + _pack_floats(model.scaler_.mean_)
             + _pack_floats(model.scaler_.scale_)
             + _pack_floats(model.coef_)
             + _pack_floats(np.array([model.intercept_])))
    ops = MAC_OPS * d + LOGISTIC_OVERHEAD_OPS + SIGMOID_OPS
    return FirmwareProgram(
        kind="logistic",
        image=image,
        ops_per_prediction=ops,
        n_inputs=d,
        metadata={"threshold": model.decision_threshold,
                  "paper_footprint_bytes": 8},
    )


def compile_linear_svm(model: LinearSVM) -> FirmwareProgram:
    """Compile a linear-SVM ensemble: per-member hyperplanes."""
    if model.coefs_ is None:
        raise NotFittedError("linear SVM must be fitted first")
    assert model.scaler_ is not None and model.intercepts_ is not None
    members, d = model.coefs_.shape
    header = struct.pack("<II", members, d)
    image = (header + _pack_floats(model.scaler_.mean_)
             + _pack_floats(model.scaler_.scale_)
             + _pack_floats(model.coefs_.ravel())
             + _pack_floats(model.intercepts_))
    ops = members * (MAC_OPS * d + LINEAR_SVM_MEMBER_OVERHEAD) + 2
    return FirmwareProgram(
        kind="linear_svm",
        image=image,
        ops_per_prediction=ops,
        n_inputs=d,
        metadata={"members": members,
                  "threshold": model.decision_threshold},
    )


def compile_kernel_svm(model: KernelSVM) -> FirmwareProgram:
    """Compile a kernel SVM: support vectors, duals, range scaling."""
    if model.support_x_ is None:
        raise NotFittedError("kernel SVM must be fitted first")
    assert (model.support_alpha_y_ is not None
            and model.intercept_ is not None
            and model._min is not None and model._range is not None)
    n_sv, d = model.support_x_.shape
    header = struct.pack("<II", n_sv, d)
    image = (header + _pack_floats(model._min)
             + _pack_floats(model._range)
             + _pack_floats(model.support_x_.ravel())
             + _pack_floats(model.support_alpha_y_)
             + _pack_floats(np.array([model.intercept_,
                                      model.gamma])))
    ops = n_sv * (KERNEL_DIM_OPS * d + 1) + SIGMOID_OPS
    return FirmwareProgram(
        kind="kernel_svm",
        image=image,
        ops_per_prediction=ops,
        n_inputs=d,
        metadata={"n_support": n_sv, "kernel": model.kernel_name,
                  "threshold": model.decision_threshold},
    )


def compile_srch(model: "object") -> FirmwareProgram:
    """Compile an SRCH estimator: bucket edges plus logistic weights.

    The bucketization itself is performed by the telemetry routing
    logic (which already bins values for histogram counters), so its
    cost is excluded, matching the paper's 572-op figure for 15
    counters x 10 buckets.
    """
    encoder = getattr(model, "encoder", None)
    logreg = getattr(model, "logreg", None)
    if encoder is None or logreg is None or logreg.coef_ is None:
        raise NotFittedError("SRCH model must be fitted first")
    assert encoder.edges_ is not None and logreg.scaler_ is not None
    n_counters, edge_count = encoder.edges_.shape
    n_features = logreg.coef_.shape[0]
    header = struct.pack("<III", n_counters, edge_count + 1, n_features)
    image = (header + _pack_floats(encoder.edges_.ravel())
             + _pack_floats(logreg.scaler_.mean_)
             + _pack_floats(logreg.scaler_.scale_)
             + _pack_floats(logreg.coef_)
             + _pack_floats(np.array([logreg.intercept_])))
    ops = MAC_OPS * n_features + LOGISTIC_OVERHEAD_OPS + SIGMOID_OPS
    return FirmwareProgram(
        kind="srch",
        image=image,
        ops_per_prediction=ops,
        n_inputs=n_counters,
        metadata={"n_buckets": edge_count + 1,
                  "threshold": getattr(model, "decision_threshold", 0.5)},
    )


def compile_model(model: Estimator) -> FirmwareProgram:
    """Compile any supported estimator by type dispatch."""
    if isinstance(model, MLPClassifier):
        return compile_mlp(model)
    if isinstance(model, RandomForestClassifier):
        return compile_forest(model)
    if isinstance(model, DecisionTreeClassifier):
        return compile_tree(model)
    if isinstance(model, LogisticRegression):
        return compile_logistic(model)
    if isinstance(model, LinearSVM):
        return compile_linear_svm(model)
    if isinstance(model, KernelSVM):
        return compile_kernel_svm(model)
    if type(model).__name__ == "SRCHEstimator":
        return compile_srch(model)
    raise ConfigurationError(
        f"no firmware backend for {type(model).__name__}"
    )
