"""Tests for firmware compilation, the VM, budgets and deployment."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import rng as rng_mod
from repro.errors import BudgetExceededError, ConfigurationError, NotFittedError
from repro.firmware import (
    FirmwareStore,
    FirmwareVM,
    Microcontroller,
    compile_model,
    cost_report,
)
from repro.firmware.codegen import (
    compile_forest,
    compile_logistic,
    compile_mlp,
    compile_srch,
    compile_tree,
)
from repro.firmware.deploy import package_firmware
from repro.firmware.opcount import forest_ops, mlp_ops
from repro.ml import (
    DecisionTreeClassifier,
    KernelSVM,
    LinearSVM,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    merge_forests,
)


@pytest.fixture(scope="module")
def data():
    rng = rng_mod.stream(1, "fw")
    x = np.abs(rng.normal(1.0, 0.5, (1500, 12)))
    y = ((x[:, 0] * x[:, 1] > x[:, 2]) | (x[:, 3] > 1.5)).astype(int)
    return x, y


@pytest.fixture(scope="module")
def vm():
    return FirmwareVM()


class TestBudgetTable:
    def test_compute_ratio_is_32(self):
        assert Microcontroller().compute_ratio == pytest.approx(32.0)

    def test_budget_rows_match_table3(self):
        rows = {r.granularity: (r.max_ops, r.ops_budget)
                for r in Microcontroller().budget_table()}
        assert rows[10_000] == (312, 156)
        assert rows[40_000] == (1250, 625)
        assert rows[100_000] == (3125, 1562)

    def test_finest_granularity_placements(self):
        """The paper's model placements: RF@40k, Best MLP@50k."""
        uc = Microcontroller()
        assert uc.finest_granularity(538) == 40_000
        assert uc.finest_granularity(678) == 50_000
        assert uc.finest_granularity(292) == 20_000

    def test_over_budget_model_rejected(self):
        with pytest.raises(BudgetExceededError):
            Microcontroller().finest_granularity(10_000)

    def test_fits_checks_memory_too(self):
        uc = Microcontroller()
        assert uc.fits(100, 10_000)
        assert not uc.fits(100, 10_000, memory_bytes=1 << 30)


class TestOpsFormulas:
    def test_best_mlp_cost_near_paper(self):
        """Paper: 3-layer 8/8/4 on 12 counters costs 678 ops."""
        ops = mlp_ops([12, 8, 8, 4, 1])
        assert abs(ops - 678) <= 15

    def test_large_mlp_cost_near_paper(self):
        """Paper: 3-layer 32/32/16 costs 6,162 ops."""
        ops = mlp_ops([12, 32, 32, 16, 1])
        assert abs(ops - 6162) / 6162 < 0.02

    def test_best_rf_cost_near_paper(self):
        """Paper: 8 trees of depth 8 cost 538 ops."""
        assert abs(forest_ops(8, 8) - 538) <= 10

    def test_depth16_tree_near_paper(self):
        """Paper: one depth-16 tree costs 133 ops."""
        assert abs(forest_ops(1, 16) - 133) <= 10


class TestCompileAndVM:
    def test_mlp_parity(self, data, vm):
        x, y = data
        model = MLPClassifier(hidden_layers=(8, 8, 4), epochs=15,
                              seed=2).fit(x, y)
        program = compile_mlp(model)
        trace = vm.run(program, x[:300])
        host = model.predict_proba(x[:300])
        assert np.abs(trace.probabilities - host).max() < 1e-4
        assert (trace.predictions == model.predict(x[:300])).mean() > 0.999

    def test_forest_parity(self, data, vm):
        x, y = data
        model = RandomForestClassifier(n_trees=8, max_depth=8,
                                       seed=2).fit(x, y)
        program = compile_forest(model)
        trace = vm.run(program, x[:300])
        host = model.predict_proba(x[:300])
        # Leaf probabilities quantised to 1/255.
        assert np.abs(trace.probabilities - host).max() < 0.01

    def test_tree_padding_preserves_semantics(self, data, vm):
        x, y = data
        model = DecisionTreeClassifier(max_depth=6).fit(x, y)
        program = compile_tree(model)
        trace = vm.run(program, x[:300])
        host = model.predict_proba(x[:300])
        assert np.abs(trace.probabilities - host).max() < 0.01

    def test_logistic_parity(self, data, vm):
        x, y = data
        model = LogisticRegression().fit(x, y)
        program = compile_logistic(model)
        trace = vm.run(program, x[:300])
        assert np.abs(trace.probabilities
                      - model.predict_proba(x[:300])).max() < 1e-5

    def test_linear_svm_parity(self, data, vm):
        x, y = data
        model = LinearSVM(n_members=5, seed=1).fit(x, y)
        trace = vm.run(compile_model(model), x[:200])
        assert np.abs(trace.probabilities
                      - model.predict_proba(x[:200])).max() < 1e-4

    def test_kernel_svm_parity(self, data, vm):
        x, y = data
        model = KernelSVM(kernel="chi2", max_support_vectors=150,
                          max_passes=2, seed=1).fit(x[:600], y[:600])
        trace = vm.run(compile_model(model), x[:100])
        assert np.abs(trace.probabilities
                      - model.predict_proba(x[:100])).max() < 1e-4

    def test_srch_parity(self, data, vm):
        from repro.core.pipeline import SRCHEstimator
        x, y = data
        model = SRCHEstimator().fit(x, y)
        trace = vm.run(compile_srch(model), x[:200])
        assert np.abs(trace.probabilities
                      - model.predict_proba(x[:200])).max() < 1e-4

    def test_ops_metered_equal_static(self, data, vm):
        x, y = data
        model = RandomForestClassifier(n_trees=4, max_depth=6,
                                       seed=2).fit(x, y)
        program = compile_model(model)
        trace = vm.run(program, x[:50])
        assert trace.ops_per_prediction == program.ops_per_prediction
        assert trace.ops_executed == 50 * program.ops_per_prediction

    def test_threshold_embedded(self, data, vm):
        x, y = data
        model = LogisticRegression().fit(x, y)
        model.decision_threshold = 0.9
        program = compile_logistic(model)
        trace = vm.run(program, x[:200])
        expected = (model.predict_proba(x[:200]) >= 0.9)
        assert (trace.predictions == expected).mean() > 0.99

    def test_unfitted_model_rejected(self):
        with pytest.raises(NotFittedError):
            compile_mlp(MLPClassifier())

    def test_wrong_input_width_rejected(self, data, vm):
        x, y = data
        program = compile_logistic(LogisticRegression().fit(x, y))
        with pytest.raises(ConfigurationError):
            vm.run(program, x[:10, :5])

    def test_cost_report_fields(self, data):
        x, y = data
        model = RandomForestClassifier(n_trees=8, max_depth=8,
                                       seed=1).fit(x, y)
        report = cost_report(model, "best_rf")
        assert report.finest_granularity == 40_000
        assert report.ops_per_prediction == forest_ops(8, 8)
        assert report.memory_bytes > 0
        # Paper accounting: 5 bytes/node on full trees = 20.44 KB.
        assert report.paper_footprint_bytes == pytest.approx(20_440)


def _reference_heap(tree, depth):
    """Recursive padding of one tree to a full heap (uint8 features,
    float32 thresholds, uint8 leaves): the packer the table replaces."""
    n_internal = (1 << depth) - 1
    features = np.zeros(n_internal, dtype=np.uint8)
    thresholds = np.full(n_internal, np.finfo(np.float32).max,
                         dtype=np.float32)
    leaves = np.zeros(1 << depth, dtype=np.uint8)

    def fill(node, heap, level):
        if level == depth:
            leaves[heap - n_internal] = np.uint8(
                round(tree.value_[node] * 255))
            return
        if tree.feature_[node] < 0:
            fill(node, 2 * heap + 1, level + 1)
            fill(node, 2 * heap + 2, level + 1)
            return
        features[heap] = np.uint8(tree.feature_[node])
        thresholds[heap] = np.float32(tree.threshold_[node])
        fill(int(tree.left_[node]), 2 * heap + 1, level + 1)
        fill(int(tree.right_[node]), 2 * heap + 2, level + 1)

    fill(0, 0, 0)
    return features, thresholds, leaves


def _reference_forest_image(forest):
    depth = forest.max_depth
    body = b"".join(b"".join(a.tobytes() for a in _reference_heap(t, depth))
                    for t in forest.trees_)
    return struct.pack("<III", len(forest.trees_), depth,
                       forest.trees_[0].n_features_) + body


def _reference_vm_forest(image, x):
    """Per-tree float32 walk over a forest image (the VM's old loop)."""
    n_trees, depth, _ = struct.unpack_from("<III", image, 0)
    offset, n_internal = 12, (1 << depth) - 1
    votes = np.zeros(x.shape[0], dtype=np.float32)
    for _ in range(n_trees):
        features = np.frombuffer(image, np.uint8, n_internal, offset)
        offset += n_internal
        thresholds = np.frombuffer(image, "<f4", n_internal, offset)
        offset += 4 * n_internal
        leaves = np.frombuffer(image, np.uint8, n_internal + 1, offset)
        offset += n_internal + 1
        idx = np.zeros(x.shape[0], dtype=np.int64)
        for _level in range(depth):
            go_right = x[np.arange(x.shape[0]),
                         features[idx]] > thresholds[idx]
            idx = 2 * idx + 1 + go_right
        votes += (leaves[idx - n_internal].astype(np.float32)
                  / np.float32(255.0))
    return votes / np.float32(n_trees)


def _vm_queries(forest, x):
    """float32 rows: data, split thresholds, +-inf, float32 max, NaN."""
    x32 = x.astype(np.float32)
    rows = [x32]
    specials = np.array([np.inf, -np.inf, np.finfo(np.float32).max,
                         -np.finfo(np.float32).max, np.nan],
                        dtype=np.float32)
    for col in range(x.shape[1]):
        block = x32[:len(specials)].copy()
        block[:, col] = specials
        rows.append(block)
    rows.append(np.full((1, x.shape[1]), np.nan, dtype=np.float32))
    for tree in forest.trees_:
        for node in np.flatnonzero(tree.feature_ >= 0):
            row = x32[node % len(x32)].copy()
            row[tree.feature_[node]] = np.float32(tree.threshold_[node])
            rows.append(row[None, :])
    return np.concatenate(rows)


def _fw_forest(seed, n_trees, depth, labels):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 7, size=(100, 5)).astype(float)
    if labels == "constant":
        y = np.full(100, seed % 2)
    else:
        y = ((x[:, 0] > 2) ^ (x[:, 1] > 3)).astype(int)
        y[rng.random(100) < 0.2] ^= 1
    return RandomForestClassifier(n_trees=n_trees, max_depth=depth,
                                  min_samples_leaf=2 + seed % 6,
                                  seed=seed).fit(x, y), x


class TestForestTableFirmware:
    """Images and VM outputs stay bit-identical to the per-tree code."""

    #: sha256 of images packed before forests shared one heap table.
    GOLDEN = {
        "forest_4x6": "35964a7365b9ddc1114948fd5467e4194ecc5d63"
                      "13927bfdde1063923b1432e7",
        "tree_6": "41d4cb9dd0d615ffc8439518a6fa6312349fcf8c"
                  "f0ca1bf54ac91af260eafc4e",
        "forest_3x10_early": "1f3bf90ccba26046dd19e95888e6408d51d1c7b2"
                             "5c6c039f9511985e7a6b73d7",
    }

    def test_image_bytes_unchanged(self, data):
        x, y = data
        images = {
            "forest_4x6": compile_forest(RandomForestClassifier(
                n_trees=4, max_depth=6, seed=2).fit(x, y)).image,
            "tree_6": compile_tree(
                DecisionTreeClassifier(max_depth=6).fit(x, y)).image,
            "forest_3x10_early": compile_forest(RandomForestClassifier(
                n_trees=3, max_depth=10, seed=5).fit(x[:400],
                                                     y[:400])).image,
        }
        digests = {name: hashlib.sha256(image).hexdigest()
                   for name, image in images.items()}
        assert digests == self.GOLDEN

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n_trees=st.integers(1, 12),
           depth=st.integers(1, 10),
           labels=st.sampled_from(["rule", "constant"]))
    def test_image_and_vm_match_per_tree_reference(self, seed, n_trees,
                                                   depth, labels):
        forest, x = _fw_forest(seed, n_trees, depth, labels)
        program = compile_forest(forest)
        assert program.image == _reference_forest_image(forest)
        queries = _vm_queries(forest, x)
        probs = FirmwareVM().run(program, queries).probabilities
        assert (probs.tobytes()
                == _reference_vm_forest(program.image, queries).tobytes())

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), depth=st.integers(1, 10),
           other_depth=st.integers(1, 10))
    def test_merged_forest_image_and_vm(self, seed, depth, other_depth):
        first, x = _fw_forest(seed, 2, depth, "rule")
        second, _ = _fw_forest(seed + 1, 3, other_depth, "rule")
        merged = merge_forests(first, second)
        program = compile_forest(merged)
        assert program.image == _reference_forest_image(merged)
        queries = _vm_queries(merged, x)
        probs = FirmwareVM().run(program, queries).probabilities
        assert (probs.tobytes()
                == _reference_vm_forest(program.image, queries).tobytes())

    def test_tree_program_matches_one_tree_forest(self, data, vm):
        x, y = data
        tree = DecisionTreeClassifier(max_depth=7, min_samples_leaf=40,
                                      ).fit(x, y)
        program = compile_tree(tree)
        heap = b"".join(a.tobytes() for a in _reference_heap(tree, 7))
        assert program.image == struct.pack("<II", 7, 12) + heap
        forest_image = struct.pack("<III", 1, 7, 12) + heap
        queries = np.concatenate([x[:200].astype(np.float32),
                                  np.full((2, 12), np.nan, np.float32),
                                  np.full((2, 12), np.inf, np.float32)])
        assert (vm.run(program, queries).probabilities.tobytes()
                == _reference_vm_forest(forest_image, queries).tobytes())


class TestDeploy:
    def _predictor(self, data):
        from repro.core.predictor import DualModePredictor
        from repro.uarch.modes import Mode
        x, y = data
        models = {mode: LogisticRegression().fit(x, y) for mode in Mode}
        return DualModePredictor("lr", models, np.arange(12), 4)

    def test_package_and_verify(self, data):
        image = package_firmware(self._predictor(data))
        assert image.verify()
        assert image.total_bytes > 0
        assert "checksum" in image.manifest()

    def test_tampered_image_rejected(self, data):
        import dataclasses
        image = package_firmware(self._predictor(data))
        bad = dataclasses.replace(image, checksum="0" * 64)
        store = FirmwareStore()
        with pytest.raises(ConfigurationError):
            store.install(bad)

    def test_install_activate_rollback(self, data):
        store = FirmwareStore()
        v1 = package_firmware(self._predictor(data), version=1)
        v2 = package_firmware(self._predictor(data), version=2)
        store.install(v1)
        store.install(v2)
        assert store.active.version == 2
        rolled = store.rollback()
        assert rolled.version == 1
        assert store.active.version == 1

    def test_activate_by_name(self, data):
        store = FirmwareStore()
        v1 = package_firmware(self._predictor(data), version=1)
        v2 = package_firmware(self._predictor(data), version=2)
        store.install(v1)
        store.install(v2, activate=False)
        assert store.active.version == 1
        store.activate("lr", 2)
        assert store.active.version == 2

    def test_rollback_without_history_rejected(self):
        with pytest.raises(ConfigurationError):
            FirmwareStore().rollback()

    def test_capacity_evicts_oldest_inactive(self, data):
        store = FirmwareStore(capacity=2)
        for version in (1, 2, 3):
            store.install(package_firmware(self._predictor(data),
                                           version=version))
        versions = [img.version for img in store.history]
        assert len(versions) == 2
        assert store.active.version == 3
