"""Tests for the from-scratch ML estimators."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import rng as rng_mod
from repro.errors import ConfigurationError, DatasetError, NotFittedError
from repro.ml import (
    DecisionTreeClassifier,
    KernelSVM,
    LinearSVM,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    SoftmaxRegression,
    StandardScaler,
    merge_forests,
)
from repro.ml.base import tune_threshold_for_fp_rate
from repro.ml.tree import ForestTable
from repro.ml.metrics_ml import accuracy


@pytest.fixture(scope="module")
def linear_data():
    rng = rng_mod.stream(1, "lin")
    x = rng.normal(size=(1500, 6))
    y = (x @ np.array([1.0, -2.0, 0.5, 0.0, 0.0, 1.5]) > 0).astype(int)
    return x, y


@pytest.fixture(scope="module")
def xor_data():
    rng = rng_mod.stream(2, "xor")
    x = rng.normal(size=(2500, 4))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
    return x, y


class TestStandardScaler:
    def test_zero_mean_unit_std(self, linear_data):
        x, _ = linear_data
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_safe(self):
        x = np.ones((10, 2))
        z = StandardScaler().fit_transform(x)
        assert np.all(np.isfinite(z))

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((2, 2)))


class TestLogisticRegression:
    def test_learns_linear_boundary(self, linear_data):
        x, y = linear_data
        model = LogisticRegression().fit(x[:1000], y[:1000])
        assert accuracy(y[1000:], model.predict(x[1000:])) > 0.95

    def test_fails_on_xor(self, xor_data):
        x, y = xor_data
        model = LogisticRegression().fit(x[:2000], y[:2000])
        assert accuracy(y[2000:], model.predict(x[2000:])) < 0.65

    def test_probabilities_in_unit_interval(self, linear_data):
        x, y = linear_data
        probs = LogisticRegression().fit(x, y).predict_proba(x)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict_proba(np.zeros((2, 3)))

    def test_nan_features_rejected(self):
        x = np.full((4, 2), np.nan)
        with pytest.raises(DatasetError):
            LogisticRegression().fit(x, np.zeros(4))


class TestSoftmaxRegression:
    def test_binary_matches_logistic(self, linear_data):
        x, y = linear_data
        soft = SoftmaxRegression().fit(x[:1000], y[:1000])
        logi = LogisticRegression(class_weight=None).fit(x[:1000], y[:1000])
        p_soft = soft.predict_proba(x[1000:])[:, 1]
        p_logi = logi.predict_proba(x[1000:])
        agree = ((p_soft > 0.5) == (p_logi > 0.5)).mean()
        assert agree > 0.98

    def test_multiclass(self):
        rng = rng_mod.stream(3, "multi")
        x = rng.normal(size=(900, 2))
        y = (x[:, 0] > 0).astype(int) + 2 * (x[:, 1] > 0).astype(int)
        model = SoftmaxRegression().fit(x[:700], y[:700])
        preds = model.predict(x[700:])
        assert (preds == y[700:]).mean() > 0.9
        assert np.allclose(model.predict_proba(x[:5]).sum(axis=1), 1.0)


class TestMLP:
    def test_learns_xor(self, xor_data):
        x, y = xor_data
        model = MLPClassifier(hidden_layers=(16, 16), epochs=40,
                              seed=4).fit(x[:2000], y[:2000])
        assert accuracy(y[2000:], model.predict(x[2000:])) > 0.9

    def test_loss_decreases(self, xor_data):
        x, y = xor_data
        model = MLPClassifier(hidden_layers=(8,), epochs=20, seed=4)
        model.fit(x, y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_deterministic_given_seed(self, linear_data):
        x, y = linear_data
        a = MLPClassifier(epochs=5, seed=9).fit(x, y).predict_proba(x[:20])
        b = MLPClassifier(epochs=5, seed=9).fit(x, y).predict_proba(x[:20])
        assert np.allclose(a, b)

    def test_n_parameters(self, linear_data):
        x, y = linear_data
        model = MLPClassifier(hidden_layers=(8, 4), epochs=1).fit(x, y)
        expected = 6 * 8 + 8 + 8 * 4 + 4 + 4 * 1 + 1
        assert model.n_parameters == expected

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier(hidden_layers=(0,))

    def test_threshold_changes_predictions(self, linear_data):
        x, y = linear_data
        model = MLPClassifier(epochs=8, seed=4).fit(x, y)
        model.decision_threshold = 0.99
        conservative = model.predict(x).sum()
        model.decision_threshold = 0.01
        aggressive = model.predict(x).sum()
        assert aggressive > conservative


class TestTree:
    def test_learns_axis_aligned_rule(self):
        rng = rng_mod.stream(5, "tree")
        x = rng.normal(size=(800, 3))
        y = ((x[:, 1] > 0.3) & (x[:, 2] < 0.0)).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(x[:600], y[:600])
        assert accuracy(y[600:], tree.predict(x[600:])) > 0.95

    def test_depth_cap(self, xor_data):
        x, y = xor_data
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        assert tree.depth <= 3

    def test_min_samples_leaf(self):
        rng = rng_mod.stream(6, "leaf")
        x = rng.normal(size=(100, 2))
        y = (rng.random(100) < 0.5).astype(int)
        tree = DecisionTreeClassifier(max_depth=10,
                                      min_samples_leaf=20).fit(x, y)
        # No leaf probability should come from fewer than ~20 samples;
        # proxy: the tree stays small.
        assert tree.n_nodes < 15

    def test_pure_node_stops(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(max_depth=5, min_samples_leaf=1,
                                      min_samples_split=2).fit(x, y)
        assert tree.depth == 1
        assert np.array_equal(tree.predict(x), y)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((2, 2)))


class TestForest:
    def test_learns_xor(self, xor_data):
        x, y = xor_data
        rf = RandomForestClassifier(n_trees=8, max_depth=8,
                                    seed=3).fit(x[:2000], y[:2000])
        assert accuracy(y[2000:], rf.predict(x[2000:])) > 0.85

    def test_probability_is_mean_vote(self, xor_data):
        x, y = xor_data
        rf = RandomForestClassifier(n_trees=4, max_depth=4,
                                    seed=3).fit(x[:500], y[:500])
        votes = np.mean([t.predict_proba(x[:50]) for t in rf.trees_],
                        axis=0)
        assert np.allclose(rf.predict_proba(x[:50]), votes)

    def test_merge_forests(self, xor_data):
        x, y = xor_data
        a = RandomForestClassifier(n_trees=4, seed=1).fit(x[:800], y[:800])
        b = RandomForestClassifier(n_trees=4, seed=2).fit(x[:800], y[:800])
        merged = merge_forests(a, b)
        assert merged.n_trees == 8
        assert len(merged.trees_) == 8
        expected = 0.5 * (a.predict_proba(x[:50])
                          + b.predict_proba(x[:50]))
        assert np.allclose(merged.predict_proba(x[:50]), expected)

    def test_merge_unfitted_rejected(self):
        with pytest.raises(NotFittedError):
            merge_forests(RandomForestClassifier(),
                          RandomForestClassifier())

    def test_invalid_tree_count_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomForestClassifier(n_trees=0)


def _reference_tree_proba(tree, x):
    """Per-node CART walk: the reference the heap table replaces."""
    nodes = np.zeros(x.shape[0], dtype=np.int64)
    active = tree.feature_[nodes] >= 0
    while active.any():
        cur = nodes[active]
        go_left = x[active, tree.feature_[cur]] <= tree.threshold_[cur]
        nodes[active] = np.where(go_left, tree.left_[cur],
                                 tree.right_[cur])
        active = tree.feature_[nodes] >= 0
    return tree.value_[nodes]


def _reference_forest_proba(forest, x):
    """Per-tree loop, votes summed in tree order."""
    votes = np.zeros(x.shape[0])
    for tree in forest.trees_:
        votes += _reference_tree_proba(tree, x)
    return votes / len(forest.trees_)


def _threshold_rows(trees, x):
    """Rows whose split feature sits exactly on a split threshold."""
    rows = []
    for tree in trees:
        for node in np.flatnonzero(tree.feature_ >= 0):
            row = x[node % x.shape[0]].copy()
            row[tree.feature_[node]] = tree.threshold_[node]
            rows.append(row)
    return np.array(rows).reshape(-1, x.shape[1])


def _table_forest(seed, n_trees, depth, labels, min_leaf):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 7, size=(120, 4)).astype(float)
    if labels == "constant":  # every tree is a single leaf
        y = np.full(120, seed % 2)
    elif labels == "rule":
        y = ((x[:, 0] > 2) ^ (x[:, 1] > 3)).astype(int)
    else:
        y = (rng.random(120) < 0.5).astype(int)
    forest = RandomForestClassifier(n_trees=n_trees, max_depth=depth,
                                    min_samples_leaf=min_leaf,
                                    seed=seed).fit(x, y)
    queries = np.concatenate([x, rng.normal(3.0, 3.0, size=(40, 4)),
                              _threshold_rows(forest.trees_, x)])
    return forest, queries


_FOREST_CASES = dict(
    seed=st.integers(0, 2**16), n_trees=st.integers(1, 12),
    depth=st.integers(1, 10),
    labels=st.sampled_from(["random", "rule", "constant"]),
    min_leaf=st.sampled_from([1, 4, 16]))


class TestForestTable:
    """The stacked heap walk is bit-identical to per-tree walks."""

    @settings(max_examples=30, deadline=None)
    @given(**_FOREST_CASES)
    def test_forest_matches_per_tree_walk(self, seed, n_trees, depth,
                                          labels, min_leaf):
        forest, queries = _table_forest(seed, n_trees, depth, labels,
                                        min_leaf)
        assert (forest.predict_proba(queries).tobytes()
                == _reference_forest_proba(forest, queries).tobytes())
        for tree in forest.trees_:
            assert (tree.predict_proba(queries).tobytes()
                    == _reference_tree_proba(tree, queries).tobytes())

    @settings(max_examples=15, deadline=None)
    @given(**_FOREST_CASES, other_depth=st.integers(1, 10))
    def test_merged_forest_matches_per_tree_walk(self, seed, n_trees,
                                                 depth, labels, min_leaf,
                                                 other_depth):
        first, queries = _table_forest(seed, n_trees, depth, labels,
                                       min_leaf)
        second, _ = _table_forest(seed + 1, 3, other_depth, "rule", 4)
        merged = merge_forests(first, second)
        assert merged.table.depth == max(depth, other_depth)
        assert (merged.predict_proba(queries).tobytes()
                == _reference_forest_proba(merged, queries).tobytes())

    def test_single_leaf_and_early_stopping_trees(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        leaf = DecisionTreeClassifier(max_depth=4).fit(x, np.ones(4))
        assert leaf.n_nodes == 1
        assert ForestTable.from_trees([leaf], 4).features.shape == (1, 15)
        assert np.array_equal(leaf.predict_proba(x), np.ones(4))
        early = DecisionTreeClassifier(max_depth=6, min_samples_leaf=1,
                                       min_samples_split=2).fit(
            x, np.array([0, 0, 1, 1]))
        assert early.depth == 1
        probe = np.array([[1.5], [1.5000001], [-1e300], [1e300]])
        assert (early.predict_proba(probe).tobytes()
                == _reference_tree_proba(early, probe).tobytes())

    def test_pickle_without_table_predicts_identically(self, xor_data):
        x, y = xor_data
        forest = RandomForestClassifier(n_trees=5, max_depth=6,
                                        seed=4).fit(x[:600], y[:600])
        expected = forest.predict_proba(x[600:900]).tobytes()
        # A checkpoint written before the table existed has no table_.
        del forest.__dict__["table_"]
        clone = pickle.loads(pickle.dumps(forest))
        assert "table_" not in clone.__dict__
        assert clone.predict_proba(x[600:900]).tobytes() == expected
        assert isinstance(clone.table_, ForestTable)

    def test_table_shape_and_dtypes(self, xor_data):
        x, y = xor_data
        forest = RandomForestClassifier(n_trees=3, max_depth=5,
                                        seed=1).fit(x[:400], y[:400])
        table = forest.table
        assert table.features.shape == (3, 31)
        assert table.thresholds.shape == (3, 31)
        assert table.leaves.shape == (3, 32)
        assert table.thresholds.dtype == np.float64
        assert table.leaves.dtype == np.float64

    def test_tree_deeper_than_table_rejected(self, xor_data):
        x, y = xor_data
        tree = DecisionTreeClassifier(max_depth=6).fit(x[:400], y[:400])
        assert tree.depth > 2
        with pytest.raises(ConfigurationError, match="deeper"):
            ForestTable.from_trees([tree], 2)


class TestSVMs:
    def test_linear_svm_separates(self, linear_data):
        x, y = linear_data
        svm = LinearSVM().fit(x[:1000], y[:1000])
        assert accuracy(y[1000:], svm.predict(x[1000:])) > 0.93

    def test_linear_svm_ensemble(self, linear_data):
        x, y = linear_data
        svm = LinearSVM(n_members=5, seed=3).fit(x[:1000], y[:1000])
        assert svm.coefs_.shape[0] == 5
        assert accuracy(y[1000:], svm.predict(x[1000:])) > 0.9

    def test_kernel_svm_beats_linear_on_ring(self):
        rng = rng_mod.stream(7, "ring")
        x = np.abs(rng.normal(size=(1200, 2)))
        radius = np.linalg.norm(x, axis=1)
        y = ((radius > 0.8) & (radius < 1.8)).astype(int)
        lin = LinearSVM().fit(x[:900], y[:900])
        ker = KernelSVM(kernel="rbf", gamma=4.0, max_support_vectors=300,
                        max_passes=4, seed=1).fit(x[:900], y[:900])
        acc_lin = accuracy(y[900:], lin.predict(x[900:]))
        acc_ker = accuracy(y[900:], ker.predict(x[900:]))
        assert acc_ker > acc_lin

    def test_support_vector_budget(self, linear_data):
        x, y = linear_data
        svm = KernelSVM(kernel="linear", max_support_vectors=100,
                        max_passes=2).fit(x, y)
        assert svm.n_support <= 100

    def test_chi2_kernel_requires_non_negative(self):
        from repro.ml.kernels import chi2_kernel
        with pytest.raises(ConfigurationError):
            chi2_kernel(np.array([[-1.0]]), np.array([[1.0]]))

    def test_unknown_kernel_rejected(self):
        from repro.ml.kernels import get_kernel
        with pytest.raises(ConfigurationError):
            get_kernel("sinc")


class TestThresholdTuning:
    def test_fp_rate_bounded_after_tuning(self, linear_data):
        x, y = linear_data
        model = LogisticRegression().fit(x, y)
        tune_threshold_for_fp_rate(model, x, y, max_fp_rate=0.01)
        preds = model.predict(x)
        fp_rate = ((preds == 1) & (y == 0)).sum() / max((y == 0).sum(), 1)
        assert fp_rate <= 0.015

    def test_tuning_never_lowers_below_half(self, linear_data):
        x, y = linear_data
        model = LogisticRegression().fit(x, y)
        threshold = tune_threshold_for_fp_rate(model, x, y, 0.5)
        assert threshold >= 0.5
