"""CART decision-tree classifier.

The paper trains random-forest adaptation models with "an open source
implementation of the CART algorithm that greedily grows trees by
partitioning tuning samples into groups to minimize label entropy"
(Section 7). This is that algorithm: exhaustive threshold search per
feature using sorted prefix sums (vectorised in numpy), entropy
criterion, recursive growth to a depth cap.

The fitted tree is stored as flat arrays (feature, threshold, children,
leaf probability). Prediction walks a :class:`ForestTable` instead:
every tree padded to a full heap of one depth, as the paper's firmware
does to equalise prediction cost (Section 6.3, Listing 2), and stacked.
Trees, forests, the firmware compiler (which packs the table) and the
firmware VM (which walks the packed image) share that one walk.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import rng as rng_mod
from repro.errors import ConfigurationError
from repro.ml.base import Estimator, check_xy


def entropy(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Binary entropy of ``pos`` positives out of ``total`` samples."""
    total = np.maximum(total, 1e-12)
    p = np.clip(pos / total, 1e-12, 1.0 - 1e-12)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


#: Threshold of a padding node (feature 0), exact in the firmware
#: image's float32. Both subtrees of a padding node carry one leaf, so
#: the comparison's outcome never matters.
PAD_THRESHOLD = float(np.finfo(np.float32).max)


def _full_heap(tree: DecisionTreeClassifier, depth: int,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad a fitted tree to a full heap of ``depth`` levels: (features,
    thresholds, leaf values), node ``i``'s children at ``2i+1``/``2i+2``.
    Per level, each CART node maps to its children and an early leaf to
    itself twice, so its whole padded subtree carries its value."""
    features = np.zeros((1 << depth) - 1, dtype=np.intp)
    thresholds = np.full((1 << depth) - 1, PAD_THRESHOLD)
    nodes = np.zeros(1, dtype=np.intp)
    for level in range(depth):
        heap = slice((1 << level) - 1, (2 << level) - 1)
        split = tree.feature_[nodes] >= 0
        features[heap] = np.where(split, tree.feature_[nodes], 0)
        thresholds[heap] = np.where(split, tree.threshold_[nodes],
                                    PAD_THRESHOLD)
        nodes = np.stack([np.where(split, tree.left_[nodes], nodes),
                          np.where(split, tree.right_[nodes], nodes)],
                         axis=1).ravel()
    if np.any(tree.feature_[nodes] >= 0):
        raise ConfigurationError(
            f"tree is deeper than the {depth}-level table it is padded to"
        )
    return features, thresholds, tree.value_[nodes]


@dataclasses.dataclass(frozen=True, eq=False)
class ForestTable:
    """Every tree of an ensemble as one stack of full, equal-depth heaps.

    ``features``/``thresholds`` are ``(T, 2^depth - 1)`` and ``leaves``
    ``(T, 2^depth)``, in heap order. Host tables hold float64; the
    firmware VM's hold an image's float32 thresholds and leaves / 255.
    """

    depth: int
    features: np.ndarray
    thresholds: np.ndarray
    leaves: np.ndarray

    @classmethod
    def from_trees(cls, trees: list[DecisionTreeClassifier],
                   depth: int) -> ForestTable:
        """Stack fitted trees, each padded to ``depth`` levels."""
        heaps = [_full_heap(tree, depth) for tree in trees]
        return cls(depth, *(np.stack(arrays) for arrays in zip(*heaps)))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Mean tree vote per row.

        All trees × rows advance one level per step, going right on
        ``x > threshold`` (a NaN, which only the VM admits, goes left).
        ``np.add.accumulate`` sums votes in tree order, as a loop would.
        """
        n_trees, n_internal = self.features.shape
        n_rows, n_cols = x.shape
        flat_x = np.ravel(x)
        features = self.features.ravel()
        thresholds = self.thresholds.ravel()
        # One lane per (tree, row), tree-major. Heap node i of tree t
        # is node t * n_internal + i; its children are
        # 2 * node + (1 - t * n_internal) + {0, 1}.
        tree = np.repeat(np.arange(n_trees), n_rows)
        row = np.tile(np.arange(n_rows) * n_cols, n_trees)
        node = tree * n_internal
        child = 1 - node
        for _level in range(self.depth):
            col = np.take(features, node)
            col += row
            go_right = np.take(flat_x, col) > np.take(thresholds, node)
            node *= 2
            node += child
            node += go_right
        # Leaf i of tree t sits at t * (n_internal + 1) + i - n_internal.
        votes = np.take(self.leaves.ravel(), node + tree - n_internal)
        votes = np.add.accumulate(votes.reshape(n_trees, n_rows))[-1]
        return votes / votes.dtype.type(n_trees)


@dataclasses.dataclass
class _Split:
    feature: int
    threshold: float
    gain: float


class DecisionTreeClassifier(Estimator):
    """Binary CART tree with entropy criterion.

    Parameters
    ----------
    max_depth:
        Depth cap (paper's RF uses depth-8 trees; Table 3 also lists a
        single depth-16 tree).
    min_samples_leaf / min_samples_split:
        Pre-pruning controls.
    max_features:
        Features considered per split: ``None`` (all), ``"sqrt"``, or
        an int — the random-forest decorrelation knob.
    """

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 8,
                 min_samples_split: int = 16,
                 max_features: int | str | None = None,
                 seed: int = 0) -> None:
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self.decision_threshold = 0.5
        # Flat node arrays (filled by fit).
        self.feature_: np.ndarray | None = None
        self.threshold_: np.ndarray | None = None
        self.left_: np.ndarray | None = None
        self.right_: np.ndarray | None = None
        self.value_: np.ndarray | None = None
        self.n_features_: int | None = None

    # ------------------------------------------------------------------
    def _n_split_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return min(int(self.max_features), n_features)

    def _best_split(self, x: np.ndarray, y: np.ndarray,
                    features: np.ndarray) -> _Split | None:
        n = y.shape[0]
        total_pos = y.sum()
        parent = float(entropy(np.array(total_pos), np.array(n)))
        best: _Split | None = None
        min_leaf = self.min_samples_leaf
        for f in features:
            order = np.argsort(x[:, f], kind="stable")
            xf = x[order, f]
            yf = y[order]
            pos_prefix = np.cumsum(yf)
            counts = np.arange(1, n + 1)
            # Candidate split after position i (left = first i+1 rows),
            # valid only where the feature value changes.
            valid = xf[:-1] < xf[1:]
            left_n = counts[:-1]
            right_n = n - left_n
            valid &= (left_n >= min_leaf) & (right_n >= min_leaf)
            if not valid.any():
                continue
            left_pos = pos_prefix[:-1]
            right_pos = total_pos - left_pos
            child = (left_n * entropy(left_pos, left_n)
                     + right_n * entropy(right_pos, right_n)) / n
            gain = parent - child
            gain[~valid] = -np.inf
            i = int(gain.argmax())
            if gain[i] <= 1e-12:
                continue
            threshold = 0.5 * (xf[i] + xf[i + 1])
            if best is None or gain[i] > best.gain:
                best = _Split(feature=int(f), threshold=float(threshold),
                              gain=float(gain[i]))
        return best

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x, y = check_xy(x, y)
        y = y.astype(np.float64)
        self.n_features_ = x.shape[1]
        rng = rng_mod.stream(self.seed, "tree-features")
        features_all = np.arange(x.shape[1])
        n_split = self._n_split_features(x.shape[1])

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []

        def grow(idx: np.ndarray, depth: int) -> int:
            node = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            ys = y[idx]
            prob = float(ys.mean()) if ys.size else 0.0
            value.append(prob)
            if (depth >= self.max_depth
                    or idx.size < self.min_samples_split
                    or prob <= 0.0 or prob >= 1.0):
                return node
            if n_split < x.shape[1]:
                candidates = rng.choice(features_all, size=n_split,
                                        replace=False)
            else:
                candidates = features_all
            split = self._best_split(x[idx], ys, candidates)
            if split is None:
                return node
            mask = x[idx, split.feature] <= split.threshold
            feature[node] = split.feature
            threshold[node] = split.threshold
            left[node] = grow(idx[mask], depth + 1)
            right[node] = grow(idx[~mask], depth + 1)
            return node

        grow(np.arange(x.shape[0]), 0)
        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = np.array(threshold)
        self.left_ = np.array(left, dtype=np.int64)
        self.right_ = np.array(right, dtype=np.int64)
        self.value_ = np.array(value)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Walk a one-tree :class:`ForestTable` (built per call: a
        forest's trees are never walked on their own)."""
        self._require_fitted("feature_")
        x, _ = check_xy(x)
        return ForestTable.from_trees([self], self.max_depth
                                      ).predict_proba(x)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the fitted tree."""
        self._require_fitted("feature_")
        assert self.feature_ is not None
        return int(self.feature_.shape[0])

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        self._require_fitted("feature_")
        assert self.left_ is not None and self.right_ is not None
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        for node in range(self.n_nodes):
            for child in (self.left_[node], self.right_[node]):
                if child >= 0:
                    depths[child] = depths[node] + 1
        return int(depths.max()) if self.n_nodes else 0
