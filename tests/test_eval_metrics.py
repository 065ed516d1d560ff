"""Tests for PGOS/RSV metrics (Eqs. 1-4) and blindspot analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DatasetError
from repro.eval.metrics import (
    effective_sla_window,
    expected_false_positive,
    pgos,
    pooled_rsv,
    rsv,
    spearman,
    violation_indicator_windows,
)


class TestPGOS:
    def test_eq1_definition(self):
        y_true = np.array([1, 1, 1, 0, 0])
        y_pred = np.array([1, 0, 1, 1, 0])
        # 2 correct low-power predictions of 3 opportunities.
        assert pgos(y_true, y_pred) == pytest.approx(2 / 3)

    def test_no_opportunities_gives_zero(self):
        assert pgos(np.zeros(5, int), np.ones(5, int)) == 0.0

    def test_perfect_prediction(self):
        y = np.array([0, 1, 0, 1])
        assert pgos(y, y) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=200))
    def test_bounded(self, pairs):
        y_true = np.array([p[0] for p in pairs])
        y_pred = np.array([p[1] for p in pairs])
        assert 0.0 <= pgos(y_true, y_pred) <= 1.0


class TestRSV:
    def test_eq2_expectation(self):
        y_true = np.array([0, 0, 0, 1])
        y_pred = np.array([1, 1, 0, 1])
        assert expected_false_positive(y_true, y_pred) == pytest.approx(0.5)

    def test_window_violation_requires_majority_fp(self):
        y_true = np.zeros(8, int)
        y_pred = np.array([1, 1, 1, 0, 1, 1, 1, 1])
        # Window 1: 3/4 FP -> violation; window 2: 4/4 FP -> violation.
        v = violation_indicator_windows(y_true, y_pred, 4)
        assert v.tolist() == [1, 1]
        y_pred2 = np.array([1, 1, 0, 0, 0, 0, 0, 0])
        v2 = violation_indicator_windows(y_true, y_pred2, 4)
        assert v2.tolist() == [0, 0]

    def test_exactly_half_is_not_violation(self):
        y_true = np.zeros(4, int)
        y_pred = np.array([1, 1, 0, 0])
        assert violation_indicator_windows(y_true, y_pred, 4).tolist() == [0]

    def test_rsv_rate(self):
        y_true = np.zeros(12, int)
        y_pred = np.array([1] * 4 + [0] * 8)
        assert rsv(y_true, y_pred, 4) == pytest.approx(1 / 3)

    def test_false_negatives_never_violate(self):
        y_true = np.ones(8, int)
        y_pred = np.zeros(8, int)  # all missed opportunities
        assert rsv(y_true, y_pred, 4) == 0.0

    def test_partial_tail_dropped(self):
        y_true = np.zeros(10, int)
        y_pred = np.ones(10, int)
        assert violation_indicator_windows(y_true, y_pred, 4).shape == (2,)

    def test_too_short_rejected(self):
        with pytest.raises(DatasetError):
            rsv(np.zeros(3, int), np.zeros(3, int), 4)

    def test_pooled_rsv_skips_short_traces(self):
        long = (np.zeros(8, int), np.ones(8, int))
        short = (np.zeros(2, int), np.zeros(2, int))
        assert pooled_rsv([long, short], 4) == 1.0

    def test_pooled_rsv_all_short_rejected(self):
        with pytest.raises(DatasetError):
            pooled_rsv([(np.zeros(2, int), np.zeros(2, int))], 4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 64))
    def test_systematic_errors_dominate_spurious(self, window):
        """RSV's purpose: clustered FPs violate, scattered ones do not."""
        n = window * 10
        y_true = np.zeros(n, int)
        clustered = np.zeros(n, int)
        clustered[:n // 2] = 1  # one long wrong phase
        scattered = np.zeros(n, int)
        scattered[::4] = 1  # same FP count, spread out (25% per window)
        assert (rsv(y_true, clustered, window)
                > rsv(y_true, scattered, window))


class TestSpearman:
    """The stdlib/numpy spearman that replaced scipy in the benches."""

    def test_matches_scipy(self):
        from scipy.stats import spearmanr
        rng = np.random.default_rng(7)
        x = rng.normal(size=200)
        y = x + rng.normal(scale=0.5, size=200)
        assert spearman(x, y) == pytest.approx(
            float(spearmanr(x, y).correlation), abs=1e-12)

    def test_matches_scipy_with_ties(self):
        from scipy.stats import spearmanr
        x = [1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0]
        y = [3.0, 3.0, 1.0, 4.0, 4.0, 5.0, 5.0, 2.0]
        assert spearman(x, y) == pytest.approx(
            float(spearmanr(x, y).correlation), abs=1e-12)

    def test_perfect_monotone(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, [10.0, 20.0, 22.0, 40.0]) == 1.0
        assert spearman(x, [5.0, 4.0, 3.0, -1.0]) == -1.0

    def test_constant_input_returns_zero(self):
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_bad_shapes_rejected(self):
        with pytest.raises(DatasetError):
            spearman([1.0], [2.0])
        with pytest.raises(DatasetError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])


class TestEffectiveWindow:
    def test_scales_paper_window(self):
        # Paper window at 10k granularity is 1600; default scale 0.01.
        assert effective_sla_window(10_000) == 16
        assert effective_sla_window(40_000) == 4

    def test_minimum_enforced(self):
        assert effective_sla_window(100_000) >= 4

    def test_custom_scale(self):
        assert effective_sla_window(10_000, window_scale=1.0) == 1600
