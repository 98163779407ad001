"""Additional ranking / accuracy metrics beyond NDCG.

These are used by the test suite and the ablation benchmarks to quantify how
well an estimator preserves the normalized-HKPR ordering and the
(d, eps_r, delta) error profile.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.result import HKPRResult


def precision_at_k(predicted_ranking: Sequence[int], true_ranking: Sequence[int], k: int) -> float:
    """Fraction of the true top-``k`` that appears in the predicted top-``k``."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    predicted_top = set(list(predicted_ranking)[:k])
    true_top = set(list(true_ranking)[:k])
    if not true_top:
        return 1.0
    return len(predicted_top & true_top) / len(true_top)


def kendall_tau(predicted_scores: np.ndarray, true_scores: np.ndarray) -> float:
    """Kendall rank correlation between two score vectors (1.0 = same order).

    ``scipy.stats`` is imported on the first call rather than with the
    module: it is the only scipy user on the CLI's import path.
    """
    from scipy import stats

    predicted = np.asarray(predicted_scores, dtype=float)
    truth = np.asarray(true_scores, dtype=float)
    if predicted.shape != truth.shape:
        raise ParameterError("score vectors must have the same shape")
    if predicted.size < 2:
        return 1.0
    tau, _ = stats.kendalltau(predicted, truth)
    if np.isnan(tau):
        return 1.0
    return float(tau)


def relative_error_profile(
    graph: Graph,
    estimate: HKPRResult,
    ground_truth: np.ndarray,
    *,
    delta: float,
) -> dict[str, float]:
    """Error statistics matching Definition 1's two regimes.

    Returns the maximum relative error over nodes with normalized HKPR above
    ``delta`` and the maximum absolute (normalized) error over the rest —
    the two quantities a (d, eps_r, delta)-approximate vector must bound by
    ``eps_r`` and ``eps_r * delta`` respectively.
    """
    truth = np.asarray(ground_truth, dtype=float)
    if truth.shape[0] != graph.num_nodes:
        raise ParameterError(
            f"ground truth has length {truth.shape[0]}, expected {graph.num_nodes}"
        )
    degrees = graph.degrees.astype(float)
    estimate_dense = estimate.to_dense(graph, include_offset=True)

    normalized_truth = np.zeros_like(truth)
    normalized_estimate = np.zeros_like(truth)
    nonzero = degrees > 0
    normalized_truth[nonzero] = truth[nonzero] / degrees[nonzero]
    normalized_estimate[nonzero] = estimate_dense[nonzero] / degrees[nonzero]

    significant = normalized_truth > delta
    errors = np.abs(normalized_estimate - normalized_truth)

    max_relative = 0.0
    if np.any(significant):
        max_relative = float(
            np.max(errors[significant] / normalized_truth[significant])
        )
    max_absolute = 0.0
    insignificant = ~significant & nonzero
    if np.any(insignificant):
        max_absolute = float(np.max(errors[insignificant]))

    return {
        "max_relative_error_significant": max_relative,
        "max_absolute_error_insignificant": max_absolute,
        "num_significant_nodes": float(np.count_nonzero(significant)),
    }
