"""The isolation forest on flat per-tree arrays against the recursive
reference it replaced.

The reference below is the node-object builder and stack-walk scorer,
kept verbatim.  Both consume one random generator in the same order, so
the forests are the same trees and every score and flag must be equal bit
for bit, not merely close: a different draw order or a different order of
summing the trees moves which rows are flagged, and with them every
output byte of ``pipeline run``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from loraprop.pipeline import (
    IsolationForestConfig,
    _rows_by_device,
    average_path_length,
    dedup_retransmissions,
    filter_sf,
    ingest,
    isolation_forest,
    standardize,
)


@dataclass(frozen=True)
class TreeNode:
    """Isolation tree node; a leaf has ``feature == -1`` and records the
    number of training points that ended up in it."""

    size: int
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _build_tree(
    data: np.ndarray, rng: np.random.Generator, depth: int, max_depth: int
) -> TreeNode:
    n = data.shape[0]
    if n <= 1 or depth >= max_depth:
        return TreeNode(size=n)
    lows = data.min(axis=0)
    highs = data.max(axis=0)
    splittable = np.nonzero(highs > lows)[0]
    if splittable.size == 0:
        return TreeNode(size=n)
    feature = int(splittable[rng.integers(splittable.size)])
    threshold = float(rng.uniform(lows[feature], highs[feature]))
    mask = data[:, feature] < threshold
    return TreeNode(
        size=n,
        feature=feature,
        threshold=threshold,
        left=_build_tree(data[mask], rng, depth + 1, max_depth),
        right=_build_tree(data[~mask], rng, depth + 1, max_depth),
    )


@dataclass(frozen=True)
class IsolationForestModel:
    trees: tuple[TreeNode, ...]
    subsample_size: int

    def path_lengths(self, matrix: np.ndarray) -> np.ndarray:
        """Mean isolation depth per row, leaf sizes adjusted by c(size)."""
        matrix = np.asarray(matrix, dtype=float)
        totals = np.zeros(matrix.shape[0])
        for root in self.trees:
            depths = np.empty(matrix.shape[0])
            stack: list[tuple[TreeNode, np.ndarray, int]] = [
                (root, np.arange(matrix.shape[0]), 0)
            ]
            while stack:
                node, idx, depth = stack.pop()
                if idx.size == 0:
                    continue
                if node.is_leaf:
                    depths[idx] = depth + average_path_length(node.size)
                    continue
                mask = matrix[idx, node.feature] < node.threshold
                stack.append((node.left, idx[mask], depth + 1))
                stack.append((node.right, idx[~mask], depth + 1))
            totals += depths
        return totals / len(self.trees)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        """Anomaly score 2^(-E[h]/c(psi)); near 1 means easily isolated."""
        normaliser = average_path_length(self.subsample_size)
        return 2.0 ** (-self.path_lengths(matrix) / normaliser)


def fit_isolation_forest(
    matrix: np.ndarray, config: IsolationForestConfig
) -> IsolationForestModel:
    """Grow the randomized tree ensemble on subsamples of ``matrix``."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    rng = np.random.default_rng(config.seed)
    psi = min(config.subsample_size, n)
    max_depth = math.ceil(math.log2(psi)) if psi > 1 else 0
    trees = []
    for _ in range(config.n_trees):
        subsample = matrix[rng.choice(n, size=psi, replace=False)]
        trees.append(_build_tree(subsample, rng, 0, max_depth))
    return IsolationForestModel(trees=tuple(trees), subsample_size=psi)


def reference_isolation_forest(matrix: np.ndarray, config: IsolationForestConfig):
    """Scores and flags of the recursive forest, with the same exact cut."""
    scores = fit_isolation_forest(matrix, config).scores(matrix)
    n = scores.size
    k = int(round(config.contamination * n))
    flags = np.zeros(n, dtype=bool)
    if k > 0:
        order = np.argsort(-scores, kind="stable")
        flags[order[:k]] = True
    return scores, flags


def assert_same_as_reference(matrix: np.ndarray, config: IsolationForestConfig) -> None:
    scores, flags = reference_isolation_forest(matrix, config)
    result = isolation_forest(matrix, config)
    assert np.array_equal(result.scores, scores)
    assert np.array_equal(result.flags, flags)


@pytest.mark.parametrize("seed", [3, 17, 2024])
@pytest.mark.parametrize("n", [2, 41, 256, 475])
def test_random_matrices(n, seed):
    """n = 2, n < psi, n = psi and n > psi."""
    matrix = np.random.default_rng(seed).normal(size=(n, 7))
    assert_same_as_reference(matrix, IsolationForestConfig(n_trees=25, contamination=0.1, seed=seed))


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_tied_values_and_a_constant_column(seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-2, 3, size=(300, 5)).astype(float)
    matrix[:, 2] = 0.75
    assert_same_as_reference(matrix, IsolationForestConfig(n_trees=25, contamination=0.05, seed=seed))


def test_every_device_of_the_a7_corpus(a7_corpus):
    """Each device's standardised features as ``pipeline run`` screens them."""
    screened = filter_sf(dedup_retransmissions(ingest(a7_corpus[1]).records))
    config = IsolationForestConfig(contamination=0.01, seed=42)
    devices = _rows_by_device(screened)
    assert len(devices) == 5
    for _, idx in devices:
        scaled, _ = standardize(screened.take(idx), config.features)
        assert_same_as_reference(scaled, config)
