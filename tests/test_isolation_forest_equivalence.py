"""The isolation forest on flat per-tree arrays against the recursive
reference it replaced, and its tree builder against the per-call builder
that one replaced.

The first reference below is the node-object builder and stack-walk
scorer, kept verbatim.  Both consume one random generator in the same
order, so the forests are the same trees and every score and flag must be
equal bit for bit, not merely close: a different draw order or a different
order of summing the trees moves which rows are flagged, and with them
every output byte of ``pipeline run``.

The second is the flat builder that called ``rng.integers`` and
``rng.uniform`` once per split, kept verbatim.  The builder that rebuilds
those draws from raw words must grow the same tree arrays and leave the
generator in the same state after every tree, or the next tree's
subsample moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loraprop.pipeline import (
    IsolationForestConfig,
    IsolationTree,
    _build_tree as build_tree,
    _rows_by_device,
    average_path_length,
    dedup_retransmissions,
    filter_sf,
    ingest,
    isolation_forest,
    standardize,
)
from loraprop.pipeline import fit_isolation_forest as fit_flat_forest
from loraprop.records import FEATURE_FIELDS


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
    assert np.array_equal(fit_flat_forest(matrix, config).scores(matrix), scores)
    assert np.array_equal(isolation_forest(matrix, config), flags)


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
        scaled, _, _ = standardize(screened.take(idx), FEATURE_FIELDS)
        assert_same_as_reference(scaled, config)


def per_call_build_tree(sample: np.ndarray, rng: np.random.Generator, max_depth: int) -> IsolationTree:
    """Grow one tree on the F x psi ``sample`` (one row per feature).

    Nodes are visited in depth-first preorder, left before right, so the two
    draws of each split come in the order a recursive build makes them;
    another order would grow other trees from the same seed.
    """
    nodes: list[list] = []  # [feature, threshold, left, right, leaf_depth]
    # (columns reaching the node, its depth, the parent it is the right child of)
    stack: list[tuple[np.ndarray, int, list | None]] = [(sample, 0, None)]
    while stack:
        block, depth, parent = stack.pop()
        node = len(nodes)
        if parent is not None:
            parent[3] = node
        size = block.shape[1]
        if size > 1 and depth < max_depth:
            lows = block.min(axis=1).tolist()
            highs = block.max(axis=1).tolist()
            splittable = [k for k, (low, high) in enumerate(zip(lows, highs)) if high > low]
            if splittable:
                split_on = splittable[rng.integers(len(splittable))]
                cut = rng.uniform(lows[split_on], highs[split_on])
                below = block[split_on] < cut
                nodes.append([split_on, cut, node + 1, -1, 0.0])
                stack.append((block.compress(~below, axis=1), depth + 1, nodes[-1]))
                stack.append((block.compress(below, axis=1), depth + 1, None))
                continue
        nodes.append([0, 0.0, node, node, depth + average_path_length(size)])
    return IsolationTree(*(np.array(column) for column in zip(*nodes)))


def assert_same_tree(tree: IsolationTree, reference: IsolationTree) -> None:
    for name in ("feature", "threshold", "left", "right", "leaf_depth"):
        got, want = getattr(tree, name), getattr(reference, name)
        # bytes, so that a -0.0 threshold cannot stand in for a 0.0 one
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@st.composite
def forest_matrices(draw):
    """Up to 255 rows of 1-8 features: continuous or a few tied levels
    (0.0 and -0.0 among them), duplicated rows, constant columns, and at
    times a single splittable feature, which takes no ``integers`` draw."""
    width = draw(st.integers(1, 8))
    rows = draw(st.integers(2, 255))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        matrix = rng.normal(size=(rows, width))
    else:
        levels = np.array([0.0, -0.0, 1.0, -2.5, 0.5, 3.0])[: draw(st.integers(2, 6))]
        matrix = rng.choice(levels, size=(rows, width))
    copies = draw(st.integers(0, rows // 2))
    matrix[rows - copies:] = matrix[:copies]
    if draw(st.booleans()):
        constant = range(1, width)  # one splittable feature
    else:
        constant = draw(st.sets(st.integers(0, width - 1), max_size=width))
    for k in constant:
        matrix[:, k] = 0.75
    return matrix


@settings(max_examples=150, deadline=None)
@given(matrix=forest_matrices(), seed=st.integers(0, 2**32 - 1))
def test_builder_matches_the_per_call_builder(matrix, seed):
    """Same trees and same generator state after every tree, as
    ``fit_isolation_forest`` draws subsamples and grows trees in turn."""
    n = len(matrix)
    psi = min(256, n)
    max_depth = (psi - 1).bit_length()
    columns = np.ascontiguousarray(matrix.T)
    reference_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        reference = per_call_build_tree(
            columns.take(reference_rng.choice(n, size=psi, replace=False), axis=1),
            reference_rng, max_depth,
        )
        tree = build_tree(columns.take(rng.choice(n, size=psi, replace=False), axis=1), rng, max_depth)
        assert_same_tree(tree, reference)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


#: The 128-bit LCG multiplier of numpy's PCG64.
PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def generator_whose_next_word_is(word: int) -> np.random.Generator:
    """A PCG64 generator whose next raw 64-bit word is ``word``.

    PCG64 steps its 128-bit state and then outputs the XOR of the state's
    halves rotated by its top six bits; a stepped state whose high half is
    zero outputs its low half as it is."""
    increment = 1
    state = (word - increment) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": increment},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def test_forced_lemire_rejection():
    """``integers(7)`` rejects the word's low half, since u * 7 mod 2^32 = 2
    is below (2^32 - 7) mod 7 = 4, and takes 6 from its high half; without
    the rejection it would take 3.  The builder's first split must too."""
    low = 2 * pow(7, -1, 2**32) % 2**32
    word = 0xF0000000 << 32 | low
    assert low * 7 % 2**32 == 2 < (2**32 - 7) % 7
    assert low * 7 >> 32 == 3
    assert generator_whose_next_word_is(word).integers(7) == 6

    sample = np.random.default_rng(5).normal(size=(7, 40))
    reference_rng, rng = generator_whose_next_word_is(word), generator_whose_next_word_is(word)
    reference = per_call_build_tree(sample, reference_rng, 6)
    tree = build_tree(sample, rng, 6)
    assert tree.feature[0] == 6
    assert_same_tree(tree, reference)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
