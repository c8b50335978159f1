"""Bagged CART trees: the engine behind the forest model fits.

Regression trees maximize the split criterion sum(S_c^2 / n_c) over children,
equivalent to variance reduction; for 0/1 labels the same criterion is
equivalent to Gini impurity reduction, so one scan serves both tasks.

Determinism contract: tree k draws from the sub-stream seed.child(k); its
first draws are the n bootstrap row positions (`integers(0, n, n)` applied to
rows in the order given), followed by one mtry feature subset per node in
build order.  Features are scanned in ascending index, thresholds in
ascending value, and ties keep the first candidate, so a tree is a pure
function of (bootstrap multiset, per-tree stream).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import SeedSpec

# Sampler signature: (tree_index, rng, n_rows) -> integer row positions.
IndexSampler = Callable[[int, np.random.Generator, int], np.ndarray]

_LEAF = -1


@dataclass
class FlatForest:
    """All trees flattened into parallel node arrays for vectorized descent."""

    feature: np.ndarray    # int32, _LEAF marks a leaf
    threshold: np.ndarray  # float64, split at value <= threshold
    left: np.ndarray       # int32 node ids
    right: np.ndarray
    value: np.ndarray      # float64 leaf payloads (mean / class-1 proportion)
    roots: np.ndarray      # int32, one per tree

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def predict_trees(self, f: np.ndarray) -> np.ndarray:
        """Per-tree predictions for a feature block; returns (rows, trees)."""
        f = np.atleast_2d(np.asarray(f, dtype=float))
        b = f.shape[0]
        node = np.broadcast_to(self.roots, (b, self.n_trees)).copy()
        rows = np.arange(b)[:, None]
        while True:
            feat = self.feature[node]
            live = feat != _LEAF
            if not live.any():
                break
            r, c = np.nonzero(live)
            cur = node[r, c]
            go_left = f[r, self.feature[cur]] <= self.threshold[cur]
            node[r, c] = np.where(go_left, self.left[cur], self.right[cur])
        return self.value[node]

    def predict(self, f: np.ndarray) -> np.ndarray:
        return self.predict_trees(f).mean(axis=1)


def _best_split(x_col: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Best threshold for one feature; returns (score gain, threshold).

    Score is sum(S_c^2/n_c) - S^2/n over the two children; -inf when the
    column admits no split.
    """
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    ys = y[order]
    n = len(ys)
    cut = np.flatnonzero(xs[:-1] < xs[1:])
    if cut.size == 0:
        return -np.inf, 0.0
    csum = np.cumsum(ys)
    total = csum[-1]
    n_left = cut + 1.0
    s_left = csum[cut]
    score = s_left**2 / n_left + (total - s_left) ** 2 / (n - n_left)
    best = int(np.argmax(score))
    gain = score[best] - total * total / n
    i = cut[best]
    return float(gain), float((xs[i] + xs[i + 1]) / 2.0)


def _default_sampler(k: int, rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, n, size=n)


def build_forest(
    x: np.ndarray,
    y: np.ndarray,
    n_trees: int,
    mtry: int,
    min_node_size: int,
    seed: SeedSpec,
    index_sampler: IndexSampler | None = None,
) -> tuple[FlatForest, np.ndarray]:
    """Grow `n_trees` bagged trees; returns (forest, in-bag count matrix).

    A node is terminal when its size is <= min_node_size, its labels are
    constant, or no sampled feature admits a split.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    sampler = index_sampler or _default_sampler

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    roots = np.empty(n_trees, dtype=np.int32)
    inbag = np.zeros((n_trees, n), dtype=np.int32)

    for k in range(n_trees):
        rng = seed.child(k).generator()
        idx = np.asarray(sampler(k, rng, n), dtype=np.intp)
        np.add.at(inbag[k], idx, 1)
        xb = x[idx]
        yb = y[idx]

        def new_node() -> int:
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            right.append(_LEAF)
            value.append(0.0)
            return len(feature) - 1

        roots[k] = new_node()
        stack: list[tuple[int, np.ndarray]] = [(roots[k], np.arange(len(idx)))]
        while stack:
            node_id, rows = stack.pop()
            y_node = yb[rows]
            if len(rows) <= min_node_size or y_node.min() == y_node.max():
                value[node_id] = float(y_node.mean())
                continue
            feats = rng.permutation(p)[:mtry]
            feats.sort()
            best_gain, best_feat, best_thr = 0.0, _LEAF, 0.0
            for f_idx in feats:
                gain, thr = _best_split(xb[rows, f_idx], y_node)
                if gain > best_gain + 1e-12:
                    best_gain, best_feat, best_thr = gain, int(f_idx), thr
            if best_feat == _LEAF:
                value[node_id] = float(y_node.mean())
                continue
            mask = xb[rows, best_feat] <= best_thr
            feature[node_id] = best_feat
            threshold[node_id] = best_thr
            lid, rid = new_node(), new_node()
            left[node_id] = lid
            right[node_id] = rid
            stack.append((rid, rows[~mask]))
            stack.append((lid, rows[mask]))

    forest = FlatForest(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value),
        roots=roots,
    )
    return forest, inbag


def oob_predictions(forest: FlatForest, inbag: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Out-of-bag averaged predictions for the training rows.

    Rows that were in-bag for every tree (vanishingly rare) fall back to the
    all-trees average.
    """
    per_tree = forest.predict_trees(x)
    oob = inbag.T == 0
    n_oob = oob.sum(axis=1)
    out = np.where(
        n_oob > 0,
        (per_tree * oob).sum(axis=1) / np.maximum(n_oob, 1),
        per_tree.mean(axis=1),
    )
    return out
