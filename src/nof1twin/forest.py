"""Bagged CART trees: the engine behind the forest model fits.

Regression trees maximize the split criterion sum(S_c^2 / n_c) over children,
equivalent to variance reduction; for 0/1 labels the same criterion is
equivalent to Gini impurity reduction, so one scan serves both tasks.  Trees
grow level by level in batches of at most 2^15 bootstrap rows, so one numpy
pass per feature scores every threshold of every node of a level, and the
node arrays are level-major within each batch.  Each feature's order is
sorted once by tree and the dense ranks of its values (-0.0 and +0.0 share
one), then stably by node after each level where a node split on another
feature (in its split feature's order a node's rows are already in child
order, as in SPRINT's presorted lists), so each node's rows stay sorted per
feature with ties in bootstrap order; a leaf sums its labels in feature 0's
order.  A forest over one feature with labels exactly 0.0 or 1.0 (every
default pstn-rf propensity forest) grows on slots instead (_grow_slots).  Its
label sums are integers below 2^53, the same doubles in any order, and it
scores the same cuts in the same order through _first_best, so its node
arrays are _grow's, bit for bit.

Determinism contract: tree k draws from the sub-stream seed.child(k); its
first draws are the n bootstrap row positions (`integers(0, n, n)` applied to
rows in the order given), followed by one `permutation(p)[:mtry]` feature
subset per node larger than min_node_size with non-constant labels, in
breadth-first order (level by level, left to right); with mtry == p none is
drawn.  The tree draws these subsets in one call right after its bootstrap,
one per node that could split, so each takes the stream position its node's
own draw would.  One generator serves every tree (SeedSpec.children), reset
to each tree's stream before its draws.  Features are scanned in ascending
index, thresholds in ascending value, and ties keep the first candidate, so a
tree is a pure function of (bootstrap sequence, per-tree stream).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import SeedSpec
from .errors import ConfigError

# Sampler signature: (tree_index, rng, n_rows) -> integer row positions.  The
# rng is valid only during the call: the next tree reuses it.
IndexSampler = Callable[[int, np.random.Generator, int], np.ndarray]

_LEAF = -1
_PAIRS = 1 << 14  # (row, tree) pairs per block in predict, a quarter in step_table: bounds memory
_BATCH_ROWS = 1 << 15  # rows grown together: bounds memory; 16-bit sort keys get numpy's radix sort


@dataclass
class FlatForest:
    """All trees flattened into parallel node arrays for vectorized descent."""

    feature: np.ndarray    # int32, _LEAF marks a leaf
    threshold: np.ndarray  # float64, split at value <= threshold
    left: np.ndarray       # int32 id of a split node's left child; the right one is left + 1
    value: np.ndarray      # float64 leaf payloads (mean / class-1 proportion)
    roots: np.ndarray      # int32, one per tree

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def predict_trees(self, f: np.ndarray) -> np.ndarray:
        """Per-tree predictions, (rows, trees)."""
        f = np.atleast_2d(np.asarray(f, dtype=float))
        row, tree = np.indices((len(f), self.n_trees)).reshape(2, -1)
        return self.value[self._descend(f, row, tree)[0]].reshape(len(f), self.n_trees)

    def predict(self, f: np.ndarray) -> np.ndarray:
        """Mean over the trees, in blocks of at most _PAIRS (row, tree) pairs."""
        f = np.atleast_2d(np.asarray(f, dtype=float))
        step = max(1, _PAIRS // self.n_trees)
        return np.concatenate([self.predict_trees(f[i : i + step]).mean(axis=1)
                               for i in range(0, max(len(f), 1), step)])

    def step_table(self, f: np.ndarray, col: int, cuts: np.ndarray) -> np.ndarray:
        """predict at each row of f with f[row, col] set to each of cuts, then +inf,
        (rows, len(cuts) + 1), to within rounding.  On one row a tree is a step function
        of f[:, col], so each (row, tree) pair descends once, in blocks of whole rows, into
        pieces of one leaf value over a run of cuts.  A piece adds its value at its first
        point and subtracts it past its last (in a spare column past each row's end), and
        a cumulative sum along the row sums the trees: O(pieces + points).  A row's sums
        run in its own pieces' order, so no other row changes its values."""
        f, n_col, n_trees = np.asarray(f, dtype=float), len(cuts) + 1, self.n_trees
        out, rows = np.empty((len(f), n_col)), max(1, _PAIRS // (4 * n_trees))
        for r in range(0, len(f), rows):
            part = f[r : r + rows]
            row, tree = np.divmod(np.arange(len(part) * n_trees), n_trees)
            node, lo, hi = self._descend(part, row, tree, row * n_col, row * n_col + n_col, col, cuts)
            value, spare = self.value[node], lo // n_col  # one spare column per row before lo
            edges = (np.bincount(lo + spare, value, len(part) * (n_col + 1))
                     - np.bincount(hi + spare, value, len(part) * (n_col + 1)))
            out[r : r + rows] = np.cumsum(edges.reshape(-1, n_col + 1), axis=1)[:, :-1] / n_trees
        return out

    def _descend(self, f, row, tree, lo=None, hi=None, col=None, cuts=()):
        """(leaf, lo, hi) of each item (row of f, tree), one level per pass;
        without col no item splits, and the leaves come in item order.  Item i
        covers the points lo[i]..hi[i] - 1; point r * (len(cuts) + 1) + c is row
        r of f with f[r, col] = cuts[c] (+inf past the last), which a split on
        col sends left iff cuts[c] <= threshold: the split cuts the item in two."""
        node, live = self.roots[tree], np.arange(len(tree))
        while live.size:
            cur = node[live]
            feat = self.feature[cur]
            inner = feat != _LEAF
            live, cur, feat = live[inner], cur[inner], feat[inner]
            thr = self.threshold[cur]
            node[live] = self.left[cur] + ~(f[row[live], feat] <= thr)
            if col is not None and (on := np.flatnonzero(feat == col)).size:
                i, kid = live[on], self.left[cur[on]]
                cut = row[i] * (len(cuts) + 1) + np.searchsorted(cuts, thr[on], side="right")
                node[i] = kid + (cut <= lo[i])
                both = (lo[i] < cut) & (cut < hi[i])  # the right part becomes a new item
                i, kid, cut = i[both], kid[both], cut[both]
                live = np.concatenate((live, np.arange(len(node), len(node) + len(i))))
                node, row, lo, hi = (np.concatenate(v) for v in zip(
                    (node, row, lo, hi), (kid + 1, row[i], cut, hi[i])))
                hi[i] = cut
        return node, lo, hi


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
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n, p = x.shape
    sampler = index_sampler or (lambda k, rng, n_: rng.integers(0, n_, size=n_))
    feats = np.arange(p, dtype=np.min_scalar_type(p))
    boots, drawn = [], []
    for k, rng in enumerate(seed.children(range(n_trees))):
        b = np.asarray(sampler(k, rng, n))
        if b.ndim != 1 or not b.size or b.dtype.kind not in "iu" or not 0 <= b.min() <= b.max() < n:
            raise ConfigError(f"index_sampler gave tree {k} no non-empty 1-D integer array in [0, {n})")
        boots.append(b.astype(np.intp))
        if mtry < p:  # a tree over N positions has at most N - 1 nodes that draw a subset
            subsets = rng.permuted(np.tile(feats, (len(boots[-1]) - 1, 1)), axis=1)
            drawn.append(subsets[:, :mtry].copy())
    inbag = np.repeat(np.arange(n_trees) * n, [len(b) for b in boots]) + np.concatenate(boots)
    inbag = np.bincount(inbag, minlength=n_trees * n).reshape(n_trees, n).astype(np.int32)
    levels: list[tuple[np.ndarray, ...]] = []
    roots: list[int] = []
    per_batch = max(1, _BATCH_ROWS // n)
    # 0/1 labels, exactly: every label sum is an integer, so in any order the same double
    slots = p == 1 and mtry >= 1 and y.tobytes() == (y == 1).astype(float).tobytes()
    for trees in (slice(lo, lo + per_batch) for lo in range(0, n_trees, per_batch)):
        first = sum(len(level[0]) for level in levels)
        roots += range(first, first + len(boots[trees]))
        levels += (_grow_slots(x[:, 0], y, boots[trees], min_node_size, first) if slots
                   else _grow(x, y, boots[trees], drawn[trees], mtry, min_node_size, first))
    feature, threshold, left, value = map(np.concatenate, zip(*levels))
    return FlatForest(feature, threshold, left, value, np.array(roots, dtype=np.int32)), inbag


def _grow(x, y, boots, drawn, mtry, min_node_size, first_id):
    """Grow a batch of trees level by level; returns each level's node arrays.

    Positions index the concatenated bootstrap samples.  node_of maps each live
    one to its node, breadth-first per tree; order[f] holds each node's positions
    as one segment sorted by feature f's value ranks, ties in position order,
    the segments alike in every order.  A node's segment of the order of its
    split feature is already its left child's then its right child's, so
    order[i] is re-sorted only after a level where a node split on another
    feature.  With mtry < p, drawn[t] holds tree t's feature subsets in stream
    order, and cursor[t] is its next unread row of their concatenation.
    """
    row, xt = np.concatenate(boots), np.ascontiguousarray(x.T)
    p, tree, levels, next_id = x.shape[1], np.arange(len(boots)), [], first_id
    size = np.array([len(b) for b in boots])
    node_of = np.repeat(tree, size).astype(np.min_scalar_type(-len(row)))
    ranks = (np.unique(col, return_inverse=True)[1].astype(np.min_scalar_type(len(x))) for col in x.T)
    order = [np.argsort(r[row], kind="stable") for r in ranks] or [np.arange(len(row))]
    resort = range(len(order))
    if mtry < p:
        draws = [len(d) for d in drawn]
        cursor, drawn = np.cumsum(draws) - draws, np.concatenate(drawn)
    while True:
        for i in resort:  # one at a time: the old and new orders are never all alive
            order[i] = order[i][np.argsort(node_of[order[i]], kind="stable")]
        k, start = len(size), np.cumsum(size) - size
        node = np.repeat(np.arange(k), size)  # every live node holds a row
        next_id += k
        ys = y[row[order[0]]]
        cand = size > min_node_size
        cand &= np.minimum.reduceat(ys, start) < np.maximum.reduceat(ys, start)
        subset = np.ones((k, p), dtype=bool)
        if mtry < p:  # each candidate takes its tree's next subset, in node order
            per_tree = np.bincount(tree[cand], minlength=len(boots))
            pick = (cursor - np.cumsum(per_tree) + per_tree)[tree[cand]] + np.arange(per_tree.sum())
            cursor += per_tree
            subset[cand] = False
            subset[np.flatnonzero(cand)[:, None], drawn[pick]] = True
        gain, feat, thr = np.zeros(k), np.full(k, _LEAF, dtype=np.int32), np.zeros(k)
        n_left = np.zeros(k, dtype=np.intp)
        for f, o in enumerate(order[:p]):
            scan = cand & subset[:, f]
            if scan.any():
                at = row[o]
                nodes, g, t, n = _best_cuts(xt[f][at], y[at], node, start, size, scan)
                better = g > gain[nodes] + 1e-12
                nodes = nodes[better]
                gain[nodes], feat[nodes], thr[nodes], n_left[nodes] = g[better], f, t[better], n[better]
        split = feat != _LEAF
        ids = np.full(k, _LEAF, dtype=np.int32)
        ids[split] = next_id + 2 * np.arange(split.sum())
        value = np.where(split, 0.0, np.add.reduceat(ys, start) / size)
        levels.append((feat, thr, ids, value))
        if not split.any():
            return levels
        resort = [i for i in range(len(order)) if (feat[split] != i).any()]
        if resort:  # a split node's rows move to its children by predict's <= rule
            went_right = ~(xt.ravel()[feat[node] * len(x) + row[order[0]]] <= thr[node])
            node_of[order[0]] = (2 * np.cumsum(split) - 2)[node] + went_right  # 2 * rank + side
        keep = split[node]  # a leaf's rows drop out
        for i in range(len(order)):
            order[i] = order[i][keep]
        size = np.column_stack((n_left, size - n_left))[split].ravel()
        tree = np.repeat(tree[split], 2)


def _grow_slots(x, y, boots, min_node_size, next_id):
    """_grow for one feature `x` and 0/1 labels, on slots: the runs of one tree's
    positions that share a value rank, in _grow's presorted order.  A node is a
    slot range [a, b) and splits at a slot boundary into [a, j) and [j, b).  Its
    size and label sum are differences of two prefix sums; a cut between slots
    reads the values at their first and last positions (-0.0 and +0.0 share a rank)."""
    row, ranks = np.concatenate(boots), np.unique(x, return_inverse=True)[1]
    tree = np.repeat(np.arange(len(boots)), [len(b) for b in boots])
    key = (tree * (ranks.max() + 1) + ranks[row]).astype(np.min_scalar_type(len(boots) * len(x)))
    order = np.argsort(key, kind="stable")
    head = np.flatnonzero(np.concatenate(([True], key[order[1:]] != key[order[:-1]])))
    count = np.append(head, len(row))  # count[s]: positions ahead of slot s
    xs, label = x[row[order]], np.concatenate(([0.0], np.cumsum(y[row[order]])))[count]
    first, last = xs[head], xs[count[1:] - 1]
    valid = last[:-1] < first[1:]  # cut c between slots c and c + 1, as _best_cuts' xs[i] < xs[i + 1]
    a = np.searchsorted(tree[order[head]], np.arange(len(boots)))
    b, count, levels = np.append(a[1:], len(head)), count.astype(float), []
    while True:
        k, size, total = len(a), count[b] - count[a], label[b] - label[a]
        cand = np.flatnonzero((size > min_node_size) & (total > 0) & (total < size))
        width = (b - a - 1)[cand]
        cut = np.repeat(a[cand] - np.cumsum(width) + width, width) + np.arange(width.sum())
        c_node = np.repeat(cand, width)
        cut, c_node = cut[ok := valid[cut]], c_node[ok]
        at, up = a[c_node], cut + 1
        nodes, gain, thr, hit = _first_best(cut, c_node, count[up] - count[at],
                                            label[up] - label[at], total, size, last, first)
        nodes, thr, cut = nodes[better := gain > 1e-12], thr[better], cut[hit[better]] + 1
        (feat, ids), thresh = np.full((2, k), _LEAF, dtype=np.int32), np.zeros(k)
        next_id += k
        feat[nodes], thresh[nodes], ids[nodes] = 0, thr, next_id + 2 * np.arange(len(nodes))
        value = total / size
        value[nodes] = 0.0
        levels.append((feat, thresh, ids, value))
        if not nodes.size:
            return levels
        a, b = np.column_stack((a[nodes], cut, cut, b[nodes])).reshape(-1, 2).T  # [a, j), [j, b)


def _best_cuts(xs, ys, node, start, size, scan):
    """(nodes, gain, threshold, rows left) of each scanned node's first best cut on one
    feature; `xs`, `ys` are the live positions in this feature's order."""
    csum = np.cumsum(ys)
    before = np.concatenate(([0.0], csum))[start]  # label sum ahead of each segment
    total = csum[start + size - 1] - before
    ok = (xs[:-1] < xs[1:]) & scan[node[:-1]]
    ok[(start + size - 1)[:-1]] = False  # a cut never spans two nodes
    cut = np.flatnonzero(ok)
    c_node = node[cut]
    n_left = (cut - start[c_node] + 1).astype(float)
    s_left = csum[cut] - before[c_node]
    nodes, gain, thr, hit = _first_best(cut, c_node, n_left, s_left, total, size, xs, xs)
    return nodes, gain, thr, cut[hit] + 1 - start[nodes]


def _first_best(cut, c_node, n_left, s_left, total, size, last, first):
    """(nodes, gain, threshold, index into cut) of each node's first best cut.  Cut c
    (ascending, grouped by c_node) leaves n_left rows with label sum s_left below
    it, between values last[c] and first[c + 1]; the gain is sum(S_c^2/n_c) - S^2/n."""
    if cut.size == 0:
        return cut, np.zeros(0), np.zeros(0), cut
    score = s_left**2 / n_left + (total[c_node] - s_left) ** 2 / (size[c_node] - n_left)
    head = np.flatnonzero(np.concatenate(([True], c_node[1:] != c_node[:-1])))
    top = np.repeat(np.maximum.reduceat(score, head), np.diff(np.append(head, len(cut))))
    hit = np.flatnonzero(score == top)
    hit = hit[np.concatenate(([True], c_node[hit[1:]] != c_node[hit[:-1]]))]  # first per node
    nodes, lo, hi = c_node[hit], last[cut[hit]], first[cut[hit] + 1]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # a midpoint that rounds up to (or overflows past) the value above would send every row left
    gain = score[hit] - total[nodes] * total[nodes] / size[nodes]
    return nodes, gain, np.where(mid < hi, mid, lo), hit


def oob_predictions(forest: FlatForest, inbag: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Out-of-bag averaged predictions for the training rows, from the
    out-of-bag (row, tree) pairs only.  A row in-bag in every tree (about
    0.632^T of the rows: 63% at T = 1, 1% at T = 10) falls back to the
    all-trees average, so all its pairs descend."""
    oob = inbag.T == 0
    n_oob = oob.sum(axis=1)
    row, tree = np.nonzero(oob | (n_oob == 0)[:, None])
    per_tree = np.zeros(oob.shape)
    per_tree[row, tree] = forest.value[forest._descend(np.asarray(x, dtype=float), row, tree)[0]]
    oob_mean = (per_tree * oob).sum(axis=1) / np.maximum(n_oob, 1)
    return np.where(n_oob > 0, oob_mean, per_tree.mean(axis=1))
