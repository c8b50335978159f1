"""Bagged CART trees: the engine behind the forest model fits.

Regression trees maximize the split criterion sum(S_c^2 / n_c) over children,
equivalent to variance reduction; for 0/1 labels the same criterion is
equivalent to Gini impurity reduction, so one scan serves both tasks.  Trees
grow on points: a point is one tree's bootstrap copies of one distinct row of
x, with its copy count and its labels summed in bootstrap order; when every
row of x is distinct, each bootstrap row is a point.  Trees grow level by
level in batches of at most 2^15 points, so one numpy pass per feature scores
every threshold of every node of a level, and the node arrays are level-major
within each batch.  Each feature's order is sorted once by tree and the dense
ranks of its values (-0.0 and +0.0 share one), then stably by node at the
start of every level, so each node's points stay sorted per feature with ties
in the order of their last bootstrap rows.  Node sizes and split label sums
run over points (copy counts and point label sums); a leaf's value is its
bootstrap labels added in bootstrap order, over its copy count.  build_forest
draws every tree's randomness first (draw_forest) and grows from those draws
(grow_forest).  When a forest has one feature with no NaN, labels exactly 0.0
or 1.0, min_node_size 1 and bootstraps of at most 2^12 rows (every default
pstn-rf propensity forest), runs_oob reads its out-of-bag predictions from each
tree's label runs, without growing it: each leaf's value is one run's label
proportion, and a border between two runs is always cut, at a threshold set by
the two values beside it.

Determinism contract: tree k draws from the sub-stream seed.child(k); its
first draws are the n bootstrap row positions (`integers(0, n, n)` applied to
rows in the order given), followed by one `permutation(p)[:mtry]` feature
subset per node larger than min_node_size with non-constant labels, in
breadth-first order (level by level, left to right); with mtry == p none is
drawn.  The tree draws these subsets in one call right after its bootstrap,
one per node that could split (at most N - 1 over N rows, and 2D - 1 over D
distinct rows of x), so each takes the stream position its node's own draw
would.  One generator serves every tree (SeedSpec.children), reset to each
tree's stream before its draws.  Features are scanned in ascending
index, thresholds in ascending value, and ties keep the first candidate, so a
tree is a pure function of (bootstrap sequence, per-tree stream), except with
real-valued labels: a cut's label sums are differences of a prefix sum of point
label sums over its batch's whole level, whose rounding can break exactly tied
gains (ROADMAP item 7).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import SeedSpec
from .errors import ConfigError, EstimatorError

# Sampler signature: (tree_index, rng, n_rows) -> integer row positions.  The
# rng is valid only during the call: the next tree reuses it.
IndexSampler = Callable[[int, np.random.Generator, int], np.ndarray]

_LEAF = -1
_PAIRS = 1 << 14  # (row, tree) pairs per block in predict, a quarter in step_table: bounds memory
# points grown together: bounds memory; 16-bit sort keys get numpy's radix sort
_BATCH_ROWS = 1 << 15
# the largest bootstrap whose every node holding two label runs is sure to split (runs_oob)
_RUNS_ROWS = 1 << 12
_SQRT_MAX = np.sqrt(np.finfo(float).max)


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


@dataclass(frozen=True)
class Draws:
    """A forest's random draws over the rows of x, in the stream layout of the
    determinism contract: each tree's bootstrap positions and its feature subsets
    (none with mtry == p), the in-bag counts, (trees, rows), and each row's
    distinct feature row, told apart by bytes."""

    boots: list[np.ndarray]
    drawn: list[np.ndarray]
    inbag: np.ndarray
    group: np.ndarray


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
    draws = draw_forest(x, n_trees, mtry, seed, index_sampler)
    return grow_forest(x, y, draws, mtry, min_node_size), draws.inbag


def draw_forest(x: np.ndarray, n_trees: int, mtry: int, seed: SeedSpec,
                index_sampler: IndexSampler | None = None) -> Draws:
    """Every random draw of build_forest's trees over the rows `x`."""
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    sampler = index_sampler or (lambda k, rng, n_: rng.integers(0, n_, size=n_))
    feats = np.arange(p, dtype=np.min_scalar_type(p))
    # each row's distinct feature row, told apart by bytes (-0.0 beside +0.0 makes two)
    key = np.ascontiguousarray(x).view(f"V{8 * p}").ravel() if p else np.zeros(n, dtype=np.int8)
    group = np.unique(key, return_inverse=True)[1]
    distinct = int(group.max(initial=-1)) + 1
    # a tree over N positions has at most N - 1 nodes that draw a subset, and over
    # D distinct rows at most 2D - 1: identical rows share a leaf, so it has <= D
    # (D counted on the rows' bytes, which -0.0 beside +0.0 can only raise)
    cap = 2 * distinct - 1 if mtry < p else 0
    boots, drawn = [], []
    for k, rng in enumerate(seed.children(range(n_trees))):
        boots.append(np.asarray(sampler(k, rng, n)))
        if mtry < p:
            rows = max(0, min(boots[-1].size - 1, cap))
            drawn.append(rng.permuted(np.tile(feats, (rows, 1)), axis=1)[:, :mtry].copy())
    if (bad := _first_bad(boots, n)) is not None:
        raise ConfigError(f"index_sampler gave tree {bad} no non-empty 1-D integer array in [0, {n})")
    boots = [b.astype(np.intp) for b in boots]
    inbag = np.repeat(np.arange(n_trees) * n, [len(b) for b in boots]) + np.concatenate(boots)
    inbag = np.bincount(inbag, minlength=n_trees * n).reshape(n_trees, n).astype(np.int32)
    return Draws(boots, drawn, inbag, group)


def grow_forest(x: np.ndarray, y: np.ndarray, draws: Draws, mtry: int, min_node_size: int) -> FlatForest:
    """The trees of build_forest grown from `draws`, their draws over the rows `x`."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = len(x)
    boots, group = draws.boots, draws.group
    distinct = int(group.max(initial=-1)) + 1
    if not np.isfinite(y).all():
        raise ConfigError("forest labels must be finite")
    # over bootstraps of at most N rows a cut's score S_l^2/n_l + S_r^2/n_r is at most
    # 2 (N max|y|)^2, and a squared out-of-bag residual at most (2 max|y|)^2: both finite
    # when 2 N max|y| is at most the square root of the largest double
    if 2.0 * max(map(len, boots)) * (top := float(np.abs(y).max())) > _SQRT_MAX:
        raise EstimatorError(f"labels up to {top:.3g} in size overflow the forest's split scores")
    batches: list[tuple[np.ndarray, ...]] = []
    roots: list[int] = []
    # a tree's copies of a distinct row grow as one point when rows repeat (D < n)
    points = group if distinct < n else None
    # points per tree: its positions, or its distinct rows, counted when they can split
    # the forest into batches
    width = [len(b) for b in boots]
    if points is not None and sum(width) > _BATCH_ROWS:
        width = [np.count_nonzero(np.bincount(group[b], minlength=distinct)) for b in boots]
    for trees in _batches(width):
        first = sum(len(batch[0]) for batch in batches)
        roots += range(first, first + len(boots[trees]))
        batches.append(_grow(x, y, boots[trees], draws.drawn[trees], mtry, min_node_size, first, points))
    feature, threshold, left, value = map(np.concatenate, zip(*batches))
    return FlatForest(feature, threshold, left, value, np.array(roots, dtype=np.int32))


def _zero_one(y):
    """Whether every label is exactly 0.0 or 1.0 (no -0.0, no NaN): every label sum is
    then an integer, in any order the same double."""
    return y.tobytes() == (y == 1).astype(float).tobytes()


def _batches(width):
    """Slices of consecutive trees whose `width`s sum to at most _BATCH_ROWS, or of
    one wider tree."""
    lo, total = 0, 0
    for k, w in enumerate(width):
        if total + w > _BATCH_ROWS and k > lo:
            yield slice(lo, k)
            lo, total = k, 0
        total += w
    yield slice(lo, len(width))


def _first_bad(boots, n):
    """The first tree whose bootstrap is not a non-empty 1-D integer array of
    positions in [0, n), or None; checked on the concatenation, and tree by
    tree only when that fails."""
    valid = lambda b: b.ndim == 1 and b.dtype.kind in "iu" and 0 <= b.min() <= b.max() < n
    if all(b.ndim == 1 and b.size for b in boots) and valid(np.concatenate(boots)):
        return None
    return next((k for k, b in enumerate(boots) if not (b.size and valid(b))), None)


def _points(y, row, tree, group):
    """(point of each position, each point's last position, label sum, copies, min and max
    label; max is min when every point's labels are one value) of a batch's positions
    `row` of trees `tree`: a point is one tree's positions of one `group`, its labels
    summed in bootstrap order, and points come in the order of their last positions."""
    distinct = group.max() + 1
    key = tree * distinct + group[row]
    by_key = np.argsort(key.astype(np.min_scalar_type((tree[-1] + 1) * distinct)), kind="stable")
    head = np.flatnonzero(np.concatenate(([True], key[by_key[1:]] != key[by_key[:-1]])))
    count = np.diff(np.append(head, len(row)))
    last = by_key[head + count - 1]
    by_last = np.argsort(last)
    pid = np.empty(len(row), dtype=np.intp)
    pid[by_key] = np.repeat(np.argsort(by_last), count)
    labels = y[row[by_key]]
    sums, low, high = (f.reduceat(labels, head)[by_last] for f in (np.add, np.minimum, np.maximum))
    high = low if np.array_equal(low, high) else high
    return pid, last[by_last], sums, count[by_last].astype(float), low, high


def _grow(x, y, boots, drawn, mtry, min_node_size, first_id, group):
    """Grow a batch of trees level by level on points; returns its node arrays
    (feature, threshold, left, value), level-major, numbered from first_id.

    A point is one tree's bootstrap copies of one distinct feature row (`group`
    numbers the rows; without it each position is a point, its labels read
    through its row), with its copy count and label sum.  node_of maps each live
    point to its node, breadth-first per tree; order[f] holds each node's points
    as one segment sorted by feature f's value ranks, ties in the order of the
    points' last positions, so a run of ties ends at the value of its last
    position; the segments are alike in every order: each level begins by stably
    re-sorting every order by node_of.  Node sizes and cut label sums are sums
    over points.  leaf_of holds each point's node as of the last level it was
    live, its leaf's once it drops out; a leaf's value is its bootstrap labels
    added in bootstrap order, over its copy count.  With mtry < p, drawn[t] holds
    tree t's feature subsets in stream order, and cursor[t] is its next unread
    row of their concatenation.
    """
    row, xt = np.concatenate(boots), np.ascontiguousarray(x.T)
    p, tree, levels, next_id = x.shape[1], np.arange(len(boots)), [], 0
    size = np.array([len(b) for b in boots])  # bootstrap rows per node
    node_of = np.repeat(tree, size)
    if group is None:
        pid, at, width, sums, low, high = np.arange(len(row)), row, size, None, None, None
    else:
        pid, last, sums, count, low, high = _points(y, row, node_of, group)
        at, node_of = row[last], node_of[last]  # each point's feature row and tree
        width = np.bincount(node_of, minlength=len(boots))  # points per node
    node_of = node_of.astype(np.min_scalar_type(-len(at)))
    leaf_of = np.empty(len(at), dtype=np.intp)
    ranks = [np.unique(c, return_inverse=True)[1].astype(np.min_scalar_type(len(x))) for c in x.T]
    order = [np.argsort(r[at], kind="stable") for r in ranks] or [np.arange(len(at))]
    if mtry < p:
        draws = [len(d) for d in drawn]
        cursor, drawn = np.cumsum(draws) - draws, np.concatenate(drawn)
    while True:
        for i in range(len(order)):  # one at a time: the old and new orders are never all alive
            order[i] = order[i][np.argsort(node_of[order[i]], kind="stable")]
        k, start = len(size), np.cumsum(width) - width
        node = np.repeat(np.arange(k), width)  # every live node holds a point
        o0 = order[0]
        a0 = at[o0]
        bottom = y[a0] if sums is None else low[o0]
        top = bottom if high is low else high[o0]
        cand = size > min_node_size
        cand &= np.minimum.reduceat(bottom, start) < np.maximum.reduceat(top, start)
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
                a = at[o]
                s, c = (y[a], None) if sums is None else (sums[o], count[o])
                nodes, g, t, n = _best_cuts(xt[f][a], s, c, node, start, width, size, scan)
                better = g > gain[nodes] + 1e-12
                nodes = nodes[better]
                gain[nodes], feat[nodes], thr[nodes], n_left[nodes] = g[better], f, t[better], n[better]
        split = feat != _LEAF
        ids = np.full(k, _LEAF, dtype=np.int32)
        ids[split] = first_id + next_id + k + 2 * np.arange(split.sum())
        levels.append((feat, thr, ids, size))
        leaf_of[o0] = next_id + node
        next_id += k
        if not split.any():
            break
        # a split node's points move to its children by predict's <= rule
        went_right = ~(xt.ravel()[feat[node] * len(x) + a0] <= thr[node])
        node_of[o0] = (2 * np.cumsum(split) - 2)[node] + went_right  # 2 * rank + side
        keep = split[node]  # a leaf's points drop out
        for i in range(len(order)):
            order[i] = order[i][keep]
        size = np.column_stack((n_left, size - n_left))[split].ravel()
        width = size if sums is None else np.bincount(node_of[o0[keep]], minlength=len(size))
        tree = np.repeat(tree[split], 2)
    feat, thr, left, size = map(np.concatenate, zip(*levels))
    return feat, thr, left, np.bincount(leaf_of[pid], y[row], next_id) / size


def _best_cuts(xs, ys, ns, node, start, width, size, scan):
    """(nodes, gain, threshold, rows left) of each scanned node's first best cut on one
    feature; `xs`, `ys` and `ns` (label sums and copy counts, None for one copy each) are
    the live points in this feature's order.  A cut between xs[i] and xs[i + 1] gains
    sum(S_c^2/n_c) - S^2/n."""
    csum = np.cumsum(ys)
    before = np.concatenate(([0.0], csum))[start]  # label sum ahead of each segment
    total = csum[start + width - 1] - before
    ok = (xs[:-1] < xs[1:]) & scan[node[:-1]]
    ok[(start + width - 1)[:-1]] = False  # a cut never spans two nodes
    cut = np.flatnonzero(ok)
    if cut.size == 0:
        return cut, np.zeros(0), np.zeros(0), cut
    c_node = node[cut]
    if ns is None:
        n_left = (cut - start[c_node] + 1).astype(float)
    else:
        nsum = np.cumsum(ns)
        n_left = nsum[cut] - np.concatenate(([0.0], nsum))[start][c_node]
    s_left = csum[cut] - before[c_node]
    score = s_left**2 / n_left + (total[c_node] - s_left) ** 2 / (size[c_node] - n_left)
    head = np.flatnonzero(np.concatenate(([True], c_node[1:] != c_node[:-1])))
    top = np.repeat(np.maximum.reduceat(score, head), np.diff(np.append(head, len(cut))))
    hit = np.flatnonzero(score == top)
    hit = hit[np.concatenate(([True], c_node[hit[1:]] != c_node[hit[:-1]]))]  # first per node
    nodes, lo, hi = c_node[hit], xs[cut[hit]], xs[cut[hit] + 1]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # a midpoint that rounds up to (or overflows past) the value above would send every row left
    gain = score[hit] - total[nodes] * total[nodes] / size[nodes]
    return nodes, gain, np.where(mid < hi, mid, lo), n_left[hit].astype(np.intp)


def oob_predictions(forest: FlatForest, inbag: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Out-of-bag averaged predictions for the training rows, from the
    out-of-bag (row, tree) pairs only.  A row in-bag in every tree (about
    0.632^T of the rows: 63% at T = 1, 1% at T = 10) falls back to the
    all-trees average, so all its pairs descend."""
    x = np.asarray(x, dtype=float)
    return _oob_mean(inbag, lambda row, tree: forest.value[forest._descend(x, row, tree)[0]])


def _oob_mean(inbag, leaf_value):
    """The out-of-bag mean over the trees of each training row, from `leaf_value(row,
    tree)`, the value of the leaf each (row, tree) pair reaches, asked for the pairs
    that oob_predictions needs."""
    oob = inbag.T == 0
    n_oob = oob.sum(axis=1)
    row, tree = np.nonzero(oob | (n_oob == 0)[:, None])
    per_tree = np.zeros(oob.shape)
    per_tree[row, tree] = leaf_value(row, tree)
    oob_mean = (per_tree * oob).sum(axis=1) / np.maximum(n_oob, 1)
    return np.where(n_oob > 0, oob_mean, per_tree.mean(axis=1))


def runs_oob(x: np.ndarray, y: np.ndarray, draws: Draws, min_node_size: int) -> np.ndarray | None:
    """oob_predictions of grow_forest(x, y, draws, 1, min_node_size), bit for bit, read
    from each tree's label runs without growing it; None outside the rule's domain: one
    feature with no NaN, labels exactly 0.0 or 1.0, min_node_size 1, and bootstraps of
    at most 2^12 positions.  A slot is one tree's (value rank) cell: its positions at one
    value rank, -0.0 and +0.0 sharing one.  _grow cuts such a forest's nodes only between
    slots (_best_cuts' xs[i] < xs[i + 1]), and its label sums are integers below 2^53,
    the same doubles in any order.  A run is a maximal sequence of one tree's adjacent
    slots with one label proportion.

    (a) Cuts inside a run never change a value: a leaf whose slots share one proportion
        holds it as total / size, whatever cuts made it, and quotients of equal
        rationals round to the same double, so it is each of its slots' sum / count.
    (b) Every node that holds two runs splits.  It is impure, bigger than 1, and its
        slots have distinct values (finite or +-inf), so every border is a valid cut.
        If every border left the same proportion on both sides, every slot would have
        it; so some border's sides have proportions s_l / n_l != s_r / n_r, at least
        1 / (n_l n_r) apart, and that cut gains n_l n_r / n (s_l / n_l - s_r / n_r)^2 >=
        1 / (n n_l n_r) >= 4 / N^3 over N bootstrap positions.  For N <= 2^12 that is
        at least 5.8e-11, above the grower's 1e-12 margin plus the rounding of scores
        below N (under 4e-12).  Each leaf therefore lies in one run.
    (c) A border's threshold depends only on its two slots: _best_cuts puts it at the
        midpoint of their values, or at the lower one when the midpoint rounds up to
        (or overflows past) the upper one; neither moves with the sign of a zero.
    So a row at one of a tree's value ranks reads that slot's sum / count, and a row
    strictly between two adjacent slots takes the lower one's iff its value is <= their
    border's threshold: by (b) a border between two runs is cut, and on the same run
    both sides read the same double by (a).  Below or above every slot, a row reads the
    nearest one's.  There is no sort, no growth and no descent; trees are read in
    batches of at most 2^15 (tree, value rank) cells.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (x.shape[1] == 1 and min_node_size == 1 and _zero_one(y) and not np.isnan(x).any()
            and max(len(b) for b in draws.boots) <= _RUNS_ROWS):
        return None
    values, rank = np.unique(x[:, 0], return_inverse=True)  # -0.0 and +0.0 share a rank
    k, at, tables = len(values), np.arange(len(values)), []
    for trees in _batches([k] * len(draws.boots)):
        boots = draws.boots[trees]
        row = np.concatenate(boots)
        cell = np.repeat(np.arange(len(boots)) * k, [len(b) for b in boots]) + rank[row]
        count = np.bincount(cell, minlength=len(boots) * k).reshape(-1, k)
        total = np.bincount(cell, y[row], len(boots) * k).reshape(-1, k)
        here = count > 0
        below = np.maximum.accumulate(np.where(here, at, -1), axis=1)  # nearest slot at or below
        above = np.minimum.accumulate(np.where(here, at, k)[:, ::-1], axis=1)[:, ::-1]  # at or above
        lo, hi = values[np.maximum(below, 0)], values[np.minimum(above, k - 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            mid = (lo + hi) / 2.0
        left = (above == k) | ((below >= 0) & (values <= np.where(mid < hi, mid, lo)))
        slot = np.where(left, below, above)
        tables.append(np.take_along_axis(total / np.maximum(count, 1), slot, axis=1))
    table = np.concatenate(tables)
    return _oob_mean(draws.inbag, lambda row, tree: table[tree, rank[row]])
