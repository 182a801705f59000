"""Random geometric graphs: pattern-count statistics and radius-regime experiments.

A graph is built on n sampled points with edges between distinct points at
Euclidean distance strictly between 0 and the radius; the statistic counts
p-subsets whose induced graph is isomorphic to a fixed connected pattern.
Counting is exact (`count_subgraphs` describes the pipeline): the pairs within
reach of the radius are listed once, by a cell grid for planar points and a
KD-tree otherwise, and every count with p >= 3 reads one sorted array of edge
keys in the labels the pair lister gave the points.  Tuples and the edge list
apply the one squared-distance predicate `_strict` to their pairs i < j, and
every bit code has the one layout of `_pair_codes`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, ParameterError, PreconditionError
from .montecarlo import (
    MIN_REPLICATES_FOR_DISTANCE,
    FloorAwareFit,
    Purpose,
    ReplicateSet,
    _block_rows,
    _replicates,
    _resampled,
    coupling_bias,
    debiased_distance,
    fit_distance_powerlaw,
    ols_loglog,
    stream,
    wasserstein_to_normal,
)

MAX_PATTERN_VERTICES = 7

#: largest row, in outer samples, of ``gk_contraction_mc`` and, in tuples, of
#: the variance check's pattern probability; each fixes the estimate it cuts
_GK_ROW = 256
_Q_ROW = 50_000


def _pair_codes(shape, p: int, adjacent) -> np.ndarray:
    """Adjacency bit codes of p-vertex tuples: bit b is set where ``adjacent(i, j)`` holds
    for the b-th pair i < j of ``itertools.combinations(range(p), 2)``, OR-ed in
    place into a zero array of the full ``shape``, which each pair broadcasts to."""
    codes = np.zeros(shape, dtype=np.int64)
    for b, (i, j) in enumerate(itertools.combinations(range(p), 2)):
        codes |= adjacent(i, j).astype(np.int64) << b
    return codes


@dataclass(frozen=True)
class GraphPattern:
    """A fixed connected graph on p vertices (2 <= p <= 7), given by adjacency."""

    adjacency: np.ndarray
    name: str = "custom"
    _iso_codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ParameterError("adjacency must be a square matrix")
        p = a.shape[0]
        if p < 2:
            raise ParameterError("patterns need at least two vertices")
        if p > MAX_PATTERN_VERTICES:
            raise CapacityError(f"patterns are capped at {MAX_PATTERN_VERTICES} vertices")
        if np.any(np.diag(a)):
            raise ParameterError("adjacency must have a zero diagonal")
        if not np.array_equal(a, a.T):
            raise ParameterError("adjacency must be symmetric")
        if not _connected(a):
            raise ParameterError("pattern must be connected")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

        # the codes of every relabelling of the vertices, sorted and distinct
        perms = np.array(list(itertools.permutations(range(p))))
        arr = np.unique(_pair_codes(len(perms), p, lambda i, j: a[perms[:, i], perms[:, j]]))
        arr.setflags(write=False)
        object.__setattr__(self, "_iso_codes", arr)

    @property
    def p(self) -> int:
        return int(self.adjacency.shape[0])

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2


def _connected(a: np.ndarray) -> bool:
    p = a.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in np.flatnonzero(a[v]):
            if w not in seen:
                seen.add(int(w))
                frontier.append(int(w))
    return len(seen) == p


def named_pattern(name: str) -> GraphPattern:
    if name == "edge":
        return GraphPattern(np.array([[0, 1], [1, 0]]), name="edge")
    if name == "triangle":
        return complete_pattern(3)
    if name == "path3":
        return GraphPattern(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]), name="path3")
    raise ParameterError(f"unknown pattern name {name!r}")


def complete_pattern(p: int) -> GraphPattern:
    a = np.ones((p, p), dtype=bool)
    np.fill_diagonal(a, False)
    return GraphPattern(a, name=f"complete{p}")


def _strict(diffs, t: float) -> np.ndarray:
    """Whether 0 < d**2 < t**2, where d**2 sums the squares of the per-coordinate
    differences ``diffs`` (an iterable of arrays) one coordinate at a time."""
    diffs = iter(diffs)
    d2 = next(diffs) ** 2
    for dk in diffs:
        d2 += dk**2
    return (d2 > 0.0) & (d2 < t * t)


def _strict_mask(cols, a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """`_strict` for the index pairs (a, b) of points given as contiguous coordinate
    columns; gathering columns, not rows, gives the same differences in the same order."""
    return _strict((c[a] - c[b] for c in cols), t)


def geometric_codes(points, t: float) -> np.ndarray:
    """Bit codes (`_pair_codes`) of point tuples from their pairs i < j at 0 < distance < t.

    ``points`` is an array (..., p, d) of tuples, or a list of the p vertices'
    arrays (..., d), which broadcast against each other.
    """
    if isinstance(points, list):
        vertices = [np.asarray(v, dtype=float) for v in points]
    else:
        vertices = list(np.moveaxis(np.asarray(points, dtype=float), -2, 0))
    d = vertices[0].shape[-1]
    return _pair_codes(np.broadcast_shapes(*(v.shape[:-1] for v in vertices)), len(vertices),
                       lambda i, j: _strict((vertices[i][..., k] - vertices[j][..., k]
                                             for k in range(d)), t))


def pattern_indicator(points, pat: GraphPattern, t: float) -> np.ndarray:
    """Vectorized induced-isomorphism indicator over batches of p-point tuples,
    given as ``geometric_codes`` takes them."""
    return _is_pattern_code(geometric_codes(points, t), pat).astype(float)


def _is_pattern_code(codes: np.ndarray, pat: GraphPattern) -> np.ndarray:
    """Whether each bit code is one of the pattern's sorted isomorphism codes."""
    # the sort kind: numpy's default isin cost 4-40x more on these few codes
    return np.isin(codes, pat._iso_codes, kind="sort")


#: a 2-D cell grid is built only up to _GRID_CELLS_PER_POINT * n + 64 cells, so
#: its cell table stays O(n); sparser inputs (small radii against the span, far
#: outliers) have their pairs listed by the KD-tree
_GRID_CELLS_PER_POINT = 4

#: candidate pairs per block of the grid: each block's index and coordinate
#: temporaries stay at 64 KiB, which checked the C4 pairs at n = 8192 (36k
#: candidates) 1.2x and the C2 pairs at n = 512 (38k) 1.9x faster than one
#: block (2-vCPU x86-64)
_GRID_BLOCK = 8192


def _grid_candidates(cols, t: float):
    """Candidate pairs of 2-D points from a row-major cell grid, or None past the cell cap.

    ``cols`` are the points' two contiguous coordinate columns.  Returns
    ``(cols, blocks)``: ``cols`` are the columns sorted by cell, and
    ``blocks`` yields arrays (a, b) of sorted positions with a < b that list
    every pair in the same or adjacent cells once.  Each point is paired with
    one contiguous run for the rest of its cell and the cell to its right, and
    one for the three cells of the next row; an empty column at the end of
    every row keeps both runs in the point's neighbourhood.  (Bentley, Stanat
    & Williams 1977, Inf. Process. Lett. 6:209.)
    """
    n = cols[0].size
    lo = [c.min() for c in cols]
    span = [c.max() - m for c, m in zip(cols, lo)]
    tt = t * t
    reach = float(max(span)) / t
    cap = _GRID_CELLS_PER_POINT * n + 64
    # a normal, finite t*t keeps the rounding bound below; reach < cap bounds
    # every cell index, and fails for NaN and overflow as well
    if not (np.finfo(float).tiny <= tt < math.inf and reach < cap):
        return None
    # Cells have side c = t (1 + delta).  With u = 2**-53, a pair passing
    # fl(d**2) < fl(t*t) has fl(dx**2) <= fl(d**2) per axis, so its exact gap
    # is below t (1 + 2u) to first order.  The cell coordinate q = fl(fl(x - lo) / c)
    # is off from (x - lo) / c by at most 2u q, and q <= reach, so the two
    # coordinates differ by less than (1 + 3u) / (1 + delta) + 4u reach, which
    # delta = 8u (reach + 2) keeps at most 1: their cells are equal or adjacent.
    c = t * (1.0 + 2.0**-50 * (reach + 2.0))
    nx, ny = (int(math.floor(s / c)) + 1 for s in span)
    if nx * ny > cap:
        return None
    w = nx + 1  # the last column of each row stays empty
    key = ((cols[0] - lo[0]) / c).astype(np.int64)
    key += ((cols[1] - lo[1]) / c).astype(np.int64) * w
    order = np.argsort(key)
    key = key[order]
    start = np.zeros((ny + 1) * w + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=(ny + 1) * w), out=start[1:])
    # run 1: the rest of the own cell and the right cell; run 2: the next row's three cells
    runs = [(np.arange(1, n + 1), start[key + 2]), (start[key + w - 1], start[key + w + 2])]
    return [col[order] for col in cols], _run_blocks(runs)


def _run_blocks(runs):
    """Blocks (a, b) of the pairs (i, j) with j in [s[i], e[i]) for a run (s, e)
    of ``runs``, cut between values of i at multiples of ``_GRID_BLOCK`` pairs."""
    per = np.cumsum(sum(e - s for s, e in runs))
    cuts = np.searchsorted(per, np.arange(_GRID_BLOCK, per[-1], _GRID_BLOCK)).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, per.size]):
        if lo == hi:
            continue
        first = np.concatenate([s[lo:hi] for s, _ in runs])
        size = np.concatenate([e[lo:hi] for _, e in runs]) - first
        ends = np.cumsum(size)
        a = np.repeat(np.tile(np.arange(lo, hi), len(runs)), size)
        b = np.repeat(first - ends + size, size) + np.arange(ends[-1])
        yield a, b


def _candidate_blocks(pts: np.ndarray, t: float):
    """Candidate pairs within reach of t, as ``(cols, blocks)``.

    ``cols`` are the points' contiguous coordinate columns in the labels of the
    pairs: sorted by cell on the 2-D grid, as given for the KD-tree.  ``blocks``
    yields (a, b, mask): label pairs with a < b and the mask of those at
    0 < distance < t.
    """
    cols = [np.ascontiguousarray(pts[:, k]) for k in range(pts.shape[1])]
    grid = _grid_candidates(cols, t) if len(cols) == 2 else None
    if grid is None:
        from scipy.spatial import cKDTree

        # sliding-midpoint splits build faster; the strict mask makes the pairs tree-free
        tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)
        grid = cols, [tree.query_pairs(r=t, output_type="ndarray").T]
    cols, blocks = grid
    return cols, ((a, b, _strict_mask(cols, a, b, t)) for a, b in blocks)


def _strict_edges(pts: np.ndarray, t: float):
    """The edges at 0 < distance < t as ``(cols, key)``: the sorted keys
    a * n + b (a < b) in the labels of the coordinate columns ``cols``."""
    n = pts.shape[0]
    cols, blocks = _candidate_blocks(pts, t)
    return cols, np.sort(np.concatenate([a[mask] * n + b[mask] for a, b, mask in blocks]))


def _strict_count_1d(x: np.ndarray, t: float) -> int:
    """Pairs of the values x at 0 < (x_i - x_j)**2 < t*t, without listing them.

    In sorted order the squared gap to a value is non-decreasing in the
    partner's rank, so the partners above each value form one run: from the
    first value whose squared gap is not 0 to the first whose squared gap is
    not below t*t.
    """
    x = np.sort(x)
    t2 = t * t
    # a run of zero squared gaps starts at the next rank; only tied rows are bisected
    lo = _run_end(x, np.arange(1, x.size + 1), lambda d2: d2 == 0.0)
    hi = _run_end(x, lo, lambda d2: d2 < t2, np.searchsorted(x, x + t))
    return int(np.sum(hi - lo))


def _run_end(x: np.ndarray, start: np.ndarray, keep, guess=None) -> np.ndarray:
    """Per i, the first j >= start[i] with not keep((x[j] - x[i])**2), or x.size.

    ``keep`` must hold on a prefix of each row's range.  A guess is kept where
    the predicate confirms it; every other row is bisected on [start, x.size].
    """
    n = x.size
    end = np.maximum(start, start if guess is None else guess)
    below = keep((x[np.maximum(end - 1, 0)] - x) ** 2) | (end == start)
    above = ~keep((x[np.minimum(end, n - 1)] - x) ** 2) | (end == n)
    rows = np.flatnonzero(~(below & above))
    a, b = start[rows], np.full(rows.size, n)
    while (active := a < b).any():
        m = (a + b) // 2
        ok = active & keep((x[np.minimum(m, n - 1)] - x[rows]) ** 2)
        a, b = np.where(ok, m + 1, a), np.where(active & ~ok, m, b)
    end[rows] = a
    return end


def _unique_rows(cols, n: int) -> np.ndarray:
    """Distinct rows of vertex indices below n, in lexicographic order.

    ``cols`` is the list of the rows' k vertex columns.  Rows are packed
    into one int64 key in base n, and the keys are sorted with the repeats
    dropped; the result is an (m', k) array whose columns are contiguous.
    When n**k does not fit in an int64, rows are compared row-wise instead.
    """
    k = len(cols)
    if n**k >= 2**63:
        return np.unique(np.column_stack(cols), axis=0)
    # a sort and an adjacent-difference mask, not np.unique: numpy 2.4 takes a
    # hash path there that cost 1.0 ms on 5.7k keys and 40 ms on 100k, against
    # 63 us and 1.0 ms for the sort (2-vCPU x86-64, fresh keys each call)
    key = cols[0].astype(np.int64)
    for c in cols[1:]:
        key *= n
        key += c
    key.sort()
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    key = key[new]
    out = np.empty((k, key.size), dtype=np.int64)
    for c in range(k - 1, 0, -1):
        key, out[c] = np.divmod(key, n)
    out[0] = key
    return out.T


class _StrictGraph:
    """CSR adjacency of the strict-radius graph, with each vertex's degree."""

    def __init__(self, key: np.ndarray, n: int):
        """The graph of the distinct edge keys i * n + j (i < j), in any order."""
        self.n = n
        # one sorted key src * n + dst per directed edge: the CSR in key order
        key = np.concatenate([key, key % n * n + key // n])
        key.sort()
        src, self.indices = np.divmod(key, n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        self.degree = np.diff(self.indptr)

    def extend(self, rows: np.ndarray) -> np.ndarray:
        """Distinct (k+1)-sets grown from the sorted k-sets ``rows``, as `_unique_rows` gives them.

        A set takes any neighbour of a member that exceeds the set's minimum.
        Rows are handled as 1-D vertex columns: the members' neighbours are
        listed column after column, membership is tested one column at a time,
        and the new vertex is merged into the sorted rows column by column.
        """
        m, k = rows.shape
        cols = rows.T
        # the neighbours of every member, listed column after column
        flat = cols.ravel()
        deg = self.degree[flat]
        ends = np.cumsum(deg)
        w = self.indices[np.repeat(self.indptr[flat] - ends + deg, deg)
                         + np.arange(ends[-1] if flat.size else 0)]
        src = np.repeat(np.arange(k * m) % m, deg)
        keep = w > cols[0][src]
        for c in cols[1:]:
            keep &= w != c[src]
        idx = np.flatnonzero(keep)
        src, w = src[idx], w[idx]
        base = [c[src] for c in cols]
        # w exceeds the minimum and is no member, so the merged row is
        # b_0, then b_j where w > b_j, else max(b_(j-1), w), then max(b_(k-1), w)
        grown = [base[0]]
        for j in range(1, len(base)):
            grown.append(np.where(w > base[j], base[j], np.maximum(base[j - 1], w)))
        grown.append(np.maximum(base[-1], w))
        return _unique_rows(grown, self.n)


#: largest number of candidate elements (rows times columns) one growth step
#: materializes; anchor vertices are processed in blocks that keep under it
_GROW_BUDGET = 1 << 21


def _count_grown(graph: _StrictGraph, rows: np.ndarray, pts: np.ndarray,
                 pat: GraphPattern, t: float) -> int:
    """Pattern copies among the connected p-sets grown from the sorted k-sets ``rows``.

    Every set grown from a k-set keeps its minimum (the anchor), so rows are
    split into blocks of whole anchors, each deduplicated completely on its own.
    The p-sets are classified by `geometric_codes` of the points ``pts`` at
    radius t, as point tuples are.
    """
    p = pat.p
    m, k = rows.shape
    if m == 0:
        return 0
    if k == p:
        codes = geometric_codes([pts.take(c, axis=0) for c in rows.T], t)
        return int(np.count_nonzero(_is_pattern_code(codes, pat)))
    size = sum(graph.degree[c] for c in rows.T) * (k + 1)
    if int(size.sum()) <= _GROW_BUDGET:
        return _count_grown(graph, graph.extend(rows), pts, pat, t)
    before = np.cumsum(size) - size
    first = np.flatnonzero(np.r_[True, rows[1:, 0] != rows[:-1, 0]])
    block = before[first] // _GROW_BUDGET
    cuts = first[np.flatnonzero(np.diff(block)) + 1]
    total = 0
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, m]):
        total += _count_grown(graph, graph.extend(rows[lo:hi]), pts, pat, t)
    return total


def count_subgraphs(points: np.ndarray, pat: GraphPattern, t: float) -> int:
    """Number of p-subsets inducing a copy of the pattern; exact.

    Edges join points at squared distance strictly between 0 and t**2, the
    same predicate ``geometric_codes`` applies, so ties at distance t and
    coincident points are never adjacent.  Edge counts of points on a line
    come from the sorted values.  Otherwise the candidate pairs are listed
    once: planar points are sorted into a row-major grid of cells slightly
    wider than t and paired with their own and the adjacent cells, unless the
    grid would exceed 4n + 64 cells; every other input goes to a
    sliding-midpoint KD-tree.  An edge count sums the strict masks.  For
    p >= 3 the kept pairs become one sorted array of edge keys i * n + j
    (i < j) in the lister's labels (the grid's cell order, or the input
    order), with the points returned in those labels (`_strict_edges`); no
    count depends on the labels.  A 3-vertex pattern is the path or the
    triangle, told apart by its edge count: every wedge W = sum of
    C(deg v, 2) is an induced path (one centre) or a triangle (three), so
    paths are W - 3T, and the triangles T are the forward wedges whose
    closing edge is in the keys (`_count_three`).  For p >= 4 the connected
    induced vertex sets are grown level by level from the edge rows (as in
    Wernicke's ESU motif enumeration, IEEE/ACM TCBB 2006), one vertex column
    at a time: a set takes any neighbour of a member above the set's minimum,
    the new vertex is merged into the sorted row, and duplicates are dropped
    by sorting the sets' packed base-n keys.  Each p-set is classified by its
    `geometric_codes` bit code against the pattern's isomorphism codes.
    Copies of a connected pattern are connected sets, so the result equals
    direct enumeration over all p-subsets.  Points must be a finite (n, d)
    array with d >= 1, and the radius must not be NaN.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise ParameterError(f"points must be an (n, d) array with d >= 1, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ParameterError("point coordinates must be finite")
    if math.isnan(t):
        raise ParameterError("radius must not be NaN")
    n = pts.shape[0]
    p = pat.p
    if n < p:
        raise ParameterError(f"need at least {p} points, got {n}")
    if t <= 0:
        return 0
    if p == 2 and pts.shape[1] == 1:
        return _strict_count_1d(pts[:, 0], t)
    if p == 2:
        return sum(int(np.count_nonzero(mask)) for _, _, mask in _candidate_blocks(pts, t)[1])
    cols, key = _strict_edges(pts, t)
    if p == 3:
        return _count_three(key, n, pat.edge_count == 3)
    # the sorted keys are the lexicographic edge rows, with contiguous columns
    rows = np.transpose(np.divmod(key, n))
    return _count_grown(_StrictGraph(key, n), rows, np.column_stack(cols), pat, t)


def _count_three(key: np.ndarray, n: int, triangle: bool) -> int:
    """Triangles, or else induced 3-vertex paths, of the graph whose edges are the
    sorted distinct keys i * n + j (i < j).

    A wedge (two edges at a shared centre) spans an induced path, which has
    one centre, or a triangle, which has three, so the paths number W - 3T
    with W the sum of C(deg v, 2).  T counts forward wedges: in sorted key
    order each vertex's edges to larger vertices form one run with ascending
    ends, and two positions a < b of a run close a triangle exactly when
    ``dst[a] * n + dst[b]`` is an edge key.  The position pairs are expanded
    in `_run_blocks` blocks.
    """
    src, dst = np.divmod(key, n)
    outdeg = np.bincount(src, minlength=n)
    tri = 0
    if key.size:
        for a, b in _run_blocks([(np.arange(1, key.size + 1), np.cumsum(outdeg)[src])]):
            q = dst[a] * n + dst[b]
            hit = key[np.minimum(np.searchsorted(key, q), key.size - 1)] == q
            tri += int(np.count_nonzero(hit))
    if triangle:
        return tri
    deg = outdeg + np.bincount(dst, minlength=n)
    return int(np.sum(deg * (deg - 1) // 2)) - 3 * tri


@dataclass(frozen=True)
class DensityModel:
    """Sampling model for the point distribution (bounded, a.e.-continuous density)."""

    kind: str  # "uniform-box" | "uniform-ball" | "gaussian"
    dimension: int

    def __post_init__(self):
        if self.kind not in ("uniform-box", "uniform-ball", "gaussian"):
            raise ParameterError(f"unknown density kind {self.kind!r}")
        if self.dimension < 1:
            raise ParameterError("dimension must be >= 1")

    @property
    def is_uniform(self) -> bool:
        return self.kind in ("uniform-box", "uniform-ball")

    def in_support(self, points: np.ndarray) -> np.ndarray:
        """Support membership per point tuple (all True for the gaussian)."""
        pts = np.asarray(points, dtype=float)
        if self.kind == "uniform-box":
            ok = (pts >= 0.0) & (pts <= 1.0)
            return ok.all(axis=(-2, -1))
        if self.kind == "uniform-ball":
            return (np.sum(pts * pts, axis=-1) <= 1.0).all(axis=-1)
        return np.ones(pts.shape[:-2], dtype=bool)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        d = self.dimension
        if self.kind == "uniform-box":
            return rng.random((n, d))
        if self.kind == "gaussian":
            return rng.standard_normal((n, d))
        dirs = rng.standard_normal((n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rng.random(n) ** (1.0 / d)
        return dirs * radii[:, None]


@dataclass(frozen=True)
class RadiusSchedule:
    """Radius sequence t_n per regime.

    C1 (sparse), C2 (dense, uniform points) and C3 (dense, non-uniform points)
    use t_n = n^(-beta/d); C4 (thermodynamic) uses t_n = (rho / n)^(1/d).
    The parameter the regime does not use must be left out.  The sparse
    regime additionally requires 1 < beta < p / (p - 1), which depends on
    the pattern and is checked when an experiment is assembled.
    """

    regime: str
    beta: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self):
        if self.regime not in ("C1", "C2", "C3", "C4"):
            raise ParameterError(f"unknown regime {self.regime!r}")
        unused = "beta" if self.regime == "C4" else "rho"
        if getattr(self, unused) is not None:
            raise ParameterError(f"field '{unused}' does not apply to regime {self.regime}")
        if self.regime == "C4":
            if self.rho is None or not 0 < self.rho < math.inf:
                raise ParameterError(f"regime C4 needs a finite rho > 0, got {self.rho}")
        else:
            if self.beta is None or not 0 < self.beta < math.inf:
                raise ParameterError(
                    f"regime {self.regime} needs a finite beta > 0, got {self.beta}")
            if self.regime in ("C2", "C3") and not self.beta < 1:
                raise ParameterError("dense regimes need 0 < beta < 1")
            if self.regime == "C1" and not self.beta > 1:
                raise ParameterError("the sparse regime needs beta > 1")

    def radius(self, n: int, d: int) -> float:
        if self.regime == "C4":
            return (self.rho / n) ** (1.0 / d)
        return float(n) ** (-self.beta / d)


def regime_targets(p: int, schedule: RadiusSchedule) -> dict:
    """Fitted-exponent targets per regime, with bound-only flags where applicable."""
    beta = schedule.beta
    if schedule.regime == "C4":
        mean_t, var_t, var_flag = 1.0, 1.0, "asymptotic"
        dw_t, dw_flag = -0.5, "asymptotic-rate"
    elif schedule.regime == "C1":
        mean_t = p - beta * (p - 1)
        var_t, var_flag = mean_t, "asymptotic"
        dw_t, dw_flag = -mean_t / 2.0, "asymptotic-rate"
    elif schedule.regime == "C3":
        mean_t = p - beta * (p - 1)
        var_t, var_flag = (2 * p - 1) - beta * (2 * p - 2), "asymptotic"
        dw_t, dw_flag = -0.5, "asymptotic-rate"
    else:  # C2: only a variance lower bound is known; rates are bounds, not asymptotics
        mean_t = p - beta * (p - 1)
        var_t, var_flag = mean_t, "lower-bound-only"
        dw_t, dw_flag = (2 * p - 3 - beta * (2 * p - 2)) / 2.0, "upper-bound-only"
    return {
        "mean": {"target": mean_t, "flag": "asymptotic"},
        "variance": {"target": var_t, "flag": var_flag},
        "distance": {"target": dw_t, "flag": dw_flag},
    }


@dataclass(frozen=True)
class RegimeReport:
    config: dict
    records: tuple
    exponents: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "records": list(self.records),
            "exponents": self.exponents,
        }


def _sample_vertices(density: DensityModel, rng: np.random.Generator, shape, m: int) -> list:
    """m density points per tuple of the given shape, as a list of m vertex
    arrays (*shape, d); the tuples are drawn one after another."""
    if not m:
        return []
    pts = density.sample(rng, math.prod(shape) * m).reshape(*shape, m, density.dimension)
    return list(np.moveaxis(pts, -2, 0))


def _bootstrap_stats(counts: np.ndarray, rng: np.random.Generator):
    res = _resampled(counts, rng)
    return (
        float(res.mean(axis=1).std(ddof=1)),
        float(res.var(axis=1, ddof=1).std(ddof=1)),
    )


def _feasibility_probe(pat, density, t, seed) -> float:
    """Positivity witness for the pattern probability at radius t, from 20,000 tuples.

    Plain sampling would almost never land a p-tuple inside one connectivity
    ball at small radii, so the probe anchors each tuple at a density draw and
    scatters the other points within the (p - 1) t connectivity range.  A hit
    whose points all lie in the support witnesses a positive-measure pattern
    event (the built-in densities are bounded below on their support), so the
    returned hit fraction is positive if and only if the probe found a
    realizable configuration.
    """
    p, d, trials = pat.p, density.dimension, 20_000
    rng = stream(seed, Purpose.FEASIBILITY)
    anchors = density.sample(rng, trials)
    offsets = rng.uniform(-1.0, 1.0, size=(trials, p - 1, d)) * (p - 1) * t
    pts = np.concatenate([anchors[:, None, :], anchors[:, None, :] + offsets], axis=1)
    hits = pattern_indicator(pts, pat, t) * density.in_support(pts)
    return float(hits.mean())


def regime_experiment(pat: GraphPattern, density: DensityModel,
                      schedule: RadiusSchedule, ns: Sequence[int], reps: int,
                      seed: int) -> RegimeReport:
    """Sweep sample sizes along a radius schedule and fit scaling exponents.

    Per n: ``reps`` replicate counts (replicate j of the i-th sample size reads
    the stream (seed, REPLICATE, i + 1, j)), mean and variance with bootstrap
    standard errors, the coupling distance of the empirically normalized
    counts to the normal, the estimator's calibrated noise floor at this
    replicate budget, and the floor-debiased distance.  Both bootstraps of the
    i-th sample size use slot i + 1 of their purposes.  Exponents for the
    mean, variance and distance are least-squares log-log fits; targets carry
    regime flags (the dense-uniform regime only ever yields bounds).
    """
    p = pat.p
    d = density.dimension
    if reps < MIN_REPLICATES_FOR_DISTANCE:
        raise ParameterError(
            f"regime experiments need at least {MIN_REPLICATES_FOR_DISTANCE} replicates")
    ns = [int(n) for n in ns]
    if len(ns) < 4:
        raise ParameterError("regime sweeps need at least 4 sample sizes")
    if any(n < p for n in ns):
        raise ParameterError("every sample size must be at least the pattern size")
    if schedule.regime == "C1" and not schedule.beta < p / (p - 1):
        raise ParameterError("the sparse regime needs beta < p / (p - 1)")
    if schedule.regime == "C2" and not density.is_uniform:
        raise ParameterError("regime C2 is the uniform-density regime")
    if schedule.regime == "C3" and density.is_uniform:
        raise ParameterError("regime C3 needs a non-uniform density")

    t_large = max(schedule.radius(n, d) for n in ns)
    q_probe = _feasibility_probe(pat, density, t_large, seed)
    if q_probe <= 0.0:
        raise PreconditionError(
            "pattern is infeasible at the largest radius of the sweep"
        )

    floor = coupling_bias(reps)
    records = []
    for ni, n in enumerate(ns):
        t = schedule.radius(n, d)
        counts = _replicates(np.empty(reps), lambda rng: count_subgraphs(
            density.sample(rng, n), pat, t), seed, Purpose.REPLICATE, ni + 1)
        mean = float(counts.mean())
        var = float(counts.var(ddof=1))
        mean_se, var_se = _bootstrap_stats(counts, stream(seed, Purpose.VARBOOT, ni + 1))
        dw_val = dw_se = math.nan
        if var > 0:
            dw = wasserstein_to_normal(ReplicateSet.empirical(counts, seed, ni + 1))
            dw_val, dw_se = dw.value, dw.stderr
        records.append({
            "n": n,
            "t": t,
            "mean": mean,
            "mean_se": mean_se,
            "var": var,
            "var_se": var_se,
            "dw": dw_val,
            "dw_se": dw_se,
            "dw_floor": floor,
            "dw_debiased": debiased_distance(dw_val, floor),
        })

    targets = regime_targets(p, schedule)
    exps = {}
    for name, key in (("mean", "mean"), ("variance", "var")):
        fit = ols_loglog(ns, [max(r[key], 1e-300) for r in records])
        exps[name] = {"fitted": fit.slope, "stderr": fit.stderr, **targets[name]}
    # the raw coupling distances sit on the estimator's noise floor; the
    # headline exponent comes from the floor-aware quadrature model
    dws = [r["dw"] for r in records]
    if all(math.isfinite(v) and v > 0 for v in dws):
        dw_fit = fit_distance_powerlaw(ns, dws, [r["dw_se"] for r in records], floor)
        raw = ols_loglog(ns, dws).slope
    else:
        dw_fit, raw = FloorAwareFit(math.nan, math.nan, math.nan), math.nan
    exps["distance"] = {
        "fitted": dw_fit.slope,
        "stderr": dw_fit.stderr,
        "amplitude": dw_fit.amplitude,
        "fitted_raw": raw,
        **targets["distance"],
    }
    if math.isnan(dw_fit.slope):  # no rate was fitted, so none is flagged
        exps["distance"]["flag"] = "not-fitted"

    config = {
        "pattern": pat.name,
        "pattern_vertices": p,
        "density": density.kind,
        "dimension": d,
        "regime": schedule.regime,
        "beta": schedule.beta,
        "rho": schedule.rho,
        "ns": ns,
        "reps": reps,
        "seed": seed,
        "feasibility_probe": q_probe,
    }
    return RegimeReport(config=config, records=tuple(records), exponents=exps)


def variance_lower_bound_check(pat: GraphPattern, density: DensityModel,
                               t: float, n: int, reps: int, seed: int,
                               q_samples: int = 200_000) -> dict:
    """Monte Carlo check that Var(count) dominates C(n, p) * q * (1 - q).

    The pattern indicator is its own square, so the single-tuple variance is
    q - q^2 with q the pattern probability; the count variance can never fall
    below the binomially weighted single-tuple variance.  Returns both sides
    with standard errors and an ``ok`` flag at three combined SEs.  Replicate
    j reads the stream (seed, VARCHECK, n, j), so n must stay below 2**24, and
    row j of at most ``_Q_ROW`` q-sample tuples reads (seed, QPROB, 0, j).
    """
    if not density.is_uniform:
        raise ParameterError("the variance lower bound check targets uniform densities")
    if reps < 2:
        raise ParameterError(f"reps needs at least 2 replicates, got {reps}")
    if q_samples < 1:
        raise ParameterError(f"q_samples needs at least 1 tuple, got {q_samples}")
    if not t > 0:
        raise ParameterError("radius must be positive")
    p = pat.p
    counts = _replicates(np.empty(reps), lambda rng: count_subgraphs(
        density.sample(rng, n), pat, t), seed, Purpose.VARCHECK, n)
    lhs = float(counts.var(ddof=1))
    _, lhs_se = _bootstrap_stats(counts, stream(seed, Purpose.VARBOOT))

    hits = _block_rows(q_samples, _Q_ROW, lambda rng, b: pattern_indicator(
        _sample_vertices(density, rng, (b,), p), pat, t), seed, Purpose.QPROB)
    q_hat = float(hits.mean())
    q_se = math.sqrt(max(q_hat * (1.0 - q_hat), 0.0) / q_samples)
    cnp = math.comb(n, p)
    rhs = cnp * (q_hat - q_hat * q_hat)
    rhs_se = cnp * abs(1.0 - 2.0 * q_hat) * q_se

    rel = 0.0
    if lhs > 0:
        rel += (lhs_se / lhs) ** 2
    if rhs > 0:
        rel += (rhs_se / rhs) ** 2
    rel = math.sqrt(rel)
    ok = lhs >= rhs * (1.0 - 3.0 * rel)
    return {
        "n": n,
        "t": t,
        "lhs_variance": lhs,
        "lhs_se": lhs_se,
        "rhs_bound": rhs,
        "rhs_se": rhs_se,
        "q_hat": q_hat,
        "q_se": q_se,
        "ok": bool(ok),
    }


@dataclass(frozen=True)
class GkContractionEstimate:
    value: float
    stderr: float
    square: float
    square_se: float
    reliable: bool


def gk_contraction_mc(pat: GraphPattern, density: DensityModel, t: float,
                      i: int, k: int, r: int, tau: int, mc_samples: int,
                      seed: int, inner: int = 128) -> GkContractionEstimate:
    """Nested Monte Carlo estimate of a projection-contraction norm.

    Estimates ``||g_i *_r^tau g_k||`` for the pattern indicator kernel at
    radius t, where g_j integrates the kernel over p - j coordinates.  Two
    independent inner estimates of the contraction integrand are multiplied,
    which makes the squared-norm estimator unbiased; the square root is then
    slightly conservative at the reported standard error.  Row j of at most
    ``_GK_ROW`` outer samples reads the stream (seed, GK, 0, j): outer points,
    then inner copy A, then inner copy B.  Estimates whose SE exceeds 30% of
    the value are flagged unreliable rather than rejected.
    """
    p = pat.p
    if not (1 <= i <= p and 1 <= k <= p):
        raise ParameterError(f"projection levels must lie in [1, {p}]")
    if not (0 <= tau <= r <= min(i, k)):
        raise ParameterError(f"need 0 <= tau <= r <= min(i, k), got r={r}, tau={tau}")
    if mc_samples < 10_000:
        raise ParameterError("need at least 10^4 outer samples")
    if inner < 1:
        raise ParameterError(f"inner needs at least 1 draw, got {inner}")
    if not t > 0:
        raise ParameterError("radius must be positive")

    n_share = r - tau       # shared kept coordinates
    n_own_i = i - r
    n_own_k = k - r
    n_outer = n_share + n_own_i + n_own_k
    n_comp_i = p - i
    n_comp_k = p - k

    def inner_mean(rng, shared, own_i, own_k, c):
        # one inner copy: average over `inner` draws of the product of the two
        # kernel evaluations sharing the integrated block; the outer vertices
        # (c, 1, d) broadcast against the inner draws (c, inner, d)
        u = _sample_vertices(density, rng, (c, inner), tau)
        vi = _sample_vertices(density, rng, (c, inner), n_comp_i)
        vk = _sample_vertices(density, rng, (c, inner), n_comp_k)
        vals = pattern_indicator(u + shared + own_i + vi, pat, t) * \
            pattern_indicator(u + shared + own_k + vk, pat, t)
        # 0/1 values, so a (c, 1) product averages to the same bits as (c, inner)
        return vals.mean(axis=1)

    def block(rng, c):
        y = _sample_vertices(density, rng, (c, 1), n_outer)
        shared = y[:n_share]
        own_i = y[n_share:n_share + n_own_i]
        own_k = y[n_share + n_own_i:]
        return inner_mean(rng, shared, own_i, own_k, c) * \
            inner_mean(rng, shared, own_i, own_k, c)

    est = _block_rows(mc_samples, _GK_ROW, block, seed, Purpose.GK)
    sq_mean = float(est.mean())
    sq_var = float(est.var())
    sq_se = math.sqrt(sq_var / mc_samples)
    value = math.sqrt(max(sq_mean, 0.0))
    stderr = sq_se / (2.0 * value) if value > 0 else math.sqrt(sq_se)
    reliable = value > 0 and stderr <= 0.3 * value
    return GkContractionEstimate(value=value, stderr=stderr, square=sq_mean,
                                 square_se=sq_se, reliable=bool(reliable))
