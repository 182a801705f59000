"""Random geometric graphs: pattern-count statistics and radius-regime experiments.

A graph is built on n sampled points with edges between distinct points at
Euclidean distance strictly between 0 and the radius; the statistic counts
p-subsets whose induced graph is isomorphic to a fixed connected pattern.
Counting is exact: a sliding-midpoint KD-tree lists the pairs within the
radius once (edge counts of points on a line come from sorting instead), the
strict predicate keeps the edges, and for p >= 3 the connected induced vertex
sets of that graph are grown from its edges (as in Wernicke's ESU motif
enumeration, IEEE/ACM TCBB 2006) and classified by their adjacency bit codes
against the pattern's precomputed isomorphism codes.  Point tuples are
classified from their pairs i < j by `_strict_adjacent`, as the edge list is,
and every bit code has the one layout of `_pair_codes`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import CapacityError, ParameterError, PreconditionError
from .montecarlo import (
    NormalizationRecord,
    Purpose,
    ReplicateSet,
    _block_rows,
    _replicates,
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


def _strict_adjacent(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Whether 0 < d**2 < t**2 for the Euclidean distance d over the last axis of
    two broadcastable point arrays; d**2 is summed one coordinate at a time."""
    d2 = (a[..., 0] - b[..., 0]) ** 2
    for k in range(1, a.shape[-1]):
        d2 += (a[..., k] - b[..., k]) ** 2
    return (d2 > 0.0) & (d2 < t * t)


def geometric_codes(points, t: float) -> np.ndarray:
    """Bit codes (`_pair_codes`) of point tuples from their pairs i < j at 0 < distance < t.

    ``points`` is an array (..., p, d) of tuples, or a list of the p vertices'
    arrays (..., d), which broadcast against each other.
    """
    if isinstance(points, list):
        vertices = [np.asarray(v, dtype=float) for v in points]
    else:
        vertices = list(np.moveaxis(np.asarray(points, dtype=float), -2, 0))
    return _pair_codes(np.broadcast_shapes(*(v.shape[:-1] for v in vertices)), len(vertices),
                       lambda i, j: _strict_adjacent(vertices[i], vertices[j], t))


def pattern_indicator(points, pat: GraphPattern, t: float) -> np.ndarray:
    """Vectorized induced-isomorphism indicator over batches of p-point tuples,
    given as ``geometric_codes`` takes them."""
    codes = geometric_codes(points, t)
    return np.isin(codes, pat._iso_codes).astype(float)


def pattern_kernel(points: np.ndarray, pat: GraphPattern, t: float) -> int:
    """1 iff the graph induced on the p given points is isomorphic to the pattern."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != pat.p:
        raise ParameterError(f"need exactly {pat.p} points")
    if t <= 0:
        raise ParameterError("radius must be positive")
    return int(pattern_indicator(pts[None, ...], pat, t)[0])


def _strict_pairs(pts: np.ndarray, t: float):
    """KD-tree pairs (i < j) within t, and the mask of those at 0 < distance < t."""
    # sliding-midpoint splits build faster; the strict mask makes the pairs tree-free
    tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)
    pairs = tree.query_pairs(r=t, output_type="ndarray")
    return pairs, _strict_adjacent(pts[pairs[:, 0]], pts[pairs[:, 1]], t)


def _strict_count_1d(x: np.ndarray, t: float) -> int:
    """Pairs of the values x at 0 < (x_i - x_j)**2 < t*t, without listing them.

    In sorted order the squared gap to a value is non-decreasing in the
    partner's rank, so the partners above each value form one run: from the
    first value whose squared gap is not 0 to the first whose squared gap is
    not below t*t.
    """
    x = np.sort(x)
    t2 = t * t
    lo = _run_end(x, np.searchsorted(x, x, side="right"), lambda d2: d2 == 0.0)
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


def _unique_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Distinct rows of an array of vertex indices below n, in lexicographic order.

    Rows are packed into one int64 key in base n; when n**k does not fit in
    an int64 for k columns, they are compared row-wise instead.
    """
    k = rows.shape[1]
    if n**k >= 2**63:
        return np.unique(rows, axis=0)
    key = rows[:, 0].astype(np.int64)
    for c in range(1, k):
        key = key * n + rows[:, c]
    key = np.unique(key)
    out = np.empty((key.size, k), dtype=np.int64)
    for c in range(k - 1, 0, -1):
        key, out[:, c] = np.divmod(key, n)
    out[:, 0] = key
    return out


class _StrictGraph:
    """CSR adjacency of the strict-radius graph plus its sorted packed edge keys."""

    def __init__(self, edges: np.ndarray, n: int):
        self.n = n
        self.edge_keys = np.sort(edges[:, 0] * n + edges[:, 1])
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        self.indices = dst[np.argsort(src, kind="stable")]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])

    def edge_rows(self) -> np.ndarray:
        """The edges as sorted 2-sets, in lexicographic order."""
        return np.column_stack(np.divmod(self.edge_keys, self.n))

    def adjacent(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether a[i] < b[i] are joined by an edge, elementwise."""
        key = a * self.n + b
        pos = np.searchsorted(self.edge_keys, key)
        pos[pos == self.edge_keys.size] = 0
        return self.edge_keys[pos] == key

    def extend(self, rows: np.ndarray, cnt: np.ndarray) -> np.ndarray:
        """Distinct (k+1)-sets grown from the sorted k-sets ``rows``.

        A set takes any neighbour of a member that exceeds the set's minimum;
        ``cnt`` holds the members' degrees.
        """
        m, k = rows.shape
        flat = rows.ravel()
        cnt = cnt.ravel()
        ends = np.cumsum(cnt)
        src = np.repeat(np.arange(m), cnt.reshape(m, k).sum(axis=1))
        pos = np.repeat(self.indptr[flat] - ends + cnt, cnt) + np.arange(ends[-1])
        w = self.indices[pos]
        base = rows[src]
        keep = (w > base[:, 0]) & ~(base == w[:, None]).any(axis=1)
        grown = np.sort(np.column_stack([base[keep], w[keep]]), axis=1)
        return _unique_rows(grown, self.n)


#: largest number of candidate elements (rows times columns) one growth step
#: materializes; anchor vertices are processed in blocks that keep under it
_GROW_BUDGET = 1 << 21


def _count_grown(graph: _StrictGraph, rows: np.ndarray, pat: GraphPattern) -> int:
    """Pattern copies among the connected p-sets grown from the sorted k-sets ``rows``.

    Every set grown from a k-set keeps its minimum (the anchor), so rows are
    split into blocks of whole anchors, each deduplicated completely on its own.
    """
    p = pat.p
    m, k = rows.shape
    if m == 0:
        return 0
    if k == p:
        codes = _pair_codes(m, p, lambda i, j: graph.adjacent(rows[:, i], rows[:, j]))
        return int(np.count_nonzero(np.isin(codes, pat._iso_codes)))
    cnt = np.diff(graph.indptr)[rows]
    size = cnt.sum(axis=1) * (k + 1)
    if int(size.sum()) <= _GROW_BUDGET:
        return _count_grown(graph, graph.extend(rows, cnt), pat)
    before = np.cumsum(size) - size
    first = np.flatnonzero(np.r_[True, rows[1:, 0] != rows[:-1, 0]])
    block = before[first] // _GROW_BUDGET
    cuts = first[np.flatnonzero(np.diff(block)) + 1]
    total = 0
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, m]):
        total += _count_grown(graph, graph.extend(rows[lo:hi], cnt[lo:hi]), pat)
    return total


def count_subgraphs(points: np.ndarray, pat: GraphPattern, t: float) -> int:
    """Number of p-subsets inducing a copy of the pattern; exact.

    Edges join points at squared distance strictly between 0 and t**2, the
    same predicate ``geometric_codes`` applies, so ties at distance t and
    coincident points are never adjacent.  A KD-tree lists the pairs within t
    once; edges of points on a line are counted from the sorted values
    instead.  For p >= 3 the connected induced vertex sets of that graph are
    grown level by level from its edges (a set takes any neighbour of a
    member above the set's minimum, and duplicates are dropped), and each
    p-set is classified by its adjacency bit code against the pattern's
    isomorphism codes.  Copies of a connected pattern are connected sets, so
    the result equals direct enumeration over all p-subsets.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    p = pat.p
    if n < p:
        raise ParameterError(f"need at least {p} points, got {n}")
    if t <= 0:
        return 0
    if p == 2 and pts.shape[1] == 1:
        return _strict_count_1d(pts[:, 0], t)
    pairs, mask = _strict_pairs(pts, t)
    if p == 2:
        return int(np.count_nonzero(mask))
    graph = _StrictGraph(pairs[mask], n)
    return _count_grown(graph, graph.edge_rows(), pat)


@dataclass(frozen=True)
class DensityModel:
    """Sampling model for the point distribution (bounded, a.e.-continuous density)."""

    kind: str  # "uniform-box" | "uniform-ball" | "gaussian" | "custom"
    dimension: int
    # (rng, n) -> (n, dimension) points of a custom density; replicate loops
    # re-key one generator for every replicate, so it must not keep rng
    sampler_fn: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("uniform-box", "uniform-ball", "gaussian", "custom"):
            raise ParameterError(f"unknown density kind {self.kind!r}")
        if self.dimension < 1:
            raise ParameterError("dimension must be >= 1")
        if self.kind == "custom" and self.sampler_fn is None:
            raise ParameterError("custom densities need a sampler")

    @property
    def is_uniform(self) -> bool:
        return self.kind in ("uniform-box", "uniform-ball")

    def in_support(self, points: np.ndarray) -> np.ndarray:
        """Support membership per point tuple (conservative True for custom)."""
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
        if self.kind == "uniform-ball":
            dirs = rng.standard_normal((n, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = rng.random(n) ** (1.0 / d)
            return dirs * radii[:, None]
        return np.asarray(self.sampler_fn(rng, n), dtype=float)


@dataclass(frozen=True)
class RadiusSchedule:
    """Radius sequence t_n per regime.

    C1 (sparse), C2 (dense, uniform points) and C3 (dense, non-uniform points)
    use t_n = n^(-beta/d); C4 (thermodynamic) uses t_n = (rho / n)^(1/d).
    The sparse regime additionally requires 1 < beta < p / (p - 1), which
    depends on the pattern and is checked when an experiment is assembled.
    """

    regime: str
    beta: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self):
        if self.regime not in ("C1", "C2", "C3", "C4"):
            raise ParameterError(f"unknown regime {self.regime!r}")
        if self.regime == "C4":
            if self.rho is None or self.rho <= 0:
                raise ParameterError("regime C4 needs rho > 0")
        else:
            if self.beta is None or self.beta <= 0:
                raise ParameterError(f"regime {self.regime} needs beta > 0")
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


def _bootstrap_stats(counts: np.ndarray, rng: np.random.Generator, b: int = 200):
    r = counts.size
    idx = rng.integers(0, r, size=(b, r))
    res = counts[idx]
    return (
        float(res.mean(axis=1).std(ddof=1)),
        float(res.var(axis=1, ddof=1).std(ddof=1)),
    )


def _feasibility_probe(pat, density, t, seed, trials=20_000) -> float:
    """Positivity witness for the pattern probability at radius t.

    Plain sampling would almost never land a p-tuple inside one connectivity
    ball at small radii, so the probe anchors each tuple at a density draw and
    scatters the other points within the (p - 1) t connectivity range.  A hit
    whose points all lie in the support witnesses a positive-measure pattern
    event (the built-in densities are bounded below on their support), so the
    returned hit fraction is positive if and only if the probe found a
    realizable configuration.
    """
    p = pat.p
    d = density.dimension
    rng = stream(seed, Purpose.FEASIBILITY)
    anchors = density.sample(rng, trials)
    offsets = rng.uniform(-1.0, 1.0, size=(trials, p - 1, d)) * (p - 1) * t
    pts = np.concatenate([anchors[:, None, :], anchors[:, None, :] + offsets], axis=1)
    hits = pattern_indicator(pts, pat, t) * density.in_support(pts)
    return float(hits.mean())


def regime_experiment(pat: GraphPattern, density: DensityModel,
                      schedule: RadiusSchedule, ns: Sequence[int], reps: int,
                      seed: int, bootstrap: int = 200) -> RegimeReport:
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
    if reps < 100:
        raise ParameterError("regime experiments need at least 100 replicates")
    if bootstrap < 2:
        raise ParameterError(f"bootstrap needs at least 2 resamples, got {bootstrap}")
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

    floor = coupling_bias(reps, standardized=True)
    records = []
    for ni, n in enumerate(ns):
        t = schedule.radius(n, d)
        counts = _replicates(np.empty(reps), lambda rng: count_subgraphs(
            density.sample(rng, n), pat, t), seed, Purpose.REPLICATE, ni + 1)
        mean = float(counts.mean())
        var = float(counts.var(ddof=1))
        mean_se, var_se = _bootstrap_stats(
            counts, stream(seed, Purpose.VARBOOT, ni + 1), bootstrap)
        sd = math.sqrt(var) if var > 0 else 0.0
        if sd > 0:
            rep = ReplicateSet(
                values=(counts - mean) / sd,
                n=n,
                seed=seed,
                normalization=NormalizationRecord(mean=mean, sd=sd, source="empirical"),
                slot=ni + 1,
            )
            dw = wasserstein_to_normal(rep, bootstrap=bootstrap)
            dw_val, dw_se = dw.value, dw.stderr
        else:
            dw_val, dw_se = float("nan"), float("nan")
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
            "dw_debiased": debiased_distance(dw_val, floor) if sd > 0 else float("nan"),
        })

    targets = regime_targets(p, schedule)
    ns_arr = [r["n"] for r in records]
    exps = {}
    mean_fit = ols_loglog(ns_arr, [max(r["mean"], 1e-300) for r in records])
    exps["mean"] = {"fitted": mean_fit.slope, "stderr": mean_fit.stderr, **targets["mean"]}
    var_fit = ols_loglog(ns_arr, [max(r["var"], 1e-300) for r in records])
    exps["variance"] = {"fitted": var_fit.slope, "stderr": var_fit.stderr,
                        **targets["variance"]}
    # the raw coupling distances sit on the estimator's noise floor; the
    # headline exponent comes from the floor-aware quadrature model
    dws = [r["dw"] for r in records]
    if all(math.isfinite(v) and v > 0 for v in dws):
        dw_fit = fit_distance_powerlaw(ns_arr, dws, [r["dw_se"] for r in records], floor)
        dw_fit_raw = ols_loglog(ns_arr, dws)
        exps["distance"] = {
            "fitted": dw_fit.slope,
            "stderr": dw_fit.stderr,
            "amplitude": dw_fit.amplitude,
            "fitted_raw": dw_fit_raw.slope,
            **targets["distance"],
        }
    else:
        exps["distance"] = {
            "fitted": float("nan"),
            "stderr": float("nan"),
            "amplitude": float("nan"),
            "fitted_raw": float("nan"),
            **targets["distance"],
        }

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
    p = pat.p
    counts = _replicates(np.empty(reps), lambda rng: count_subgraphs(
        density.sample(rng, n), pat, t), seed, Purpose.VARCHECK, n)
    lhs = float(counts.var(ddof=1))
    _, lhs_se = _bootstrap_stats(counts, stream(seed, Purpose.VARBOOT), 200)

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
    if t <= 0:
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
