"""Replicated simulation of U-statistics and empirical distances to the normal.

Randomness comes from counter-based Philox streams keyed by (seed, stream
index): replicate j always reads stream (seed, j) regardless of execution
order, so every result is reproducible and independent of any parallelism.
Auxiliary consumers (bootstrap, calibration, feasibility probes) use large
fixed stream indices that replicate indices can never reach.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import ndtri

from .core import ContinuousKernelSpec, DiscreteMeasure, SymmetricKernel
from .errors import CapacityError, ConfigurationError, ParameterError, PreconditionError
from .hoeffding import compute_g, ustat_values_from_count_matrix, variance

_MASK64 = (1 << 64) - 1

#: reserved stream indices; replicate streams use small consecutive integers
BOOTSTRAP_STREAM = 1 << 62
CALIBRATION_STREAM = (1 << 62) + 1
GAUSSIAN_STREAM = (1 << 62) + 2
VALIDATION_STREAM = (1 << 62) + 3

#: direct p-subset enumeration caps for continuous kernels
CONTINUOUS_N_CAP = {1: 10**6, 2: 10**4, 3: 500}

MIN_REPLICATES_FOR_DISTANCE = 100


def stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream index) pair."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NormalizationRecord:
    mean: float
    sd: float
    source: str  # "exact" | "empirical"


@dataclass(frozen=True)
class ReplicateSet:
    """Normalized per-replicate statistic values plus how they were normalized."""

    values: np.ndarray
    n: int
    seed: int
    normalization: NormalizationRecord

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1 or v.size < 2:
            raise ParameterError("a replicate set needs at least two values")
        if not self.normalization.sd > 0.0:
            raise ParameterError("normalization must use a positive standard deviation")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def replicates(self) -> int:
        return int(self.values.size)


def _simulate_discrete(kernel: SymmetricKernel, mu: DiscreteMeasure, n: int,
                       reps: int, seed: int, normalization: str) -> ReplicateSet:
    p = kernel.order
    if n < p:
        raise ParameterError(f"need n >= p = {p}, got {n}")
    # J_p depends on the sample only through its symbol counts, so each
    # replicate draws counts directly from the multinomial law of the sample
    counts = np.empty((reps, mu.alphabet_size), dtype=np.int64)
    for j in range(reps):
        counts[j] = stream(seed, j).multinomial(n, mu.weights)
    raw = ustat_values_from_count_matrix(kernel.values, counts)

    if normalization == "exact":
        mean = math.comb(n, p) * float(compute_g(kernel, mu, 0))
        var_n, _ = variance(kernel, mu, n)
        if var_n <= 0.0:
            raise PreconditionError("exact normalization needs positive variance")
        sd = math.sqrt(var_n)
    else:
        mean = float(raw.mean())
        sd = float(raw.std(ddof=1))
        if sd <= 0.0:
            raise PreconditionError("replicates are constant; cannot normalize empirically")
    rec = NormalizationRecord(mean=mean, sd=sd, source=normalization)
    return ReplicateSet(values=(raw - mean) / sd, n=n, seed=seed, normalization=rec)


def _continuous_ustat(spec: ContinuousKernelSpec, pts: np.ndarray) -> float:
    n = pts.shape[0]
    p = spec.order
    if p == 1:
        return float(np.sum(spec.evaluator(pts[:, None, :])))
    if p == 2:
        total = 0.0
        for i in range(n - 1):
            others = pts[i + 1:]
            batch = np.concatenate(
                [np.broadcast_to(pts[i], others.shape)[:, None, :], others[:, None, :]],
                axis=1,
            )
            total += float(np.sum(spec.evaluator(batch)))
        return total
    # p == 3; heavier orders are refused by the cap check
    total = 0.0
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            others = pts[j + 1:]
            lead = np.broadcast_to(np.stack([pts[i], pts[j]]), (others.shape[0], 2, spec.dimension))
            batch = np.concatenate([lead, others[:, None, :]], axis=1)
            total += float(np.sum(spec.evaluator(batch)))
    return total


def _check_evaluator_symmetry(spec: ContinuousKernelSpec, seed: int,
                              trials: int = 6) -> None:
    # sampled permutation-invariance check on a dedicated stream
    rng = stream(seed, VALIDATION_STREAM)
    pts = np.asarray(spec.sampler(rng, trials * spec.order), dtype=float)
    pts = pts.reshape(trials, spec.order, spec.dimension)
    base = np.asarray(spec.evaluator(pts), dtype=float)
    for _ in range(3):
        perm = rng.permutation(spec.order)
        permuted = np.asarray(spec.evaluator(pts[:, perm, :]), dtype=float)
        if not np.allclose(base, permuted, rtol=1e-9, atol=1e-12):
            raise ParameterError("continuous kernel evaluator is not symmetric")


def _simulate_continuous(spec: ContinuousKernelSpec, n: int, reps: int, seed: int,
                         normalization: str) -> ReplicateSet:
    if normalization == "exact":
        raise ConfigurationError("exact normalization is only available for discrete kernels")
    p = spec.order
    if n < p:
        raise ParameterError(f"need n >= p = {p}, got {n}")
    if p > 1:
        _check_evaluator_symmetry(spec, seed)
    cap = CONTINUOUS_N_CAP.get(p)
    if cap is None:
        raise CapacityError(f"continuous kernels of order {p} are not enumerable")
    if n > cap:
        raise CapacityError(f"continuous order-{p} kernels are capped at n = {cap}")
    raw = np.empty(reps, dtype=float)
    for j in range(reps):
        pts = np.asarray(spec.sampler(stream(seed, j), n), dtype=float)
        raw[j] = _continuous_ustat(spec, pts)
    mean = float(raw.mean())
    sd = float(raw.std(ddof=1))
    if sd <= 0.0:
        raise PreconditionError("replicates are constant; cannot normalize empirically")
    rec = NormalizationRecord(mean=mean, sd=sd, source="empirical")
    return ReplicateSet(values=(raw - mean) / sd, n=n, seed=seed, normalization=rec)


def simulate(kernel: Union[SymmetricKernel, ContinuousKernelSpec],
             mu: Optional[DiscreteMeasure], n: int, reps: int, seed: int,
             normalization: str = "exact") -> ReplicateSet:
    """Draw ``reps`` independent normalized U-statistic replicates.

    Replicate j consumes only the stream keyed by (seed, j), so the result is
    bit-identical across runs and thread counts.  Normalization "exact" uses
    the closed-form mean and variance (discrete kernels only); "empirical"
    standardizes by the replicate sample mean and standard deviation.
    """
    if normalization not in ("exact", "empirical"):
        raise ConfigurationError(f"unknown normalization {normalization!r}")
    if reps < 2:
        raise ParameterError("need at least two replicates")
    if isinstance(kernel, SymmetricKernel):
        if mu is None:
            raise ParameterError("discrete kernels need a measure")
        return _simulate_discrete(kernel, mu, n, reps, seed, normalization)
    if isinstance(kernel, ContinuousKernelSpec):
        return _simulate_continuous(kernel, n, reps, seed, normalization)
    raise ParameterError(f"unsupported kernel type {type(kernel)!r}")


def normal_quantile_grid(r: int) -> np.ndarray:
    """Standard normal quantiles at the midpoint grid (j - 1/2) / r."""
    return ndtri((np.arange(1, r + 1) - 0.5) / r)


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    stderr: float


def coupling_distance(values: np.ndarray) -> float:
    """Quantile-coupling sum of a sample against the standard normal grid."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(np.mean(np.abs(v - normal_quantile_grid(v.size))))


def wasserstein_to_normal(rep: ReplicateSet, bootstrap: int = 200) -> DistanceEstimate:
    """Empirical Wasserstein-1 distance to N(0, 1) by quantile coupling.

    Couples the sorted replicate values to the normal midpoint quantiles and
    averages the transport gaps.  The estimator carries an O(R^-1/2 log R)
    upward bias from sampling noise; a bootstrap standard error (resampling
    replicates with replacement) accompanies the point value.
    """
    r = rep.replicates
    if r < MIN_REPLICATES_FOR_DISTANCE:
        raise CapacityError(
            f"distance estimation needs >= {MIN_REPLICATES_FOR_DISTANCE} replicates, got {r}"
        )
    val = coupling_distance(rep.values)
    grid = normal_quantile_grid(r)
    brng = stream(rep.seed, BOOTSTRAP_STREAM)
    idx = brng.integers(0, r, size=(bootstrap, r))
    resampled = np.sort(rep.values[idx], axis=1)
    boots = np.mean(np.abs(resampled - grid[None, :]), axis=1)
    return DistanceEstimate(value=val, stderr=float(boots.std(ddof=1)))


@functools.lru_cache(maxsize=64)
def coupling_bias(r: int, standardized: bool = True, seed: int = 0,
                  draws: int = 400) -> float:
    """Expected coupling distance of exactly-normal samples of size r.

    This is the estimator's noise floor; subtracting it (in quadrature)
    recovers distances below the raw bias level.  ``standardized`` matches the
    empirical-normalization pipeline, which rescales each sample by its own
    mean and standard deviation before coupling.
    """
    g = stream(seed, CALIBRATION_STREAM)
    grid = normal_quantile_grid(r)
    total = 0.0
    block = max(1, min(draws, 2_000_000 // max(r, 1)))
    done = 0
    while done < draws:
        b = min(block, draws - done)
        x = g.standard_normal((b, r))
        if standardized:
            x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, ddof=1, keepdims=True)
        x.sort(axis=1)
        total += float(np.sum(np.mean(np.abs(x - grid[None, :]), axis=1)))
        done += b
    return total / draws


def debiased_distance(value: float, floor: float) -> float:
    """Quadrature removal of the coupling noise floor from a raw estimate."""
    return math.sqrt(max(value * value - floor * floor, 0.0))


@dataclass(frozen=True)
class FloorAwareFit:
    slope: float
    amplitude: float
    stderr: float


def fit_distance_powerlaw(ns: Sequence[float], dws: Sequence[float],
                          ses: Sequence[float], floor: float) -> FloorAwareFit:
    """Fit ``dw(n)^2 = (c n^alpha)^2 + floor^2`` by weighted least squares.

    Raw coupling distances combine the decaying signal with the estimator's
    noise floor roughly in quadrature; fitting the squared model keeps points
    at or below the floor well-behaved (no logs of noise-dominated
    differences).  Weights follow the delta method on the squared values.
    Returns the fitted exponent, amplitude, and an exponent standard error
    from the weighted jacobian.
    """
    from scipy.optimize import least_squares

    x = np.asarray(ns, dtype=float)
    y = np.asarray(dws, dtype=float)
    se = np.asarray(ses, dtype=float)
    if x.size != y.size or x.size != se.size:
        raise ParameterError("ns, dws and ses must have equal length")
    if x.size < 3:
        raise ParameterError("floor-aware fitting needs at least 3 points")
    if np.any(x <= 0) or np.any(y < 0):
        raise ParameterError("sample sizes must be positive and distances non-negative")
    w = 2.0 * np.maximum(y, floor) * np.maximum(se, 1e-6)

    def residuals(theta):
        log_c, alpha = theta
        model = np.exp(2.0 * (log_c + alpha * np.log(x))) + floor**2
        return (y * y - model) / w

    first = math.sqrt(max(y[0] ** 2 - floor**2, (0.1 * max(floor, 1e-12)) ** 2))
    theta0 = np.array([math.log(first) + 0.5 * math.log(x[0]), -0.5])
    sol = least_squares(residuals, theta0, bounds=([-60.0, -4.0], [60.0, 2.0]))
    log_c, alpha = sol.x
    dof = max(x.size - 2, 1)
    try:
        jtj_inv = np.linalg.inv(sol.jac.T @ sol.jac)
        stderr = math.sqrt(max(jtj_inv[1, 1], 0.0) * float(np.sum(sol.fun**2)) / dof)
    except np.linalg.LinAlgError:
        stderr = float("nan")
    return FloorAwareFit(slope=float(alpha), amplitude=float(math.exp(log_c)),
                         stderr=stderr)


def smooth_distance(rep: ReplicateSet, g: Callable[[np.ndarray], np.ndarray],
                    gaussian_reps: int, seed: int,
                    exact_mean: Optional[float] = None) -> float:
    """Gap between the replicate mean of g and its standard normal mean.

    The normal side uses ``gaussian_reps`` fresh draws from a dedicated stream
    unless a closed-form ``exact_mean`` is supplied.
    """
    if rep.replicates < MIN_REPLICATES_FOR_DISTANCE:
        raise CapacityError(
            f"smooth distances need >= {MIN_REPLICATES_FOR_DISTANCE} replicates"
        )
    lhs = float(np.mean(g(rep.values)))
    if exact_mean is not None:
        return abs(lhs - float(exact_mean))
    z = stream(seed, GAUSSIAN_STREAM).standard_normal(int(gaussian_reps))
    return abs(lhs - float(np.mean(g(z))))


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    stderr: float


def ols_loglog(ns: Sequence[float], ds: Sequence[float]) -> RateFit:
    """Least-squares fit of log(ds) against log(ns) (no point-count gate)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(ds, dtype=float))
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx <= 0.0:
        raise ParameterError("sample sizes must not all coincide")
    slope = float(np.sum(xc * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(x.size - 2, 1)
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return RateFit(slope=slope, intercept=intercept, stderr=stderr)


def rate_fit(ns: Sequence[float], ds: Sequence[float]) -> RateFit:
    """Fitted log-log decay exponent of distances against sample sizes."""
    ns = np.asarray(ns, dtype=float)
    ds = np.asarray(ds, dtype=float)
    if ns.size != ds.size:
        raise ParameterError("ns and ds must have equal length")
    if ns.size < 4:
        raise ParameterError("rate fitting needs at least 4 points")
    if np.any(ns <= 0) or np.any(ds <= 0):
        raise ParameterError("rate fitting needs positive entries")
    return ols_loglog(ns, ds)


def benchmark_kernel():
    """Order-1 calibration pair: a centered rare-symbol indicator.

    The statistic counts occurrences of a probability-0.03 symbol, centered;
    its distributional distance to the normal decays like n^-1/2 with a
    constant large enough to sit well above the coupling noise floor at
    moderate replicate counts, which is what a rate calibration needs.
    """
    mu = DiscreteMeasure(np.array([0.97, 0.03]))
    kernel = SymmetricKernel(np.array([-0.03, 0.97]))
    return kernel, mu
