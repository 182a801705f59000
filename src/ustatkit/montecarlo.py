"""Replicated simulation of U-statistics and empirical distances to the normal.

Randomness comes from counter-based Philox streams that ``stream`` alone
builds, keyed by (seed, purpose << 56 | slot << 32 | j) with the purpose from
the ``Purpose`` registry; range checks make the key injective (Salmon et al.
2011).  Replicate j of slot s reads (seed, REPLICATE, s, j) whatever the
execution order: slot 0 in ``simulate``, slot i + 1 for the i-th sample size
of a regime sweep.  ``_replicates``, the one loop of every Monte Carlo
estimate, builds one generator per call, re-keys it to stream j before row j
and splits a long row range into contiguous blocks over forked workers, one
per usable CPU; results do not depend on the number of workers.
``ReplicateSet.empirical`` is the one empirical standardization of raw
replicates and ``_resampled`` the one bootstrap draw; the regime sweeps of
``geomgraph`` use both.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import DiscreteMeasure, SymmetricKernel
from .errors import CapacityError, ConfigurationError, ParameterError, PreconditionError
from .hoeffding import decompose, ustat_values_from_count_matrix, variance

MIN_REPLICATES_FOR_DISTANCE = 100

#: resamples of every bootstrap standard error
BOOTSTRAP_RESAMPLES = 200

#: ``_replicates`` forks workers only when the first replicate's time, times the
#: replicates left, exceeds this.  On a 2-vCPU x86-64 VM, 2,000 three-symbol
#: multinomial replicates took 14 ms in-process and 18-28 ms on 2 forced
#: workers: a fork plus the return of its rows costs 10-20 ms
_FORK_MIN_S = 0.05


@enum.unique
class Purpose(enum.IntEnum):
    """Registry of stream purposes; a purpose is the top byte of key word 1."""

    REPLICATE = 0      # replicate j of slot s
    BOOTSTRAP = 1      # distance bootstrap of a replicate set's slot
    CALIBRATION = 2    # noise floor of the coupling distance: sample j
    # 3 and 4 are retired and stay unused, so no other purpose renumbers
    PRODUCT_CHECK = 5  # sampled count vectors of the product-formula check
    FEASIBILITY = 6    # pattern feasibility probe of a regime sweep
    QPROB = 7          # pattern probability of the variance check: block j of tuples
    VARBOOT = 8        # count moment bootstrap: slot 0 variance check, i + 1 sweep
    VARCHECK = 9       # variance-check replicate j at sample size n (slot n)
    GK = 10            # row j of the projection-contraction estimate


def _check_key(seed: int, purpose: Purpose, slot: int, j: int) -> None:
    if not (isinstance(purpose, Purpose) and 0 <= operator.index(seed) < 2**64
            and 0 <= operator.index(slot) < 2**24 and 0 <= operator.index(j) < 2**32):
        raise ParameterError(f"stream key needs 0 <= seed < 2**64, a Purpose, 0 <= slot < "
                             f"2**24 and 0 <= j < 2**32; got seed {seed}, {purpose!r}, "
                             f"slot {slot}, j {j}")


def stream(seed: int, purpose: Purpose, slot: int = 0, j: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, purpose << 56 | slot << 32 | j).

    Raises ParameterError when a field is out of range, so the key is
    injective.  ``_replicates`` builds stream 0 of its slot and re-keys that
    generator for each replicate j.
    """
    _check_key(seed, purpose, slot, j)
    key = np.array([seed, purpose << 56 | slot << 32 | j], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _replicates(out: np.ndarray, draw: Callable[[np.random.Generator], object],
                seed: int, purpose: Purpose = Purpose.REPLICATE,
                slot: int = 0) -> np.ndarray:
    """Fill ``out[j] = draw(stream(seed, purpose, slot, j))`` for every row j of ``out``.

    Replicate j reads only its own stream, so the values do not depend on the
    order in which replicates run; the top index is checked before any runs.
    One generator serves every replicate of a call: before replicate j it is
    re-keyed to stream j and rewound to that stream's start, so ``draw`` must
    not keep the generator after it returns.
    Replicate 0 runs here and is timed.  When the rest would take longer than
    ``_FORK_MIN_S``, the rows are split into one contiguous block per usable
    CPU: this process fills the first block and forked children the others
    (only where ``os.fork`` exists and no other Python thread is alive), each
    re-keying its own copy of the generator.  The exception of the lowest
    failing block is raised, as a serial loop would.  Only the rows come back
    from a child, so ``draw`` must not rely on side effects.
    """
    reps = out.shape[0]
    _check_key(seed, purpose, slot, max(reps - 1, 0))
    if reps == 0:
        return out
    # building a Philox generator costs several cheap draws; assigning a state
    # sets the counter, the buffer and the spare 32-bit word along with the
    # key, so stream 0's pristine state with j OR-ed into key[1] is stream j's
    rng = stream(seed, purpose, slot)
    bits = rng.bit_generator
    state = bits.state
    key = state["state"]["key"]
    word = int(key[1])

    def fill(lo: int, hi: int) -> None:
        for j in range(lo, hi):
            key[1] = word | j
            bits.state = state
            out[j] = draw(rng)

    start = time.perf_counter()
    fill(0, 1)
    workers = 1
    if (hasattr(os, "fork") and threading.active_count() == 1
            and (time.perf_counter() - start) * (reps - 1) > _FORK_MIN_S):
        workers = min(_usable_cpus(), reps)
    cuts = [reps * w // workers for w in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append((lo, hi, *_fork_block(fill, out, lo, hi)))
        fill(1, cuts[1])
        for lo, hi, _, pipe in children:
            data = pipe.read()
            if not data:
                raise ChildProcessError(f"the worker for replicates {lo}..{hi - 1} "
                                        "ended without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            out[lo:hi] = value
    finally:
        # every child has sent its rows unless a block failed; either way
        # none is needed any more
        for _, _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return out


def _block_rows(total: int, size: int, draw: Callable[[np.random.Generator, int], object],
                seed: int, purpose: Purpose) -> np.ndarray:
    """The first ``total`` values of ceil(total / size) equal replicate rows:
    row j is ``draw(rng, cols)`` on stream (seed, purpose, 0, j), with
    cols <= size the fewest columns that hold ``total``."""
    rows = -(-total // size)
    cols = -(-total // rows)
    return _replicates(np.empty((rows, cols)), lambda rng: draw(rng, cols),
                       seed, purpose).ravel()[:total]


def _fork_block(fill: Callable[[int, int], None], out: np.ndarray, lo: int, hi: int):
    """Fork a child that fills ``out[lo:hi]`` and pickles ``(True, rows)`` or
    ``(False, exception)`` into a pipe; return its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                fill(lo, hi)
                data = pickle.dumps((True, out[lo:hi]))
            except BaseException as exc:
                data = pickle.dumps((False, exc))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


@dataclass(frozen=True)
class NormalizationRecord:
    mean: float
    sd: float
    source: str  # "exact" | "empirical"


@dataclass(frozen=True)
class ReplicateSet:
    """Normalized replicate values, how they were normalized, and their stream slot."""

    values: np.ndarray
    seed: int
    normalization: NormalizationRecord
    slot: int = 0

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

    @classmethod
    def empirical(cls, raw: np.ndarray, seed: int, slot: int = 0) -> "ReplicateSet":
        """Raw replicates standardized by their mean and sample (ddof = 1) deviation."""
        mean = float(raw.mean())
        sd = float(raw.std(ddof=1))
        if sd <= 0.0:
            raise PreconditionError("replicates are constant; cannot normalize empirically")
        return cls(values=(raw - mean) / sd, seed=seed, slot=slot,
                   normalization=NormalizationRecord(mean, sd, "empirical"))


def simulate(kernel: SymmetricKernel, mu: DiscreteMeasure, n: int, reps: int, seed: int,
             normalization: str = "exact") -> ReplicateSet:
    """Draw ``reps`` independent normalized U-statistic replicates.

    Replicate j consumes only the stream (seed, REPLICATE, 0, j), so the
    result is bit-identical across runs and execution orders.  Normalization
    "exact" uses the closed-form mean and variance; "empirical" standardizes
    by the replicate sample mean and standard deviation.
    """
    if normalization not in ("exact", "empirical"):
        raise ConfigurationError(f"unknown normalization {normalization!r}")
    if reps < 2:
        raise ParameterError("need at least two replicates")
    if not isinstance(kernel, SymmetricKernel):
        raise ParameterError(f"unsupported kernel type {type(kernel)!r}")
    if mu is None:
        raise ParameterError("discrete kernels need a measure")
    if n < kernel.order:
        raise ParameterError(f"need n >= p = {kernel.order}, got {n}")
    # J_p depends on the sample only through its symbol counts, so each
    # replicate draws counts directly from the multinomial law of the sample
    counts = _replicates(np.empty((reps, mu.alphabet_size), dtype=np.int64),
                         lambda rng: rng.multinomial(n, mu.weights), seed)
    raw = ustat_values_from_count_matrix(kernel.values, counts)
    if normalization == "empirical":
        return ReplicateSet.empirical(raw, seed)
    hs = decompose(kernel, mu)
    mean = math.comb(n, kernel.order) * float(hs.g[0])
    var_n, _ = variance(hs, n)
    if var_n <= 0.0:
        raise PreconditionError("exact normalization needs positive variance")
    sd = math.sqrt(var_n)
    rec = NormalizationRecord(mean=mean, sd=sd, source="exact")
    return ReplicateSet(values=(raw - mean) / sd, seed=seed, normalization=rec)


@functools.lru_cache(maxsize=16)
def normal_quantile_grid(r: int) -> np.ndarray:
    """Standard normal quantiles at the midpoint grid (j - 1/2) / r.

    The grid is built once per r and returned read-only.
    """
    from scipy.special import ndtri

    grid = ndtri((np.arange(1, r + 1) - 0.5) / r)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    stderr: float


def coupling_distance(values: np.ndarray) -> Union[float, np.ndarray]:
    """Quantile-coupling sum of a sample (of each row of a 2-d array) against
    the standard normal grid."""
    v = np.sort(np.asarray(values, dtype=float), axis=-1)
    # the sorted copy is private, so the gaps are formed in place
    v -= normal_quantile_grid(v.shape[-1])
    return np.mean(np.abs(v, out=v), axis=-1)


def _resampled(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The bootstrap draw: ``BOOTSTRAP_RESAMPLES`` rows resampling ``values`` with replacement."""
    return values[rng.integers(0, values.size, size=(BOOTSTRAP_RESAMPLES, values.size))]


def wasserstein_to_normal(rep: ReplicateSet) -> DistanceEstimate:
    """Empirical Wasserstein-1 distance to N(0, 1) by quantile coupling.

    Couples the sorted replicate values to the normal midpoint quantiles and
    averages the transport gaps.  The estimator carries an O(R^-1/2 log R)
    upward bias from sampling noise; a bootstrap standard error
    (``BOOTSTRAP_RESAMPLES`` resamples of the replicates with replacement)
    accompanies the point value.
    """
    r = rep.replicates
    if r < MIN_REPLICATES_FOR_DISTANCE:
        raise CapacityError(
            f"distance estimation needs >= {MIN_REPLICATES_FOR_DISTANCE} replicates, got {r}"
        )
    rng = stream(rep.seed, Purpose.BOOTSTRAP, rep.slot)
    boots = coupling_distance(_resampled(rep.values, rng))
    return DistanceEstimate(value=float(coupling_distance(rep.values)),
                            stderr=float(boots.std(ddof=1)))


@functools.lru_cache(maxsize=64)
def coupling_bias(r: int) -> float:
    """Expected coupling distance of exactly-normal samples of size r.

    This is the estimator's noise floor; subtracting it (in quadrature)
    recovers distances below the raw bias level.  It is the mean over 400
    samples, each rescaled by its own mean and standard deviation before
    coupling, as the empirical-normalization pipeline does.  Sample j reads
    the stream (0, CALIBRATION, 0, j).  The quantile grid is built before the
    loop, so its first-use scipy import is not timed as replicate 0.
    """

    def distance(rng):
        x = rng.standard_normal(r)
        return coupling_distance((x - x.mean()) / x.std(ddof=1))

    normal_quantile_grid(r)
    return float(_replicates(np.empty(400), distance, 0, Purpose.CALIBRATION).mean())


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
    from the weighted jacobian; all three are NaN when no distance exceeds
    the floor, since the model then has no signal to fit.
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
    if not np.any(y > floor):
        return FloorAwareFit(slope=math.nan, amplitude=math.nan, stderr=math.nan)
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


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    stderr: float


def ols_loglog(ns: Sequence[float], ds: Sequence[float]) -> RateFit:
    """Least-squares fit of log(ds) against log(ns): the log-log decay exponent."""
    ns = np.asarray(ns, dtype=float)
    ds = np.asarray(ds, dtype=float)
    if ns.size != ds.size:
        raise ParameterError("ns and ds must have equal length")
    if np.any(ns <= 0) or np.any(ds <= 0):
        raise ParameterError("rate fitting needs positive entries")
    x, y = np.log(ns), np.log(ds)
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
