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

Distances to the normal couple sorted values to the midpoint quantiles of
``normal_quantile_grid``, which a scalar port of Cephes ``ndtri`` builds bit
for bit as ``scipy.special.ndtri`` would, so ``simulate`` and its distance
load no scipy.  The distance bootstrap resamples the ranks of the sorted
replicates and gathers values only from sorted rank rows; equal ranks are
equal values, so the estimate is the one a sort of resampled values gives.
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


# Cephes ``ndtri`` (Moshier 1989, *Methods and Programs for Mathematical
# Functions*): y + y^3 P0(y^2)/Q0(y^2) about the median, and with
# x = sqrt(-2 log y), x - log(x)/x - P(1/x)/(x Q(1/x)) in the tails, one pair of
# coefficients for x < 8 and one for x >= 8.  Q's leading coefficient is 1.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _horner(x: float, coef: Sequence[float], monic: bool = False) -> float:
    """The polynomial with ``coef`` highest degree first, and with a leading
    1 before them when ``monic``, at x, by Horner's rule."""
    acc = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _ndtri(y: float) -> float:
    """Standard normal quantile of 0 < y < 1: Cephes ``ndtri`` in Python
    floats, step for step, so it rounds as ``scipy.special.ndtri`` does."""
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0, True))
        return x * 2.50662827463100050242  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _horner(z, p) / _horner(z, q, True)
    return x if upper else -x


@functools.lru_cache(maxsize=16)
def normal_quantile_grid(r: int) -> np.ndarray:
    """Standard normal quantiles at the midpoint grid (j - 1/2) / r.

    The grid is built once per r and returned read-only.
    """
    grid = np.array([_ndtri((j - 0.5) / r) for j in range(1, r + 1)])
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    stderr: float


def coupling_distance(values: np.ndarray) -> Union[float, np.ndarray]:
    """Quantile-coupling sum of a sample (of each row of a 2-d array) against
    the standard normal grid."""
    return _mean_gap(np.sort(np.asarray(values, dtype=float), axis=-1))


def _mean_gap(v: np.ndarray) -> Union[float, np.ndarray]:
    """Mean transport gap |v - q| of sorted ``v`` (of each row) to the normal
    grid q; ``v`` is a private copy, so the gaps are formed in place."""
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

    The bootstrap resamples ranks, not values: the replicates are sorted
    once, ``_resampled`` draws from their ranks (the same indices from the
    same stream as a draw of the values), each rank row is sorted in place
    and the sorted values are gathered in row blocks of at most 2 MiB.  Rank
    order is value order and equal ranks are equal values, so each gathered
    row equals ``np.sort`` of the resampled values element for element (a
    0.0 and a -0.0 may trade places, which no gap |v - q| sees) and every
    bit of the estimate is unchanged, while the R-column matrices are small
    integers instead of two float copies.
    """
    r = rep.replicates
    if r < MIN_REPLICATES_FOR_DISTANCE:
        raise CapacityError(
            f"distance estimation needs >= {MIN_REPLICATES_FOR_DISTANCE} replicates, got {r}"
        )
    order = np.argsort(rep.values)
    ordered = rep.values[order]
    rank = np.empty(r, dtype=np.uint16 if r <= 2**16 else np.uint32)
    rank[order] = np.arange(r)
    ranks = _resampled(rank, stream(rep.seed, Purpose.BOOTSTRAP, rep.slot))
    ranks.sort(axis=1)
    step = max(1, (2 << 20) // (8 * r))  # rows of a gathered block of at most 2 MiB
    boots = np.concatenate([_mean_gap(ordered[ranks[lo:lo + step]])
                            for lo in range(0, BOOTSTRAP_RESAMPLES, step)])
    # the point value last: it overwrites ``ordered``
    return DistanceEstimate(value=float(_mean_gap(ordered)), stderr=float(boots.std(ddof=1)))


@functools.lru_cache(maxsize=64)
def coupling_bias(r: int) -> float:
    """Expected coupling distance of exactly-normal samples of size r.

    This is the estimator's noise floor; subtracting it (in quadrature)
    recovers distances below the raw bias level.  It is the mean over 400
    samples, each rescaled by its own mean and standard deviation before
    coupling, as the empirical-normalization pipeline does.  Sample j reads
    the stream (0, CALIBRATION, 0, j).  The quantile grid is built before the
    loop, so its first build (a Python loop over r quantiles) is not timed as
    replicate 0.
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
