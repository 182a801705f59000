"""Normal-approximation error bounds for symmetric U-statistics.

Every bound here is assembled from exactly computed contraction norms and the
exact finite-n combinatorial ratio from `product.prefactor_ratio`; no asymptotic
constant is ever guessed.  The norms of a kernel pair come from one
`contractions._contraction_table`, the sums run over `product._overlaps`, the
aggregates that keep every contraction share one `_full_terms`, and the
bounds that keep only the diagonal contractions share one
`_diagonal_l4_split`.  The order-dependent constants kappa_p of the
underlying exchangeable-pair argument are configuration inputs (default 1.0,
flagged), and each report keeps the kappa contribution as a separate term so
results stay interpretable under any choice.

All totals are scale-invariant in the kernel: contraction terms are
homogeneous ratios and kappa terms are kernel-free (the multivariate bound
normalizes its input vector to unit total variance to preserve this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (DiscreteMeasure, SymmetricKernel, is_degenerate, lp_norm,
                   tensor_inner, tensor_lp_norm)
from .contractions import _contraction_table
from .errors import ContractViolationError, ParameterError, PreconditionError
from .hoeffding import HoeffdingSet, _rank, _variance, compute_g, decompose
from .product import _overlaps, binom, prefactor_ratio

#: coefficient of the contraction block in the one-dimensional bounds
W1_COEF = math.sqrt(2.0 / math.pi) + 4.0 / 3.0

#: coefficient of the kappa block in the one-dimensional bounds
KAPPA_COEF = 2.0 * math.sqrt(2.0) / 3.0

DEFAULT_KAPPA = 1.0


@dataclass(frozen=True)
class KappaConfig:
    """Per-order constants kappa_p with provenance tracking.

    Orders missing from the mapping fall back to ``DEFAULT_KAPPA`` and are
    flagged as defaulted in every report that consumes them.
    """

    values: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for p, v in self.values.items():
            if v <= 0:
                raise ParameterError(f"kappa_{p} must be positive, got {v}")

    def get(self, p: int):
        if p in self.values:
            return float(self.values[p]), "user"
        return DEFAULT_KAPPA, "default"


@dataclass(frozen=True)
class TestFunctionProfile:
    """Seminorm profile of a test function: sup norms of derivatives 1..3.

    ``m2_tilde`` bounds the Hilbert-Schmidt norm of the Hessian; when it is
    not supplied it defaults to ``sqrt(d) * m2`` at the point of use.
    """

    __test__ = False  # not a test case despite the Test* name

    m1: float = 1.0
    m2: float = 1.0
    m3: float = 1.0
    m2_tilde: Optional[float] = None

    def __post_init__(self):
        for name in ("m1", "m2", "m3"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")
        if self.m2_tilde is not None and self.m2_tilde < 0:
            raise ParameterError("m2_tilde must be non-negative")

    def hessian_hs(self, d: int) -> float:
        if self.m2_tilde is not None:
            return self.m2_tilde
        return math.sqrt(d) * self.m2


@dataclass(frozen=True)
class BoundReport:
    """A bound total with its named term breakdown.

    ``total`` always equals the sum of ``terms`` (checked to 1e-12);
    ``extras`` carries diagnostics that are not part of the total.
    """

    total: float
    terms: dict
    constant_mode: str = "exact-finite-n"
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        s = float(sum(self.terms.values()))
        if abs(self.total - s) > 1e-12 * (1.0 + abs(s)):
            raise ContractViolationError("report total does not match its terms")


def _report(terms: dict, extras: dict, mode: str = "exact-finite-n") -> BoundReport:
    return BoundReport(total=float(sum(terms.values())), terms=terms,
                       constant_mode=mode, extras=extras)


def _diagonal_l4_split(n: int, i: int, k: int, diag_norm):
    """(diagonal part, L4 part) of the aggregate that keeps the diagonal contractions.

    Over the admissible (t, r) of orders (i, k), the diagonal part sums
    ``prefactor_ratio(n, i, k, 2s, s) * diag_norm(s)`` (t = 2s, r = s); the L4
    part sums the ratios of every other (t, r), whose contraction norms the
    caller replaces by a product of L4 norms.  Even t are summed first.
    """
    diag = 0.0
    l4 = 0.0
    for t in (*range(2, i + k, 2), *range(1, i + k, 2)):
        for r in _overlaps(t, i, k):
            ratio = prefactor_ratio(n, i, k, t, r)
            if 2 * r == t:
                diag += ratio * diag_norm(r)
            else:
                l4 += ratio
    return diag, l4


def _full_terms(n: int, i: int, k: int, table: dict) -> dict:
    """``prefactor_ratio(n, i, k, t, r) * ||contraction (r, t - r)||`` for every
    admissible (t, r) of orders (i, k), t ascending.

    The aggregates that keep every contraction add them with ``+=`` in this
    order; the builtin ``sum`` compensates round-off from Python 3.12 on.
    """
    return {(t, r): prefactor_ratio(n, i, k, t, r) * table[(r, t - r)].l2_norm
            for t in range(1, i + k) for r in _overlaps(t, i, k)}


def _projection_max(table: dict, s: int, l: int) -> float:
    # max ||g_i *_r^t g_k|| over 0 <= t <= r <= s, t <= l, r - t <= s - l
    return max(table[(r, t)].l2_norm for r in range(0, s + 1) for t in range(0, r + 1)
               if t <= l and r - t <= s - l)


def bound_degenerate_1d(psi: SymmetricKernel, mu: DiscreteMeasure, n: int,
                        kappa: Optional[KappaConfig] = None):
    """The two Wasserstein bounds for a normalized degenerate U-statistic.

    Returns ``(b1, b2)``.  b1 sums exact finite-n ratios against all
    contraction norms of the kernel with itself; b2 keeps only the fully
    integrated (diagonal) contractions and controls everything else through
    the L4/L2 norm ratio.  Both carry the same kernel-free kappa term.
    """
    kappa = kappa or KappaConfig()
    p = psi.order
    if n < 2 * p:
        # the prefactors come from the decomposition of the squared statistic,
        # which needs room for two disjoint index sets
        raise ParameterError(f"need n >= 2p = {2 * p}, got {n}")
    if not is_degenerate(psi, mu):
        raise PreconditionError("the one-dimensional degenerate bound needs a degenerate kernel")
    l2 = lp_norm(psi, mu, 2.0)
    if l2 <= 0.0:
        raise PreconditionError("kernel must have positive L2 norm")
    l4 = lp_norm(psi, mu, 4.0)
    cn = _contraction_table(psi, psi, mu)
    kap, prov = kappa.get(p)
    kap_term = KAPPA_COEF * math.sqrt(p * kap / n)

    b1_terms_by_index = {key: v / l2**2 for key, v in _full_terms(n, p, p, cn).items()}
    b1_sum = 0.0
    for v in b1_terms_by_index.values():
        b1_sum += v
    b1 = _report(
        terms={"contraction": W1_COEF * b1_sum, "kappa": kap_term},
        extras={"per_index": {f"t={t},r={r}": v for (t, r), v in b1_terms_by_index.items()},
                "kappa_value": kap, "kappa_provenance": prov, "order": p},
    )

    diag, l4_sum = _diagonal_l4_split(n, p, p, lambda s: cn[(s, s)].l2_norm)
    b2 = _report(
        terms={
            "contraction": W1_COEF * (diag / l2**2),
            "fourth_moment": W1_COEF * (l4**2 / l2**2) * l4_sum,
            "kappa": kap_term,
        },
        extras={"l4_over_l2_sq": l4**2 / l2**2, "kappa_value": kap,
                "kappa_provenance": prov, "order": p},
    )
    return b1, b2


def clt_condition_values(kernels_by_n: Sequence, mu: DiscreteMeasure):
    """CLT-condition values per n for a sequence of degenerate kernels.

    For each ``(n, psi)`` pair, reports the largest diagonal contraction norm
    ratio (condition i; 0.0 for order-1 kernels, where the range is empty) and
    the root-n-damped L4/L2 ratio (condition ii).  No verdict is attached;
    the caller inspects the trend.
    """
    out = []
    for n, psi in kernels_by_n:
        if not is_degenerate(psi, mu):
            raise PreconditionError("condition values are defined for degenerate kernels")
        l2 = lp_norm(psi, mu, 2.0)
        if l2 <= 0.0:
            raise PreconditionError("kernel must have positive L2 norm")
        cn = _contraction_table(psi, psi, mu)
        cond_i = max((cn[(s, s)].l2_norm / l2**2 for s in range(1, psi.order)),
                     default=0.0)
        cond_ii = lp_norm(psi, mu, 4.0) ** 2 / (math.sqrt(n) * l2**2)
        out.append({"n": int(n), "condition_i": cond_i, "condition_ii": cond_ii})
    return out


def bound_dominant(psi: SymmetricKernel, mu: DiscreteMeasure, n: int,
                   kappa: Optional[KappaConfig] = None) -> BoundReport:
    """Wasserstein bound when the first active decomposition level dominates.

    The kernel is scaled to unit standard deviation and decomposed once (the
    decomposition centres it), its rank m located, the degenerate bound
    applied to the rank-m kernel, and the remaining levels contribute an
    explicit root-n-damped remainder.  The kernel-free variant of the
    remainder (using the factorial norm bound) is reported as an extra.
    """
    kappa = kappa or KappaConfig()
    p = psi.order
    if n < p:
        raise ParameterError(f"need n >= p = {p}, got {n}")
    g0 = float(compute_g(psi, mu, 0))
    l2 = tensor_lp_norm(psi.values - g0, mu, 2.0)
    if l2 <= 0.0:
        raise PreconditionError("kernel must have positive variance")
    hs = decompose(psi.scaled(1.0 / l2), mu)
    m = _rank(hs, mu)
    if m is None:
        raise PreconditionError("kernel has no active decomposition level")
    norms = [lp_norm(hs.psi_kernel(s), mu, 2.0) if s >= 1 else 0.0
             for s in range(p + 1)]

    b1, b2 = bound_degenerate_1d(hs.psi_kernel(m), mu, n, kappa)
    # at rank 1 both totals are the same number, so round-off must not choose
    y = b1 if b1.total <= b2.total * (1.0 + 1e-12) else b2
    variant = "b1" if y is b1 else "b2"

    remainder = 0.0
    remainder_free = 0.0
    for s in range(m + 1, p + 1):
        damp = float(n) ** ((m - s) / 2.0)
        shared = math.sqrt(math.factorial(m)) * math.factorial(p - m) * damp
        remainder += shared * norms[s] / (
            math.sqrt(math.factorial(s)) * math.factorial(p - s) * norms[m]
        )
        remainder_free += shared / (
            math.sqrt(math.factorial(p)) * math.sqrt(math.factorial(p - s)) * norms[m]
        )

    terms = dict(y.terms)
    terms["residual"] = remainder
    extras = {
        "rank": m,
        "degenerate_variant": variant,
        "remainder_kernel_free": remainder_free,
        "level_norms": norms[1:],
        "kappa_provenance": y.extras["kappa_provenance"],
    }
    return _report(terms=terms, extras=extras)


def contraction_aggregates(psi_i: SymmetricKernel, psi_k: SymmetricKernel,
                           mu: DiscreteMeasure, n: int):
    """The two contraction-norm aggregates (A1, A2) for a degenerate pair.

    A1 sums exact ratios against every admissible cross-contraction norm.
    A2 keeps the diagonal contractions (where both indices coincide, possible
    only up to the smaller order) and replaces the rest by the product of L4
    norms; termwise domination gives A1 <= A2.
    """
    if not is_degenerate(psi_i, mu) or not is_degenerate(psi_k, mu):
        raise PreconditionError("the A quantities require degenerate kernels")
    pi, pk = psi_i.order, psi_k.order
    if n < pi + pk:
        raise ParameterError(f"need n >= {pi + pk}, got {n}")
    cn = _contraction_table(psi_i, psi_k, mu)

    a1 = 0.0
    for v in _full_terms(n, pi, pk, cn).values():
        a1 += v

    l4 = lp_norm(psi_i, mu, 4.0) * lp_norm(psi_k, mu, 4.0)
    diag, l4_sum = _diagonal_l4_split(n, pi, pk, lambda s: cn[(s, s)].l2_norm)
    return a1, diag + l4 * l4_sum


def bound_multivariate(kernels: Sequence[SymmetricKernel], mu: DiscreteMeasure,
                       n: int, profile: TestFunctionProfile,
                       kappa: Optional[KappaConfig] = None, mode: str = "C3",
                       a_variant: int = 1) -> BoundReport:
    """Multivariate normal-approximation bound for a vector of degenerate kernels.

    Kernel orders must be nondecreasing.  The vector is rescaled to unit total
    variance before assembly (the natural normalization of the joint
    statistic), which also makes the report invariant under common kernel
    scalings; the applied factor is recorded.  Mode "C3" uses the
    three-derivative form; mode "C2" uses the two-derivative form weighted by
    the operator norm of the inverse square root of the (exactly computed,
    block-diagonal) covariance, which must be positive definite.
    """
    kappa = kappa or KappaConfig()
    if mode not in ("C3", "C2"):
        raise ParameterError(f"mode must be 'C3' or 'C2', got {mode!r}")
    if a_variant not in (1, 2):
        raise ParameterError("a_variant must be 1 or 2")
    d = len(kernels)
    if d == 0:
        raise ParameterError("kernel list must be non-empty")
    orders = [k.order for k in kernels]
    if any(orders[i] > orders[i + 1] for i in range(d - 1)):
        raise ParameterError("kernel orders must be nondecreasing")
    if n < 2 * max(orders):
        raise ParameterError("n must be at least twice the largest kernel order")

    total_var = sum(lp_norm(k, mu, 2.0) ** 2 for k in kernels)
    if total_var <= 0.0:
        raise PreconditionError("at least one kernel must be non-zero")
    scale = 1.0 / math.sqrt(total_var)
    scaled = [k.scaled(scale) for k in kernels]
    sigma = [lp_norm(k, mu, 2.0) for k in scaled]

    a = np.zeros((d, d))
    for i in range(d):
        for k in range(i, d):
            pair = contraction_aggregates(scaled[i], scaled[k], mu, n)
            a[i, k] = a[k, i] = pair[a_variant - 1]

    cov = np.zeros((d, d))
    for i in range(d):
        for k in range(d):
            if orders[i] == orders[k]:
                cov[i, k] = tensor_inner(scaled[i].values, scaled[k].values, mu)
    eigvals = np.linalg.eigvalsh(cov)

    p1 = orders[0]
    cross = sum((orders[i] + orders[k]) * a[i, k] for i in range(d) for k in range(d))
    diag = sum(orders[i] * sigma[i] * a[i, i] for i in range(d))
    kap_vals = [kappa.get(p) for p in orders]
    kap_sum = sum(
        orders[i] ** 1.5 * sigma[i] ** 3 * math.sqrt(kap_vals[i][0]) for i in range(d)
    )

    if mode == "C3":
        t1 = profile.hessian_hs(d) / (4.0 * p1) * cross
        t2 = 2.0 * profile.m3 * math.sqrt(d) / (9.0 * p1) * diag
        t3 = math.sqrt(2.0 * d) * profile.m3 / (9.0 * p1 * math.sqrt(n)) * kap_sum
    else:
        lam_min = float(eigvals.min())
        if lam_min <= 0.0:
            raise PreconditionError("covariance must be positive definite in mode 'C2'")
        op = 1.0 / math.sqrt(lam_min)
        t1 = profile.m1 * op / (p1 * math.sqrt(2.0 * math.pi)) * cross
        t2 = math.sqrt(2.0 * math.pi * d) / (6.0 * p1) * profile.m2 * op * diag
        t3 = math.sqrt(math.pi * d) / (6.0 * p1 * math.sqrt(n)) * profile.m2 * op * kap_sum

    return _report(
        terms={"cross_term": t1, "diagonal_term": t2, "kappa": t3},
        extras={
            "mode": mode,
            "a_variant": a_variant,
            "applied_scale": scale,
            "sigma": sigma,
            "covariance_eigenvalues": eigvals.tolist(),
            "kappa_provenance": {orders[i]: kap_vals[i][1] for i in range(d)},
        },
    )


def projection_contraction_bound(hs: HoeffdingSet, mu: DiscreteMeasure,
                                 i: int, k: int, s: int, l: int) -> float:
    """Largest admissible projection-contraction norm dominating a level contraction.

    Evaluates ``max ||g_i *_r^t g_k||`` over the index set
    ``{(r, t): 0 <= t <= r <= s, t <= l, r - t <= s - l}``.  Up to an
    (i, k, s, l)-dependent constant this dominates the corresponding
    contraction of the degenerate level kernels; the constant itself is never
    needed because all rate conclusions are constant-free.
    """
    p = hs.order
    if not (1 <= i <= p and 1 <= k <= p):
        raise ParameterError(f"levels must lie in [1, {p}], got i={i}, k={k}")
    if not (0 <= l <= s <= min(i, k)):
        raise ParameterError(f"need 0 <= l <= s <= min(i, k), got s={s}, l={l}")
    return _projection_max(_contraction_table(hs.g_kernel(i), hs.g_kernel(k), mu), s, l)


def bound_general(psi: SymmetricKernel, mu: DiscreteMeasure, n: int,
                  profile: TestFunctionProfile,
                  kappa: Optional[KappaConfig] = None,
                  variant: str = "B") -> BoundReport:
    """Smooth-test-function bound for a general (non-degenerate) U-statistic.

    The statistic is centered and studied through its normalized decomposition
    levels; the sum of squared level norms is verified to be 1.  Every level
    contraction is dominated by projection-function contractions (empirical
    constant 1, recorded in ``constant_mode``), while all binomial prefactors
    are exact.  ``variant`` selects the per-level aggregate: "B" keeps the
    full finite-n ratio sums, "B'" collapses each aggregate to its largest
    n-power envelope term.
    """
    kappa = kappa or KappaConfig()
    if variant not in ("B", "B'"):
        raise ParameterError("variant must be 'B' or \"B'\"")
    p = psi.order
    if n < 2 * p:
        raise ParameterError(f"need n >= 2p = {2 * p}, got {n}")
    hs = decompose(psi, mu)
    var_n, _ = _variance(hs, mu, n)
    if var_n <= 0.0:
        raise PreconditionError("statistic must have positive variance")
    sigma = math.sqrt(var_n)

    level_l2 = [0.0] * (p + 1)
    unit_norms = [0.0] * (p + 1)  # L2 norms of the normalized level kernels
    for s in range(1, p + 1):
        level_l2[s] = lp_norm(hs.psi_kernel(s), mu, 2.0)
        unit_norms[s] = math.sqrt(binom(n, s)) * binom(n - s, p - s) * level_l2[s] / sigma
    total = sum(v * v for v in unit_norms[1:])
    if abs(total - 1.0) > 1e-9:
        raise ContractViolationError(
            f"normalized level norms must have unit square sum, got {total!r}"
        )

    def prefac(i: int, k: int) -> float:
        return (
            math.sqrt(binom(n, i)) * binom(n - i, p - i)
            * math.sqrt(binom(n, k)) * binom(n - k, p - k) / (sigma**2)
        )

    # one table of centred projection contractions per level pair i <= k
    tables = {(i, k): _contraction_table(hs._kernel("c", i), hs._kernel("c", k), mu)
              for i in range(1, p + 1) for k in range(i, p + 1)}

    def g_diag(i: int, k: int, s: int) -> float:
        return max(tables[(i, k)][(t, t)].l2_norm for t in range(0, s + 1))

    def g0max(i: int) -> float:
        return max(tables[(i, i)][(r, 0)].l2_norm for r in range(0, i + 1))

    def admissible(i: int, k: int):
        # the (s, l) of the level contractions of orders (i, k)
        return [(s, l) for s in range(1, min(i, k) + 1)
                for l in range(0, min(i + k - s - 1, s) + 1)]

    def b_one(i: int, k: int) -> float:
        out = 0.0
        for s, l in admissible(i, k):
            out += (
                prefactor_ratio(n, i, k, l + s, s)
                * prefac(i, k)
                * _projection_max(tables[(i, k)], s, l)
            )
        return out

    def b_two(i: int, k: int) -> float:
        l4ish = math.sqrt(g0max(i) * g0max(k))
        diag, l4_sum = _diagonal_l4_split(n, i, k, lambda s: g_diag(i, k, s))
        pf = prefac(i, k)
        return pf * diag + pf * l4ish * l4_sum

    def b_one_env(i: int, k: int) -> float:
        out = 0.0
        for s, l in admissible(i, k):
            out = max(
                out,
                float(n) ** (2 * p - (i + k + s - l) / 2.0) / sigma**2
                * _projection_max(tables[(i, k)], s, l),
            )
        return out

    def b_two_env(i: int, k: int) -> float:
        pf_env = 1.0 / sigma**2
        l4ish = math.sqrt(g0max(i) * g0max(k))
        out = 0.0
        if i + k > 2:
            s_cap = min(math.ceil((i + k) / 2) - 1, i, k)
            diag = max((g_diag(i, k, s) for s in range(1, s_cap + 1)), default=0.0)
            out += diag * float(n) ** (2 * p - (i + k) / 2.0) * pf_env
            out += l4ish * float(n) ** (2 * p - 1 - (i + k) / 2.0) * pf_env
        out += l4ish * float(n) ** (2 * p - (i + k + 1) / 2.0) * pf_env
        return out

    if variant == "B":
        b_fns = (b_one, b_two)
    else:
        b_fns = (b_one_env, b_two_env)
    # both aggregates bound the same quantity; use their minimum per cell
    b = np.zeros((p + 1, p + 1))
    for i in range(1, p + 1):
        for k in range(i, p + 1):
            b[i, k] = b[k, i] = min(b_fns[0](i, k), b_fns[1](i, k))

    t1 = math.sqrt(p) / 4.0 * profile.m2 * sum(
        (i + k) * b[i, k] for i in range(1, p + 1) for k in range(1, p + 1)
    )
    t2 = 2.0 * profile.m3 * math.sqrt(p) / 9.0 * sum(
        i * unit_norms[i] * b[i, i] for i in range(1, p + 1)
    )
    kap_info = {i: kappa.get(i) for i in range(1, p + 1)}
    t3 = math.sqrt(2.0 * p) * profile.m3 / (9.0 * math.sqrt(n)) * sum(
        i**1.5 * unit_norms[i] ** 3 * math.sqrt(kap_info[i][0])
        for i in range(1, p + 1)
    )

    return _report(
        terms={"second_order": t1, "third_order": t2, "kappa": t3},
        extras={
            "variant": variant,
            "centered_shift": float(hs.g[0]),
            "sigma_sq": var_n,
            "level_norms": unit_norms[1:],
            "kappa_provenance": {i: kap_info[i][1] for i in kap_info},
        },
        mode="empirical-g-constants",
    )
