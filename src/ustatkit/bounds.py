"""Normal-approximation error bounds for symmetric U-statistics.

Every bound here is assembled from exactly computed contraction norms and the
exact finite-n combinatorial ratio from `product.prefactor_ratio`; no asymptotic
constant is ever guessed.  The norms of a kernel pair come from one
`contractions._contraction_table`, and `_pair_terms` evaluates each ratio of
a level pair once, over `product._overlaps`, for both the A1 terms (every
contraction) and the A2 split (diagonal contractions plus L4 ratios).  The
contraction inequality (check iv of `verify_contraction_inequalities`) makes
each term of the A1 aggregate at most the matching term of A2, so A1 <= A2
and b1 <= b2: the dominant, general-B and multivariate bounds read A1 only,
and b2 and A2 remain reported quantities.  The general and dominant bounds
decompose their kernel once and read its levels, level norms, variance and
rank from that `HoeffdingSet`, whose levels `decompose` has already checked
for degeneracy.  general-B and general-B' are the three-derivative (C3)
multivariate bound of the vector of normalized Hoeffding levels, with the B
or B' cells: they and `bound_multivariate` assemble their terms in one
`_smooth_terms`.  The order-dependent constants kappa_p of the underlying
exchangeable-pair argument are configuration inputs (default 1.0, flagged),
and each report keeps the kappa contribution as a separate term so results
stay interpretable under any choice.

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
from .errors import CapacityError, ContractViolationError, ParameterError, PreconditionError
from .hoeffding import compute_g, decompose, hoeffding_rank, variance
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
            if not 0 < v < math.inf:
                raise ParameterError(f"kappa_{p} must be positive and finite, got {v}")

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
        for name in ("m1", "m2", "m3", "m2_tilde"):
            v = getattr(self, name)
            if v is not None and not 0 <= v < math.inf:
                raise ParameterError(f"{name} must be finite and non-negative, got {v}")

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
    extras: dict

    def __post_init__(self):
        s = float(sum(self.terms.values()))
        if abs(self.total - s) > 1e-12 * (1.0 + abs(s)):
            raise ContractViolationError("report total does not match its terms")


def _report(terms: dict, extras: dict) -> BoundReport:
    return BoundReport(total=float(sum(terms.values())), terms=terms, extras=extras)


def _pair_terms(n: int, i: int, k: int, table: dict):
    """The contraction terms of levels (i, k), one `prefactor_ratio` per
    admissible (t, r).

    Returns ``(terms, a1, diag, l4)``: ``terms[(t, r)]`` is the ratio times the
    norm of the contraction ``table[(r, t - r)]`` of a `_contraction_table`,
    t ascending, and ``a1`` their ``+=`` sum in that order (the builtin
    ``sum`` compensates round-off from Python 3.12 on).  ``diag`` sums the
    diagonal terms (t = 2r) and ``l4`` the ratios of every other (t, r), whose
    norms the A2 aggregate replaces by a product of L4 norms; both sum even t
    first.
    """
    ratios = {(t, r): prefactor_ratio(n, i, k, t, r)
              for t in range(1, i + k) for r in _overlaps(t, i, k)}
    terms = {(t, r): v * table[(r, t - r)].l2_norm for (t, r), v in ratios.items()}
    a1 = diag = l4 = 0.0
    for v in terms.values():
        a1 += v
    for t, r in sorted(ratios, key=lambda key: key[0] % 2):
        if 2 * r == t:
            diag += terms[(t, r)]
        else:
            l4 += ratios[(t, r)]
    return terms, a1, diag, l4


def _envelope(n: int, p: int, i: int, k: int, table: dict, l4: float) -> float:
    """The smaller of the largest n-power envelope terms of the A1 and A2
    aggregates of levels (i, k) in an order-p statistic, before the division
    by the variance.

    ``table`` holds the contractions of the level pair and ``l4`` the product
    of their L4 norms.
    """
    one = max(float(n) ** (2 * p - (i + k + 2 * r - t) / 2.0) * table[(r, t - r)].l2_norm
              for t in range(1, i + k) for r in _overlaps(t, i, k))
    two = l4 * float(n) ** (2 * p - (i + k + 1) / 2.0)
    if i + k > 2:
        s_cap = min(math.ceil((i + k) / 2) - 1, i, k)
        diag = max(table[(s, s)].l2_norm for s in range(1, s_cap + 1))
        two += (diag * float(n) ** (2 * p - (i + k) / 2.0)
                + l4 * float(n) ** (2 * p - 1 - (i + k) / 2.0))
    return min(one, two)


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
    kap, prov = kappa.get(p)
    try:
        kap_term = KAPPA_COEF * math.sqrt(p * kap / n)
    except OverflowError:
        raise CapacityError(f"n, a {len(str(n))}-digit integer, lies past the float "
                            "range") from None

    terms, _, diag, l4_sum = _pair_terms(n, p, p, _contraction_table(psi, psi, mu))
    b1_terms_by_index = {key: v / l2**2 for key, v in terms.items()}
    b1_sum = 0.0
    for v in b1_terms_by_index.values():
        b1_sum += v
    b1 = _report(
        terms={"contraction": W1_COEF * b1_sum, "kappa": kap_term},
        extras={"per_index": {f"t={t},r={r}": v for (t, r), v in b1_terms_by_index.items()},
                "kappa_value": kap, "kappa_provenance": prov, "order": p},
    )

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
    m = hoeffding_rank(hs)
    if m is None:
        raise PreconditionError("kernel has no active decomposition level")
    norms = hs.psi_norms

    # b1 <= b2 term by term, so the rank-m bound is b1
    y, _ = bound_degenerate_1d(hs.psi_kernel(m), mu, n, kappa)

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
        "remainder_kernel_free": remainder_free,
        "level_norms": list(norms[1:]),
        "kappa_provenance": y.extras["kappa_provenance"],
    }
    return _report(terms=terms, extras=extras)


def contraction_aggregates(psi_i: SymmetricKernel, psi_k: SymmetricKernel,
                           mu: DiscreteMeasure, n: int):
    """The two contraction-norm aggregates (A1, A2) for a degenerate pair.

    A1 sums exact ratios against every admissible cross-contraction norm.
    A2 keeps the diagonal contractions (where both indices coincide, possible
    only up to the smaller order) and replaces the rest by the product of L4
    norms; termwise domination gives A1 <= A2.  Both come from one
    `_pair_terms` pass; the bounds that read A1 only call that pass directly.
    """
    if not is_degenerate(psi_i, mu) or not is_degenerate(psi_k, mu):
        raise PreconditionError("the A quantities require degenerate kernels")
    pi, pk = psi_i.order, psi_k.order
    if n < pi + pk:
        raise ParameterError(f"need n >= {pi + pk}, got {n}")
    _, a1, diag, l4_sum = _pair_terms(n, pi, pk, _contraction_table(psi_i, psi_k, mu))
    l4 = lp_norm(psi_i, mu, 4.0) * lp_norm(psi_k, mu, 4.0)
    return a1, diag + l4 * l4_sum


def _smooth_terms(n: int, orders: Sequence[int], sigma: Sequence[float], a, kappa: KappaConfig,
                  profile: TestFunctionProfile, mode: str, weight: float):
    """Terms (cross, diagonal, kappa) of the smooth-function bound of components
    of nondecreasing ``orders``, L2 norms ``sigma`` and aggregates ``a[i, k]``,
    and each order's kappa provenance.  ``weight`` is the Hessian coefficient
    ("C3") or the operator norm of the inverse root covariance ("C2")."""
    d, p1 = len(orders), orders[0]
    cross = sum((orders[i] + orders[k]) * a[i, k] for i in range(d) for k in range(d))
    diag = sum(orders[i] * sigma[i] * a[i, i] for i in range(d))
    kap_vals = [kappa.get(p) for p in orders]
    kap_sum = sum(orders[i] ** 1.5 * sigma[i] ** 3 * math.sqrt(kap_vals[i][0])
                  for i in range(d))
    if mode == "C3":
        t1 = weight / (4.0 * p1) * cross
        t2 = 2.0 * profile.m3 * math.sqrt(d) / (9.0 * p1) * diag
        t3 = math.sqrt(2.0 * d) * profile.m3 / (9.0 * p1 * math.sqrt(n)) * kap_sum
    else:
        t1 = profile.m1 * weight / (p1 * math.sqrt(2.0 * math.pi)) * cross
        t2 = math.sqrt(2.0 * math.pi * d) / (6.0 * p1) * profile.m2 * weight * diag
        t3 = math.sqrt(math.pi * d) / (6.0 * p1 * math.sqrt(n)) * profile.m2 * weight * kap_sum
    return (t1, t2, t3), {orders[i]: kap_vals[i][1] for i in range(d)}


def bound_multivariate(kernels: Sequence[SymmetricKernel], mu: DiscreteMeasure,
                       n: int, profile: TestFunctionProfile,
                       kappa: Optional[KappaConfig] = None, mode: str = "C3") -> BoundReport:
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
    if not all(is_degenerate(k, mu) for k in scaled):
        raise PreconditionError("the A quantities require degenerate kernels")

    a = np.zeros((d, d))
    for i in range(d):
        for k in range(i, d):
            table = _contraction_table(scaled[i], scaled[k], mu)
            a[i, k] = a[k, i] = _pair_terms(n, orders[i], orders[k], table)[1]

    cov = np.zeros((d, d))
    for i in range(d):
        for k in range(d):
            if orders[i] == orders[k]:
                cov[i, k] = tensor_inner(scaled[i].values, scaled[k].values, mu)
    eigvals = np.linalg.eigvalsh(cov)

    lam_min = float(eigvals.min())
    if mode == "C2" and lam_min <= 0.0:
        raise PreconditionError("covariance must be positive definite in mode 'C2'")
    weight = profile.hessian_hs(d) if mode == "C3" else 1.0 / math.sqrt(lam_min)
    (t1, t2, t3), prov = _smooth_terms(n, orders, sigma, a, kappa, profile, mode, weight)

    return _report(
        terms={"cross_term": t1, "diagonal_term": t2, "kappa": t3},
        extras={
            "mode": mode,
            "applied_scale": scale,
            "sigma": sigma,
            "covariance_eigenvalues": eigvals.tolist(),
            "kappa_provenance": prov,
        },
    )


def bound_general(psi: SymmetricKernel, mu: DiscreteMeasure, n: int,
                  profile: TestFunctionProfile,
                  kappa: Optional[KappaConfig] = None,
                  variant: str = "B") -> BoundReport:
    """Smooth-test-function bound for a general (non-degenerate) U-statistic.

    The statistic is centered and studied through the Hoeffding levels psi_s
    of one `decompose`, each normalized by sqrt(C(n, s)) C(n - s, p - s) /
    sigma; the sum of squared normalized level norms is verified to be 1.  The
    bound is the mode-"C3" vector bound of `bound_multivariate` on these p
    levels, with Hessian coefficient sqrt(p) m2 (a one-dimensional test
    function has no Hessian HS norm, so ``m2_tilde`` is not read).  Cell
    (i, k) reads the exact contractions of the level pair (psi_i, psi_k), so
    no constant is left implicit.  ``variant`` selects the per-cell
    aggregate: "B" is the A1 aggregate of `_pair_terms` (at most A2 term by
    term) times the exact finite-n level prefactor, "B'" collapses each
    aggregate to its largest n-power envelope term.
    """
    kappa = kappa or KappaConfig()
    if variant not in ("B", "B'"):
        raise ParameterError("variant must be 'B' or \"B'\"")
    p = psi.order
    if n < 2 * p:
        raise ParameterError(f"need n >= 2p = {2 * p}, got {n}")
    hs = decompose(psi, mu)
    var_n, _ = variance(hs, n)
    if var_n <= 0.0:
        raise PreconditionError("statistic must have positive variance")
    sigma = math.sqrt(var_n)

    unit_norms = [math.sqrt(binom(n, s)) * binom(n - s, p - s) * hs.psi_norms[s] / sigma
                  for s in range(1, p + 1)]  # L2 norms of the normalized level kernels
    total = sum(v * v for v in unit_norms)
    if abs(total - 1.0) > 1e-9:
        raise ContractViolationError(
            f"normalized level norms must have unit square sum, got {total!r}"
        )

    b = np.zeros((p, p))
    for i in range(1, p + 1):
        for k in range(i, p + 1):
            psi_i, psi_k = hs.psi_kernel(i), hs.psi_kernel(k)
            table = _contraction_table(psi_i, psi_k, mu)
            if variant == "B":
                prefac = (math.sqrt(binom(n, i)) * binom(n - i, p - i)
                          * math.sqrt(binom(n, k)) * binom(n - k, p - k) / var_n)
                cell = prefac * _pair_terms(n, i, k, table)[1]
            else:
                l4 = lp_norm(psi_i, mu, 4.0) * lp_norm(psi_k, mu, 4.0)
                cell = _envelope(n, p, i, k, table, l4) / var_n
            b[i - 1, k - 1] = b[k - 1, i - 1] = cell

    # a one-dimensional test function has no Hessian HS norm to read
    (t1, t2, t3), prov = _smooth_terms(n, range(1, p + 1), unit_norms, b, kappa, profile,
                                       "C3", math.sqrt(p) * profile.m2)

    return _report(
        terms={"second_order": t1, "third_order": t2, "kappa": t3},
        extras={
            "variant": variant,
            "centered_shift": float(hs.g[0]),
            "sigma_sq": var_n,
            "level_norms": unit_norms,
            "kappa_provenance": prov,
        },
    )
