"""Product formula for degenerate symmetric U-statistics and its companions.

The product of two degenerate statistics of orders p and q decomposes into
degenerate statistics of orders p + q - t for t = 0..2 min(p, q), with kernels
built from binomially weighted top-level projections of symmetrized
contractions.  This module materializes those kernels exactly, verifies the
identity on every distinct symbol-count vector (or on sampled ones) from the
`ProductKernelSet` it is handed, and evaluates the combinatorial ratio that turns the binomial prefactors into
explicit n-powers.  `_overlaps` is the one definition of the admissible
overlap sizes r of a level t, shared with the bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import DiscreteMeasure, SymmetricKernel, is_degenerate, symmetrize
from .errors import CapacityError, ParameterError, PreconditionError
from .contractions import contract
from .hoeffding import ENUMERATION_CAP, decompose, ustat_values_from_count_matrix
from .montecarlo import Purpose, stream


def binom(n: int, k: int) -> float:
    """Binomial coefficient, computed in exact integers and rounded once."""
    if k < 0 or k > n:
        raise ParameterError(f"binomial C({n}, {k}) is out of range")
    return float(math.comb(n, k))


def multinomial(n: int, parts) -> float:
    """Multinomial coefficient ``n! / prod(parts!)``; the parts must sum to n.

    Computed as a product of exact integer binomials and rounded once.
    """
    parts = tuple(int(x) for x in parts)
    if any(x < 0 for x in parts) or sum(parts) != n:
        raise ParameterError(f"invalid multinomial ({n}; {parts})")
    out = 1
    for x in parts:
        out *= math.comb(n, x)
        n -= x
    return float(out)


@dataclass(frozen=True)
class ProductKernelSet:
    """Decomposition level kernels for t = 0..2 min(p, q) and what built them.

    ``levels[t]`` is a SymmetricKernel of order p + q - t, except the order-0
    entry (reached only when p = q and t = 2p), which is a plain float.
    ``psi``, ``phi``, ``n`` and ``mu`` are the factors, sample size and
    measure the levels were built for.
    """

    levels: tuple
    n: int
    psi: SymmetricKernel
    phi: SymmetricKernel
    mu: DiscreteMeasure


def _overlaps(t: int, p: int, q: int) -> range:
    """Admissible overlap sizes r of level t: ``ceil(t/2) <= r <= min(t, p, q)``."""
    return range(math.ceil(t / 2), min(t, p, q) + 1)


def _level(psi: SymmetricKernel, phi: SymmetricKernel, n: int, t: int,
           mu: DiscreteMeasure):
    """Level t of the product decomposition: a SymmetricKernel of order
    p + q - t, or a float at order 0."""
    p, q = psi.order, phi.order
    order = p + q - t
    acc = 0.0
    for r in _overlaps(t, p, q):
        coeff = binom(n - p - q + t, t - r) * multinomial(order, (p - r, q - r, 2 * r - t))
        acc = acc + coeff * contract(psi, phi, r, t - r, mu).tensor
    if order == 0:
        return float(acc)
    # symmetrization and the top level are linear: one `decompose` of the sum,
    # scaled exactly (by a power of 2) to unit size: below it the checks are absolute
    e = math.frexp(float(np.max(np.abs(acc))))[1]
    top = decompose(symmetrize(np.ldexp(acc, -e)), mu).psi[order]
    return SymmetricKernel(np.ldexp(top, e))


def product_kernels(psi: SymmetricKernel, phi: SymmetricKernel, n: int,
                    mu: DiscreteMeasure) -> ProductKernelSet:
    """Exact decomposition kernels for the product J_p(psi) * J_q(phi).

    For each t, the order p + q - t level sums, over the admissible overlap sizes r, the
    binomial coefficient counting index placements times the multinomial block
    count times the top-level projection of the symmetrized contraction
    ``psi *_r^{t-r} phi``.  Requires n >= p + q and degenerate inputs.
    """
    p, q = psi.order, phi.order
    if n < p + q:
        raise ParameterError(f"need n >= p + q = {p + q}, got {n}")
    if not is_degenerate(psi, mu) or not is_degenerate(phi, mu):
        raise PreconditionError("product kernels require degenerate inputs")
    levels = tuple(_level(psi, phi, n, t, mu) for t in range(0, 2 * min(p, q) + 1))
    return ProductKernelSet(levels=levels, n=n, psi=psi, phi=phi, mu=mu)


def verify_product_formula(pk: ProductKernelSet, mc: Optional[int] = None,
                           seed: int = 0) -> float:
    """Max residual of the product identity of ``pk`` over samples of length ``pk.n``.

    Both sides depend on a sample only through its symbol counts, so each
    kernel is evaluated once on a count matrix.  When all m^n samples fit the
    enumeration cap, the matrix holds every distinct count vector; otherwise
    it holds ``mc`` count vectors (requested explicitly) sampled from the
    stream (seed, PRODUCT_CHECK).
    """
    mu, n = pk.mu, pk.n
    m = mu.alphabet_size
    if mc is not None and mc < 1:
        raise ParameterError(f"mc needs at least 1 sampled count vector, got {mc}")
    if m**n <= ENUMERATION_CAP:
        counts = np.array([np.bincount(combo, minlength=m) for combo in
                           itertools.combinations_with_replacement(range(m), n)])
    elif mc is None:
        raise CapacityError(
            f"{m}^{n} states exceed the enumeration cap; pass mc=R for sampling"
        )
    else:
        counts = stream(seed, Purpose.PRODUCT_CHECK).multinomial(n, mu.weights, size=int(mc))
    lhs = (ustat_values_from_count_matrix(pk.psi.values, counts)
           * ustat_values_from_count_matrix(pk.phi.values, counts))
    rhs = np.zeros(counts.shape[0])
    for level in pk.levels:
        if isinstance(level, float):
            # the order-0 kernel contributes its constant (the product's mean)
            rhs += level
        else:
            rhs += ustat_values_from_count_matrix(level.values, counts)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def _normal_sqrt(x: Fraction):
    """``(sqrt(x 4^k), k)`` for the least k >= 0 that puts x 4^k in the
    normal float range: x is rounded once, after the scaling."""
    # x > 2^(bits - 1), so x * 4^k >= 2^-1022 (the least normal) once
    # 2k + bits >= -1021
    bits = x.numerator.bit_length() - x.denominator.bit_length()
    k = max(0, -((1021 + bits) // 2))
    return math.sqrt((x.numerator << 2 * k) / x.denominator), k


def prefactor_ratio(n: int, p: int, q: int, t: int, r: int) -> float:
    """Exact value of the normalized binomial-multinomial prefactor.

    This is ``sqrt(C(n, p+q-t)) / (sqrt(C(n, p)) sqrt(C(n, q))) *
    C(n+t-p-q, t-r) * multinomial(p+q-t; p-r, q-r, 2r-t)``, with the
    binomials in exact integers and the ratio under the root an exact
    fraction, rounded once before the root is taken.  A fraction below the
    normal float range is first scaled by 4^k, and the result by 2^-k, so
    it does not underflow to 0 at large n.  Where the binomial or the
    multinomial is too large for a float, their squared product joins the
    fraction under the root instead.  It decays like ``n^(t/2 - r)``
    with an (p, q, t, r)-dependent constant; using the exact value
    everywhere keeps every bound a concrete number.
    """
    if n < p + q:
        raise ParameterError(f"need n >= p + q = {p + q}, got {n}")
    if not (1 <= r <= t <= p + q - 1):
        raise ParameterError(f"need 1 <= r <= t <= p + q - 1, got t={t}, r={r}")
    if r not in _overlaps(t, p, q):
        raise ParameterError(f"need ceil(t/2) <= r <= min(p, q), got t={t}, r={r}")
    root = Fraction(math.comb(n, p + q - t), math.comb(n, p) * math.comb(n, q))
    whole = math.comb(n + t - p - q, t - r)
    parts = multinomial(p + q - t, (p - r, q - r, 2 * r - t))
    scaled, k = _normal_sqrt(root)
    try:
        return math.ldexp(scaled * whole * parts, -k)
    except OverflowError:
        # the binomial is past the float range, the value (O(1) at most) is
        # not; the multinomial float is an integer
        scaled, k = _normal_sqrt(root * (whole * int(parts)) ** 2)
        return math.ldexp(scaled, -k)
