"""Exact Hoeffding decomposition of symmetric U-statistics on finite alphabets.

The decomposition writes the order-p statistic as a binomially weighted sum
of degenerate statistics of orders 0..p.  Both classical constructions of
the degenerate kernels (the alternating-sum formula over the projection
functions and the order recursion) are computed and cross-checked entrywise.
`decompose` centres the kernel once, so a constant shift moves neither the
levels psi_s (s >= 1) nor, through `_level_variances`, the variance or rank.
U-statistic values come from symbol counts through one vectorized evaluator,
`ustat_values_from_count_matrix`, which the product check and the Monte Carlo
harness share.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    DEGENERACY_TOL,
    DiscreteMeasure,
    SymmetricKernel,
    _check_same_alphabet,
    _defect,
    tensor_lp_norm,
)
from .errors import ContractViolationError, ParameterError

#: variance threshold deciding whether a decomposition level is "active"
RANK_TOL = 1e-10

#: the two kernel constructions must agree to this tolerance
CONSTRUCTION_TOL = 1e-10

#: exhaustive sample enumeration refuses beyond this many states
ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class HoeffdingSet:
    """Projection functions g_0..g_p and degenerate kernels psi_0..psi_p.

    ``g[k]`` and ``psi[s]`` are raw tensors of order k and s; the order-0
    entries are 0-d arrays.  ``g[p]`` equals the source kernel and ``psi[0]``
    equals ``g[0]`` (the expectation of the source kernel).  ``c[k]`` are the
    projections of the centred kernel ``g[p] - g[0]``.
    """

    source: SymmetricKernel
    g: tuple
    psi: tuple
    c: tuple
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return self.source.order

    def _kernel(self, family: str, k: int) -> SymmetricKernel:
        # each level is wrapped (and symmetry-checked) once, on first use
        key = (family, k)
        if key not in self._kernels:
            self._kernels[key] = SymmetricKernel(getattr(self, family)[k])
        return self._kernels[key]

    def g_kernel(self, k: int) -> SymmetricKernel:
        return self._kernel("g", k)

    def psi_kernel(self, s: int) -> SymmetricKernel:
        return self._kernel("psi", s)


def compute_g(kernel: SymmetricKernel, mu: DiscreteMeasure, k: int) -> np.ndarray:
    """Integrate out p - k coordinates: ``g_k(y) = E[psi(y, X_1, ..., X_{p-k})]``."""
    _check_same_alphabet(kernel, mu)
    p = kernel.order
    if not 0 <= k <= p:
        raise ParameterError(f"k must lie in [0, {p}], got {k}")
    return _projections(kernel.values, mu)[k]


def _projections(values: np.ndarray, mu: DiscreteMeasure) -> list:
    # [g_0, ..., g_p]: each level integrates the last coordinate of the next
    g = [np.asarray(values, dtype=float)]
    for _ in range(values.ndim):
        g.append(np.asarray(np.tensordot(g[-1], mu.weights, axes=([-1], [0])), dtype=float))
    return g[::-1]


def _embed(tensor: np.ndarray, axes: Sequence[int], s: int, m: int) -> np.ndarray:
    # place an order-k symmetric tensor on the given axes of an order-s cube;
    # symmetry makes the within-axes order irrelevant, so sorted placement is exact
    shape = [1] * s
    for ax in sorted(axes):
        shape[ax] = m
    return tensor.reshape(shape)


def decompose(kernel: SymmetricKernel, mu: DiscreteMeasure) -> HoeffdingSet:
    """All projection functions g_k and degenerate kernels psi_s of a kernel.

    ``g`` holds the projections of the kernel as given.  psi_s (s >= 1) is
    built from the projections c_k of the centred kernel ``kernel - g_0`` by
    the order recursion (c_s minus c_0 minus all embedded lower-order kernels)
    and verified against the alternating-sum construction over c-subsets;
    both must agree entrywise to 1e-10.  Every psi_s with s >= 1 must pass the
    degeneracy test.
    """
    _check_same_alphabet(kernel, mu)
    p = kernel.order
    m = kernel.alphabet_size
    g = _projections(kernel.values, mu)
    g0 = float(g[0])
    # c[0] is the round-off left in the centred kernel's mean
    c = _projections(kernel.values - g0, mu)
    c0 = float(c[0])

    psi = [np.array(g0)]
    for s in range(1, p + 1):
        acc = c[s] - c0
        for k in range(1, s):
            for subset in itertools.combinations(range(s), k):
                acc -= _embed(psi[k], subset, s, m)
        psi.append(acc)

    for s in range(1, p + 1):
        alt = np.full((m,) * s, ((-1.0) ** s) * c0)
        for k in range(1, s + 1):
            sign = (-1.0) ** (s - k)
            for subset in itertools.combinations(range(s), k):
                alt += sign * _embed(c[k], subset, s, m)
        gap = float(np.max(np.abs(psi[s] - alt)))
        if gap > CONSTRUCTION_TOL * (1.0 + float(np.max(np.abs(psi[s])))):
            raise ContractViolationError(
                f"degenerate-kernel constructions disagree at order {s}: gap {gap:g}"
            )
        defect = float(np.max(np.abs(_defect(psi[s], mu))))
        if defect > DEGENERACY_TOL:
            raise ContractViolationError(
                f"psi_{s} fails the degeneracy test: defect {defect:g}"
            )

    return HoeffdingSet(source=kernel, g=tuple(g), psi=tuple(psi), c=tuple(c))


def _multiset_terms(values: np.ndarray):
    """Precompute (index tuple, multiplicity list) pairs for count-based sums."""
    p = values.ndim
    m = values.shape[0]
    terms = []
    for combo in itertools.combinations_with_replacement(range(m), p):
        mults = sorted(Counter(combo).items())
        terms.append((combo, mults))
    return terms


def _choose_vec(c: np.ndarray, k: int) -> np.ndarray:
    # falling factorial / k!; exact while the falling factorial stays below 2**53
    out = np.ones(c.shape, dtype=float)
    for i in range(k):
        out *= (c - i)
    out[out < 0.0] = 0.0
    return out / math.factorial(k)


def ustat_values_from_count_matrix(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """U-statistic values for each row of a (rows, alphabet) symbol-count matrix.

    The sum over strictly increasing index tuples depends on the sample only
    through its symbol counts: each value multiset contributes the kernel value
    times the product of per-symbol binomial coefficients.
    """
    out = np.zeros(counts.shape[0], dtype=float)
    for combo, mults in _multiset_terms(values):
        v = float(values[combo])
        if v == 0.0:
            continue
        w = np.ones(counts.shape[0], dtype=float)
        for sym, mult in mults:
            w *= _choose_vec(counts[:, sym].astype(float), mult)
        out += v * w
    return out


def ustat_value(kernel, x: Sequence[int]) -> float:
    """Sum of the kernel over all strictly increasing index p-tuples of x.

    An order-0 constant (passed as a plain number) yields 0.0.
    """
    if isinstance(kernel, (int, float)):
        return 0.0
    xs = np.asarray(x, dtype=int)
    p = kernel.order
    n = xs.size
    if n < p:
        raise ParameterError(f"sample size {n} is below the kernel order {p}")
    m = kernel.alphabet_size
    if xs.size and (xs.min() < 0 or xs.max() >= m):
        raise ParameterError("sample symbols must lie in the kernel alphabet")
    counts = np.bincount(xs, minlength=m)
    return float(ustat_values_from_count_matrix(kernel.values, counts[None, :])[0])


def hoeffding_sum(hs: HoeffdingSet, n: int, x: Sequence[int]) -> float:
    """Evaluate ``sum_s C(n-s, p-s) J_s(psi_s)`` on a sample.

    The order-0 level contributes its constant ``C(n, p) psi_0`` (the
    expectation term of the decomposition identity).
    """
    p = hs.order
    total = math.comb(n, p) * float(hs.psi[0])
    for s in range(1, p + 1):
        total += math.comb(n - s, p - s) * ustat_value(hs.psi_kernel(s), x)
    return total


def reconstruct_check(kernel: SymmetricKernel, mu: DiscreteMeasure,
                      x: Sequence[int]) -> float:
    """Absolute gap between J_p(psi) and its decomposition sum on one sample."""
    xs = np.asarray(x, dtype=int)
    if xs.size < kernel.order:
        raise ParameterError("sample shorter than the kernel order")
    hs = decompose(kernel, mu)
    lhs = ustat_value(kernel, xs)
    rhs = hoeffding_sum(hs, xs.size, xs)
    return abs(lhs - rhs)


def variance(kernel: SymmetricKernel, mu: DiscreteMeasure, n: int):
    """Variance of J_p(psi) by the two classical formulas.

    Returns ``(v_hoeffding, v_g)``: the degenerate-kernel form and the
    projection-function form.  Both are computed exactly and must agree to
    relative 1e-9; both must dominate the ``C(n, p) Var(psi)`` lower bound.
    """
    return _variance(decompose(kernel, mu), mu, n)


def _level_variances(hs: HoeffdingSet, mu: DiscreteMeasure):
    """``(||psi_s||^2, ||c_s - c_0||^2)`` for s = 1..p: Var(psi_s) and Var(g_s), shift-free."""
    c0 = float(hs.c[0])
    return [(tensor_lp_norm(hs.psi[s], mu, 2.0) ** 2,
             tensor_lp_norm(hs.c[s] - c0, mu, 2.0) ** 2)
            for s in range(1, hs.order + 1)]


def _variance(hs: HoeffdingSet, mu: DiscreteMeasure, n: int):
    # `variance` on an existing decomposition of its kernel
    p = hs.order
    if n < p:
        raise ParameterError(f"sample size {n} is below the kernel order {p}")
    levels = _level_variances(hs, mu)
    v_h = sum(math.comb(n - s, p - s) ** 2 * math.comb(n, s) * var_psi
              for s, (var_psi, _) in enumerate(levels, 1))
    v_g = math.comb(n, p) * sum(math.comb(p, k) * math.comb(n - p, p - k) * var_g
                                for k, (_, var_g) in enumerate(levels, 1))

    if abs(v_h - v_g) > 1e-9 * (1.0 + abs(v_g)):
        raise ContractViolationError(
            f"variance formulas disagree: {v_h!r} vs {v_g!r}"
        )
    # g_p is the kernel itself, so its variance gives C(n, p) Var(psi)
    lower = math.comb(n, p) * levels[-1][1]
    if v_h < lower - 1e-9 * (1.0 + abs(lower)):
        raise ContractViolationError(
            f"variance {v_h!r} fell below its lower bound {lower!r}"
        )
    return v_h, v_g


def hoeffding_rank(kernel: SymmetricKernel, mu: DiscreteMeasure,
                   tol: float = RANK_TOL) -> Optional[int]:
    """Smallest order with an active decomposition level, or None if all vanish.

    The levels come from the centred kernel, so a constant shift does not
    move the rank.  The rank computed from the degenerate kernels must match
    the one computed from the projection-function variances.
    """
    return _rank(decompose(kernel, mu), mu, tol)


def _rank(hs: HoeffdingSet, mu: DiscreteMeasure, tol: float = RANK_TOL) -> Optional[int]:
    # `hoeffding_rank` on an existing decomposition of its kernel
    levels = _level_variances(hs, mu)
    rank_psi = next((s for s, (var, _) in enumerate(levels, 1) if var > tol), None)
    rank_g = next((s for s, (_, var) in enumerate(levels, 1) if var > tol), None)
    if rank_psi != rank_g:
        raise ContractViolationError(
            f"rank mismatch between constructions: {rank_psi} vs {rank_g}"
        )
    return rank_psi
