"""Finite probability spaces and dense symmetric kernels.

Tensors are dense numpy arrays of shape ``(m,) * p`` in row-major
(lexicographic) index order.  At the scales this package targets
(alphabet m <= 8, order p <= 4, so at most a few thousand entries)
exact enumeration is cheap, so every identity on finite alphabets is
computed by full summation rather than sampling.  Continuous-space
kernels are never materialized as tensors; they are handled by Monte
Carlo in the simulation modules.  The degeneracy defect of a raw tensor is
formed only by `_defect`; contractions are formed only by
`contractions.contract`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, DimensionError, ParameterError

#: tolerance for "weights sum to one"
WEIGHT_SUM_TOL = 1e-12

#: max-norm tolerance under which a kernel counts as degenerate
DEGENERACY_TOL = 1e-10

#: explicit permutation averages stop here (6! = 720 permutations)
MAX_SYMMETRIZE_ORDER = 6

_SYM_CHECK_EXHAUSTIVE_ORDER = 4
_SYM_CHECK_SAMPLES = 24


@dataclass(frozen=True)
class DiscreteMeasure:
    """A probability vector over the finite alphabet ``{0, ..., m - 1}``."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True)
        if w.ndim != 1 or w.size == 0:
            raise ParameterError("weights must be a non-empty vector")
        if np.any(w < 0.0):
            raise ParameterError("weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ParameterError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {w.sum()!r}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def alphabet_size(self) -> int:
        return int(self.weights.size)

    @classmethod
    def uniform(cls, m: int) -> "DiscreteMeasure":
        return cls(np.full(m, 1.0 / m))


@dataclass(frozen=True)
class SymmetricKernel:
    """An order-p symmetric kernel stored as a dense tensor.

    The tensor must be invariant under every permutation of its axes.
    Invariance is verified exhaustively up to order 4 and by sampled
    permutations beyond that.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim == 0:
            raise ParameterError("kernel order must be >= 1; use a plain float for constants")
        m = v.shape[0]
        if any(s != m for s in v.shape):
            raise DimensionError(f"kernel tensor must be a cube, got shape {v.shape}")
        _check_symmetry(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def order(self) -> int:
        return int(self.values.ndim)

    @property
    def alphabet_size(self) -> int:
        return int(self.values.shape[0])

    def scaled(self, c: float) -> "SymmetricKernel":
        return SymmetricKernel(self.values * float(c))

    def shifted(self, c: float) -> "SymmetricKernel":
        return SymmetricKernel(self.values - float(c))


@dataclass(frozen=True)
class ContinuousKernelSpec:
    """A kernel on ``R^d`` given by an evaluator plus a matching point sampler.

    ``evaluator`` maps an array of shape ``(..., order, dimension)`` to an
    array of shape ``(...,)`` and must be invariant under permutations of the
    ``order`` axis.  ``sampler(rng, n)`` returns ``n`` points of the underlying
    distribution as an ``(n, dimension)`` array; identical generator state must
    yield identical points.  Simulation re-keys one generator for every
    replicate, so ``sampler`` must not keep ``rng`` after it returns.
    """

    order: int
    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]

    def __post_init__(self):
        if self.order < 1:
            raise ParameterError("order must be >= 1")
        if self.dimension < 1:
            raise ParameterError("dimension must be >= 1")


def _check_symmetry(v: np.ndarray) -> None:
    p = v.ndim
    if p == 1:
        return
    scale = float(np.max(np.abs(v))) if v.size else 0.0
    tol = 1e-9 * (1.0 + scale)
    if p <= _SYM_CHECK_EXHAUSTIVE_ORDER:
        perms = itertools.permutations(range(p))
    else:
        rng = np.random.default_rng(0)
        perms = [tuple(rng.permutation(p)) for _ in range(_SYM_CHECK_SAMPLES)]
    for perm in perms:
        if not np.allclose(v, np.transpose(v, perm), rtol=0.0, atol=tol):
            raise ParameterError("kernel tensor is not symmetric under axis permutations")


def _check_same_alphabet(kernel: SymmetricKernel, mu: DiscreteMeasure) -> None:
    if kernel.alphabet_size != mu.alphabet_size:
        raise DimensionError(
            f"kernel alphabet {kernel.alphabet_size} != measure alphabet {mu.alphabet_size}"
        )


def weight_tensor(mu: DiscreteMeasure, k: int) -> np.ndarray:
    """Product weights ``mu^{x k}`` as an order-k tensor (scalar 1.0 for k=0)."""
    w = np.array(1.0)
    for _ in range(k):
        w = np.multiply.outer(w, mu.weights)
    return w


def symmetrize(f: np.ndarray) -> SymmetricKernel:
    """Average a dense order-p tensor over all p! axis permutations."""
    v = np.asarray(f, dtype=float)
    if v.ndim == 0:
        raise ParameterError("cannot symmetrize an order-0 tensor")
    m = v.shape[0]
    if any(s != m for s in v.shape):
        raise DimensionError(f"tensor must be a cube, got shape {v.shape}")
    p = v.ndim
    if p > MAX_SYMMETRIZE_ORDER:
        raise CapacityError(
            f"symmetrization is limited to order {MAX_SYMMETRIZE_ORDER}, got {p}"
        )
    if p == 1:
        return SymmetricKernel(v)
    acc = np.zeros_like(v)
    for perm in itertools.permutations(range(p)):
        acc += np.transpose(v, perm)
    return SymmetricKernel(acc / math.factorial(p))


def tensor_lp_norm(values: np.ndarray, mu: DiscreteMeasure, r: float) -> float:
    """L^r norm of a raw order-k tensor under the product measure."""
    if r <= 0:
        raise ParameterError(f"norm exponent must be positive, got {r}")
    v = np.asarray(values, dtype=float)
    if v.ndim == 0:
        return abs(float(v))
    if any(s != mu.alphabet_size for s in v.shape):
        raise DimensionError("tensor alphabet does not match the measure")
    w = weight_tensor(mu, v.ndim)
    return float(np.sum(np.abs(v) ** r * w) ** (1.0 / r))


def tensor_inner(a: np.ndarray, b: np.ndarray, mu: DiscreteMeasure) -> float:
    """Inner product of two order-k tensors in ``L^2`` of the product measure."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 0:
        return float(a) * float(b)
    w = weight_tensor(mu, a.ndim)
    return float(np.sum(a * b * w))


def lp_norm(kernel: SymmetricKernel, mu: DiscreteMeasure, r: float) -> float:
    """``(sum_x |psi(x)|^r prod_j mu(x_j))^(1/r)`` by exact summation."""
    _check_same_alphabet(kernel, mu)
    return tensor_lp_norm(kernel.values, mu, r)


def degeneracy_defect(kernel: SymmetricKernel, mu: DiscreteMeasure) -> np.ndarray:
    """Integral of the kernel over one coordinate; zero iff the kernel is degenerate.

    Returns an order-(p-1) tensor (a 0-d array when p = 1).
    """
    _check_same_alphabet(kernel, mu)
    return _defect(kernel.values, mu)


def _defect(values: np.ndarray, mu: DiscreteMeasure) -> np.ndarray:
    """Integral of a raw tensor over its first coordinate, as `degeneracy_defect`."""
    return np.tensordot(mu.weights, values, axes=([0], [0]))


def is_degenerate(kernel: SymmetricKernel, mu: DiscreteMeasure,
                  tol: float = DEGENERACY_TOL) -> bool:
    return float(np.max(np.abs(degeneracy_defect(kernel, mu)))) <= tol
