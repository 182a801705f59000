"""Reference computations the benchmark checks the program's outputs against.

Every function here is written from the definitions alone (closed forms,
dense matrices, full enumeration) and imports nothing from ustatkit, so a
fault in the program cannot hide by also sitting in its own check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# --- random geometric graphs -------------------------------------------------

def edge_prob_unit_square(t: float) -> float:
    """P(|X - Y| < t) for X, Y independent uniform on the unit square, t <= 1."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("the closed form holds for 0 <= t <= 1")
    return math.pi * t * t - 8.0 * t**3 / 3.0 + t**4 / 2.0


def edge_prob_gaussian_1d(t: float) -> float:
    """P(|X - Y| < t) for X, Y independent N(0, 1): X - Y ~ N(0, 2)."""
    # 2 Phi(t / sqrt 2) - 1 = erf(t / 2)
    return math.erf(t / 2.0)


def dense_adjacency(points: np.ndarray, t: float) -> np.ndarray:
    """0/1 float32 adjacency with edges between points at distance in (0, t).

    Rows are built in blocks of 256 so the pairwise differences never hold
    more than ``256 * n`` points at once.
    """
    block = 256
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    adj = np.zeros((n, n), dtype=np.float32)
    for lo in range(0, n, block):
        diff = pts[lo:lo + block, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        adj[lo:lo + block] = (d2 > 0.0) & (d2 < t * t)
    return adj


def triangles_dense(adj: np.ndarray, block: int = 256) -> int:
    """trace(A^3) / 6.

    float32 products of 0/1 matrices are exact while every entry of A @ A
    stays below 2^24, which holds for n < 2^24; the trace is summed in float64.
    """
    total = 0.0
    for lo in range(0, adj.shape[0], block):
        rows = adj[lo:lo + block]
        total += float(np.sum((rows @ adj) * rows, dtype=np.float64))
    return int(round(total / 6.0))


def induced_path3_dense(adj: np.ndarray, triangles: int) -> int:
    """Induced 3-vertex paths: sum_v C(deg v, 2) minus the 3 per triangle."""
    deg = adj.sum(axis=1, dtype=np.float64)
    return int(round(float(np.sum(deg * (deg - 1.0) / 2.0)))) - 3 * triangles


def brute_force_pattern_count(points: np.ndarray, adjacency: np.ndarray, t: float) -> int:
    """Induced copies of a pattern by trying every vertex subset and relabelling."""
    pts = np.asarray(points, dtype=float)
    pat = np.asarray(adjacency, dtype=bool)
    p = pat.shape[0]
    adj = dense_adjacency(pts, t).astype(bool)
    subsets = np.array(list(itertools.combinations(range(pts.shape[0]), p)), dtype=np.intp)
    sub_adj = adj[subsets[:, :, None], subsets[:, None, :]]
    match = np.zeros(len(subsets), dtype=bool)
    for perm in itertools.permutations(range(p)):
        relabelled = pat[np.ix_(perm, perm)]
        match |= np.all(sub_adj == relabelled, axis=(1, 2))
    return int(match.sum())


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    xc = x - x.mean()
    return float(np.sum(xc * y) / np.sum(xc * xc))


def loglog_slope_se(xs, ys, ses) -> float:
    """Standard error of `loglog_slope` propagated from per-point errors.

    Each log y carries the delta-method error se / y; the slope is a fixed
    linear combination of the log y values.
    """
    x = np.log(np.asarray(xs, dtype=float))
    rel = np.asarray(ses, dtype=float) / np.asarray(ys, dtype=float)
    xc = x - x.mean()
    return float(math.sqrt(np.sum((xc / np.sum(xc * xc)) ** 2 * rel**2)))


# --- finite alphabets ----------------------------------------------------------

def random_symmetric(rng: np.random.Generator, p: int, m: int) -> np.ndarray:
    """Average of a Gaussian order-p cube over all axis permutations."""
    raw = rng.standard_normal((m,) * p)
    perms = list(itertools.permutations(range(p)))
    return sum(np.transpose(raw, perm) for perm in perms) / len(perms)


def center_axes(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Apply f -> f - E_mu f along every axis; the result is degenerate.

    The centering operators on different axes commute, so a symmetric input
    stays symmetric and each one-coordinate integral of the output is zero.
    """
    out = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    for ax in range(out.ndim):
        mean = np.tensordot(out, w, axes=([ax], [0]))
        out = out - np.expand_dims(mean, ax)
    return out


def product_weights(weights: np.ndarray, order: int) -> np.ndarray:
    """mu(x_1) ... mu(x_k) as an order-k tensor."""
    out = np.ones(())
    for _ in range(order):
        out = np.multiply.outer(out, np.asarray(weights, dtype=float))
    return out


def weighted_l2(tensor, weights) -> float:
    """sqrt(sum_x T(x)^2 mu(x_1) ... mu(x_k)) by a direct sum."""
    t = np.asarray(tensor, dtype=float)
    return math.sqrt(float(np.sum(t * t * product_weights(weights, t.ndim))))


def degeneracy_defect(tensor, weights) -> float:
    """max |sum_x T(x, y_2, ..., y_k) mu(x)|: 0 for a degenerate symmetric T."""
    t = np.asarray(tensor, dtype=float)
    return float(np.max(np.abs(np.tensordot(np.asarray(weights, dtype=float), t,
                                            axes=([0], [0])))))


def ustat_variance_exhaustive(values: np.ndarray, weights: np.ndarray, n: int) -> float:
    """Var of sum_{i_1 < ... < i_p} h(X_{i_1}, ..., X_{i_p}) over all m^n samples."""
    h = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    p, m = h.ndim, h.shape[0]
    samples = np.array(list(itertools.product(range(m), repeat=n)), dtype=np.intp)
    prob = np.prod(w[samples], axis=1)
    stat = np.zeros(len(samples))
    for idx in itertools.combinations(range(n), p):
        stat += h[tuple(samples[:, i] for i in idx)]
    mean = float(np.dot(prob, stat))
    return float(np.dot(prob, (stat - mean) ** 2))
