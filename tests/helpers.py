"""Shared test utilities: random-instance generators and brute-force oracles.

The oracles are deliberately naive (full enumerations, direct subset sums) and
never share code paths with the implementations they check.
"""

import itertools
import math

import numpy as np

from ustatkit import DiscreteMeasure, SymmetricKernel, decompose, lp_norm, symmetrize


def random_measure(rng, m, floor=0.15):
    w = rng.random(m) + floor
    return DiscreteMeasure(w / w.sum())


def random_kernel(rng, p, m, scale=1.0):
    return symmetrize(rng.standard_normal((m,) * p) * scale)


def shift_instance(p):
    """The ``default_rng(1)`` measure on 3 symbols and its order-p kernel, p <= 3.

    The measure is drawn first, then kernels of orders 1, 2 and 3 in turn.
    """
    rng = np.random.default_rng(1)
    mu = random_measure(rng, 3)
    kernels = [random_kernel(rng, q, 3) for q in (1, 2, 3)]
    return kernels[p - 1], mu


def random_degenerate(rng, p, m, mu, min_norm=1e-3):
    """Top decomposition level of a random kernel, rescaled to unit L2 norm."""
    for _ in range(50):
        hs = decompose(random_kernel(rng, p, m), mu)
        kernel = SymmetricKernel(hs.psi[p])
        norm = lp_norm(kernel, mu, 2.0)
        if norm > min_norm:
            return kernel.scaled(1.0 / norm)
    raise RuntimeError("could not draw a non-trivial degenerate kernel")


def all_samples(m, n):
    return itertools.product(range(m), repeat=n)


def sample_prob(x, mu):
    p = 1.0
    for sym in x:
        p *= float(mu.weights[sym])
    return p


def ustat_direct(kernel, x, num=float):
    """Direct enumeration of the U-statistic over index subsets.

    ``num`` converts each kernel value; ``Fraction`` makes the sum exact.
    """
    values = kernel.values
    p = values.ndim
    total = num(0)
    for idx in itertools.combinations(range(len(x)), p):
        total += num(values[tuple(x[i] for i in idx)])
    return total


def count_vectors(m, n):
    """Every vector of m non-negative symbol counts summing to n (stars and bars)."""
    for cuts in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1, *cuts, n + m - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def exact_law(kernel, mu, n):
    """Atoms and weights of the law of the U-statistic of an i.i.d. mu sample of size n.

    The statistic depends on the sample only through its symbol counts, so
    there is one atom per count vector, C(n+m-1, m-1) in all: `ustat_direct`
    on one sample with those counts, weighted by the multinomial probability
    of the counts.
    """
    atoms, weights = joint_exact_law([kernel], mu, n)
    return atoms[:, 0], weights


def joint_exact_law(kernels, mu, n):
    """`exact_law` of the vector of the kernels' U-statistics on one sample:
    atoms (C(n+m-1, m-1), len(kernels)), one row per count vector, and weights."""
    atoms, weights = [], []
    for counts in count_vectors(mu.alphabet_size, n):
        sample = [sym for sym, c in enumerate(counts) for _ in range(c)]
        atoms.append([ustat_direct(kernel, sample) for kernel in kernels])
        coef = math.factorial(n)
        for c in counts:
            coef //= math.factorial(c)
        weights.append(coef * math.prod(float(w) ** c for w, c in zip(mu.weights, counts)))
    return np.array(atoms), np.array(weights)


def exhaustive_mean(fn, m, n, mu):
    """E[fn(X)] by full enumeration of the sample space."""
    return sum(sample_prob(x, mu) * fn(x) for x in all_samples(m, n))


def exhaustive_variance(fn, m, n, mu):
    mean = exhaustive_mean(fn, m, n, mu)
    second = exhaustive_mean(lambda x: fn(x) ** 2, m, n, mu)
    return second - mean * mean


#: most p-subsets `brute_subgraph_count` materializes; its callers stay under
#: 2e5, and 3.3e8 (C(300, 4)) exhausted the memory of the test process
BRUTE_SUBSET_CAP = 10**6


def brute_subgraph_count(points, pat, t):
    """Reference count over every p-subset of the points.

    Each subset's pair bits are read from the full squared-distance matrix and
    matched against the codes of every relabelling of the pattern's adjacency.
    Raises ValueError above ``BRUTE_SUBSET_CAP`` subsets.
    """
    pts = np.asarray(points, dtype=float)
    p = pat.p
    if math.comb(len(pts), p) > BRUTE_SUBSET_CAP:
        raise ValueError(f"C({len(pts)}, {p}) subsets exceed the brute-force cap "
                         f"{BRUTE_SUBSET_CAP}")
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    adj = (d2 > 0.0) & (d2 < t * t)
    pairs = list(itertools.combinations(range(p), 2))
    a = np.asarray(pat.adjacency, dtype=bool)
    want = [sum(1 << b for b, (i, j) in enumerate(pairs) if a[perm[i], perm[j]])
            for perm in itertools.permutations(range(p))]
    subsets = np.array(list(itertools.combinations(range(len(pts)), p)),
                       dtype=np.int64).reshape(-1, p)
    codes = np.zeros(len(subsets), dtype=np.int64)
    for b, (i, j) in enumerate(pairs):
        codes += adj[subsets[:, i], subsets[:, j]] * 2**b
    return int(np.count_nonzero(np.isin(codes, want)))


def brute_codes(tuples, t):
    """Adjacency bit codes of point tuples read off the full squared-distance matrix."""
    pts = np.asarray(tuples, dtype=float)
    d2 = ((pts[..., :, None, :] - pts[..., None, :, :]) ** 2).sum(-1)
    adj = (d2 > 0.0) & (d2 < t * t)
    codes = np.zeros(pts.shape[:-2], dtype=np.int64)
    for b, (i, j) in enumerate(itertools.combinations(range(pts.shape[-2]), 2)):
        codes += adj[..., i, j] * 2**b
    return codes


def comb(n, k):
    return math.comb(n, k)
