"""Hand-checked tiny cases for the benchmark's reference computations.

    python3 -m pytest -q bench/test_oracles.py
"""

import math

import numpy as np
import pytest

import oracles
from tracing import Tracer


def test_unit_square_edge_probability():
    assert oracles.edge_prob_unit_square(0.0) == 0.0
    # at t = 1 the closed form is pi - 13/6
    assert oracles.edge_prob_unit_square(1.0) == pytest.approx(math.pi - 13.0 / 6.0)
    with pytest.raises(ValueError):
        oracles.edge_prob_unit_square(1.5)


def test_gaussian_edge_probability_matches_the_difference_density():
    # X - Y ~ N(0, 2); integrate its density over (-t, t) by the midpoint rule
    t, k = 0.7, 20000
    x = (np.arange(k) + 0.5) / k * 2 * t - t
    density = np.exp(-x * x / 4.0) / math.sqrt(4.0 * math.pi)
    assert oracles.edge_prob_gaussian_1d(t) == pytest.approx(density.sum() * 2 * t / k, rel=1e-8)
    assert oracles.edge_prob_gaussian_1d(50.0) == pytest.approx(1.0)


def test_adjacency_is_strict_and_ignores_coincident_points():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.0]])
    adj = oracles.dense_adjacency(pts, 0.5)
    assert adj.sum() == 0   # spacing exactly t, and a duplicated point
    adj = oracles.dense_adjacency(pts, 0.6)
    assert adj.sum() == 2 * 3   # 0-1, 1-2, 1-3; the duplicates 2 and 3 stay apart
    assert not adj[2, 3]


def test_triangles_and_induced_paths_on_small_graphs():
    k4 = np.ones((4, 4), dtype=np.float32) - np.eye(4, dtype=np.float32)
    assert oracles.triangles_dense(k4) == 4
    assert oracles.induced_path3_dense(k4, 4) == 0
    star = np.zeros((4, 4), dtype=np.float32)
    star[0, 1:] = star[1:, 0] = 1
    assert oracles.triangles_dense(star) == 0
    assert oracles.induced_path3_dense(star, 0) == 3
    # blocks smaller than the graph give the same trace
    assert oracles.triangles_dense(k4, block=3) == 4


def test_brute_force_pattern_count_on_a_unit_square():
    # sides of length 1 are edges at t = 1.1, the diagonals (sqrt 2) are not
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cycle = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    paw = [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]]
    path3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert oracles.brute_force_pattern_count(pts, cycle, 1.1) == 1
    assert oracles.brute_force_pattern_count(pts, paw, 1.1) == 0
    assert oracles.brute_force_pattern_count(pts, path3, 1.1) == 4
    assert oracles.brute_force_pattern_count(pts, paw, 1.5) == 0   # K4 now


def test_loglog_slope_and_its_error():
    xs = [1.0, 2.0, 4.0, 8.0]
    assert oracles.loglog_slope(xs, [3.0 * x**2 for x in xs]) == pytest.approx(2.0)
    # equal relative errors r on every point: se = r / sqrt(sum (x - mean)^2)
    ys = [5.0 * x for x in xs]
    lx = np.log(xs)
    want = 0.1 / math.sqrt(np.sum((lx - lx.mean()) ** 2))
    assert oracles.loglog_slope_se(xs, ys, [0.1 * y for y in ys]) == pytest.approx(want)


def test_random_symmetric_and_centering():
    rng = np.random.default_rng(0)
    w = np.array([0.2, 0.3, 0.5])
    f = oracles.random_symmetric(rng, 3, 3)
    assert np.allclose(f, np.transpose(f, (1, 0, 2)))
    assert np.allclose(f, np.transpose(f, (2, 1, 0)))
    g = oracles.center_axes(f, w)
    assert np.allclose(g, np.transpose(g, (1, 2, 0)))
    assert np.max(np.abs(np.tensordot(w, g, axes=([0], [0])))) < 1e-14


def test_weighted_l2_by_hand():
    w = np.array([0.25, 0.75])
    assert oracles.weighted_l2(np.array([2.0, 0.0]), w) == pytest.approx(1.0)
    t = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert oracles.weighted_l2(t, w) == pytest.approx(math.sqrt(0.0625 + 4 * 0.5625))
    assert oracles.weighted_l2(np.array(3.0), w) == pytest.approx(3.0)


def test_degeneracy_defect_by_hand():
    w = np.array([0.25, 0.75])
    # E_mu[T(X, y)] = 0.25 T(0, y) + 0.75 T(1, y) = (0.25 - 0.75, 0.25 - 2.25)
    assert oracles.degeneracy_defect(np.array([[1.0, 1.0], [-1.0, -3.0]]), w) == 2.0
    assert oracles.degeneracy_defect(np.array([3.0, -1.0]), w) == 0.0
    assert oracles.degeneracy_defect(np.array([[9.0, -3.0], [-3.0, 1.0]]), w) == 0.0


def test_exhaustive_variance_on_bernoulli_sums():
    p = 0.3
    w = np.array([1.0 - p, p])
    # order 1, h(x) = x: the statistic is Binomial(n, p)
    assert oracles.ustat_variance_exhaustive(np.array([0.0, 1.0]), w, 5) == pytest.approx(
        5 * p * (1 - p))
    # order 2, h(x, y) = x y at n = 2: the statistic is X1 X2 ~ Bernoulli(p^2)
    h = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert oracles.ustat_variance_exhaustive(h, w, 2) == pytest.approx(p * p * (1 - p * p))


def test_parent_spans_cover_their_children():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer(x):
        return traced_leaf(traced_leaf(x))

    assert tracer.wrap("outer", outer)(1) == 3
    assert tracer.nesting_violations() == 0
    calls, total, self_s = tracer.durations()["leaf"]
    assert calls == 2 and total == pytest.approx(self_s)
    assert list(tracer.parent) == [-1, 0, 0]
    outer_calls, outer_total, outer_self = tracer.durations()["outer"]
    assert outer_calls == 1 and 0.0 <= outer_self <= outer_total
