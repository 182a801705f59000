import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import cKDTree

from ustatkit import (
    DensityModel,
    GraphPattern,
    RadiusSchedule,
    complete_pattern,
    count_subgraphs,
    gk_contraction_mc,
    named_pattern,
    regime_experiment,
    variance_lower_bound_check,
)
from ustatkit import geomgraph, montecarlo
from ustatkit.errors import CapacityError, ParameterError, PreconditionError
from ustatkit.geomgraph import _unique_rows, pattern_indicator, regime_targets
from ustatkit.montecarlo import Purpose, ols_loglog

from helpers import brute_codes, brute_subgraph_count

EDGE = named_pattern("edge")
TRIANGLE = named_pattern("triangle")
PATH3 = named_pattern("path3")
BOX2 = DensityModel("uniform-box", 2)
PAW = GraphPattern(np.array([[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]]),
                   name="paw")
STAR4 = GraphPattern(np.array([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]),
                     name="star4")
PATH5 = GraphPattern(np.eye(5, k=1) + np.eye(5, k=-1), name="path5")
K4 = complete_pattern(4)


def lattice(side, d):
    axes = np.meshgrid(*[np.arange(side, dtype=float)] * d, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


class TestGraphPattern:
    def test_rejects_disconnected(self):
        with pytest.raises(ParameterError):
            GraphPattern(np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))

    def test_rejects_self_loops(self):
        with pytest.raises(ParameterError):
            GraphPattern(np.array([[1, 1], [1, 0]]))

    def test_rejects_oversized(self):
        with pytest.raises(CapacityError):
            complete_pattern(8)

    def test_named_patterns(self):
        assert EDGE.p == 2 and EDGE.edge_count == 1
        assert TRIANGLE.p == 3 and TRIANGLE.edge_count == 3
        assert PATH3.p == 3 and PATH3.edge_count == 2

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
    def test_iso_codes_match_relabelling_loop(self, p):
        # every labelled graph on up to 4 vertices, seeded random ones above
        pairs = list(itertools.combinations(range(p), 2))
        masks = (range(1 << len(pairs)) if p <= 4
                 else np.random.default_rng(p).integers(1, 1 << len(pairs), size=8))
        checked = 0
        for mask in map(int, masks):
            a = np.zeros((p, p), dtype=bool)
            for b, (i, j) in enumerate(pairs):
                a[i, j] = a[j, i] = bool(mask >> b & 1)
            try:
                pat = GraphPattern(a)
            except ParameterError:  # disconnected
                continue
            want = set()
            for perm in itertools.permutations(range(p)):
                want.add(sum(1 << b for b, (i, j) in enumerate(pairs) if a[perm[i], perm[j]]))
            assert pat._iso_codes.tolist() == sorted(want)
            checked += 1
        # 1, 4 and 38 labelled graphs on 2, 3 and 4 vertices are connected
        assert checked == {2: 1, 3: 4, 4: 38}.get(p, checked) and checked > 0


def _one_tuple(pts, pat, t):
    """The pattern indicator of one p-point tuple, as a one-tuple batch."""
    return int(pattern_indicator(np.asarray(pts)[None], pat, t)[0])


class TestPatternKernel:
    def test_edge_is_distance_test(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.0]])
        assert _one_tuple(pts, EDGE, 0.4) == 1
        assert _one_tuple(pts, EDGE, 0.2) == 0

    def test_coincident_points_are_not_adjacent(self):
        pts = np.zeros((2, 2))
        assert _one_tuple(pts, EDGE, 0.5) == 0
        tri_pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0]])
        assert _one_tuple(tri_pts, TRIANGLE, 0.5) == 0

    def test_collinear_path(self):
        t = 1.0
        pts = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
        assert _one_tuple(pts, PATH3, t) == 1
        assert _one_tuple(pts, TRIANGLE, t) == 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(90)
        pts = rng.random((3, 2)) * 0.4
        for pat in (TRIANGLE, PATH3):
            base = _one_tuple(pts, pat, 0.3)
            for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
                assert _one_tuple(pts[list(perm)], pat, 0.3) == base

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(91)
        batch = rng.random((40, 3, 2)) * 0.5
        vec = pattern_indicator(batch, PATH3, 0.25)
        for i in range(40):
            assert vec[i] == _one_tuple(batch[i], PATH3, 0.25)


class TestGeometricCodes:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    def test_codes_match_full_distance_matrix(self, p, d):
        rng = np.random.default_rng(100 + 10 * p + d)
        # lattice coordinates in {0, 1, 2} give exact integer squared distances,
        # so pairs tie at t = 1, 2 and 3; every fifth tuple repeats a point
        lat = rng.integers(0, 3, size=(500, p, d)).astype(float)
        lat[::5, 1] = lat[::5, 0]
        for t in (1.0, 1.5, 2.0, 3.0):
            want = brute_codes(lat, t)
            assert np.array_equal(geomgraph.geometric_codes(lat, t), want)
        assert np.count_nonzero(want) > 0
        cont = rng.random((500, p, d))
        t = 0.4 * d**0.5
        assert np.array_equal(geomgraph.geometric_codes(cont, t), brute_codes(cont, t))

    def test_vertex_list_matches_tuple_array(self):
        # shared vertices (50, 1, d) broadcast against per-draw vertices (50, 8, d)
        rng = np.random.default_rng(110)
        shapes = [(50, 8, 3), (50, 1, 3), (50, 8, 3), (50, 1, 3)]
        vertices = [rng.integers(0, 3, size=s) * 0.5 for s in shapes]
        tuples = np.stack(np.broadcast_arrays(*vertices), axis=-2)
        for t in (0.5, 1.0, 1.2):
            codes = geomgraph.geometric_codes(vertices, t)
            assert np.array_equal(codes, geomgraph.geometric_codes(tuples, t))
            assert np.array_equal(codes, brute_codes(tuples, t))

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_edge_bit_is_the_edge_list_mask(self, d):
        rng = np.random.default_rng(120 + d)
        # half-integer lattice points (ties at t = 1, repeats) and uniform points
        pts = np.concatenate([rng.integers(0, 4, size=(60, d)) * 0.5,
                              rng.random((60, d)) * 2.0])
        t = 1.0
        cols, blocks = geomgraph._candidate_blocks(pts, t)
        q = np.column_stack(cols)
        for a, b, mask in blocks:
            assert np.array_equal(geomgraph.geometric_codes(np.stack([q[a], q[b]], 1), t) == 1,
                                  mask)
        key, q = _strict_edge_keys(pts, t)
        i, j = np.triu_indices(len(q), k=1)
        bits = geomgraph.geometric_codes(np.stack([q[i], q[j]], axis=1), t)
        assert _label_keys(i[bits == 1], j[bits == 1], len(q)) == key


class TestStrictPairs:
    # planar points would take the cell grid; refusing it sends every input to the tree

    @pytest.mark.parametrize("kind, d", [("uniform", 2), ("uniform", 3), ("gaussian", 2)])
    def test_sliding_midpoint_tree_keeps_the_pair_set(self, kind, d, monkeypatch):
        trees = _tree_only(monkeypatch)
        rng = np.random.default_rng(130 + d)
        for n in (128, 256, 512, 1024, 2048, 4096):
            pts = rng.random((n, d)) if kind == "uniform" else rng.standard_normal((n, d))
            # the C4 radius at rho = 1 (the motif sweeps) and a denser one
            for t in (n ** (-1.0 / d), n**-0.25):
                trees.clear()
                key, q = _strict_edge_keys(pts, t)
                assert key == _balanced_tree_edge_keys(q, t)
                assert len(trees) == 1

    def test_lattice_ties_keep_the_pair_set(self, monkeypatch):
        trees = _tree_only(monkeypatch)
        pts = np.concatenate([lattice(12, 2), lattice(12, 2)[:20]])
        for t in (1.0, 1.5, 2.0):
            trees.clear()
            key, q = _strict_edge_keys(pts, t)
            assert key == _balanced_tree_edge_keys(q, t)
            assert len(trees) == 1


class TestCellGrid:
    @staticmethod
    def _configs():
        # uniform, gaussian and power-of-two lattice points (exact ties at t
        # and repeats), shifted by 0, +-1e6 or a negative offset, at radii from
        # 1e-3 up to past the span
        rng = np.random.default_rng(140)
        for trial in range(330):
            n = int(rng.integers(2, 160))
            t = float(10 ** rng.uniform(-3.0, 0.5))
            kind = trial % 3
            if kind == 0:
                pts = rng.random((n, 2)) * t * rng.uniform(0.5, 12.0)
            elif kind == 1:
                pts = rng.standard_normal((n, 2)) * t * rng.uniform(0.2, 4.0)
            else:
                h = 2.0 ** int(rng.integers(-10, 2))
                pts = rng.integers(-6, 7, size=(n, 2)) * h
                t = h * float(rng.choice([1.0, 1.5, 2.0, 2.5]))
            yield pts + float(rng.choice([0.0, 1e6, -1e6, -37.25])), t

    def test_pairs_match_the_dense_oracle(self):
        grids = 0
        for pts, t in self._configs():
            cols = [np.ascontiguousarray(pts[:, k]) for k in range(2)]
            grid = geomgraph._grid_candidates(cols, t)
            if grid is None:
                continue
            grids += 1
            sorted_cols, blocks = grid
            a, b = (np.concatenate(x) for x in zip(*blocks))
            assert np.all(a < b)
            mask = geomgraph._strict_mask(sorted_cols, a, b, t)
            got = _label_keys(a[mask], b[mask], len(pts))
            assert got == _dense_edge_keys(np.column_stack(sorted_cols), t)
            assert len(set(got)) == len(got)
        assert grids >= 300

    def test_rounding_margin_keeps_pairs_two_naive_cells_apart(self):
        # x_a sits just below a cell edge k t of a grid of side exactly t, with
        # lo < 0 so that fl(x - lo) rounds, and x_b at the largest gap that
        # still passes the strict test; pairs whose naive cells differ by 2
        # must still be listed
        rng = np.random.default_rng(144)
        hits = 0
        for _ in range(4000):
            t = float(rng.uniform(0.01, 1.0))
            k = int(rng.integers(200, 900))
            lo = -float(rng.uniform(0.1, 0.9)) * k * t
            xa = lo + k * t - float(rng.uniform(0.0, 4.0)) * 1e-15 * k * t
            xb = xa + t
            while not (xb - xa) ** 2 < t * t:
                xb = np.nextafter(xb, -np.inf)
            if math.floor((xb - lo) / t) - math.floor((xa - lo) / t) < 2:
                continue
            hits += 1
            # 300 copies of the leftmost point keep the k + 2 cells under the cap
            pts = np.zeros((302, 2))
            pts[:, 0] = lo
            pts[-2:, 0] = xa, xb
            cols, key = geomgraph._strict_edges(pts, t)
            x = cols[0][np.column_stack(np.divmod(key, len(pts)))]
            assert [xa, xb] in np.sort(x, axis=1).tolist()
        assert hits >= 5

    def test_grid_keeps_the_balanced_tree_pair_set(self, monkeypatch):
        # the sizes of the sliding-midpoint tree test, and lattice ties and repeats
        trees = _count_trees(monkeypatch)
        rng = np.random.default_rng(132)
        configs = [(rng.random((n, 2)), t) for n in (128, 512, 2048, 4096)
                   for t in (n**-0.5, n**-0.25)]
        configs += [(np.concatenate([lattice(12, 2), lattice(12, 2)[:20]]), t)
                    for t in (1.0, 1.5, 2.0)]
        for pts, t in configs:
            key, q = _strict_edge_keys(pts, t)
            assert key == _balanced_tree_edge_keys(q, t)
        assert trees == []

    def test_small_blocks_give_the_same_pairs(self, monkeypatch):
        monkeypatch.setattr(geomgraph, "_GRID_BLOCK", 7)
        rng = np.random.default_rng(141)
        pts = np.concatenate([rng.random((150, 2)), rng.integers(0, 4, size=(40, 2)) * 0.25])
        for t in (0.05, 0.25, 0.6, 3.0):
            key, q = _strict_edge_keys(pts, t)
            assert key == _dense_edge_keys(q, t)

    def test_cell_cap(self, monkeypatch):
        # 100 points, so the cap is 4 * 100 + 64 = 464 cells; at t = 1 a span of
        # 28.5 x 15.5 takes 29 x 16 = 464 cells and one of 30.5 x 14.5 takes 31 x 15 = 465
        trees = _count_trees(monkeypatch)
        rng = np.random.default_rng(142)
        for (wx, wy), want_trees in (((28.5, 15.5), 0), ((30.5, 14.5), 1)):
            pts = np.concatenate([[[0.0, 0.0], [wx, wy]], rng.random((98, 2)) * [wx, wy]])
            trees.clear()
            key, q = _strict_edge_keys(pts, 1.0)
            assert key == _dense_edge_keys(q, 1.0)
            assert len(trees) == want_trees

    @pytest.mark.parametrize("t", [1e-160, 1e160])
    def test_radii_without_a_normal_square_use_the_tree(self, monkeypatch, t):
        trees = _count_trees(monkeypatch)
        pts = np.array([[0.0, 0.0], [1e-161, 0.0], [0.0, 3e-161], [2.0, 2.0]])
        key, q = _strict_edge_keys(pts, t)
        assert key == _dense_edge_keys(q, t)
        assert len(trees) == 1

    def test_planar_counts_build_no_tree(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a KD-tree was built")

        monkeypatch.setattr(scipy.spatial, "cKDTree", refuse)
        rng = np.random.default_rng(143)
        for n in (256, 2048):
            t = RadiusSchedule("C4", rho=1.0).radius(n, 2)
            pts = rng.random((n, 2))
            assert count_subgraphs(pts, EDGE, t) > 0
            assert count_subgraphs(pts, TRIANGLE, t) > 0
        with pytest.raises(AssertionError, match="KD-tree"):
            count_subgraphs(rng.random((256, 3)), EDGE, 0.1)


def _count_trees(monkeypatch):
    trees = []

    def counting(*args, **kwargs):
        trees.append(args)
        return cKDTree(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", counting)
    return trees


def _tree_only(monkeypatch):
    """Refuse every cell grid, so pairs come from the KD-tree; returns its build record."""
    monkeypatch.setattr(geomgraph, "_grid_candidates", lambda cols, t: None)
    return _count_trees(monkeypatch)


def _label_keys(i, j, n):
    return sorted((i * n + j).tolist())


def _dense_edge_keys(pts, t):
    i, j = np.nonzero(np.triu(_dense_adjacency(pts, t), k=1))
    return _label_keys(i, j, len(pts))


def _dense_adjacency(pts, t):
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    return ((d2 > 0.0) & (d2 < t * t)).astype(np.int64)


def _strict_edge_keys(pts, t):
    """`_strict_edges` as a key list, with the points in the labels of its keys."""
    cols, key = geomgraph._strict_edges(pts, t)
    return key.tolist(), np.column_stack(cols)


def _balanced_tree_edge_keys(pts, t):
    # the default (median-split) tree, with the strict mask applied by hand
    i, j = cKDTree(pts).query_pairs(r=t, output_type="ndarray").T
    d2 = ((pts[i] - pts[j]) ** 2).sum(axis=1)
    mask = (d2 > 0.0) & (d2 < t * t)
    return _label_keys(i[mask], j[mask], len(pts))


class TestCountSubgraphs:
    def test_minimal_sample(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0]])
        assert count_subgraphs(pts, EDGE, 0.2) == 1

    def test_too_few_points_and_non_positive_radius(self):
        pts = np.random.default_rng(152).random((5, 2))
        with pytest.raises(ParameterError, match="need at least 3 points, got 2"):
            count_subgraphs(pts[:2], TRIANGLE, 0.5)
        assert count_subgraphs(pts, TRIANGLE, 0.0) == 0
        assert count_subgraphs(pts, EDGE, -1.0) == 0

    def test_complete_graph_saturates(self):
        rng = np.random.default_rng(92)
        pts = rng.random((8, 2))
        assert count_subgraphs(pts, complete_pattern(3), 10.0) == 56  # C(8,3)

    def test_brute_force_oracle_refuses_oversized_inputs(self):
        # C(300, 4) subsets would exhaust memory: the oracle refuses before building them
        with pytest.raises(ValueError, match="brute-force cap"):
            brute_subgraph_count(np.zeros((300, 2)), PAW, 0.1)

    def test_matches_brute_force_fifty_configs(self):
        rng = np.random.default_rng(93)
        for trial in range(50):
            n = int(rng.integers(20, 90))
            pat = (EDGE, TRIANGLE, PATH3)[trial % 3]
            d = int(rng.integers(1, 4))
            pts = rng.random((n, d))
            t = float(rng.uniform(0.05, 0.5))
            assert count_subgraphs(pts, pat, t) == brute_subgraph_count(pts, pat, t)

    def test_larger_grid_pruned_case(self):
        rng = np.random.default_rng(94)
        pts = rng.random((200, 2))
        t = 0.1
        assert count_subgraphs(pts, EDGE, t) == brute_subgraph_count(pts, EDGE, t)

    @pytest.mark.parametrize("pat", [EDGE, TRIANGLE, PATH3, PAW], ids=lambda pat: pat.name)
    def test_lattice_ties_at_the_radius(self, pat):
        # lattice neighbours sit at distance exactly 1, which is not below t = 1
        pts = lattice(4, 2)
        assert count_subgraphs(pts, pat, 1.0) == 0
        assert count_subgraphs(pts, pat, 1.5) == brute_subgraph_count(pts, pat, 1.5)
        pts3 = lattice(3, 3)
        assert count_subgraphs(pts3, pat, 1.0) == 0
        if pat.p <= 3:
            assert count_subgraphs(pts3, pat, 1.5) == brute_subgraph_count(pts3, pat, 1.5)

    @pytest.mark.parametrize("pat", [EDGE, TRIANGLE, PATH3, PAW], ids=lambda pat: pat.name)
    def test_duplicated_points(self, pat):
        rng = np.random.default_rng(96)
        base = rng.random((10, 2))
        pts = np.concatenate([base, base[:6], base[:2]])
        t = 0.35
        assert count_subgraphs(pts, pat, t) == brute_subgraph_count(pts, pat, t)

    @pytest.mark.parametrize("x, t", [
        (np.repeat(np.arange(10) * 0.5, 3), 0.5),   # duplicates, neighbours exactly at t
        (np.repeat(np.arange(10) * 0.5, 3), 1.5),
        (np.arange(20) * 0.1, 0.1),                   # rounded gaps straddle t
        (np.arange(20) * 0.1, 0.3),
        (np.full(7, 2.0), 1.0),
        # squared gaps below 1e-323 round to 0, so those pairs are not adjacent
        (np.array([0.0, 1e-200, 3e-170, 5e-324, -1e-161, 1.0]), 0.5),
        (np.random.default_rng(98).standard_normal(120), 0.05),
    ], ids=["lattice-0.5", "lattice-1.5", "tenths-0.1", "tenths-0.3", "coincident",
            "underflow", "gaussian"])
    def test_line_edge_count_matches_brute_force(self, x, t):
        pts = x[:, None]
        assert count_subgraphs(pts, EDGE, t) == brute_subgraph_count(pts, EDGE, t)

    def test_line_edge_count_matches_kd_tree_pairs(self):
        rng = np.random.default_rng(99)
        for n in (2, 100, 4096):
            for t in (n**-0.5, 0.3, 10.0):
                pts = rng.standard_normal((n, 1))
                _, key = geomgraph._strict_edges(pts, t)
                assert count_subgraphs(pts, EDGE, t) == key.size

    @pytest.mark.parametrize("d, t", [(1, 0.1), (2, 0.35), (3, 0.55)])
    @pytest.mark.parametrize("pat", [PAW, STAR4, PATH5], ids=lambda pat: pat.name)
    def test_custom_patterns_match_brute_force(self, pat, d, t):
        # star4 cannot be realized on a line, so its d = 1 count is 0
        pts = np.random.default_rng(97 + d).random((16, d))
        assert count_subgraphs(pts, pat, t) == brute_subgraph_count(pts, pat, t)

    def test_dense_case_crosses_anchor_blocks(self, monkeypatch):
        rng = np.random.default_rng(98)
        pts = rng.random((400, 2))
        t = 0.3
        adj = _dense_adjacency(pts, t)
        n, edges = len(pts), int(adj.sum()) // 2
        # any labelling has at least n C(E / n, 2) forward wedges, past one block
        assert n * math.comb(edges // n, 2) > geomgraph._GRID_BLOCK
        a2 = adj @ adj
        assert count_subgraphs(pts, TRIANGLE, t) == np.trace(a2 @ adj) // 6
        assert count_subgraphs(pts, PATH3, t) == (a2 * (1 - adj - np.eye(n, dtype=int))).sum() // 2
        # K4 is grown, and its 4-set candidates exceed one block of anchors
        levels = _record_growth(monkeypatch)
        pts, t = rng.random((400, 2)), 0.12
        assert count_subgraphs(pts, K4, t) == _four_cliques(_dense_adjacency(pts, t)) > 0
        assert levels.count(3) > 1

    @pytest.mark.parametrize("pat", [PATH3, PAW, PATH5, K4], ids=lambda pat: pat.name)
    def test_small_blocks_give_the_same_count(self, pat, monkeypatch):
        # small growth blocks for p >= 4, small wedge and grid blocks for all
        rng = np.random.default_rng(99)
        pts = rng.random((150, 2))
        t = 0.12
        whole = count_subgraphs(pts, pat, t)
        monkeypatch.setattr(geomgraph, "_GROW_BUDGET", 64)
        monkeypatch.setattr(geomgraph, "_GRID_BLOCK", 7)
        assert count_subgraphs(pts, pat, t) == whole > 0

    @pytest.mark.parametrize("d, t", [(4, 1.0), (8, 2.0)])
    @pytest.mark.parametrize("pat", [TRIANGLE, PATH3, PAW], ids=lambda pat: pat.name)
    def test_high_dimensions_match_brute_force(self, pat, d, t):
        # half-integer lattice points have squared distances in multiples of
        # 0.25, so some lattice pairs sit exactly at t; every sixth one repeats
        rng = np.random.default_rng(140 + d)
        lat = rng.integers(0, 4, size=(24, d)) * 0.5
        lat[::6] = lat[1::6]
        assert np.any(np.triu(((lat[:, None] - lat[None]) ** 2).sum(-1) == t * t, k=1))
        pts = np.concatenate([lat, rng.random((24, d)) * 1.5])
        assert count_subgraphs(pts, pat, t) == brute_subgraph_count(pts, pat, t) > 0

    def test_rejects_one_dimensional_points(self):
        with pytest.raises(ParameterError):
            count_subgraphs(np.arange(6.0), TRIANGLE, 0.5)

    def test_rejects_a_nan_coordinate(self):
        pts = np.random.default_rng(101).random((12, 2))
        pts[4, 1] = np.nan
        with pytest.raises(ParameterError):
            count_subgraphs(pts, TRIANGLE, 0.5)

    def test_rejects_points_without_coordinates(self):
        with pytest.raises(ParameterError):
            count_subgraphs(np.zeros((6, 0)), TRIANGLE, 0.5)

    def test_rejects_a_nan_radius(self):
        with pytest.raises(ParameterError):
            count_subgraphs(np.random.default_rng(102).random((6, 2)), TRIANGLE, float("nan"))

    @pytest.mark.parametrize("pat", [TRIANGLE, PAW, K4], ids=lambda pat: pat.name)
    def test_grown_sets_are_deduplicated_without_np_unique(self, pat, monkeypatch):
        # 300**4 < 2**63, so every growth level (p >= 4) is deduplicated on
        # packed keys; the triangle's edge keys are only sorted
        rng = np.random.default_rng(103)
        pts = rng.random((300, 2))
        t = 0.1
        want = count_subgraphs(pts, pat, t)

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called on the packed-key path")

        monkeypatch.setattr(np, "unique", refuse)
        assert count_subgraphs(pts, pat, t) == want > 0

    def test_complete_pattern_monotone_in_radius(self):
        rng = np.random.default_rng(95)
        pts = rng.random((60, 2))
        last = -1
        for t in (0.05, 0.1, 0.2, 0.4, 0.8):
            cur = count_subgraphs(pts, TRIANGLE, t)
            assert cur >= last
            last = cur


def _four_cliques(adj):
    """4-cliques of a dense 0/1 adjacency: each of a clique's six edges sees
    its other two vertices as one adjacent pair of common neighbours."""
    i, j = np.nonzero(np.triu(adj))
    common = (adj[i] & adj[j]).astype(float)
    pairs = int(round(((common @ adj.astype(float)) * common).sum())) // 2
    return pairs // 6


def _record_growth(monkeypatch):
    """The set size k of the rows of every `_StrictGraph.extend` call, in order."""
    levels = []
    extend = geomgraph._StrictGraph.extend

    def recording(self, rows):
        levels.append(rows.shape[1])
        return extend(self, rows)

    monkeypatch.setattr(geomgraph._StrictGraph, "extend", recording)
    return levels


def _grown_count(pts, pat, t):
    """The p-set growth count, called directly: the reference for the 3-vertex rule."""
    cols, key = geomgraph._strict_edges(pts, t)
    n = len(pts)
    return geomgraph._count_grown(geomgraph._StrictGraph(key, n),
                                  _unique_rows(list(np.divmod(key, n)), n),
                                  np.column_stack(cols), pat, t)


class TestThreeVertexCounts:
    @staticmethod
    def _configs():
        # d 1-3; uniform points, and half-integer lattice points with pairs
        # exactly at t; a fifth of every config repeats other points
        rng = np.random.default_rng(160)
        for trial in range(60):
            d, n = 1 + trial % 3, int(rng.integers(3, 40))
            if trial % 2:
                pts, t = rng.random((n, d)), float(rng.uniform(0.1, 0.6))
            else:
                pts = rng.integers(0, 4, size=(n, d)) * 0.5
                t = float(rng.choice([0.5, 1.0, 1.5]))
            pts[:n // 5] = pts[n // 5:2 * (n // 5)]
            yield pts, t

    @pytest.mark.parametrize("pat", [TRIANGLE, PATH3], ids=lambda pat: pat.name)
    def test_matches_brute_force_and_growth(self, pat):
        positive = 0
        for pts, t in self._configs():
            got = count_subgraphs(pts, pat, t)
            assert got == brute_subgraph_count(pts, pat, t) == _grown_count(pts, pat, t)
            positive += got > 0
        assert positive >= 20

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("pat", [TRIANGLE, PATH3], ids=lambda pat: pat.name)
    def test_graphs_without_a_wedge(self, pat, d):
        # no edge: pairs coincide or sit at or beyond t; then one edge
        pts = np.zeros((4, d))
        pts[1:3, 0] = 1.0, 2.0
        assert count_subgraphs(pts, pat, 1.0) == 0 == _grown_count(pts, pat, 1.0)
        pts[2, 0] = 1.5
        assert count_subgraphs(pts, pat, 0.6) == 0 == _grown_count(pts, pat, 0.6)

    def test_relabelled_pattern_files_take_the_named_counts(self, tmp_path):
        from ustatkit.cli import load_pattern

        files = [("triangle", [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
                 ("path3", [[0, 1, 1], [1, 0, 0], [1, 0, 0]]),
                 ("path3", [[0, 0, 1], [0, 0, 1], [1, 1, 0]])]
        rng = np.random.default_rng(161)
        for d, t in ((1, 0.03), (2, 0.12), (3, 0.25)):
            pts = rng.random((200, d))
            for k, (name, adj) in enumerate(files):
                path = tmp_path / f"pattern{k}.json"
                path.write_text(json.dumps({"p": 3, "adjacency": adj}))
                want = count_subgraphs(pts, named_pattern(name), t)
                assert count_subgraphs(pts, load_pattern(str(path)), t) == want > 0

    def test_wedges_split_across_small_blocks(self, monkeypatch):
        rng = np.random.default_rng(162)
        pts = rng.random((120, 2))
        t = 0.3
        monkeypatch.setattr(geomgraph, "_GRID_BLOCK", 7)
        for pat in (TRIANGLE, PATH3):
            assert count_subgraphs(pts, pat, t) == brute_subgraph_count(pts, pat, t) > 0

    def test_three_vertex_counts_build_no_strict_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a _StrictGraph was built")

        monkeypatch.setattr(geomgraph, "_StrictGraph", refuse)
        rng = np.random.default_rng(163)
        for d, t in ((1, 0.01), (2, 0.08), (3, 0.2)):
            pts = rng.random((300, d))
            assert count_subgraphs(pts, TRIANGLE, t) > 0
            assert count_subgraphs(pts, PATH3, t) > 0
        with pytest.raises(AssertionError, match="_StrictGraph"):
            count_subgraphs(pts, PAW, t)


class TestLabelInvariance:
    # edges carry the labels of the pair lister (the cell grid's sort order, or
    # the input's for the KD-tree), so no count may depend on the input order
    @staticmethod
    def _configs():
        rng = np.random.default_rng(170)
        for d, t in ((1, 0.02), (2, 0.12), (3, 0.3)):
            yield f"uniform-{d}", rng.random((150, d)), t
        # a planar cluster and one far point: the grid would need more than 4n + 64 cells
        yield "over-cap", np.concatenate([rng.random((150, 2)), [[1e3, 1e3]]]), 0.12
        # half-integer lattice points with pairs at exactly t, a fifth of them repeated
        for d in (2, 3):
            lat = rng.integers(0, 8, size=(80, d)) * 0.5
            yield f"lattice-{d}", np.concatenate([lat, lat[:16]]), 1.0

    @pytest.mark.parametrize("pat", [EDGE, TRIANGLE, PATH3, PAW, K4], ids=lambda pat: pat.name)
    def test_counts_do_not_depend_on_the_input_order(self, pat, monkeypatch):
        trees = _count_trees(monkeypatch)
        rng = np.random.default_rng(171)
        positive = 0
        for name, pts, t in self._configs():
            trees.clear()
            want = count_subgraphs(pts, pat, t)
            if name == "over-cap":
                assert len(trees) == 1
            for _ in range(3):
                assert count_subgraphs(pts[rng.permutation(len(pts))], pat, t) == want
            positive += want > 0
        assert positive >= 5

    @pytest.mark.parametrize("name", ["uniform-1", "uniform-2", "uniform-3", "over-cap",
                                      "lattice-2", "lattice-3"])
    def test_strict_edges_contract(self, name):
        pts, t = next((pts, t) for label, pts, t in self._configs() if label == name)
        n = len(pts)
        cols, key = geomgraph._strict_edges(pts, t)
        q = np.column_stack(cols)
        # the columns hold the input rows in some order
        assert np.array_equal(q[np.lexsort(q.T)], pts[np.lexsort(pts.T)])
        # strictly increasing keys i * n + j with i < j, exactly the dense edges of q
        assert np.all(np.diff(key) > 0)
        assert np.all(key // n < key % n)
        assert key.tolist() == _dense_edge_keys(q, t) and key.size > 0


class TestUniqueRows:
    @pytest.mark.parametrize("n", [50, 600, 2**40])
    def test_distinct_rows_in_lexicographic_order(self, n):
        # 600**7 and (2**40)**7 overflow an int64 key: the row-wise branch
        rng = np.random.default_rng(100)
        rows = np.sort(rng.integers(0, 50, size=(400, 7)), axis=1)
        rows = np.concatenate([rows, rows[::3]])
        expected = sorted(set(map(tuple, rows.tolist())))
        assert _unique_rows(list(rows.T), n).tolist() == [list(r) for r in expected]

    @pytest.mark.parametrize("n", [50, 2**40])
    def test_list_of_columns_matches_the_array(self, n):
        rows = np.sort(np.random.default_rng(104).integers(0, 50, size=(300, 4)), axis=1)
        rows = np.concatenate([rows, rows[::4]])
        # strided views of the array's columns and contiguous copies alike
        want = _unique_rows(list(rows.T), n)
        assert np.array_equal(_unique_rows([rows[:, c].copy() for c in range(4)], n), want)
        assert np.array_equal(want, np.unique(rows, axis=0))

    @pytest.mark.parametrize("n", [50, 2**40])
    @pytest.mark.parametrize("k", [2, 3])
    def test_empty_input(self, n, k):
        empty = np.empty((0, k), dtype=np.int64)
        assert _unique_rows([empty[:, c] for c in range(k)], n).shape == (0, k)


def _random_graph(rng, n, density):
    """Edge keys i * n + j (i < j) of a random graph and its dense boolean adjacency."""
    adj = np.triu(rng.random((n, n)) < density, k=1)
    adj |= adj.T
    i, j = np.nonzero(np.triu(adj))
    return i * n + j, adj


def _connected_set(vertices, adj):
    vertices = set(vertices)
    seen, frontier = set(), [min(vertices)]
    while frontier:
        v = frontier.pop()
        if v not in seen:
            seen.add(v)
            frontier.extend(u for u in vertices if adj[v, u])
    return seen == vertices


def _assert_csr_matches(graph, adj):
    assert graph.indptr[0] == 0 and graph.indptr[-1] == adj.sum()
    assert graph.degree.tolist() == adj.sum(axis=1).tolist()
    for v in range(len(adj)):
        nbrs = graph.indices[graph.indptr[v]:graph.indptr[v + 1]]
        assert sorted(nbrs.tolist()) == np.flatnonzero(adj[v]).tolist()


class TestStrictGraph:
    @pytest.mark.parametrize("n, density", [(1, 0.0), (5, 0.0), (12, 0.3), (40, 0.1), (40, 0.9)])
    def test_neighbours_and_degrees_match_dense_adjacency(self, n, density):
        rng = np.random.default_rng(105 + n)
        key, adj = _random_graph(rng, n, density)
        _assert_csr_matches(geomgraph._StrictGraph(rng.permutation(key), n), adj)

    def test_geometric_graph_matches_dense_adjacency(self):
        # lattice points with repeats and pairs exactly at t
        pts = np.concatenate([lattice(6, 2), lattice(6, 2)[:9]]) * 0.5
        t = 1.0
        cols, key = geomgraph._strict_edges(pts, t)
        q = np.column_stack(cols)
        d2 = ((q[:, None] - q[None]) ** 2).sum(-1)
        adj = (d2 > 0.0) & (d2 < t * t)
        _assert_csr_matches(geomgraph._StrictGraph(key, len(q)), adj)

    @pytest.mark.parametrize("seed", range(6))
    def test_extend_matches_set_oracle(self, seed):
        # every connected (k+1)-superset of an input set that keeps its minimum
        rng = np.random.default_rng(110 + seed)
        n = int(rng.integers(6, 13))
        key, adj = _random_graph(rng, n, float(rng.uniform(0.2, 0.6)))
        graph = geomgraph._StrictGraph(key, n)
        grown = 0
        for k in (2, 3, 4):
            sets = [s for s in itertools.combinations(range(n), k) if _connected_set(s, adj)]
            rows = [s for s in sets if rng.random() < 0.6]
            if not rows:
                continue
            want = sorted({tuple(sorted(s + (w,))) for s in rows for w in range(n)
                           if w > s[0] and w not in s and _connected_set(s + (w,), adj)})
            got = graph.extend(np.array(rows, dtype=np.int64).reshape(-1, k))
            assert got.shape[1] == k + 1
            assert [tuple(r) for r in got.tolist()] == want
            grown += len(want)
        assert grown > 0


class TestDensityModel:
    @pytest.mark.parametrize("kind", ["custom", "uniform"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ParameterError):
            DensityModel(kind, 2)

    def test_gaussian_support_is_everything(self):
        pts = np.random.default_rng(150).standard_normal((20, 3, 2)) * 10.0
        assert DensityModel("gaussian", 2).in_support(pts).all()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_uniform_ball_samples_fill_the_unit_ball(self, d):
        ball = DensityModel("uniform-ball", d)
        pts = ball.sample(np.random.default_rng(151), 4000)
        assert pts.shape == (4000, d)
        assert ball.in_support(pts[:, None, :]).all()
        # |X|^d of a uniform point of the d-ball is uniform on [0, 1]
        r_d = np.linalg.norm(pts, axis=1) ** d
        assert abs(r_d.mean() - 0.5) <= 4.0 * r_d.std(ddof=1) / math.sqrt(r_d.size)
        outside = np.zeros((1, 1, d))
        outside[..., 0] = 1.01
        assert not ball.in_support(outside)[0]


class TestSchedules:
    def test_radius_formulas(self):
        assert RadiusSchedule("C4", rho=2.0).radius(512, 2) == pytest.approx((2.0 / 512) ** 0.5)
        assert RadiusSchedule("C3", beta=0.5).radius(256, 2) == pytest.approx(256 ** -0.25)

    def test_validation(self):
        with pytest.raises(ParameterError):
            RadiusSchedule("C2", beta=1.5)
        with pytest.raises(ParameterError):
            RadiusSchedule("C1", beta=0.5)
        with pytest.raises(ParameterError):
            RadiusSchedule("C4")
        with pytest.raises(ParameterError, match="field 'rho' does not apply to regime C3"):
            RadiusSchedule("C3", beta=0.5, rho=1.0)
        with pytest.raises(ParameterError, match="field 'beta' does not apply to regime C4"):
            RadiusSchedule("C4", beta=0.5, rho=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_name_their_field(self, value):
        with pytest.raises(ParameterError, match="finite rho"):
            RadiusSchedule("C4", rho=value)
        for regime in ("C1", "C2", "C3"):
            with pytest.raises(ParameterError, match="finite beta"):
                RadiusSchedule(regime, beta=value)

    def test_targets(self):
        t = regime_targets(2, RadiusSchedule("C3", beta=0.5))
        assert t["variance"]["target"] == pytest.approx(2.0)
        assert t["distance"]["target"] == -0.5
        t1 = regime_targets(3, RadiusSchedule("C1", beta=1.2))
        assert t1["mean"]["target"] == pytest.approx(3 - 1.2 * 2)
        t2 = regime_targets(2, RadiusSchedule("C2", beta=0.5))
        assert t2["variance"]["flag"] == "lower-bound-only"
        assert t2["distance"]["flag"] == "upper-bound-only"


class TestRegimeExperiment:
    def test_c1_triangle_mean_exponent(self):
        sched = RadiusSchedule("C1", beta=1.2)
        rep = regime_experiment(TRIANGLE, BOX2, sched, [256, 512, 1024, 2048], 150, seed=17)
        assert rep.exponents["mean"]["fitted"] == pytest.approx(0.6, abs=0.2)
        assert all(r["var"] >= 0.0 for r in rep.records)
        # feasibility probe agrees with a positive mean count at the largest n
        assert (rep.config["feasibility_probe"] > 0) == (rep.records[-1]["mean"] > 0)

    def test_infeasible_pattern_rejected(self):
        # a three-leaf star cannot be realized on a line: the leaves would
        # need pairwise gaps above t inside a window of width 2t
        star = GraphPattern(
            np.array([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]),
            name="star4",
        )
        box1 = DensityModel("uniform-box", 1)
        sched = RadiusSchedule("C4", rho=1.0)
        with pytest.raises(PreconditionError):
            regime_experiment(star, box1, sched, [64, 128, 256, 512], 100, seed=3)

    def test_regime_density_consistency(self):
        sched = RadiusSchedule("C3", beta=0.5)
        with pytest.raises(ParameterError):
            regime_experiment(EDGE, BOX2, sched, [64, 128, 256, 512], 100, seed=0)
        sched2 = RadiusSchedule("C2", beta=0.5)
        with pytest.raises(ParameterError):
            regime_experiment(EDGE, DensityModel("gaussian", 2), sched2,
                              [64, 128, 256, 512], 100, seed=0)

    @pytest.mark.parametrize(("change", "message"), [
        ({"reps": 99}, "at least 100 replicates"),
        ({"ns": [64, 128, 256]}, "at least 4 sample sizes"),
        ({"ns": [1, 128, 256, 512]}, "at least the pattern size"),
        ({"schedule": RadiusSchedule("C1", beta=2.5)}, r"beta < p / \(p - 1\)"),
    ])
    def test_argument_checks(self, change, message):
        args = {"pat": EDGE, "density": BOX2, "schedule": RadiusSchedule("C4", rho=1.0),
                "ns": [64, 128, 256, 512], "reps": 100, "seed": 0, **change}
        with pytest.raises(ParameterError, match=message):
            regime_experiment(**args)

    def test_constant_counts_form_no_distance(self):
        # at rho = 1e-9 no two of at most 5 points are joined, so every count
        # is 0: no size has a distance and no rate is fitted
        rep = regime_experiment(EDGE, DensityModel("uniform-box", 1),
                                RadiusSchedule("C4", rho=1e-9), [2, 3, 4, 5], 100, seed=0)
        for r in rep.records:
            assert r["var"] == 0.0
            assert all(math.isnan(r[key]) for key in ("dw", "dw_se", "dw_debiased"))
        assert rep.exponents["distance"]["flag"] == "not-fitted"

    def test_unfitted_distance_is_flagged(self):
        # the CLI's reference sweep: every dw sits at or under the noise floor,
        # so the floor-aware fit is null and no rate is flagged
        rep = regime_experiment(EDGE, BOX2, RadiusSchedule("C4", rho=1.0),
                                [64, 128, 256, 512], 120, seed=3)
        assert all(r["dw"] <= r["dw_floor"] for r in rep.records)
        dist = rep.exponents["distance"]
        assert np.isnan(dist["fitted"]) and dist["flag"] == "not-fitted"
        assert np.isfinite(dist["fitted_raw"])

    def test_c4_edge_moments_match_the_closed_form(self):
        # on the unit interval, an edge has probability q = 2t - t^2 and the
        # projection g_1(x) = |[x - t, x + t] & [0, 1]| has E g_1^2 = 4t^2 - 10t^3/3
        rep = regime_experiment(EDGE, DensityModel("uniform-box", 1),
                                RadiusSchedule("C4", rho=1.0),
                                [128, 256, 512, 1024, 2048], 3000, seed=3)
        for r in rep.records:
            n, t = r["n"], r["t"]
            pairs = math.comb(n, 2)
            q = 2 * t - t * t
            g1_sq = 4 * t * t - 10 * t**3 / 3
            var = pairs * (q * (1 - q) + 2 * (n - 2) * (g1_sq - q * q))
            assert abs(r["mean"] - pairs * q) <= 4 * r["mean_se"], r
            assert abs(r["var"] - var) <= 4 * r["var_se"], r

    def test_report_is_reproducible(self):
        sched = RadiusSchedule("C4", rho=1.0)
        a = regime_experiment(EDGE, BOX2, sched, [64, 128, 256, 512], 120, seed=5)
        b = regime_experiment(EDGE, BOX2, sched, [64, 128, 256, 512], 120, seed=5)
        assert a.to_dict() == b.to_dict()


@pytest.fixture
def philox_keys(monkeypatch, replicate_workers):
    """Every Philox key read while the test runs, in order: the key of each
    generator built outside a replicate loop and the key each replicate's
    draw receives.  A replicate loop re-keys the one generator it builds, so
    its keys are read from the draws, once per replicate."""
    # keys read in forked replicate workers would never reach this list
    replicate_workers(1)
    keys = []
    in_loop = []
    philox = np.random.Philox
    replicates = montecarlo._replicates

    def recording(*args, key=None, **kwargs):
        if not in_loop:
            keys.append(tuple(int(w) for w in key))
        return philox(*args, key=key, **kwargs)

    def recording_replicates(out, draw, *args, **kwargs):
        def keyed(rng):
            keys.append(tuple(int(w) for w in rng.bit_generator.state["state"]["key"]))
            return draw(rng)

        in_loop.append(True)
        try:
            return replicates(out, keyed, *args, **kwargs)
        finally:
            in_loop.pop()

    monkeypatch.setattr(np.random, "Philox", recording)
    for module in (montecarlo, geomgraph):
        monkeypatch.setattr(module, "_replicates", recording_replicates)
    return keys


def _row_keys(seed, purpose, rows):
    """Keys of rows 0 .. rows - 1 of a one-slot replicate loop."""
    return {(seed, purpose << 56 | j) for j in range(rows)}


class TestStreamKeys:
    def test_sweep_bootstrap_misses_gk_streams(self, philox_keys):
        # 101 sample sizes reach sweep index 100
        regime_experiment(EDGE, BOX2, RadiusSchedule("C4", rho=1.0), list(range(20, 121)),
                          100, seed=3)
        gk_contraction_mc(EDGE, BOX2, 0.3, 1, 1, 1, 1, 10_000, seed=3, inner=4)
        variance_lower_bound_check(EDGE, BOX2, 0.1, 2, 100, seed=3, q_samples=100_001)
        assert len(philox_keys) >= 101 * 100
        assert _row_keys(3, Purpose.GK, 40) | _row_keys(3, Purpose.QPROB, 3) <= set(philox_keys)
        assert len(philox_keys) == len(set(philox_keys))

    def test_variance_check_misses_sweep_streams(self, philox_keys):
        # the check at n = 2 against sweep index 1
        regime_experiment(EDGE, BOX2, RadiusSchedule("C4", rho=1.0), [64, 128, 256, 512],
                          100, seed=5)
        variance_lower_bound_check(EDGE, BOX2, 0.1, 2, 100, seed=5, q_samples=100_001)
        gk_contraction_mc(EDGE, BOX2, 0.3, 1, 1, 1, 1, 10_000, seed=5, inner=4)
        assert len(philox_keys) >= 4 * 100 + 100
        assert _row_keys(5, Purpose.GK, 40) | _row_keys(5, Purpose.QPROB, 3) <= set(philox_keys)
        assert len(philox_keys) == len(set(philox_keys))


class TestVarianceLowerBound:
    def test_interval_overlap_closed_form(self):
        box1 = DensityModel("uniform-box", 1)
        out = variance_lower_bound_check(EDGE, box1, t=0.2, n=100, reps=5000, seed=13)
        assert out["ok"]
        assert out["q_hat"] == pytest.approx(0.36, abs=3.0 * out["q_se"] + 1e-9)

    def test_probability_estimates_agree_across_seeds(self):
        box1 = DensityModel("uniform-box", 1)
        a = variance_lower_bound_check(EDGE, box1, 0.2, 50, 300, seed=1, q_samples=100_000)
        b = variance_lower_bound_check(EDGE, box1, 0.2, 50, 300, seed=2, q_samples=100_000)
        tol = 3.0 * (a["q_se"] + b["q_se"])
        assert abs(a["q_hat"] - b["q_hat"]) <= tol

    def test_tiny_radius_sends_both_sides_to_zero(self):
        out = variance_lower_bound_check(EDGE, BOX2, t=1e-4, n=50, reps=400, seed=7)
        assert out["rhs_bound"] <= 1e-3
        assert out["lhs_variance"] <= 1e-3

    def test_non_uniform_density_rejected(self):
        with pytest.raises(ParameterError):
            variance_lower_bound_check(EDGE, DensityModel("gaussian", 2), 0.1, 50, 200, seed=0)

    @pytest.mark.parametrize("q_samples", [-5, 0])
    def test_rejects_no_probability_tuples(self, q_samples):
        with pytest.raises(ParameterError, match="q_samples"):
            variance_lower_bound_check(EDGE, BOX2, 0.1, 50, 200, seed=0, q_samples=q_samples)

    @pytest.mark.parametrize("reps", [0, 1])
    def test_rejects_fewer_than_two_replicates(self, reps):
        with pytest.raises(ParameterError, match="reps"):
            variance_lower_bound_check(EDGE, BOX2, 0.1, 50, reps, seed=0)

    @pytest.mark.parametrize("t", [0.0, -0.1, math.nan])
    def test_rejects_a_radius_that_is_not_positive(self, t):
        # the count would read -0.1 as an empty graph, the pattern probability as 0.1
        with pytest.raises(ParameterError, match="radius"):
            variance_lower_bound_check(EDGE, BOX2, t, 50, 100, seed=0, q_samples=1000)


class TestGkContractionMc:
    def test_tensor_product_identity(self):
        # two estimators of the same quantity: ||g1 (x) g1|| == ||g1||^2,
        # where the squared norm is itself the full diagonal contraction
        est_a = gk_contraction_mc(EDGE, BOX2, 0.3, 1, 1, 0, 0, 20000, seed=31)
        est_b = gk_contraction_mc(EDGE, BOX2, 0.3, 1, 1, 1, 1, 20000, seed=32)
        tol = 3.0 * (est_a.stderr + est_b.stderr)
        assert abs(est_a.value - est_b.value) <= tol

    @pytest.mark.parametrize("levels, oracle", [
        # ||g_1 (x) g_1|| = ||g_1||^2 with g_1(x) = |[x - t, x + t] & [0, 1]|
        ((1, 1, 0, 0), lambda t: 4 * t * t - 10 * t**3 / 3),
        # ||h (x) h|| = ||h||^2 = P(edge)
        ((2, 2, 0, 0), lambda t: 2 * t - t * t),
        # g_1 *_1^1 g_1 = the integral of g_1^2
        ((1, 1, 1, 1), lambda t: 4 * t * t - 10 * t**3 / 3),
        # ||g_1 *_1^0 g_1|| = ||g_1^2|| = (integral of g_1^4)^(1/2)
        ((1, 1, 1, 0), lambda t: math.sqrt(16 * t**4 - 98 * t**5 / 5)),
    ])
    def test_unit_interval_edge_matches_the_closed_form(self, levels, oracle):
        t = 0.2
        est = gk_contraction_mc(EDGE, DensityModel("uniform-box", 1), t, *levels, 40_000,
                                seed=7, inner=64)
        assert abs(est.value - oracle(t)) <= 4 * est.stderr, est

    def test_infeasible_radius_flags_unreliable(self):
        est = gk_contraction_mc(EDGE, BOX2, 1e-5, 2, 2, 1, 1, 10000, seed=33)
        assert est.value <= 1e-4
        assert not est.reliable

    def test_rejects_bad_indices(self):
        with pytest.raises(ParameterError):
            gk_contraction_mc(EDGE, BOX2, 0.2, 2, 2, 1, 2, 10000, seed=0)
        with pytest.raises(ParameterError):
            gk_contraction_mc(EDGE, BOX2, 0.2, 2, 2, 1, 1, 100, seed=0)

    @pytest.mark.parametrize("inner", [0, -3])
    def test_rejects_no_inner_draws(self, inner):
        with pytest.raises(ParameterError, match="inner"):
            gk_contraction_mc(EDGE, BOX2, 0.2, 2, 2, 1, 1, 10_000, seed=0, inner=inner)

    @pytest.mark.parametrize("t", [0.0, -0.1, math.nan])
    def test_rejects_a_radius_that_is_not_positive(self, t):
        with pytest.raises(ParameterError, match="radius"):
            gk_contraction_mc(EDGE, BOX2, t, 2, 2, 1, 1, 10_000, seed=0)

    def test_chunks_bound_peak_memory(self):
        tracemalloc.start()
        try:
            gk_contraction_mc(EDGE, BOX2, 0.05, 2, 2, 1, 1, 10_000, seed=34, inner=128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_scaling_slope_smoke(self):
        # coarse two-point check of the scaling direction (full sweep lives in
        # the acceptance suite)
        ts = (0.4, 0.1)
        vals = [gk_contraction_mc(EDGE, BOX2, t, 2, 2, 1, 1, 40000, seed=35).value
                for t in ts]
        slope = ols_loglog(ts, vals).slope
        assert slope == pytest.approx(3.0, abs=1.0)
