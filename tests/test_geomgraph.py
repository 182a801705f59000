import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from ustatkit import (
    DensityModel,
    GraphPattern,
    RadiusSchedule,
    complete_pattern,
    count_subgraphs,
    gk_contraction_mc,
    named_pattern,
    pattern_kernel,
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


class TestPatternKernel:
    def test_edge_is_distance_test(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.0]])
        assert pattern_kernel(pts, EDGE, 0.4) == 1
        assert pattern_kernel(pts, EDGE, 0.2) == 0

    def test_coincident_points_are_not_adjacent(self):
        pts = np.zeros((2, 2))
        assert pattern_kernel(pts, EDGE, 0.5) == 0
        tri_pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0]])
        assert pattern_kernel(tri_pts, TRIANGLE, 0.5) == 0

    def test_collinear_path(self):
        t = 1.0
        pts = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
        assert pattern_kernel(pts, PATH3, t) == 1
        assert pattern_kernel(pts, TRIANGLE, t) == 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(90)
        pts = rng.random((3, 2)) * 0.4
        for pat in (TRIANGLE, PATH3):
            base = pattern_kernel(pts, pat, 0.3)
            for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
                assert pattern_kernel(pts[list(perm)], pat, 0.3) == base

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(91)
        batch = rng.random((40, 3, 2)) * 0.5
        vec = pattern_indicator(batch, PATH3, 0.25)
        for i in range(40):
            assert vec[i] == pattern_kernel(batch[i], PATH3, 0.25)


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
        pairs, mask = geomgraph._strict_pairs(pts, t)
        assert np.array_equal(geomgraph.geometric_codes(pts[pairs], t) == 1, mask)
        i, j = np.triu_indices(len(pts), k=1)
        bits = geomgraph.geometric_codes(np.stack([pts[i], pts[j]], axis=1), t)
        assert set(zip(i[bits == 1], j[bits == 1])) == set(map(tuple, pairs[mask]))


class TestStrictPairs:
    @pytest.mark.parametrize("kind, d", [("uniform", 2), ("uniform", 3), ("gaussian", 2)])
    def test_sliding_midpoint_tree_keeps_the_pair_set(self, kind, d):
        rng = np.random.default_rng(130 + d)
        for n in (128, 256, 512, 1024, 2048, 4096):
            pts = rng.random((n, d)) if kind == "uniform" else rng.standard_normal((n, d))
            # the C4 radius at rho = 1 (the motif sweeps) and a denser one
            for t in (n ** (-1.0 / d), n**-0.25):
                assert _edge_keys(*geomgraph._strict_pairs(pts, t), n) == \
                    _balanced_tree_edge_keys(pts, t)

    def test_lattice_ties_keep_the_pair_set(self):
        pts = np.concatenate([lattice(12, 2), lattice(12, 2)[:20]])
        for t in (1.0, 1.5, 2.0):
            assert _edge_keys(*geomgraph._strict_pairs(pts, t), len(pts)) == \
                _balanced_tree_edge_keys(pts, t)


def _edge_keys(pairs, mask, n):
    return sorted((pairs[mask, 0] * n + pairs[mask, 1]).tolist())


def _balanced_tree_edge_keys(pts, t):
    # the default (median-split) tree, with the strict mask applied by hand
    pairs = cKDTree(pts).query_pairs(r=t, output_type="ndarray")
    d2 = ((pts[pairs[:, 0]] - pts[pairs[:, 1]]) ** 2).sum(axis=1)
    return _edge_keys(pairs, (d2 > 0.0) & (d2 < t * t), len(pts))


class TestCountSubgraphs:
    def test_minimal_sample(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0]])
        assert count_subgraphs(pts, EDGE, 0.2) == 1

    def test_complete_graph_saturates(self):
        rng = np.random.default_rng(92)
        pts = rng.random((8, 2))
        assert count_subgraphs(pts, complete_pattern(3), 10.0) == 56  # C(8,3)

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
                _, mask = geomgraph._strict_pairs(pts, t)
                assert count_subgraphs(pts, EDGE, t) == np.count_nonzero(mask)

    @pytest.mark.parametrize("d, t", [(1, 0.1), (2, 0.35), (3, 0.55)])
    @pytest.mark.parametrize("pat", [PAW, STAR4, PATH5], ids=lambda pat: pat.name)
    def test_custom_patterns_match_brute_force(self, pat, d, t):
        # star4 cannot be realized on a line, so its d = 1 count is 0
        pts = np.random.default_rng(97 + d).random((16, d))
        assert count_subgraphs(pts, pat, t) == brute_subgraph_count(pts, pat, t)

    def test_dense_case_crosses_anchor_blocks(self):
        rng = np.random.default_rng(98)
        pts = rng.random((400, 2))
        t = 0.3
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        adj = ((d2 > 0.0) & (d2 < t * t)).astype(np.int64)
        deg = adj.sum(axis=1)
        i, j = np.nonzero(np.triu(adj))
        # the 3-set candidates grown from the edges exceed one block
        assert int((deg[i] + deg[j]).sum()) * 3 > geomgraph._GROW_BUDGET
        assert count_subgraphs(pts, TRIANGLE, t) == np.trace(adj @ adj @ adj) // 6

    @pytest.mark.parametrize("pat", [PATH3, PAW, PATH5], ids=lambda pat: pat.name)
    def test_small_blocks_give_the_same_count(self, pat, monkeypatch):
        rng = np.random.default_rng(99)
        pts = rng.random((150, 2))
        t = 0.12
        whole = count_subgraphs(pts, pat, t)
        monkeypatch.setattr(geomgraph, "_GROW_BUDGET", 64)
        assert count_subgraphs(pts, pat, t) == whole > 0

    def test_complete_pattern_monotone_in_radius(self):
        rng = np.random.default_rng(95)
        pts = rng.random((60, 2))
        last = -1
        for t in (0.05, 0.1, 0.2, 0.4, 0.8):
            cur = count_subgraphs(pts, TRIANGLE, t)
            assert cur >= last
            last = cur


class TestUniqueRows:
    @pytest.mark.parametrize("n", [50, 600, 2**40])
    def test_distinct_rows_in_lexicographic_order(self, n):
        # 600**7 and (2**40)**7 overflow an int64 key: the row-wise branch
        rng = np.random.default_rng(100)
        rows = np.sort(rng.integers(0, 50, size=(400, 7)), axis=1)
        rows = np.concatenate([rows, rows[::3]])
        expected = sorted(set(map(tuple, rows.tolist())))
        assert _unique_rows(rows, n).tolist() == [list(r) for r in expected]


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

    def test_rejects_a_single_bootstrap_resample(self):
        with pytest.raises(ParameterError, match="bootstrap"):
            regime_experiment(EDGE, BOX2, RadiusSchedule("C4", rho=1.0), [64, 128, 256, 512],
                              100, seed=0, bootstrap=1)

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


class TestGkContractionMc:
    def test_tensor_product_identity(self):
        # two estimators of the same quantity: ||g1 (x) g1|| == ||g1||^2,
        # where the squared norm is itself the full diagonal contraction
        est_a = gk_contraction_mc(EDGE, BOX2, 0.3, 1, 1, 0, 0, 20000, seed=31)
        est_b = gk_contraction_mc(EDGE, BOX2, 0.3, 1, 1, 1, 1, 20000, seed=32)
        tol = 3.0 * (est_a.stderr + est_b.stderr)
        assert abs(est_a.value - est_b.value) <= tol

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
