import math

import numpy as np
import pytest

from ustatkit import (
    DiscreteMeasure,
    KappaConfig,
    SymmetricKernel,
    TestFunctionProfile,
    contraction_aggregates,
    bound_degenerate_1d,
    bound_dominant,
    bound_general,
    bound_multivariate,
    clt_condition_values,
    contract,
    decompose,
    projection_contraction_bound,
    lp_norm,
)
from ustatkit import bounds, hoeffding
from ustatkit.bounds import KAPPA_COEF, W1_COEF
from ustatkit.errors import ParameterError, PreconditionError
from ustatkit.product import prefactor_ratio

from helpers import random_degenerate, random_kernel, random_measure

PROFILE = TestFunctionProfile(m1=1.0, m2=1.0, m3=1.0)


class TestKappaConfig:
    def test_default_is_flagged(self):
        cfg = KappaConfig()
        value, prov = cfg.get(2)
        assert value == 1.0 and prov == "default"

    def test_user_values_pass_through(self):
        cfg = KappaConfig({2: 3.5})
        assert cfg.get(2) == (3.5, "user")
        assert cfg.get(3)[1] == "default"

    def test_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            KappaConfig({1: 0.0})


class TestProfile:
    def test_hessian_default(self):
        assert PROFILE.hessian_hs(4) == pytest.approx(2.0)

    def test_hessian_override(self):
        p = TestFunctionProfile(m2=1.0, m2_tilde=1.3)
        assert p.hessian_hs(9) == pytest.approx(1.3)


class TestDegenerate1d:
    def test_order_one_collapses(self):
        rng = np.random.default_rng(60)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 1, 3, mu)
        n = 50
        b1, b2 = bound_degenerate_1d(psi, mu, n)
        l2 = lp_norm(psi, mu, 2.0)
        l4 = lp_norm(psi, mu, 4.0)
        single = W1_COEF * prefactor_ratio(n, 1, 1, 1, 1) * \
            contract(psi, psi, 1, 0, mu).l2_norm / l2**2
        kap = KAPPA_COEF * math.sqrt(1.0 / n)
        assert b1.total == pytest.approx(single + kap, rel=1e-12)
        # with one level, the pointwise-square norm equals the squared L4 norm
        assert b2.terms["contraction"] == pytest.approx(0.0, abs=1e-15)
        assert b2.terms["fourth_moment"] == pytest.approx(
            W1_COEF * prefactor_ratio(n, 1, 1, 1, 1) * l4**2 / l2**2, rel=1e-12
        )
        assert b1.total == pytest.approx(b2.total, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            mu = random_measure(rng, 3)
            psi = random_degenerate(rng, 2, 3, mu)
            b1, b2 = bound_degenerate_1d(psi, mu, 40)
            for c in (0.5, 3.0):
                s1, s2 = bound_degenerate_1d(psi.scaled(c), mu, 40)
                assert s1.total == pytest.approx(b1.total, rel=1e-9)
                assert s2.total == pytest.approx(b2.total, rel=1e-9)

    def test_contraction_terms_decay_at_predicted_powers(self):
        rng = np.random.default_rng(62)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        b_small, _ = bound_degenerate_1d(psi, mu, 100)
        b_large, _ = bound_degenerate_1d(psi, mu, 400)
        for key, val_small in b_small.extras["per_index"].items():
            t, r = (int(part.split("=")[1]) for part in key.split(","))
            if t / 2.0 - r >= 0 or val_small == 0.0:
                continue
            observed = b_large.extras["per_index"][key] / val_small
            predicted = 4.0 ** (t / 2.0 - r)
            assert observed == pytest.approx(predicted, rel=0.05)

    def test_rejects_non_degenerate(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        with pytest.raises(PreconditionError):
            bound_degenerate_1d(SymmetricKernel(np.full((2, 2), 1.0)), mu, 20)

    def test_kappa_term_separated(self):
        rng = np.random.default_rng(63)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        b1, _ = bound_degenerate_1d(psi, mu, 36, KappaConfig({2: 4.0}))
        assert b1.terms["kappa"] == pytest.approx(KAPPA_COEF * math.sqrt(2 * 4.0 / 36))
        assert b1.extras["kappa_provenance"] == "user"


class TestCltConditionValues:
    def test_fixed_kernel_condition_constant(self):
        rng = np.random.default_rng(64)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        rows = clt_condition_values([(n, psi) for n in (10, 100, 1000)], mu)
        vals = [r["condition_i"] for r in rows]
        assert vals[0] > 0
        assert vals[0] == pytest.approx(vals[-1], rel=1e-12)

    def test_order_one_condition_is_empty_max(self):
        rng = np.random.default_rng(65)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 1, 3, mu)
        rows = clt_condition_values([(100, psi)], mu)
        assert rows[0]["condition_i"] == 0.0
        assert rows[0]["condition_ii"] > 0.0


class TestDominant:
    def test_degenerate_kernel_has_empty_remainder(self):
        rng = np.random.default_rng(66)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        rep = bound_dominant(psi, mu, 30)
        assert rep.extras["rank"] == 2
        assert rep.terms["residual"] == 0.0
        b1, b2 = bound_degenerate_1d(psi, mu, 30)
        assert rep.total == pytest.approx(min(b1.total, b2.total), rel=1e-12)

    def test_rank_one_remainder_power(self):
        rng = np.random.default_rng(67)
        mu = random_measure(rng, 3)
        f = rng.standard_normal(3)
        f -= float(f @ mu.weights)
        k = SymmetricKernel(f[:, None] + f[None, :])
        rep_a = bound_dominant(k, mu, 100)
        rep_b = bound_dominant(k, mu, 400)
        assert rep_a.extras["rank"] == 1
        # single remainder term at s = 2 decays like n^{-1/2}
        assert rep_b.terms["residual"] / rep_a.terms["residual"] == pytest.approx(0.5, rel=1e-9)

    def test_scale_invariance_and_remainder_bound(self):
        rng = np.random.default_rng(68)
        mu = random_measure(rng, 3)
        k = random_kernel(rng, 2, 3)
        rep = bound_dominant(k, mu, 50)
        for c in (0.5, 3.0):
            scaled = bound_dominant(k.scaled(c), mu, 50)
            assert scaled.total == pytest.approx(rep.total, rel=1e-9)
        assert rep.terms["residual"] <= rep.extras["remainder_kernel_free"] + 1e-12

    def test_zero_kernel_rejected(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        with pytest.raises(PreconditionError):
            bound_dominant(SymmetricKernel(np.zeros((2, 2))), mu, 10)


class TestAQuantities:
    def test_order_one_single_term(self):
        rng = np.random.default_rng(69)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 1, 3, mu)
        phi = random_degenerate(rng, 1, 3, mu)
        n = 25
        a1, a2 = contraction_aggregates(psi, phi, mu, n)
        expected = prefactor_ratio(n, 1, 1, 1, 1) * contract(psi, phi, 1, 0, mu).l2_norm
        assert a1 == pytest.approx(expected, rel=1e-12)
        assert a1 <= a2 + 1e-12

    def test_zero_kernel(self):
        rng = np.random.default_rng(70)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        zero = SymmetricKernel(np.zeros((3, 3)))
        a1, a2 = contraction_aggregates(psi, zero, mu, 10)
        assert a1 == 0.0 and a2 == 0.0

    def test_ordering_on_fifty_random_pairs(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            mu = random_measure(rng, m)
            pi = int(rng.integers(1, 4))
            pk = int(rng.integers(1, 4))
            psi = random_degenerate(rng, pi, m, mu)
            phi = random_degenerate(rng, pk, m, mu)
            a1, a2 = contraction_aggregates(psi, phi, mu, 10)
            assert a1 <= a2 + 1e-12


class TestMultivariate:
    def test_single_kernel_cross_check(self):
        rng = np.random.default_rng(72)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        n = 30
        rep = bound_multivariate([psi], mu, n, PROFILE, a_variant=1)
        # the cross-sum factor reduces to the degenerate-bound contraction sum
        a1, _ = contraction_aggregates(psi, psi, mu, n)
        b1, _ = bound_degenerate_1d(psi, mu, n)
        l2sq = lp_norm(psi, mu, 2.0) ** 2
        assert a1 / l2sq == pytest.approx(b1.terms["contraction"] / W1_COEF, rel=1e-9)
        assert rep.terms["cross_term"] == pytest.approx(
            PROFILE.hessian_hs(1) / (4 * 2) * 4 * a1 / l2sq, rel=1e-9
        )

    def test_zero_row_contributes_nothing(self):
        rng = np.random.default_rng(73)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 1, 3, mu)
        zero = SymmetricKernel(np.zeros((3,)))
        with_zero = bound_multivariate([psi, zero], mu, 20, PROFILE)
        alone = bound_multivariate([psi], mu, 20, PROFILE)
        # the zero row/column adds nothing; only the dimension constant differs
        ratio = PROFILE.hessian_hs(2) / PROFILE.hessian_hs(1)
        assert with_zero.terms["cross_term"] == pytest.approx(
            alone.terms["cross_term"] * ratio, rel=1e-9
        )

    def test_orthogonal_pair_covariance(self):
        rng = np.random.default_rng(74)
        mu = random_measure(rng, 4)
        a = rng.standard_normal(4)
        a -= float(a @ mu.weights)
        b = rng.standard_normal(4)
        b -= float(b @ mu.weights)
        # orthogonalize b against a in L2(mu)
        b -= a * (float((a * b) @ mu.weights) / float((a * a) @ mu.weights))
        ka, kb = SymmetricKernel(a), SymmetricKernel(b)
        rep = bound_multivariate([ka, kb], mu, 20, PROFILE, mode="C2")
        eig = rep.extras["covariance_eigenvalues"]
        sig = rep.extras["sigma"]
        assert min(eig) == pytest.approx(min(s * s for s in sig), rel=1e-9)
        assert math.isfinite(rep.total) and rep.total > 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(75)
        mu = random_measure(rng, 3)
        kernels = [random_degenerate(rng, 1, 3, mu), random_degenerate(rng, 2, 3, mu)]
        base = bound_multivariate(kernels, mu, 20, PROFILE)
        for c in (0.5, 3.0):
            scaled = bound_multivariate([k.scaled(c) for k in kernels], mu, 20, PROFILE)
            assert scaled.total == pytest.approx(base.total, rel=1e-9)

    def test_rejects_decreasing_orders(self):
        rng = np.random.default_rng(76)
        mu = random_measure(rng, 3)
        k2 = random_degenerate(rng, 2, 3, mu)
        k1 = random_degenerate(rng, 1, 3, mu)
        with pytest.raises(ParameterError):
            bound_multivariate([k2, k1], mu, 20, PROFILE)


class TestProjectionContractionBound:
    def test_full_integration_reduces_to_diagonal_set(self):
        rng = np.random.default_rng(77)
        mu = random_measure(rng, 3)
        hs = decompose(random_kernel(rng, 3, 3), mu)
        val = projection_contraction_bound(hs, mu, 2, 2, 2, 2)
        expected = max(
            contract(hs.g_kernel(2), hs.g_kernel(2), t, t, mu).l2_norm for t in range(3)
        )
        assert val == pytest.approx(expected, rel=1e-12)

    def test_tensor_product_case(self):
        rng = np.random.default_rng(78)
        mu = random_measure(rng, 3)
        hs = decompose(random_kernel(rng, 2, 3), mu)
        val = projection_contraction_bound(hs, mu, 1, 2, 0, 0)
        expected = lp_norm(hs.g_kernel(1), mu, 2.0) * lp_norm(hs.g_kernel(2), mu, 2.0)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_dominates_level_contractions_up_to_bounded_constant(self):
        rng = np.random.default_rng(79)
        ratios = []
        for _ in range(30):
            p = int(rng.integers(2, 4))
            m = int(rng.integers(2, 4))
            mu = random_measure(rng, m)
            hs = decompose(random_kernel(rng, p, m), mu)
            for i in range(1, p + 1):
                for k in range(i, p + 1):
                    for s in range(1, min(i, k) + 1):
                        for l in range(0, s + 1):
                            exact = contract(
                                hs.psi_kernel(i), hs.psi_kernel(k), s, l, mu
                            ).l2_norm
                            dom = projection_contraction_bound(hs, mu, i, k, s, l)
                            if dom <= 1e-12:
                                assert exact <= 1e-9
                            elif exact > 1e-12:
                                ratios.append(exact / dom)
        assert ratios and max(ratios) < 100.0


class TestConditionTrend:
    def test_shrinking_bandwidth_kernels_decrease_both_conditions(self):
        # proximity-indicator kernels on a binned line with shrinking width
        # emulate a shrinking-radius edge count; both condition values must
        # fall along the sequence
        m = 16
        mu = DiscreteMeasure(np.full(m, 1.0 / m))
        seq = []
        for n, width in ((100, 6), (1000, 3), (10000, 1)):
            idx = np.arange(m)
            raw = (np.abs(idx[:, None] - idx[None, :]) <= width).astype(float)
            top = decompose(SymmetricKernel(raw), mu).psi[2]
            seq.append((n, SymmetricKernel(top)))
        rows = clt_condition_values(seq, mu)
        for key in ("condition_i", "condition_ii"):
            vals = [r[key] for r in rows]
            assert vals[0] > vals[1] > vals[2]


class TestL4Chain:
    def test_level_l4_norm_dominated_by_projection_contractions(self):
        # the squared L4 norm of each level kernel is one of its own
        # self-contractions; the projection-based maximum must dominate it up
        # to a bounded factor across random instances
        rng = np.random.default_rng(86)
        ratios = []
        for _ in range(30):
            p = int(rng.integers(2, 4))
            m = int(rng.integers(2, 4))
            mu = random_measure(rng, m)
            hs = decompose(random_kernel(rng, p, m), mu)
            for i in range(1, p + 1):
                level = hs.psi_kernel(i)
                exact = lp_norm(level, mu, 4.0) ** 2
                dom = max(
                    contract(hs.g_kernel(i), hs.g_kernel(i), r, 0, mu).l2_norm
                    for r in range(0, i + 1)
                )
                if dom <= 1e-12:
                    assert exact <= 1e-9
                elif exact > 1e-12:
                    ratios.append(exact / dom)
        assert ratios and max(ratios) < 100.0


class TestBoundGeneral:
    def test_level_norms_normalized(self):
        rng = np.random.default_rng(80)
        mu = random_measure(rng, 3)
        k = SymmetricKernel(random_kernel(rng, 2, 3).values + 0.4)
        rep = bound_general(k, mu, 40, PROFILE)
        norms = rep.extras["level_norms"]
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in norms)
        assert sum(v * v for v in norms) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_input_occupies_top_cell_only(self):
        rng = np.random.default_rng(81)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        rep = bound_general(psi, mu, 30, PROFILE)
        norms = rep.extras["level_norms"]
        assert norms[0] == pytest.approx(0.0, abs=1e-9)
        assert norms[1] == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(82)
        mu = random_measure(rng, 3)
        k = SymmetricKernel(random_kernel(rng, 2, 3).values + 0.2)
        base = bound_general(k, mu, 30, PROFILE)
        for c in (0.5, 3.0):
            rep = bound_general(k.scaled(c), mu, 30, PROFILE)
            assert rep.total == pytest.approx(base.total, rel=1e-9)

    def test_contraction_terms_decay_with_n(self):
        rng = np.random.default_rng(83)
        mu = random_measure(rng, 3)
        k = SymmetricKernel(random_kernel(rng, 2, 3).values + 0.3)
        small = bound_general(k, mu, 50, PROFILE)
        large = bound_general(k, mu, 200, PROFILE)
        assert math.isfinite(small.total)
        assert large.terms["second_order"] < small.terms["second_order"]

    def test_envelope_variant_runs(self):
        rng = np.random.default_rng(84)
        mu = random_measure(rng, 3)
        k = SymmetricKernel(random_kernel(rng, 2, 3).values + 0.3)
        rep = bound_general(k, mu, 50, PROFILE, variant="B'")
        assert math.isfinite(rep.total) and rep.total > 0

    def test_zero_variance_rejected(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        with pytest.raises(PreconditionError):
            bound_general(SymmetricKernel(np.full((2, 2), 2.0)), mu, 20, PROFILE)

    @pytest.mark.parametrize("n", [10**6, 10**8])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_large_n_keeps_the_unit_square_sum(self, p, n):
        # the normalized level norms hold their 1e-9 contract at large n only
        # when the finite-n binomials are exact
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 3)
        k = random_kernel(rng, p, 3)
        rep = bound_general(k, mu, n, PROFILE)
        assert sum(v * v for v in rep.extras["level_norms"]) == pytest.approx(1.0, abs=1e-9)
        assert math.isfinite(rep.total)


class TestOrderDominance:
    def test_total_tracks_the_leading_order_terms(self):
        # spike family: the ratio of the assembled total to the largest of the
        # three pure order quantities must stay within a fixed factor across n
        rng = np.random.default_rng(85)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        l2 = lp_norm(psi, mu, 2.0)
        l4 = lp_norm(psi, mu, 4.0)
        diag = max(
            contract(psi, psi, s, s, mu).l2_norm / l2**2 for s in range(1, psi.order)
        )
        ratios = []
        for n in (50, 200, 800, 3200):
            _, b2 = bound_degenerate_1d(psi, mu, n)
            pure = max(l4**2 / (math.sqrt(n) * l2**2), diag, 1.0 / math.sqrt(n))
            ratios.append(b2.total / pure)
        assert max(ratios) <= 3.0 * min(ratios)


class TestOneDecompositionPerCall:
    @pytest.fixture
    def decompose_calls(self, monkeypatch):
        calls = []
        real = hoeffding.decompose

        def counting(*args, **kwargs):
            calls.append(args[0].order)
            return real(*args, **kwargs)

        for module in (hoeffding, bounds):
            monkeypatch.setattr(module, "decompose", counting)
        return calls

    def test_bound_general(self, decompose_calls):
        rng = np.random.default_rng(90)
        mu = random_measure(rng, 3)
        bound_general(random_kernel(rng, 3, 3), mu, 20, PROFILE)
        assert len(decompose_calls) == 1

    def test_bound_dominant(self, decompose_calls):
        rng = np.random.default_rng(91)
        mu = random_measure(rng, 3)
        bound_dominant(random_kernel(rng, 3, 3), mu, 20)
        assert len(decompose_calls) == 1
