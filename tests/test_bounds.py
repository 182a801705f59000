import math
import statistics

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy import special

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
    contract,
    decompose,
    lp_norm,
    variance,
)
from ustatkit import product
from ustatkit.bounds import KAPPA_COEF, W1_COEF
from ustatkit.errors import CapacityError, ParameterError, PreconditionError
from ustatkit.product import prefactor_ratio

from helpers import exact_law, joint_exact_law, random_degenerate, random_kernel, random_measure

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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ParameterError, match="kappa_1"):
            KappaConfig({1: value})


class TestProfile:
    def test_hessian_default(self):
        assert PROFILE.hessian_hs(4) == pytest.approx(2.0)

    def test_hessian_override(self):
        p = TestFunctionProfile(m2=1.0, m2_tilde=1.3)
        assert p.hessian_hs(9) == pytest.approx(1.3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name", ["m1", "m2", "m3", "m2_tilde"])
    def test_rejects_non_finite_or_negative(self, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            TestFunctionProfile(**{name: value})


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

    @pytest.mark.parametrize(("p", "n"), [(2, 10**200), (3, 10**80)],
                             ids=["p2-n1e200", "p3-n1e80"])
    def test_large_n_keeps_every_term(self, p, n):
        # b1 tends to a constant in n; at these n a prefactor rounded through a
        # float below the normal range reads 0 and drops its term
        rng = np.random.default_rng(p)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, p, 3, mu)
        b1, _ = bound_degenerate_1d(psi, mu, n)
        ref, _ = bound_degenerate_1d(psi, mu, 10**120)
        assert b1.total == pytest.approx(ref.total, rel=1e-12)

    @pytest.mark.parametrize("n", [10**120, 10**200, 10**400], ids=["n1e120", "n1e200", "n1e400"])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_huge_n_is_finite_or_a_capacity_error(self, p, n):
        # b1 and b2 tend to constants in n and the dominant bound decays; a
        # binomial past the float range raised a bare OverflowError, and an n
        # past it is refused
        rng = np.random.default_rng(p)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, p, 3, mu)
        kernel = random_kernel(rng, p, 3)
        if n > 10**308:
            with pytest.raises(CapacityError, match="past the float range"):
                bound_degenerate_1d(psi, mu, n)
            with pytest.raises(CapacityError, match="past the float range"):
                bound_dominant(kernel, mu, n)
            return
        b1, b2 = bound_degenerate_1d(psi, mu, n)
        ref, _ = bound_degenerate_1d(psi, mu, 10**80)
        assert b1.total == pytest.approx(ref.total, rel=1e-12)
        assert math.isfinite(b2.total) and b2.total >= b1.total * (1.0 - 1e-12)
        assert 0.0 < bound_dominant(kernel, mu, n).total < 1e-50

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

    def test_rank_one_reports_b1(self):
        # at rank 1 b1's contraction term and b2's fourth-moment term coincide
        rng = np.random.default_rng(70)
        for i in range(40):
            p, m = 1 + i % 4, 2 + i % 3
            mu = random_measure(rng, m)
            k = random_kernel(rng, p, m)
            rep = bound_dominant(k, mu, 2 * p + 6)
            assert rep.extras["rank"] == 1
            centred = SymmetricKernel(k.values - float(decompose(k, mu).g[0]))
            hs = decompose(k.scaled(1.0 / lp_norm(centred, mu, 2.0)), mu)
            b1, b2 = bound_degenerate_1d(hs.psi_kernel(1), mu, 2 * p + 6)
            assert {key: v for key, v in rep.terms.items() if key != "residual"} == b1.terms
            assert b1.total == pytest.approx(b2.total, rel=1e-12)
            assert rep.total == pytest.approx(min(b1.total, b2.total) + rep.terms["residual"],
                                              rel=1e-12)

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

    @pytest.mark.parametrize("pi,pk", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_a2_and_b2_match_the_enumerated_split(self, pi, pk):
        rng = np.random.default_rng(77 + 10 * pi + pk)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, pi, 3, mu)
        phi = random_degenerate(rng, pk, 3, mu)
        l4 = lp_norm(psi, mu, 4.0)
        for n in (2 * pk, 50, 10**5):
            diag, rest = _diagonal_split(psi, phi, mu, n)
            _, a2 = contraction_aggregates(psi, phi, mu, n)
            assert a2 == pytest.approx(diag + l4 * lp_norm(phi, mu, 4.0) * rest, rel=1e-12)
            if pi == pk:
                diag, rest = _diagonal_split(psi, psi, mu, n)
                l2sq = lp_norm(psi, mu, 2.0) ** 2
                _, b2 = bound_degenerate_1d(psi, mu, n)
                assert b2.terms["contraction"] == pytest.approx(
                    W1_COEF * diag / l2sq, rel=1e-12)
                assert b2.terms["fourth_moment"] == pytest.approx(
                    W1_COEF * l4**2 / l2sq * rest, rel=1e-12)


def _diagonal_split(psi, phi, mu, n):
    """Diagonal contraction terms (t = 2r) and the ratios of the other
    admissible (t, r), summed over the enumerated index set."""
    p, q = psi.order, phi.order
    diag = rest = 0.0
    for t in range(1, p + q):
        for r in range(math.ceil(t / 2), min(t, p, q) + 1):
            ratio = prefactor_ratio(n, p, q, t, r)
            if t == 2 * r:
                diag += ratio * contract(psi, phi, r, r, mu).l2_norm
            else:
                rest += ratio
    return diag, rest


class TestMultivariate:
    def test_single_kernel_cross_check(self):
        rng = np.random.default_rng(72)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        n = 30
        rep = bound_multivariate([psi], mu, n, PROFILE)
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

    @pytest.mark.parametrize("general_first", [True, False])
    def test_rejects_a_non_degenerate_kernel(self, general_first):
        rng = np.random.default_rng(79)
        mu = random_measure(rng, 3)
        deg = random_degenerate(rng, 2, 3, mu)
        general = random_kernel(rng, 2, 3)
        kernels = [general, deg] if general_first else [deg, general]
        with pytest.raises(PreconditionError, match="require degenerate kernels"):
            bound_multivariate(kernels, mu, 20, PROFILE)


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
                g = SymmetricKernel(hs.g[i])
                dom = max(contract(g, g, r, 0, mu).l2_norm for r in range(0, i + 1))
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

    def test_scale_invariance_of_large_kernels(self):
        # the degeneracy tests scale with the kernel's largest value, so a
        # large kernel is not refused for the round-off of its own size
        k = random_kernel(np.random.default_rng(3), 3, 3)
        mu = DiscreteMeasure(np.full(3, 1.0 / 3.0))
        for variant in ("B", "B'"):
            base = bound_general(k, mu, 30, PROFILE, variant=variant).total
            for c in (1e4, 1e6, 1e8, 1e10, 1e12):
                rep = bound_general(k.scaled(c), mu, 30, PROFILE, variant=variant)
                assert rep.total == pytest.approx(base, rel=1e-14)
        top = SymmetricKernel(decompose(k, mu).psi[3])
        b1 = bound_degenerate_1d(top, mu, 30)[0].total
        for c in (1e6, 1e10):
            assert bound_degenerate_1d(top.scaled(c), mu, 30)[0].total == pytest.approx(
                b1, rel=1e-14)

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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_degenerate_input_reduces_to_the_one_dimensional_aggregate(self, p):
        # one active level: the only cell is min(A1, A2) of the kernel with
        # itself over its squared norm, which the degenerate bounds also read
        rng = np.random.default_rng(87 + p)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, p, 3, mu)
        rep = bound_general(psi, mu, 30, PROFILE)
        b1, b2 = bound_degenerate_1d(psi, mu, 30)
        a = min(b1.terms["contraction"],
                b2.terms["contraction"] + b2.terms["fourth_moment"]) / W1_COEF
        assert rep.terms["second_order"] == pytest.approx(
            math.sqrt(p) / 4.0 * 2 * p * a, rel=1e-12)
        assert rep.terms["third_order"] == pytest.approx(
            2.0 * math.sqrt(p) / 9.0 * p * a, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_is_the_c3_vector_bound_of_the_normalized_levels(self, p):
        # general-B is `bound_multivariate` in mode C3 on the levels psi_s
        # scaled by sqrt(C(n, s)) C(n - s, p - s) / sigma, whose unit total
        # variance makes its own rescaling a round-off change
        rng = np.random.default_rng(100 + p)
        mu = random_measure(rng, 3)
        k = random_kernel(rng, p, 3)
        hs = decompose(k, mu)
        profile = TestFunctionProfile(m1=0.7, m2=1.3, m3=0.4)
        kappa = KappaConfig({1: 2.0, 3: 0.5})
        for n in (2 * p, 30, 10**4, 10**6):
            sigma = math.sqrt(variance(hs, n)[0])
            levels = [hs.psi_kernel(s).scaled(
                math.sqrt(math.comb(n, s)) * math.comb(n - s, p - s) / sigma)
                for s in range(1, p + 1)]
            general = bound_general(k, mu, n, profile, kappa)
            vector = bound_multivariate(levels, mu, n, profile, kappa, mode="C3")
            for ours, theirs in (("second_order", "cross_term"),
                                 ("third_order", "diagonal_term"), ("kappa", "kappa")):
                assert general.terms[ours] == pytest.approx(vector.terms[theirs], rel=1e-12)
            assert general.extras["kappa_provenance"] == vector.extras["kappa_provenance"]

    @pytest.mark.parametrize("variant", ["B", "B'"])
    def test_ignores_the_hessian_hs_norm(self, variant):
        # a one-dimensional test function has no Hessian HS norm to read
        rng = np.random.default_rng(105)
        mu = random_measure(rng, 3)
        k = random_kernel(rng, 3, 3)
        base = bound_general(k, mu, 30, PROFILE, variant=variant)
        tilde = TestFunctionProfile(m1=1.0, m2=1.0, m3=1.0, m2_tilde=7.0)
        assert bound_general(k, mu, 30, tilde, variant=variant) == base


class TestExactLaw:
    @pytest.mark.parametrize("n", [12, 20])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_general_bounds_dominate_the_smooth_gap(self, p, n):
        # |E h(W) - E h(Z)| for h = sin and cos (profile (1, 1, 1)) under the
        # exact law of the standardized statistic W
        rng = np.random.default_rng(10 * p + n)
        mu = random_measure(rng, 3)
        k = random_kernel(rng, p, 3)
        atoms, weights = exact_law(k, mu, n)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        mean = float(weights @ atoms)
        var = float(weights @ (atoms - mean) ** 2)
        assert mean == pytest.approx(math.comb(n, p) * float(decompose(k, mu).g[0]),
                                     rel=1e-9, abs=1e-9)
        assert var == pytest.approx(variance(decompose(k, mu), n)[0], rel=1e-9)
        w = (atoms - mean) / math.sqrt(var)
        gap = max(abs(float(weights @ np.sin(w))),
                  abs(float(weights @ np.cos(w)) - math.exp(-0.5)))
        for variant in ("B", "B'"):
            assert bound_general(k, mu, n, PROFILE, variant=variant).total >= gap

    @pytest.mark.parametrize("n", [12, 20])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_wasserstein_bounds_dominate_the_exact_distance(self, p, n):
        # b1, b2 and the dominant-level bound against W1(law of W, N(0, 1)) for
        # the standardized statistic W under its exact law
        rng = np.random.default_rng(100 + 10 * p + n)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, p, 3, mu)
        b1, b2 = bound_degenerate_1d(psi, mu, n)
        w1 = _w1_to_normal(*_standardized_law(psi, mu, n))
        assert b1.total >= w1 and b2.total >= w1
        k = random_kernel(rng, p, 3)
        assert bound_dominant(k, mu, n).total >= _w1_to_normal(*_standardized_law(k, mu, n))

    @pytest.mark.parametrize("law", ["two-point", "exact"])
    def test_exact_distance_matches_quadrature(self, law):
        # a midpoint sum of |F - Phi| with step 1e-5 errs by at most 1e-5 per unit jump
        if law == "two-point":
            atoms, weights = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
        else:
            rng = np.random.default_rng(130)
            mu = random_measure(rng, 3)
            atoms, weights = _standardized_law(random_degenerate(rng, 2, 3, mu), mu, 12)
        h = 1e-5
        x = np.arange(-15.0, 15.0, h) + 0.5 * h
        order = np.argsort(atoms)
        cdf = np.r_[0.0, np.cumsum(weights[order])][
            np.searchsorted(atoms[order], x, side="right")]
        quad = float(np.abs(cdf - special.ndtr(x)).sum() * h)
        assert _w1_to_normal(atoms, weights) == pytest.approx(quad, abs=2e-5)

    @pytest.mark.parametrize("n", [12, 20])
    @pytest.mark.parametrize("orders", [(1, 2), (2, 2), (2, 3)], ids=["1-2", "2-2", "2-3"])
    def test_multivariate_bounds_dominate_the_smooth_gap(self, orders, n):
        # |E h(W) - E h(Sigma^(1/2) Z)| for h = sin(a . x) and cos(a . x) with
        # |a| = 1 (profile (1, 1, 1)), W = (J_a / sqrt C(n, p_a), J_b / sqrt C(n, p_b))
        # rescaled by the recorded factor, under the joint exact law
        rng = np.random.default_rng(200 + 10 * orders[0] + orders[1] + n)
        mu = random_measure(rng, 3)
        kernels = [random_degenerate(rng, p, 3, mu) for p in orders]
        atoms, weights = joint_exact_law(kernels, mu, n)
        # E h(Sigma^(1/2) Z) by a 30 x 30 Gauss-Hermite product rule
        x, gw = hermegauss(30)
        z = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        zw = np.outer(gw, gw).ravel() / gw.sum() ** 2
        for mode in ("C3", "C2"):
            rep = bound_multivariate(kernels, mu, n, PROFILE, mode=mode)
            w = atoms / np.sqrt([math.comb(n, p) for p in orders]) * rep.extras["applied_scale"]
            assert np.abs(weights @ w).max() == pytest.approx(0.0, abs=1e-12)
            cov = (w * weights[:, None]).T @ w
            lam, vec = np.linalg.eigh(cov)
            assert lam.tolist() == pytest.approx(rep.extras["covariance_eigenvalues"], abs=1e-12)
            y = z @ (vec * np.sqrt(lam)).T
            gap = 0.0
            for a in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.6, -0.8]):
                assert zw @ np.cos(y @ a) == pytest.approx(math.exp(-0.5 * (a @ cov @ a)),
                                                           abs=1e-12)
                gap = max(gap, *(abs(weights @ h(w @ a) - zw @ h(y @ a))
                                 for h in (np.sin, np.cos)))
            assert rep.total >= gap > 0


def _standardized_law(kernel, mu, n):
    atoms, weights = exact_law(kernel, mu, n)
    mean = float(weights @ atoms)
    return (atoms - mean) / math.sqrt(float(weights @ (atoms - mean) ** 2)), weights


def _w1_to_normal(atoms, weights):
    """W1 between a finite law and N(0, 1) as the integral of |F - Phi|, in closed form.

    F is constant (c) between consecutive atoms, and there the antiderivative
    of Phi - c is x Phi(x) + phi(x) - c x, so each piece is split where Phi
    crosses c and summed in absolute value.
    """
    order = np.argsort(atoms)
    z = atoms[order].tolist()
    cum = np.cumsum(weights[order]).tolist()
    normal = statistics.NormalDist()

    def anti(x, c):
        return x * normal.cdf(x) + normal.pdf(x) - c * x

    # the tails: F = 0 below the first atom, F = 1 above the last
    total = anti(z[0], 0.0) + anti(-z[-1], 0.0)
    for a, b, c in zip(z, z[1:], cum):
        c = min(c, 1.0)
        cuts = [a, b]
        if 0.0 < c < 1.0 and a < normal.inv_cdf(c) < b:
            cuts.insert(1, normal.inv_cdf(c))
        total += sum(abs(anti(v, c) - anti(u, c)) for u, v in zip(cuts, cuts[1:]))
    return total


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


class TestOneRatioPerTerm:
    def test_bound_general(self, record_calls):
        # one prefactor ratio per admissible (t, r) of each level pair (i, k)
        calls = record_calls(product, "prefactor_ratio")
        rng = np.random.default_rng(92)
        mu = random_measure(rng, 3)
        n = 20
        bound_general(random_kernel(rng, 3, 3), mu, n, PROFILE, variant="B")
        admissible = [(n, i, k, t, r) for i in range(1, 4) for k in range(i, 4)
                      for t in range(1, i + k)
                      for r in range(math.ceil(t / 2), min(t, i, k) + 1)]
        assert sorted(calls) == sorted(admissible)
