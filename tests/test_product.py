import math

import numpy as np
import pytest

from ustatkit import (
    DiscreteMeasure,
    SymmetricKernel,
    lp_norm,
    product_kernels,
    prefactor_ratio,
    verify_product_formula,
)
from ustatkit.core import is_degenerate, tensor_inner
from ustatkit.errors import ParameterError, PreconditionError
from ustatkit.product import binom, multinomial
from helpers import exhaustive_mean, random_degenerate, random_measure, ustat_direct

HALF = DiscreteMeasure(np.array([0.5, 0.5]))


class TestProductKernels:
    def test_requires_degenerate_inputs(self):
        k = SymmetricKernel(np.full((2, 2), 1.0))
        with pytest.raises(PreconditionError):
            product_kernels(k, k, 6, HALF)

    def test_requires_large_enough_sample(self):
        rng = np.random.default_rng(40)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        with pytest.raises(ParameterError):
            product_kernels(psi, psi, 3, mu)

    def test_zero_kernels_give_zero(self):
        z = SymmetricKernel(np.zeros((3, 3)))
        rng = np.random.default_rng(41)
        mu = random_measure(rng, 3)
        pk = product_kernels(z, z, 6, mu)
        for level in pk.levels:
            if isinstance(level, float):
                assert level == 0.0
            else:
                assert np.allclose(level.values, 0.0)

    def test_constant_term_matches_product_mean(self):
        rng = np.random.default_rng(42)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        phi = random_degenerate(rng, 2, 3, mu)
        n = 5
        pk = product_kernels(psi, phi, n, mu)
        oracle = exhaustive_mean(
            lambda x: ustat_direct(psi, x) * ustat_direct(phi, x), 3, n, mu
        )
        assert pk.levels[4] == pytest.approx(oracle, abs=1e-9)
        # and it equals the binomially weighted kernel inner product
        expected = math.comb(n, 2) * tensor_inner(psi.values, phi.values, mu)
        assert pk.levels[4] == pytest.approx(expected, rel=1e-9)

    def test_every_level_is_degenerate(self):
        rng = np.random.default_rng(43)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        phi = random_degenerate(rng, 1, 3, mu)
        pk = product_kernels(psi, phi, 6, mu)
        for level in pk.levels:
            if not isinstance(level, float):
                assert is_degenerate(level, mu)

    def test_unequal_orders_have_zero_product_mean(self):
        # no order-0 level exists when p != q, and the exhaustive product mean
        # vanishes by orthogonality of degenerate statistics
        rng = np.random.default_rng(52)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 1, 3, mu)
        phi = random_degenerate(rng, 2, 3, mu)
        n = 4
        pk = product_kernels(psi, phi, n, mu)
        assert all(not isinstance(level, float) for level in pk.levels)
        oracle = exhaustive_mean(
            lambda x: ustat_direct(psi, x) * ustat_direct(phi, x), 3, n, mu
        )
        assert abs(oracle) <= 1e-9

    def test_order_one_pair_hand_expansion(self):
        rng = np.random.default_rng(44)
        mu = random_measure(rng, 2)
        psi = random_degenerate(rng, 1, 2, mu)
        phi = random_degenerate(rng, 1, 2, mu)
        for n in (2, 3):
            pk = product_kernels(psi, phi, n, mu)
            ip = tensor_inner(psi.values, phi.values, mu)
            assert pk.levels[2] == pytest.approx(n * ip, rel=1e-9, abs=1e-12)
            expected_level1 = psi.values * phi.values - ip
            assert np.allclose(pk.levels[1].values, expected_level1, atol=1e-12)


class TestOneDecompositionPerLevel:
    def test_product_kernels(self, decompose_calls):
        rng = np.random.default_rng(44)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        phi = random_degenerate(rng, 2, 3, mu)
        decompose_calls.clear()
        product_kernels(psi, phi, 6, mu)
        # levels t = 0..3 have orders 4..1, one decomposition each whatever
        # their number of overlaps r; the order-0 level t = 4 is a float
        assert decompose_calls == [4, 3, 2, 1]

    @pytest.mark.parametrize("n", [10**6, 10**9])
    def test_large_prefactors_pass_the_degeneracy_checks(self, n):
        # the level sums carry binomial prefactors up to C(n - 2, 2), while
        # the degeneracy checks of `decompose` are absolute below magnitude 1
        rng = np.random.default_rng(46)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 3, 3, mu)
        phi = random_degenerate(rng, 3, 3, mu)
        pk = product_kernels(psi, phi, n, mu)
        for level in pk.levels[:-1]:
            assert is_degenerate(level.scaled(1.0 / np.max(np.abs(level.values))), mu)


class TestVerifyProductFormula:
    def test_order_one_pair_exhaustive(self):
        rng = np.random.default_rng(45)
        mu = random_measure(rng, 2)
        psi = random_degenerate(rng, 1, 2, mu)
        phi = random_degenerate(rng, 1, 2, mu)
        assert verify_product_formula(product_kernels(psi, phi, 2, mu)) <= 1e-12

    def test_order_two_pair_exhaustive(self):
        rng = np.random.default_rng(46)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        phi = random_degenerate(rng, 2, 3, mu)
        assert verify_product_formula(product_kernels(psi, phi, 4, mu)) <= 1e-8

    def test_zero_kernel_residual_is_zero(self):
        z = SymmetricKernel(np.zeros((2, 2)))
        assert verify_product_formula(product_kernels(z, z, 4, HALF)) == 0.0

    def test_residual_scales_with_magnitude(self):
        rng = np.random.default_rng(47)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        phi = random_degenerate(rng, 2, 3, mu)
        base = verify_product_formula(product_kernels(psi, phi, 4, mu))
        big = verify_product_formula(product_kernels(psi.scaled(10.0), phi.scaled(10.0), 4, mu))
        scale = 1.0 + lp_norm(psi.scaled(10.0), mu, 2.0) * lp_norm(phi.scaled(10.0), mu, 2.0)
        assert big <= 1e-8 * scale
        assert base <= 1e-8

    def test_monte_carlo_mode(self):
        rng = np.random.default_rng(48)
        mu = random_measure(rng, 4)
        psi = random_degenerate(rng, 2, 4, mu)
        # 4^12 states exceed the cap; sampling mode must be requested
        from ustatkit.errors import CapacityError
        with pytest.raises(CapacityError):
            verify_product_formula(product_kernels(psi, psi, 12, mu))
        assert verify_product_formula(product_kernels(psi, psi, 12, mu), mc=200, seed=1) <= 1e-8

    @pytest.mark.parametrize("mc", [0, -3])
    def test_needs_a_sampled_count_vector(self, mc):
        # mc = 0 checked nothing and reported a zero residual
        rng = np.random.default_rng(48)
        mu = random_measure(rng, 4)
        psi = random_degenerate(rng, 2, 4, mu)
        with pytest.raises(ParameterError, match="mc"):
            verify_product_formula(product_kernels(psi, psi, 12, mu), mc=mc, seed=1)


class TestPrefactorRatio:
    def test_hand_example(self):
        assert prefactor_ratio(2, 1, 1, 1, 1) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_positive(self):
        rng = np.random.default_rng(49)
        for _ in range(50):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            t = int(rng.integers(1, p + q))
            lo, hi = (t + 1) // 2, min(t, p, q)
            if lo > hi:
                continue
            r = int(rng.integers(lo, hi + 1))
            n = int(rng.integers(p + q, 60))
            assert prefactor_ratio(n, p, q, t, r) > 0.0

    def test_normalized_sequence_bounded_and_monotone(self):
        vals = [prefactor_ratio(n, 2, 2, 2, 2) * n for n in (4, 8, 16, 64, 256, 1024, 10000)]
        assert all(v > 0 for v in vals)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))  # decreasing
        assert all(math.sqrt(2.0) - 1e-9 <= v <= 2.0 for v in vals)

    def test_large_n_matches_exact_rationals(self):
        # the squared prefactor is a rational number; compare against it exactly.
        # The next three cases have a fraction under the root below the normal
        # float range, which a plain conversion rounds to 0; in the last three
        # C(n + t - p - q, t - r) is too large to convert to a float
        from fractions import Fraction
        cases = [(n, pqtr) for n in (10**4, 10**6, 10**8)
                 for pqtr in ((2, 2, 3, 2), (3, 2, 2, 1), (3, 3, 4, 2))]
        cases += [(10**200, (4, 4, 2, 1)), (10**80, (4, 4, 7, 4)), (10**400, (2, 2, 1, 1))]
        cases += [(10**120, (4, 4, 7, 4)), (10**200, (3, 3, 5, 3)), (10**400, (4, 4, 6, 3))]
        for n, (p, q, t, r) in cases:
            exact_sq = Fraction(
                math.comb(n, p + q - t) * (math.comb(n + t - p - q, t - r)
                                           * math.factorial(p + q - t)) ** 2,
                math.comb(n, p) * math.comb(n, q)
                * (math.factorial(p - r) * math.factorial(q - r)
                   * math.factorial(2 * r - t)) ** 2,
            )
            val = prefactor_ratio(n, p, q, t, r)
            assert Fraction(val) ** 2 / exact_sq == pytest.approx(1.0, rel=1e-14)
        for n in (10**4, 10**6, 10**8):
            assert binom(n, 3) == float(math.comb(n, 3))
            assert multinomial(n, (n - 3, 2, 1)) == float(math.comb(n, 3) * 3)

    def test_rejects_bad_indices(self):
        with pytest.raises(ParameterError):
            prefactor_ratio(10, 2, 2, 0, 0)
        with pytest.raises(ParameterError):
            prefactor_ratio(3, 2, 2, 2, 2)  # n < p + q
