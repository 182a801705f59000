import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ustatkit import (
    DiscreteMeasure,
    SymmetricKernel,
    compute_g,
    decompose,
    hoeffding_rank,
    lp_norm,
    reconstruct_check,
    ustat_value,
    variance,
)
from ustatkit.errors import ParameterError
from ustatkit.hoeffding import hoeffding_sum, ustat_values_from_count_matrix

from helpers import (
    all_samples,
    exhaustive_mean,
    exhaustive_variance,
    random_degenerate,
    random_kernel,
    random_measure,
    ustat_direct,
)

HALF = DiscreteMeasure(np.array([0.5, 0.5]))
IDENT = SymmetricKernel(np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestComputeG:
    def test_top_level_is_the_kernel(self):
        assert np.array_equal(compute_g(IDENT, HALF, 2), IDENT.values)

    def test_level_zero_is_the_mean(self):
        assert float(compute_g(IDENT, HALF, 0)) == pytest.approx(0.5)

    def test_hand_example(self):
        assert np.allclose(compute_g(IDENT, HALF, 1), [0.5, 0.5])

    def test_rejects_bad_level(self):
        with pytest.raises(ParameterError):
            compute_g(IDENT, HALF, 3)


class TestDecompose:
    def test_hand_example(self):
        hs = decompose(IDENT, HALF)
        assert float(hs.psi[0]) == pytest.approx(0.5)
        assert np.allclose(hs.psi[1], [0.0, 0.0])
        assert np.allclose(hs.psi[2], [[0.5, -0.5], [-0.5, 0.5]])

    def test_degenerate_kernel_is_its_own_top_level(self):
        rng = np.random.default_rng(10)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        hs = decompose(psi, mu)
        assert abs(float(hs.psi[0])) <= 1e-12
        assert np.allclose(hs.psi[1], 0.0, atol=1e-12)
        assert np.allclose(hs.psi[2], psi.values, atol=1e-12)

    def test_constant_kernel(self):
        c = SymmetricKernel(np.full((2, 2), 3.25))
        hs = decompose(c, HALF)
        assert float(hs.psi[0]) == pytest.approx(3.25)
        assert np.allclose(hs.psi[1], 0.0, atol=1e-12)
        assert np.allclose(hs.psi[2], 0.0, atol=1e-12)

    def test_levels_are_degenerate_and_constructions_agree(self):
        # decompose() itself raises if either internal cross-check fails;
        # run it over a spread of random instances
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(2, 4))
            mu = random_measure(rng, m)
            decompose(random_kernel(rng, p, m), mu)


class TestUstatValue:
    def test_order_one_counts(self):
        k = SymmetricKernel(np.array([2.0, -3.0]))
        x = [0, 1, 0, 0, 1]
        assert ustat_value(k, x) == pytest.approx(3 * 2.0 + 2 * (-3.0))

    def test_full_order_single_term(self):
        x = [0, 1]
        assert ustat_value(IDENT, x) == pytest.approx(0.0)
        assert ustat_value(IDENT, [1, 1]) == pytest.approx(1.0)

    def test_hand_example(self):
        assert ustat_value(IDENT, [0, 1, 0]) == pytest.approx(1.0)

    def test_order_zero_constant_is_zero(self):
        assert ustat_value(2.5, []) == 0.0

    def test_too_short_sample(self):
        with pytest.raises(ParameterError):
            ustat_value(IDENT, [0])

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(2, 4))
            n = int(rng.integers(p, 7))
            k = random_kernel(rng, p, m)
            x = rng.integers(0, m, size=n)
            assert ustat_value(k, x) == pytest.approx(ustat_direct(k, list(x)), abs=1e-9)


class TestCountEvaluator:
    def test_count_matrix_matches_direct_sums(self):
        # every sample of a small space as one row, with rows of zeros mixed in
        rng = np.random.default_rng(40)
        for p, m, n in ((1, 3, 4), (2, 3, 4), (3, 3, 5), (4, 2, 6)):
            k = random_kernel(rng, p, m)
            samples = list(all_samples(m, n))
            rows = [np.bincount(np.asarray(x), minlength=m) for x in samples]
            zero = np.zeros(m, dtype=int)
            counts = np.array([zero] + rows[: len(rows) // 2] + [zero] + rows[len(rows) // 2:])
            want = [ustat_direct(k, x) for x in samples]
            want = [0.0] + want[: len(want) // 2] + [0.0] + want[len(want) // 2:]
            got = ustat_values_from_count_matrix(k.values, counts)
            assert got.shape == (len(want),)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_large_n_matches_exact_rational_sum(self):
        # n = 10^4, order 4: falling factorials pass 2**53, so the float
        # binomials round; the sum must still match the exact one closely
        rng = np.random.default_rng(41)
        m, n = 3, 10**4
        k = random_kernel(rng, 4, m)
        counts = np.vstack([rng.multinomial(n, [0.2, 0.3, 0.5], size=4),
                            [[n, 0, 0], [0, n - 1, 1]]])
        got = ustat_values_from_count_matrix(k.values, counts)
        for row, value in zip(counts, got):
            terms = []
            for combo in itertools.combinations_with_replacement(range(m), 4):
                weight = 1
                for sym in set(combo):
                    weight *= math.comb(int(row[sym]), combo.count(sym))
                terms.append(Fraction(float(k.values[combo])) * weight)
            exact = sum(terms)
            scale = float(sum(abs(t) for t in terms))
            assert abs(Fraction(float(value)) - exact) <= Fraction(1e-12) * Fraction(scale)


class TestReconstruction:
    def test_degenerate_kernel_reconstructs(self):
        rng = np.random.default_rng(13)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 2, 3, mu)
        x = rng.integers(0, 3, size=5)
        assert reconstruct_check(psi, mu, x) <= 1e-9

    def test_constant_kernel_at_minimal_sample(self):
        c = SymmetricKernel(np.full((2, 2), 4.0))
        assert reconstruct_check(c, HALF, [0, 1]) <= 1e-12

    def test_exhaustive_random_kernel(self):
        rng = np.random.default_rng(14)
        k = random_kernel(rng, 2, 3)
        mu = random_measure(rng, 3)
        hs = decompose(k, mu)
        for x in all_samples(3, 4):
            lhs = ustat_direct(k, x)
            rhs = hoeffding_sum(hs, 4, list(x))
            assert abs(lhs - rhs) <= 1e-9


class TestVariance:
    def test_constant_kernel(self):
        c = SymmetricKernel(np.full((2, 2), 7.0))
        v_h, v_g = variance(c, HALF, 5)
        assert v_h == pytest.approx(0.0, abs=1e-12)
        assert v_g == pytest.approx(0.0, abs=1e-12)

    def test_iid_sum(self):
        k = SymmetricKernel(np.array([1.0, -1.0]))
        v_h, v_g = variance(k, HALF, 10)
        assert v_h == pytest.approx(10.0, rel=1e-12)
        assert v_g == pytest.approx(10.0, rel=1e-12)

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            k = random_kernel(rng, 2, 2)
            mu = random_measure(rng, 2)
            v_h, _ = variance(k, mu, 4)
            oracle = exhaustive_variance(lambda x: ustat_direct(k, x), 2, 4, mu)
            assert v_h == pytest.approx(oracle, abs=1e-9 * (1 + abs(oracle)))

    def test_rejects_small_sample(self):
        with pytest.raises(ParameterError):
            variance(IDENT, HALF, 1)


class TestOrthogonality:
    def test_decomposition_levels_are_orthogonal(self):
        rng = np.random.default_rng(16)
        for _ in range(6):
            p = int(rng.integers(2, 4))
            m = int(rng.integers(2, 4))
            n = int(rng.integers(p, 6))
            mu = random_measure(rng, m)
            hs = decompose(random_kernel(rng, p, m), mu)
            for s in range(1, p + 1):
                for t in range(s + 1, p + 1):
                    def prod(x, s=s, t=t):
                        counts = np.bincount(np.asarray(x), minlength=m)[None, :]
                        js = ustat_values_from_count_matrix(hs.psi[s], counts)[0]
                        jt = ustat_values_from_count_matrix(hs.psi[t], counts)[0]
                        return js * jt
                    assert abs(exhaustive_mean(prod, m, n, mu)) <= 1e-9

    def test_variance_dominates_top_level(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            mu = random_measure(rng, m)
            k = random_kernel(rng, p, m)
            hs = decompose(k, mu)
            g0 = float(hs.g[0])
            var_kernel = lp_norm(k, mu, 2.0) ** 2 - g0 * g0
            var_top = lp_norm(hs.psi_kernel(p), mu, 2.0) ** 2
            assert var_kernel >= var_top - 1e-10

    def test_variance_lower_bound_100_random(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            n = int(rng.integers(p, p + 10))
            mu = random_measure(rng, m)
            k = random_kernel(rng, p, m)
            v_h, _ = variance(k, mu, n)
            g0 = float(compute_g(k, mu, 0))
            lower = math.comb(n, p) * (lp_norm(k, mu, 2.0) ** 2 - g0 * g0)
            assert v_h >= lower - 1e-9 * (1 + abs(lower))


class TestHoeffdingRank:
    def test_degenerate_kernel_has_full_rank(self):
        rng = np.random.default_rng(19)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 3, 3, mu)
        assert hoeffding_rank(psi, mu) == 3

    def test_additive_kernel_has_rank_one(self):
        rng = np.random.default_rng(20)
        mu = random_measure(rng, 3)
        f = rng.standard_normal(3)
        f -= float(f @ mu.weights)
        vals = f[:, None] + f[None, :]
        k = SymmetricKernel(vals)
        assert hoeffding_rank(k, mu) == 1
        # and the first level kernel is f itself
        hs = decompose(k, mu)
        assert np.allclose(hs.psi[1], f, atol=1e-12)

    def test_zero_kernel_has_no_rank(self):
        assert hoeffding_rank(SymmetricKernel(np.zeros((2, 2))), HALF) is None

    def test_centering_is_automatic(self):
        rng = np.random.default_rng(21)
        mu = random_measure(rng, 3)
        k = random_kernel(rng, 2, 3)
        shifted = SymmetricKernel(k.values + 5.0)
        assert hoeffding_rank(k, mu) == hoeffding_rank(shifted, mu)
