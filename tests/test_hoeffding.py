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
    ustat_value,
    variance,
)
from ustatkit.core import tensor_lp_norm
from ustatkit.errors import CapacityError, ParameterError
from ustatkit.hoeffding import _projections, hoeffding_sum, ustat_values_from_count_matrix

from helpers import (
    all_samples,
    exhaustive_mean,
    exhaustive_variance,
    random_degenerate,
    random_kernel,
    random_measure,
    shift_instance,
    ustat_direct,
)

HALF = DiscreteMeasure(np.array([0.5, 0.5]))
IDENT = SymmetricKernel(np.array([[1.0, 0.0], [0.0, 1.0]]))

#: constant shifts that dwarf the spread of the `shift_instance` kernels
SHIFTS = (1e3, 1e4, 1e6, 5e6, 1e7, 1e8, 1e9)


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

    def test_stored_norms_are_exact(self):
        # the stored norms are the very floats the level tensors give
        rng = np.random.default_rng(12)
        for _ in range(40):
            p = int(rng.integers(1, 5))
            m = int(rng.integers(2, 4))
            mu = random_measure(rng, m)
            k = random_kernel(rng, p, m)
            hs = decompose(k, mu)
            assert hs.mu is mu
            assert hs.psi_norms[0] == abs(float(hs.psi[0]))
            assert hs.c_norms[0] == 0.0
            c = _projections(k.values - float(hs.g[0]), mu)
            for s in range(1, p + 1):
                assert hs.psi_norms[s] == lp_norm(hs.psi_kernel(s), mu, 2.0)
                assert hs.c_norms[s] == tensor_lp_norm(c[s] - float(c[0]), mu, 2.0)


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
        x = list(rng.integers(0, 3, size=5))
        assert abs(ustat_direct(psi, x) - hoeffding_sum(decompose(psi, mu), 5, x)) <= 1e-9

    def test_constant_kernel_at_minimal_sample(self):
        c = SymmetricKernel(np.full((2, 2), 4.0))
        hs = decompose(c, HALF)
        for x in all_samples(2, 2):
            assert abs(ustat_direct(c, x) - hoeffding_sum(hs, 2, list(x))) <= 1e-12

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
        v_h, v_g = variance(decompose(c, HALF), 5)
        assert v_h == pytest.approx(0.0, abs=1e-12)
        assert v_g == pytest.approx(0.0, abs=1e-12)

    def test_iid_sum(self):
        k = SymmetricKernel(np.array([1.0, -1.0]))
        v_h, v_g = variance(decompose(k, HALF), 10)
        assert v_h == pytest.approx(10.0, rel=1e-12)
        assert v_g == pytest.approx(10.0, rel=1e-12)

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            k = random_kernel(rng, 2, 2)
            mu = random_measure(rng, 2)
            v_h, _ = variance(decompose(k, mu), 4)
            oracle = exhaustive_variance(lambda x: ustat_direct(k, x), 2, 4, mu)
            assert v_h == pytest.approx(oracle, abs=1e-9 * (1 + abs(oracle)))

    def test_rejects_small_sample(self):
        with pytest.raises(ParameterError):
            variance(decompose(IDENT, HALF), 1)

    @pytest.mark.parametrize("p, n, scale", [
        (3, 10**80, 1.0),     # a binomial too large for a float
        (2, 10**120, 1.0),
        (2, 10**4, 1e150),    # finite factors whose product overflows
    ])
    def test_variance_past_the_float_range_is_a_capacity_error(self, p, n, scale):
        hs = decompose(random_kernel(np.random.default_rng(3), p, 2, scale), HALF)
        with pytest.raises(CapacityError, match=f"n = {n} "):
            variance(hs, n)

    def test_large_n_inside_the_float_range_stays_finite(self):
        hs = decompose(random_kernel(np.random.default_rng(3), 3, 2), HALF)
        v_h, v_g = variance(hs, 10**20)
        assert math.isfinite(v_h) and v_h == pytest.approx(v_g, rel=1e-9)


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
            v_h, _ = variance(decompose(k, mu), n)
            g0 = float(compute_g(k, mu, 0))
            lower = math.comb(n, p) * (lp_norm(k, mu, 2.0) ** 2 - g0 * g0)
            assert v_h >= lower - 1e-9 * (1 + abs(lower))


class TestHoeffdingRank:
    def test_degenerate_kernel_has_full_rank(self):
        rng = np.random.default_rng(19)
        mu = random_measure(rng, 3)
        psi = random_degenerate(rng, 3, 3, mu)
        assert hoeffding_rank(decompose(psi, mu)) == 3

    def test_additive_kernel_has_rank_one(self):
        rng = np.random.default_rng(20)
        mu = random_measure(rng, 3)
        f = rng.standard_normal(3)
        f -= float(f @ mu.weights)
        vals = f[:, None] + f[None, :]
        k = SymmetricKernel(vals)
        hs = decompose(k, mu)
        assert hoeffding_rank(hs) == 1
        # and the first level kernel is f itself
        assert np.allclose(hs.psi[1], f, atol=1e-12)

    def test_zero_kernel_has_no_rank(self):
        assert hoeffding_rank(decompose(SymmetricKernel(np.zeros((2, 2))), HALF)) is None

    def test_centering_is_automatic(self):
        rng = np.random.default_rng(21)
        mu = random_measure(rng, 3)
        k = random_kernel(rng, 2, 3)
        shifted = SymmetricKernel(k.values + 5.0)
        assert hoeffding_rank(decompose(k, mu)) == hoeffding_rank(decompose(shifted, mu))
        # shifts that dwarf the kernel's spread
        for p in (1, 2, 3):
            k, mu = shift_instance(p)
            rank = hoeffding_rank(decompose(k, mu))
            for shift in SHIFTS:
                assert hoeffding_rank(decompose(SymmetricKernel(k.values + shift), mu)) == rank


class TestShiftedKernels:
    """A constant shift moves psi_0 only; levels and variance stay put."""

    @pytest.mark.parametrize("shift", SHIFTS)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_variance_matches_unshifted(self, p, shift):
        k, mu = shift_instance(p)
        base, _ = variance(decompose(k, mu), 10)
        v_h, v_g = variance(decompose(SymmetricKernel(k.values + shift), mu), 10)
        # storing k + shift rounds each entry by up to 1.1e-16 * shift, which
        # moves the variance itself beyond 1e-9 from a shift of about 1e7
        rel = max(1e-9, 5e-16 * shift)
        assert v_h == pytest.approx(base, rel=rel)
        assert v_g == pytest.approx(base, rel=rel)

    @pytest.mark.parametrize("shift", SHIFTS)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_decompose_levels_match_unshifted(self, p, shift):
        k, mu = shift_instance(p)
        base = decompose(k, mu)
        hs = decompose(SymmetricKernel(k.values + shift), mu)
        assert float(hs.psi[0]) == pytest.approx(float(base.psi[0]) + shift, rel=1e-12)
        for s in range(1, p + 1):
            # the stored shifted kernel is k + shift rounded: 1e-16 * shift per entry
            assert np.allclose(hs.psi[s], base.psi[s], rtol=0.0, atol=1e-13 * shift)

    @pytest.mark.parametrize("shift", SHIFTS)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_variance_against_exact_enumeration(self, p, shift):
        # exact variance of the stored float kernel over all 3**6 samples
        k, mu = shift_instance(p)
        kernel = SymmetricKernel(k.values + shift)
        n = 6
        weights = [Fraction(float(w)) for w in mu.weights]
        probs = [w / sum(weights) for w in weights]
        mean = second = Fraction(0)
        for x in all_samples(3, n):
            prob = math.prod(probs[sym] for sym in x)
            u = ustat_direct(kernel, x, num=Fraction)
            mean += prob * u
            second += prob * u * u
        oracle = float(second - mean * mean)
        v_h, v_g = variance(decompose(kernel, mu), n)
        assert v_h == pytest.approx(oracle, rel=1e-9)
        assert v_g == pytest.approx(oracle, rel=1e-9)
