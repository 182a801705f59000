import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ustatkit import DiscreteMeasure, SymmetricKernel, degeneracy_defect, lp_norm, symmetrize
from ustatkit.core import DEGENERACY_TOL, is_degenerate, tensor_lp_norm
from ustatkit.errors import CapacityError, ParameterError

from helpers import random_kernel, random_measure


class TestDiscreteMeasure:
    def test_rejects_negative_weights(self):
        with pytest.raises(ParameterError):
            DiscreteMeasure(np.array([0.5, 0.6, -0.1]))

    def test_rejects_bad_total(self):
        with pytest.raises(ParameterError):
            DiscreteMeasure(np.array([0.5, 0.6]))

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0]])
    def test_rejects_non_finite_weights(self, weights):
        # every comparison with NaN is False, so no other check catches it
        with pytest.raises(ParameterError, match="weights must be finite"):
            DiscreteMeasure(np.array(weights))


class TestSymmetricKernel:
    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            SymmetricKernel(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("order", [2, 5])  # every permutation; a fixed sample
    @pytest.mark.parametrize("above", [False, True])
    def test_symmetry_tolerance_boundary(self, order, above):
        # the entry 1.0 pins the scale, so the tolerance is 1e-9 * (1 + 1)
        tol = 1e-9 * (1.0 + 1.0)
        v = np.zeros((2,) * order)
        v[(1,) * order] = 1.0
        v[(0,) * (order - 1) + (1,)] = np.nextafter(tol, np.inf) if above else tol
        if above:
            with pytest.raises(ParameterError, match="not symmetric"):
                SymmetricKernel(v)
        else:
            SymmetricKernel(v)

    def test_rejects_non_cube(self):
        with pytest.raises(ParameterError):
            SymmetricKernel(np.zeros((2, 3)))

    @pytest.mark.parametrize("values", [[np.nan, 1.0], [[np.nan, 1.0], [1.0, 0.0]],
                                        [[0.0, np.inf], [np.inf, 0.0]]])
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(ParameterError, match="kernel values must be finite"):
            SymmetricKernel(np.array(values))

    def test_values_are_immutable(self):
        k = SymmetricKernel(np.eye(2))
        with pytest.raises(ValueError):
            k.values[0, 0] = 5.0


class TestSymmetrize:
    def test_fixes_symmetric_input(self):
        rng = np.random.default_rng(0)
        k = random_kernel(rng, 3, 3)
        again = symmetrize(k.values)
        assert np.array_equal(again.values, k.values) or np.allclose(again.values, k.values)

    def test_order_one_identity(self):
        f = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(symmetrize(f).values, f)

    def test_hand_example_order_two(self):
        out = symmetrize(np.array([[0.0, 1.0], [3.0, 0.0]]))
        assert np.allclose(out.values, [[0.0, 2.0], [2.0, 0.0]])

    def test_refuses_large_order(self):
        with pytest.raises(CapacityError):
            symmetrize(np.zeros((1,) * 7))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.standard_normal((3, 3, 3))
            once = symmetrize(f).values
            twice = symmetrize(once).values
            assert np.allclose(once, twice, atol=1e-12)

    def test_norm_contraction_200_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            mu = random_measure(rng, m)
            f = rng.standard_normal((m,) * p)
            assert tensor_lp_norm(symmetrize(f).values, mu, 2.0) <= \
                tensor_lp_norm(f, mu, 2.0) + 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(2, 3))
    def test_norm_contraction_property(self, seed, m, p):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, m)
        f = rng.standard_normal((m,) * p)
        assert tensor_lp_norm(symmetrize(f).values, mu, 2.0) <= \
            tensor_lp_norm(f, mu, 2.0) + 1e-12


class TestLpNorm:
    def test_constant_kernel(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 3)
        c = SymmetricKernel(np.full((3, 3), -2.5))
        for r in (1.0, 2.0, 4.0, 7.5):
            assert lp_norm(c, mu, r) == pytest.approx(2.5, rel=1e-12)

    def test_order_one_example(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        k = SymmetricKernel(np.array([1.0, -1.0]))
        assert lp_norm(k, mu, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_order_two_l4_example(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        k = SymmetricKernel(np.array([[2.0, 0.0], [0.0, 2.0]]))
        assert lp_norm(k, mu, 4.0) == pytest.approx(2.0 * 0.5**0.25, rel=1e-12)

    def test_rejects_non_positive_exponent(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        k = SymmetricKernel(np.array([1.0, -1.0]))
        with pytest.raises(ParameterError):
            lp_norm(k, mu, 0.0)


class TestDegeneracyDefect:
    def test_constant_kernel_is_not_degenerate(self):
        mu = DiscreteMeasure(np.array([0.3, 0.7]))
        c = SymmetricKernel(np.full((2, 2), 1.5))
        defect = degeneracy_defect(c, mu)
        assert np.allclose(defect, 1.5)

    def test_centered_order_one(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        k = SymmetricKernel(np.array([1.0, -1.0]))
        assert abs(float(degeneracy_defect(k, mu))) <= 1e-15

    def test_hand_example_order_two(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        k = SymmetricKernel(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(degeneracy_defect(k, mu), 0.0)

    def test_tolerance_is_absolute_below_one_and_relative_above(self):
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        for scale in (1e-3, 1.0, 1e8):
            for off, degenerate in ((0.5, True), (3.0, False)):
                # defect off * DEGENERACY_TOL times max(1, scale)
                k = SymmetricKernel(np.array([scale, -scale])
                                    + off * DEGENERACY_TOL * max(1.0, scale))
                assert is_degenerate(k, mu) is degenerate

    def test_centering_always_degenerates_order_one(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = int(rng.integers(2, 6))
            mu = random_measure(rng, m)
            vals = rng.standard_normal(m)
            centered = vals - float(vals @ mu.weights)
            assert abs(float(degeneracy_defect(SymmetricKernel(centered), mu))) <= 1e-10


class TestExports:
    def test_all_lists_each_public_name_once(self):
        # a name deleted from its module but left here breaks `import *`
        import types

        import ustatkit

        names = ustatkit.__all__
        assert len(names) == len(set(names))
        assert all(hasattr(ustatkit, name) for name in names)
        public = {name for name, value in vars(ustatkit).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert set(names) == public
