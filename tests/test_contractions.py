from collections import Counter

import numpy as np
import pytest

from ustatkit import (
    DiscreteMeasure,
    SymmetricKernel,
    contract,
    lp_norm,
    verify_contraction_inequalities,
)
from ustatkit import contractions
from ustatkit.core import tensor_inner
from ustatkit.errors import ParameterError

from helpers import random_kernel, random_measure

HALF = DiscreteMeasure(np.array([0.5, 0.5]))


class TestContract:
    def test_full_contraction_is_squared_norm(self):
        rng = np.random.default_rng(30)
        mu = random_measure(rng, 3)
        psi = random_kernel(rng, 2, 3)
        res = contract(psi, psi, 2, 2, mu)
        assert res.order == 0
        assert float(res.tensor) == pytest.approx(lp_norm(psi, mu, 2.0) ** 2, rel=1e-12)

    def test_pointwise_square(self):
        rng = np.random.default_rng(31)
        mu = random_measure(rng, 3)
        psi = random_kernel(rng, 2, 3)
        res = contract(psi, psi, 2, 0, mu)
        assert np.allclose(res.tensor, psi.values**2)

    def test_hand_scalar_example(self):
        psi = SymmetricKernel(np.array([1.0, -1.0]))
        phi = SymmetricKernel(np.array([1.0, 1.0]))
        res = contract(psi, phi, 1, 1, HALF)
        assert float(res.tensor) == pytest.approx(0.0, abs=1e-15)

    def test_tensor_product_norm_factorizes(self):
        rng = np.random.default_rng(32)
        mu = random_measure(rng, 3)
        psi = random_kernel(rng, 2, 3)
        phi = random_kernel(rng, 1, 3)
        res = contract(psi, phi, 0, 0, mu)
        assert res.order == 3
        assert res.l2_norm == pytest.approx(
            lp_norm(psi, mu, 2.0) * lp_norm(phi, mu, 2.0), rel=1e-12
        )

    def test_block_permutation_invariance(self):
        # permuting indices inside the "own" blocks must not change the tensor
        rng = np.random.default_rng(33)
        mu = random_measure(rng, 2)
        psi = random_kernel(rng, 3, 2)
        phi = random_kernel(rng, 3, 2)
        res = contract(psi, phi, 1, 1, mu).tensor  # axes: t1 t2 s1 s2
        assert np.allclose(res, np.transpose(res, (1, 0, 2, 3)))
        assert np.allclose(res, np.transpose(res, (0, 1, 3, 2)))

    def test_output_is_generally_not_symmetric(self):
        rng = np.random.default_rng(34)
        mu = random_measure(rng, 3)
        psi = random_kernel(rng, 2, 3)
        phi = random_kernel(rng, 2, 3)
        res = contract(psi, phi, 1, 0, mu).tensor  # axes: y t s
        assert not np.allclose(res, np.transpose(res, (1, 0, 2)), atol=1e-12) or \
            not np.allclose(res, np.transpose(res, (0, 2, 1)), atol=1e-12)

    def test_rejects_bad_indices(self):
        psi = SymmetricKernel(np.eye(2))
        with pytest.raises(ParameterError):
            contract(psi, psi, 3, 0, HALF)
        with pytest.raises(ParameterError):
            contract(psi, psi, 1, 2, HALF)


class TestInequalitySuite:
    def test_self_pair_diagonal_identity(self):
        rng = np.random.default_rng(35)
        mu = random_measure(rng, 3)
        psi = random_kernel(rng, 2, 3)
        for r in (0, 1, 2):
            res = contract(psi, psi, r, r, mu)
            left = contract(psi, psi, 2 - r, 2 - r, mu)
            ip = tensor_inner(left.tensor, left.tensor, mu)
            assert res.l2_norm**2 == pytest.approx(ip, rel=1e-9)

    def test_constant_kernels(self):
        a = SymmetricKernel(np.full((2, 2), 2.0))
        b = SymmetricKernel(np.full((2, 2), -3.0))
        rep = verify_contraction_inequalities(a, b, HALF)
        assert rep["all_pass"]
        for rec in rep["checks"]:
            assert rec["norm"] == pytest.approx(6.0, rel=1e-12)

    def test_hundred_random_pairs(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            mu = random_measure(rng, m)
            psi = random_kernel(rng, p, m)
            phi = random_kernel(rng, q, m)
            rep = verify_contraction_inequalities(psi, phi, mu)
            assert rep["all_pass"], rep

    def test_inner_product_exchange_symmetry(self):
        # both orderings of the identity's two sides agree
        rng = np.random.default_rng(37)
        mu = random_measure(rng, 3)
        psi = random_kernel(rng, 2, 3)
        phi = random_kernel(rng, 2, 3)
        for r, l in ((1, 0), (1, 1), (2, 1)):
            a = contract(psi, psi, 2 - l, 2 - r, mu).tensor
            b = contract(phi, phi, 2 - l, 2 - r, mu).tensor
            assert tensor_inner(a, b, mu) == pytest.approx(tensor_inner(b, a, mu), rel=1e-12)

    def test_each_contraction_is_computed_once(self, monkeypatch):
        seen = Counter()
        real = contractions.contract

        def counting(a, b, r, l, mu):
            seen[(id(a), id(b), r, l)] += 1
            return real(a, b, r, l, mu)

        monkeypatch.setattr(contractions, "contract", counting)
        rng = np.random.default_rng(38)
        mu = random_measure(rng, 3)
        psi = random_kernel(rng, 3, 3)
        phi = random_kernel(rng, 2, 3)
        assert verify_contraction_inequalities(psi, phi, mu)["all_pass"]
        assert seen and max(seen.values()) == 1
        # the psi-phi, psi-psi and phi-phi tables, each (r, l) once
        assert sum(seen.values()) == 6 + 10 + 6
