"""Contraction kernels and the full suite of norm identities they satisfy.

The contraction of an order-p kernel against an order-q kernel identifies r
arguments and integrates l of them out, producing an order p + q - r - l
tensor whose axes are blocked as (shared kept, first-kernel own, second-kernel
own).  Contraction outputs are generally NOT symmetric and nothing downstream
assumes they are.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .core import DiscreteMeasure, SymmetricKernel, lp_norm, tensor_inner, tensor_lp_norm
from .errors import CapacityError, DimensionError, ParameterError

#: additive slack for inequality checks (float accumulation over <= 1e6 terms)
INEQ_SLACK = 1e-12

#: relative tolerance for the norm equality in check (vi)
EQ_RTOL = 1e-9


@dataclass(frozen=True)
class ContractionResult:
    """Dense contraction output plus its L2 norm under the product measure."""

    tensor: np.ndarray
    r: int
    l: int
    l2_norm: float

    @property
    def order(self) -> int:
        return int(self.tensor.ndim)


def contract(psi: SymmetricKernel, phi: SymmetricKernel, r: int, l: int,
             mu: DiscreteMeasure) -> ContractionResult:
    """Exact contraction ``psi *_r^l phi`` over the finite alphabet.

    For l = 0 no integration happens and the result is the pointwise product
    on the identified coordinates; r = l = 0 gives the tensor product.  One
    einsum performs the blocked summation, so each output entry is one
    fixed-order sum and results do not depend on internal scheduling.
    """
    if psi.alphabet_size != phi.alphabet_size or psi.alphabet_size != mu.alphabet_size:
        raise DimensionError("kernels and measure must share one alphabet")
    p, q = psi.order, phi.order
    if not (0 <= l <= r <= min(p, q)):
        raise ParameterError(f"need 0 <= l <= r <= min({p}, {q}), got r={r}, l={l}")
    if p + q > len(string.ascii_lowercase):
        raise CapacityError("combined order too large for dense contraction")
    letters = iter(string.ascii_lowercase)
    x = [next(letters) for _ in range(l)]
    y = [next(letters) for _ in range(r - l)]
    t = [next(letters) for _ in range(p - r)]
    s = [next(letters) for _ in range(q - r)]
    subscripts = ",".join(["".join(x + y + t), "".join(x + y + s)] + x) + "->" + "".join(y + t + s)
    out = np.einsum(subscripts, psi.values, phi.values, *[mu.weights] * l)
    return ContractionResult(tensor=out, r=r, l=l,
                             l2_norm=tensor_lp_norm(out, mu, 2.0))


def _contraction_table(psi: SymmetricKernel, phi: SymmetricKernel,
                       mu: DiscreteMeasure) -> dict:
    """Every contraction ``psi *_r^l phi``, keyed by (r, l), 0 <= l <= r <= min(p, q)."""
    return {(r, l): contract(psi, phi, r, l, mu)
            for r in range(0, min(psi.order, phi.order) + 1) for l in range(0, r + 1)}


def verify_contraction_inequalities(psi: SymmetricKernel, phi: SymmetricKernel,
                                    mu: DiscreteMeasure) -> dict:
    """Run the six contraction-norm checks over every admissible (r, l).

    Items: (i) well-definedness (automatic on a finite space, recorded as
    such); (ii)/(iii) the two self-contraction Cauchy-Schwarz bounds; (iv) the
    L4 product bound; (v) the L2 product bound for fully integrated
    contractions; (vi) the inner-product identity together with its
    Cauchy-Schwarz consequence.  Finite-measure constants are all 1 here
    because mu is a probability measure, so no separate variant is needed.
    Every right-hand side is an entry of the psi-psi or phi-phi contraction
    table, so each distinct contraction is computed once.

    Returns a report dict with one record per (r, l) and an ``all_pass`` flag.
    Equalities are tested at relative 1e-9, inequalities with additive slack.
    """
    p, q = psi.order, phi.order
    l2_psi = lp_norm(psi, mu, 2.0)
    l2_phi = lp_norm(phi, mu, 2.0)
    l4_psi = lp_norm(psi, mu, 4.0)
    l4_phi = lp_norm(phi, mu, 4.0)
    cross = _contraction_table(psi, phi, mu)
    pp = _contraction_table(psi, psi, mu)
    qq = _contraction_table(phi, phi, mu)

    records = []
    for (r, l), res in cross.items():
        nsq = res.l2_norm**2
        rec = {"r": r, "l": l, "norm": res.l2_norm, "well_defined": True}

        rhs2 = pp[(p, p - r + l)].l2_norm * qq[(q, q - r + l)].l2_norm
        rec["ii"] = {"lhs": nsq, "rhs": rhs2, "ok": nsq <= rhs2 + INEQ_SLACK}

        rhs3 = pp[(p, p - r)].l2_norm * qq[(q, q - r)].l2_norm
        rec["iii"] = {"lhs": nsq, "rhs": rhs3, "ok": nsq <= rhs3 + INEQ_SLACK}

        rhs4 = l4_psi * l4_phi
        rec["iv"] = {"lhs": res.l2_norm, "rhs": rhs4,
                     "ok": res.l2_norm <= rhs4 + INEQ_SLACK}

        if l == r:
            rhs5 = l2_psi * l2_phi
            rec["v"] = {"lhs": res.l2_norm, "rhs": rhs5,
                        "ok": res.l2_norm <= rhs5 + INEQ_SLACK}

        ip = tensor_inner(pp[(p - l, p - r)].tensor, qq[(q - l, q - r)].tensor, mu)
        eq_ok = abs(nsq - ip) <= EQ_RTOL * (1.0 + abs(ip))
        rhs6 = pp[(r, l)].l2_norm * qq[(r, l)].l2_norm
        rec["vi"] = {
            "lhs": nsq,
            "inner": ip,
            "rhs": rhs6,
            "ok": eq_ok and nsq <= rhs6 + INEQ_SLACK,
        }
        records.append(rec)

    all_pass = all(
        rec[item]["ok"]
        for rec in records
        for item in ("ii", "iii", "iv", "v", "vi")
        if item in rec
    )
    return {"orders": (p, q), "checks": records, "all_pass": all_pass}
