"""Command-line entry point: decompose, contract, product-check, bound, simulate, geomgraph.

Reports are JSON with sorted keys and floats printed at 17 significant
digits, so identical configurations produce byte-identical files.  Every
report embeds its fully resolved configuration, including the seed.

Exit codes: 0 success, 2 validation problem (the diagnostic names the
offending field or file), 3 capacity limit, 4 violated numeric contract.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import bounds, geomgraph, hoeffding, montecarlo
from .core import DiscreteMeasure, SymmetricKernel, _defect, lp_norm
from .contractions import contract
from .errors import (
    CapacityError,
    ContractViolationError,
    ParameterError,
    UstatError,
)
from .product import _residual, product_kernels

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_CONTRACT = 4


def _render(obj, out) -> None:
    # numpy scalars and arrays are read as the Python values they hold; bools
    # come before numbers, since a bool is an int; fixed float formatting keeps
    # reports byte-stable across runs
    if isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (float, np.floating)):
        out.append(format(float(obj), ".17g") if math.isfinite(obj) else "null")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, v in enumerate(obj):
            if idx:
                out.append(", ")
            _render(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for idx, (k, v) in enumerate(sorted({str(k): v for k, v in obj.items()}.items())):
            if idx:
                out.append(", ")
            out.append(json.dumps(k) + ": ")
            _render(v, out)
        out.append("}")
    else:
        raise ParameterError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    out = []
    _render(obj, out)
    return "".join(out) + "\n"


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read {what} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{what} file {path!r} is not valid JSON: {exc}") from exc


def load_kernel(path: str) -> SymmetricKernel:
    doc = _load_json(path, "kernel")
    for key in ("order", "alphabet", "values"):
        if key not in doc:
            raise ParameterError(f"kernel file {path!r} is missing field {key!r}")
    p, m = int(doc["order"]), int(doc["alphabet"])
    values = np.asarray(doc["values"], dtype=float)
    if values.size != m**p:
        raise ParameterError(
            f"kernel file {path!r}: field 'values' must hold {m}^{p} entries"
        )
    return SymmetricKernel(values.reshape((m,) * p))


def load_measure(path: str) -> DiscreteMeasure:
    doc = _load_json(path, "measure")
    if "weights" not in doc:
        raise ParameterError(f"measure file {path!r} is missing field 'weights'")
    return DiscreteMeasure(np.asarray(doc["weights"], dtype=float))


def load_pattern(path: str) -> geomgraph.GraphPattern:
    doc = _load_json(path, "pattern")
    for key in ("p", "adjacency"):
        if key not in doc:
            raise ParameterError(f"pattern file {path!r} is missing field {key!r}")
    adjacency = np.asarray(doc["adjacency"])
    if adjacency.shape != (int(doc["p"]), int(doc["p"])):
        raise ParameterError(f"pattern file {path!r}: adjacency shape mismatch")
    return geomgraph.GraphPattern(adjacency, name=os.path.basename(path))


def load_kappa(path: Optional[str]) -> bounds.KappaConfig:
    if path is None:
        return bounds.KappaConfig()
    doc = _load_json(path, "kappa")
    try:
        values = {int(k): float(v) for k, v in doc.items()}
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"kappa file {path!r} must map orders to positives") from exc
    return bounds.KappaConfig(values)


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = canonical_json(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_decompose(args) -> dict:
    kernel = load_kernel(args.kernel)
    mu = load_measure(args.measure)
    hs = hoeffding.decompose(kernel, mu)
    result = {
        "g_norms": [abs(float(hs.g[0]))] + [
            lp_norm(hs.g_kernel(k), mu, 2.0) for k in range(1, kernel.order + 1)
        ],
        "psi_norms": [abs(float(hs.psi[0]))] + [
            lp_norm(hs.psi_kernel(s), mu, 2.0) for s in range(1, kernel.order + 1)
        ],
        "degeneracy_defects": [0.0] + [
            float(np.max(np.abs(_defect(hs.psi[s], mu))))
            for s in range(1, kernel.order + 1)
        ],
        "psi": [float(hs.psi[0])] + [hs.psi[s].tolist() for s in range(1, kernel.order + 1)],
        "hoeffding_rank": hoeffding._rank(hs, mu),
    }
    if args.n is not None:
        v_h, v_g = hoeffding._variance(hs, mu, args.n)
        result["variance_hoeffding"] = v_h
        result["variance_g"] = v_g
    return result


def _cmd_contract(args) -> dict:
    psi = load_kernel(args.psi)
    phi = load_kernel(args.phi)
    mu = load_measure(args.measure)
    res = contract(psi, phi, args.r, args.l, mu)
    return {
        "order": res.order,
        "r": res.r,
        "l": res.l,
        "l2_norm": res.l2_norm,
        "tensor": np.asarray(res.tensor).tolist(),
    }


def _cmd_product_check(args) -> dict:
    psi = load_kernel(args.psi)
    phi = load_kernel(args.phi)
    mu = load_measure(args.measure)
    pk = product_kernels(psi, phi, args.n, mu)
    residual = _residual(pk, psi, phi, mu, args.mc, args.seed)
    per_t = {}
    for t, level in enumerate(pk.levels):
        if isinstance(level, float):
            per_t[f"t={t}"] = abs(level)
        else:
            per_t[f"t={t}"] = lp_norm(level, mu, 2.0)
    return {"max_residual": residual, "per_t_norms": per_t}


def _cmd_bound(args) -> dict:
    kernel = load_kernel(args.kernel)
    mu = load_measure(args.measure)
    kappa = load_kappa(args.kappa)
    try:
        m1, m2, m3 = (float(x) for x in args.profile.split(","))
    except ValueError as exc:
        raise ParameterError(f"field 'profile' needs three comma-separated numbers: {exc}") from exc
    profile = bounds.TestFunctionProfile(m1=m1, m2=m2, m3=m3)
    if args.variant in ("b1", "b2"):
        b1, b2 = bounds.bound_degenerate_1d(kernel, mu, args.n, kappa)
        report = b1 if args.variant == "b1" else b2
    else:
        variant = "B" if args.variant == "general-B" else "B'"
        report = bounds.bound_general(kernel, mu, args.n, profile, kappa, variant)
    return {
        "total": report.total,
        "terms": report.terms,
        "constant_mode": report.constant_mode,
        "extras": report.extras,
    }


def _cmd_simulate(args) -> dict:
    kernel = load_kernel(args.kernel)
    mu = load_measure(args.measure)
    rep = montecarlo.simulate(kernel, mu, args.n, args.reps, args.seed,
                              normalization=args.normalization)
    dist = montecarlo.wasserstein_to_normal(rep)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            for v in rep.values:
                fh.write(format(float(v), ".17g") + "\n")
    return {
        "values": {
            "count": rep.replicates,
            "mean": float(rep.values.mean()),
            "sd": float(rep.values.std(ddof=1)),
            "min": float(rep.values.min()),
            "max": float(rep.values.max()),
        },
        "normalization": {
            "mean": rep.normalization.mean,
            "sd": rep.normalization.sd,
            "source": rep.normalization.source,
        },
        "wasserstein": dist.value,
        "wasserstein_se": dist.stderr,
    }


def _cmd_geomgraph(args) -> dict:
    if args.pattern in ("edge", "triangle", "path3"):
        pat = geomgraph.named_pattern(args.pattern)
    else:
        pat = load_pattern(args.pattern)
    density = geomgraph.DensityModel(kind=args.density, dimension=args.dim)
    if args.regime == "C4":
        if args.rho is None:
            raise ParameterError("field 'rho' is required for regime C4")
        schedule = geomgraph.RadiusSchedule(regime="C4", rho=args.rho)
    else:
        if args.beta is None:
            raise ParameterError(f"field 'beta' is required for regime {args.regime}")
        schedule = geomgraph.RadiusSchedule(regime=args.regime, beta=args.beta)
    try:
        ns = [int(x) for x in args.ns.split(",") if x.strip()]
    except ValueError as exc:
        raise ParameterError(f"field 'ns' must be comma-separated integers: {exc}") from exc
    report = geomgraph.regime_experiment(pat, density, schedule, ns, args.reps, args.seed)
    if args.csv:
        cols = ["n", "t", "mean", "mean_se", "var", "var_se", "dw", "dw_se"]
        lines = [",".join(cols)]
        for rec in report.records:
            lines.append(",".join(
                str(rec[c]) if c == "n" else format(float(rec[c]), ".17g")
                for c in cols
            ))
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return report.to_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ustatkit",
        description="Symmetric U-statistics: decompositions, contractions, "
                    "normal-approximation bounds, and geometric-graph experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("decompose", help="projection functions, level kernels, rank")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--n", type=int, default=None)
    common(sp)

    sp = sub.add_parser("contract", help="contraction kernel and norms")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--measure", required=True)
    common(sp)

    sp = sub.add_parser("product-check", help="verify the product decomposition")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--mc", type=int, default=None)
    common(sp)

    sp = sub.add_parser("bound", help="normal-approximation bound report")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kappa", type=str, default=None)
    sp.add_argument("--variant", choices=["b1", "b2", "general-B", "general-Bprime"],
                    default="b1")
    sp.add_argument("--profile", type=str, default="1,1,1")
    common(sp)

    sp = sub.add_parser("simulate", help="replicate a U-statistic and measure distances")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--normalization", choices=["exact", "empirical"], default="exact")
    sp.add_argument("--dump", type=str, default=None)
    common(sp)

    sp = sub.add_parser("geomgraph", help="radius-regime sweep for pattern counts")
    sp.add_argument("--pattern", required=True,
                    help="edge|triangle|path3 or a pattern JSON file")
    sp.add_argument("--density", choices=["uniform-box", "uniform-ball", "gaussian"],
                    required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--regime", choices=["C1", "C2", "C3", "C4"], required=True)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--ns", type=str, required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--csv", type=str, default=None)
    common(sp)
    return parser


_HANDLERS = {
    "decompose": _cmd_decompose,
    "contract": _cmd_contract,
    "product-check": _cmd_product_check,
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "geomgraph": _cmd_geomgraph,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _HANDLERS[args.command](args)
        # output destinations are not part of the experiment configuration
        config = {k: v for k, v in vars(args).items()
                  if k not in ("out", "csv", "dump")}
        report = {"command": args.command, "config": config, "result": result}
        _emit(report, args.out)
        return EXIT_OK
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ParameterError, UstatError, OSError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
