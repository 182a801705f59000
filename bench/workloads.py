"""The three benchmark workloads: inputs made from a seed, one round of calls, checks.

A workload builds its inputs once (set-up), then `run_round` makes the same
calls into ustatkit every round, and `check` compares the first round's
outputs with the computations in `oracles` and with properties the methods
must have.  Every call is one operation in the `Ledger`; calls that produce
Monte Carlo replicates also add their replicate count and their time.

Calls go through module attributes (``gg.regime_experiment``, ``cli.main``)
at call time, so a traced run sees them through its wrappers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

import oracles
import ustatkit as uk
from ustatkit import cli
from ustatkit import geomgraph as gg
from ustatkit.bounds import TestFunctionProfile
from ustatkit.errors import UstatError

#: large-n ``bound --variant general-B`` calls that exit 4 at the parent
#: commit: finite-n binomials switch to lgamma above n = 20, and the unit
#: square-sum contract (1e-9) trips on the accumulated round-off.  Inputs are
#: fixed (not seeded) so the failed share is the same in every run.
FAILING_BOUNDS = ((3, 10**6), (2, 10**7), (3, 10**8))

#: tolerance, in bootstrap standard errors, of a Monte Carlo mean against its
#: closed form; the worst |z| seen at 300 replicates was 2.8
MEAN_Z_LIMIT = 5.0


class Ledger:
    """Operations attempted and failed, plus replicate production."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.replicates = 0
        self.replicate_s = 0.0

    def call(self, fn, *args, replicates=0, **kwargs):
        """Run one operation; a raised package error counts it as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except UstatError:
            self.failed += 1
            return None
        if replicates:
            self.replicates += replicates
            self.replicate_s += time.perf_counter() - t0
        return out

    def cli(self, argv, out_path, replicates=0):
        """Run one CLI command; any exit code but 0 counts it as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        code = cli.main([*argv, "--out", str(out_path)])
        if code != 0:
            self.failed += 1
            return None
        if replicates:
            self.replicates += replicates
            self.replicate_s += time.perf_counter() - t0
        return Path(out_path).read_bytes()


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, bytes):
        return obj.decode("utf-8")
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def fingerprint(outputs: dict) -> str:
    """Exact text of a round's outputs, to show later rounds repeat the first."""
    return json.dumps(outputs, sort_keys=True)


def _report(raw):
    return None if raw is None else json.loads(raw)


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _program_seeds(seed: int, k: int):
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31, size=k)]


def _mean_z_failures(label, records, edge_prob):
    bad = []
    for rec in records:
        expected = math.comb(rec["n"], 2) * edge_prob(rec["t"])
        z = abs(rec["mean"] - expected) / rec["mean_se"]
        if not z <= MEAN_Z_LIMIT:
            bad.append(f"{label}: n={rec['n']} mean {rec['mean']} vs C(n,2)q "
                       f"{expected:.6g} (z {z:.2f})")
    return bad


# --- edge_regimes ----------------------------------------------------------------

class EdgeRegimes:
    """Edge counts in the C4, C3 and C2 regimes plus the projection Monte Carlo.

    A reduced-budget version of the paper's edge pipeline (acceptance c08-c12):
    a C4 uniform-square sweep through the CLI, a C3 one-dimensional Gaussian
    sweep, the C2 variance lower-bound check at three n and the nested
    projection-contraction Monte Carlo at the c12 radii.
    """

    C4_NS = (256, 512, 1024, 2048, 4096)
    C3_NS = (256, 512, 1024, 2048, 4096)
    C2_NS = (128, 256, 512)
    REPS = 300
    GK_RADII = (0.4, 0.2, 0.1, 0.05)
    GK_INNER = (32, 32, 64, 128)   # more inner draws where hits are rarer
    GK_SAMPLES = 10_000

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.seeds = _program_seeds(seed, 4)
        self.edge = gg.named_pattern("edge")
        self.box = gg.DensityModel("uniform-box", 2)
        self.gauss = gg.DensityModel("gaussian", 1)
        self.c3 = gg.RadiusSchedule("C3", beta=0.5)
        c2 = gg.RadiusSchedule("C2", beta=0.5)
        self.c2_radii = [c2.radius(n, 2) for n in self.C2_NS]

    def run_round(self, led: Ledger) -> dict:
        out = {}
        c4_argv = ["geomgraph", "--pattern", "edge", "--density", "uniform-box",
                   "--dim", "2", "--regime", "C4", "--rho", "1.0",
                   "--ns", ",".join(map(str, self.C4_NS)), "--reps", str(self.REPS),
                   "--seed", str(self.seeds[0]),
                   "--csv", str(self.workdir / "c4.csv")]
        out["c4"] = led.cli(c4_argv, self.workdir / "c4.json",
                            replicates=len(self.C4_NS) * self.REPS)
        out["c4_csv"] = (self.workdir / "c4.csv").read_text() if out["c4"] else None
        out["c3"] = led.call(gg.regime_experiment, self.edge, self.gauss, self.c3,
                             list(self.C3_NS), self.REPS, self.seeds[1],
                             replicates=len(self.C3_NS) * self.REPS)
        out["c2"] = [led.call(gg.variance_lower_bound_check, self.edge, self.box, t, n,
                              self.REPS, self.seeds[2], replicates=self.REPS)
                     for n, t in zip(self.C2_NS, self.c2_radii)]
        out["gk"] = [led.call(gg.gk_contraction_mc, self.edge, self.box, t, 2, 2, 1, 1,
                              self.GK_SAMPLES, self.seeds[3], inner=inner)
                     for t, inner in zip(self.GK_RADII, self.GK_INNER)]
        return _jsonable(out)

    def check(self, out: dict) -> list:
        bad = []
        c4 = _report(out["c4"])
        if c4 is None:
            return ["c4 sweep failed"]
        recs = c4["result"]["records"]
        bad += _mean_z_failures("c4", recs, oracles.edge_prob_unit_square)
        fitted = c4["result"]["exponents"]["variance"]["fitted"]
        if not abs(fitted - 1.0) <= 0.15:   # acceptance c08 tolerance
            bad.append(f"c4 variance exponent {fitted} vs 1")
        csv_means = [float(line.split(",")[2]) for line in out["c4_csv"].splitlines()[1:]]
        if csv_means != [r["mean"] for r in recs]:
            bad.append("c4 csv means differ from the report")

        c3 = out["c3"]
        if c3 is None:
            return bad + ["c3 sweep failed"]
        bad += _mean_z_failures("c3", c3["records"], oracles.edge_prob_gaussian_1d)
        var = c3["exponents"]["variance"]
        if not abs(var["fitted"] - var["target"]) <= 0.2:   # acceptance c09 tolerance
            bad.append(f"c3 variance exponent {var['fitted']} vs {var['target']}")

        for res in out["c2"]:
            if res is None:
                bad.append("c2 variance check failed")
                continue
            q = oracles.edge_prob_unit_square(res["t"])
            if not res["ok"]:
                bad.append(f"c2 variance check not ok at n={res['n']}")
            if not abs(res["q_hat"] - q) <= MEAN_Z_LIMIT * res["q_se"]:
                bad.append(f"c2 q_hat {res['q_hat']} vs closed form {q} at n={res['n']}")

        vals = [g["value"] if g else 0.0 for g in out["gk"]]
        if min(vals) <= 0.0:
            bad.append(f"gk estimates must be positive, got {vals}")
        else:
            slope = oracles.loglog_slope(self.GK_RADII, vals)
            if not abs(slope - 3.0) <= 0.5:   # acceptance c12 tolerance
                bad.append(f"gk radius slope {slope} vs 3")
        return bad


# --- motif_regimes -----------------------------------------------------------------

#: a triangle with a pendant vertex, given to the program as a pattern file
PAW = [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]]


class MotifRegimes:
    """Triangle and induced-path counts, where counting enumerates tuples in balls.

    C4 uniform-square sweeps of the triangle and path3, their counts on the
    benchmark's own point sets (checked against dense adjacency algebra), and
    a custom 4-vertex pattern read from a pattern file.
    """

    SWEEP_NS = (128, 256, 512, 1024)
    SWEEP_REPS = 100
    OWN_NS = (512, 1024, 2048)
    CUSTOM_N = 512
    SMALL_N, SMALL_T = 36, 0.3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.seeds = _program_seeds(seed, 2)
        self.own = [(rng.random((n, 2)), (1.0 / n) ** 0.5) for n in self.OWN_NS]
        self.custom_pts = rng.random((self.CUSTOM_N, 2))
        self.small_pts = rng.random((self.SMALL_N, 2))
        path = _write_json(workdir / "paw.json", {"p": 4, "adjacency": PAW})
        self.paw = cli.load_pattern(path)
        self.triangle = gg.named_pattern("triangle")
        self.path3 = gg.named_pattern("path3")
        self.box = gg.DensityModel("uniform-box", 2)
        self.c4 = gg.RadiusSchedule("C4", rho=1.0)

    def run_round(self, led: Ledger) -> dict:
        out = {}
        for name, pat, seed in (("triangle", self.triangle, self.seeds[0]),
                                ("path3", self.path3, self.seeds[1])):
            out[f"sweep_{name}"] = led.call(
                gg.regime_experiment, pat, self.box, self.c4, list(self.SWEEP_NS),
                self.SWEEP_REPS, seed, replicates=len(self.SWEEP_NS) * self.SWEEP_REPS)
        out["own"] = [[led.call(gg.count_subgraphs, pts, pat, t)
                       for pat in (self.triangle, self.path3)]
                      for pts, t in self.own]
        out["custom"] = led.call(gg.count_subgraphs, self.custom_pts, self.paw,
                                 (1.0 / self.CUSTOM_N) ** 0.5)
        out["custom_small"] = led.call(gg.count_subgraphs, self.small_pts, self.paw,
                                       self.SMALL_T)
        return _jsonable(out)

    def check(self, out: dict) -> list:
        bad = []
        for (pts, t), (tri, path3) in zip(self.own, out["own"]):
            adj = oracles.dense_adjacency(pts, t)
            want_tri = oracles.triangles_dense(adj)
            want_path3 = oracles.induced_path3_dense(adj, want_tri)
            if (tri, path3) != (want_tri, want_path3):
                bad.append(f"n={len(pts)}: triangle/path3 {tri}/{path3} vs dense "
                           f"{want_tri}/{want_path3}")
        want = oracles.brute_force_pattern_count(self.small_pts, PAW, self.SMALL_T)
        if out["custom_small"] != want:
            bad.append(f"paw count {out['custom_small']} vs brute force {want}")
        if out["custom"] is None or out["custom"] <= 0:
            bad.append(f"paw count at n={self.CUSTOM_N} must be positive")
        for name in ("triangle", "path3"):
            rep = out[f"sweep_{name}"]
            if rep is None:
                bad.append(f"{name} sweep failed")
                continue
            recs = rep["records"]
            ns = [r["n"] for r in recs]
            for what, se_key in (("mean", "mean_se"), ("var", "var_se")):
                ys = [r[what] for r in recs]
                slope = oracles.loglog_slope(ns, ys)
                se = oracles.loglog_slope_se(ns, ys, [r[se_key] for r in recs])
                # 0.15 covers the finite-n boundary bias; 4 SEs the noise of
                # a 100-replicate budget
                if not abs(slope - 1.0) <= 0.15 + 4.0 * se:
                    bad.append(f"{name} {what} exponent {slope:.3f} (se {se:.3f}) vs 1")
        return bad


# --- finite_alphabet --------------------------------------------------------------

#: (order p, alphabet m, partner order q): orders 1-4, alphabets 2-6
CASES = ((1, 6, 1), (2, 2, 2), (2, 5, 1), (3, 3, 2), (3, 4, 1), (4, 2, 2), (4, 3, 1))

BOUND_N = 200
SIM_REPS = 2000
CALIBRATION_NS = (100, 1000, 10_000)
CALIBRATION_REPS = 10_000


def _random_measure(rng, m):
    w = rng.random(m) + 0.15
    return w / w.sum()


class FiniteAlphabet:
    """The exact layer through the CLI, on a seeded batch of kernels and measures.

    Per case: decompose, contract, product-check, the four bound variants on
    the kernel and on three times the kernel, and the library-only checks
    (contraction inequalities, dominant and multivariate bounds).  Then the
    order-1 calibration (c07) and two count-matrix simulations, and the three
    large-n bound calls in `FAILING_BOUNDS`.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.workdir = workdir
        self.sim_seed = _program_seeds(seed, 1)[0]
        self.cases = []
        for p, m, q in CASES:
            w = _random_measure(rng, m)
            general = oracles.random_symmetric(rng, p, m) + 0.3
            psi = oracles.center_axes(oracles.random_symmetric(rng, p, m), w)
            phi = oracles.center_axes(oracles.random_symmetric(rng, q, m), w)
            tag = f"p{p}m{m}"
            case = {
                "p": p, "m": m, "q": q, "weights": w, "general": general,
                "mu": uk.DiscreteMeasure(w),
                "kernels": {name: uk.SymmetricKernel(v) for name, v in
                            (("general", general), ("psi", psi), ("phi", phi))},
                "files": {
                    "measure": _write_json(workdir / f"{tag}-M.json", {"weights": w.tolist()}),
                },
            }
            for name, v in (("general", general), ("psi", psi), ("phi", phi)):
                for scale in (1, 3):
                    case["files"][f"{name}x{scale}"] = _write_json(
                        workdir / f"{tag}-{name}x{scale}.json",
                        {"order": v.ndim, "alphabet": m, "values": (scale * v).ravel().tolist()})
            self.cases.append(case)

        self.calibration = (
            _write_json(workdir / "cal-K.json", {"order": 1, "alphabet": 2,
                                                 "values": [-0.03, 0.97]}),
            _write_json(workdir / "cal-M.json", {"weights": [0.97, 0.03]}),
        )
        self.failing = []
        for p, n in FAILING_BOUNDS:
            frng = np.random.default_rng(1)
            w = _random_measure(frng, 3)
            k = oracles.random_symmetric(frng, p, 3)
            self.failing.append((
                _write_json(workdir / f"fail-n{n}-K.json",
                            {"order": p, "alphabet": 3, "values": k.ravel().tolist()}),
                _write_json(workdir / f"fail-n{n}-M.json", {"weights": w.tolist()}),
                n,
            ))

    def _bound(self, led, kernel, measure, variant, tag):
        return led.cli(["bound", "--kernel", kernel, "--measure", measure,
                        "--n", str(BOUND_N), "--variant", variant],
                       self.workdir / f"{tag}.json")

    def run_round(self, led: Ledger) -> dict:
        profile = TestFunctionProfile()
        out = {"cases": []}
        for c in self.cases:
            p, q, m = c["p"], c["q"], c["m"]
            f = c["files"]
            tag = f"p{p}m{m}"
            res = {}
            res["decompose"] = led.cli(
                ["decompose", "--kernel", f["generalx1"], "--measure", f["measure"],
                 "--n", str(p + 2)], self.workdir / f"{tag}-decompose.json")
            r = min(p, q)
            res["contract"] = led.cli(
                ["contract", "--psi", f["psix1"], "--phi", f["phix1"],
                 "--r", str(r), "--l", str((r + 1) // 2), "--measure", f["measure"]],
                self.workdir / f"{tag}-contract.json")
            res["product"] = led.cli(
                ["product-check", "--psi", f["psix1"], "--phi", f["phix1"],
                 "--n", str(p + q + 1), "--measure", f["measure"]],
                self.workdir / f"{tag}-product.json")
            for variant, kernel in (("b1", "psi"), ("b2", "psi"), ("general-B", "general"),
                                    ("general-Bprime", "general")):
                for scale in (1, 3):
                    res[f"{variant}x{scale}"] = self._bound(
                        led, f[f"{kernel}x{scale}"], f["measure"], variant,
                        f"{tag}-{variant}x{scale}")
            k, mu = c["kernels"], c["mu"]
            res["inequalities"] = led.call(uk.verify_contraction_inequalities,
                                           k["psi"], k["phi"], mu)
            for scale in (1, 3):
                res[f"dominantx{scale}"] = led.call(
                    uk.bound_dominant, k["general"].scaled(scale), mu, BOUND_N)
                pair = sorted((k["psi"], k["phi"]), key=lambda kern: kern.order)
                res[f"multivariatex{scale}"] = led.call(
                    uk.bound_multivariate, [kern.scaled(scale) for kern in pair], mu,
                    BOUND_N, profile)
            out["cases"].append(res)

        kernel, measure = self.calibration
        out["calibration"] = [
            led.cli(["simulate", "--kernel", kernel, "--measure", measure, "--n", str(n),
                     "--reps", str(CALIBRATION_REPS), "--seed", str(self.sim_seed)],
                    self.workdir / f"cal-{n}.json", replicates=CALIBRATION_REPS)
            for n in CALIBRATION_NS]
        out["simulate"] = [
            led.cli(["simulate", "--kernel", c["files"]["generalx1"],
                     "--measure", c["files"]["measure"], "--n", str(10 * c["p"] + 10),
                     "--reps", str(SIM_REPS), "--seed", str(self.sim_seed)],
                    self.workdir / f"sim-p{c['p']}.json", replicates=SIM_REPS)
            for c in self.cases if (c["p"], c["m"]) in ((2, 5), (3, 3))]
        out["failing"] = [
            led.cli(["bound", "--kernel", kernel, "--measure", measure, "--n", str(n),
                     "--variant", "general-B"], self.workdir / f"fail-{n}.json")
            for kernel, measure, n in self.failing]
        return _jsonable(out)

    def check(self, out: dict) -> list:
        bad = []
        for c, res in zip(self.cases, out["cases"]):
            tag = f"p{c['p']}m{c['m']}"
            bad += [f"{tag}: {msg}" for msg in self._check_case(c, res)]

        dists = []
        for rep in out["calibration"]:
            doc = _report(rep)
            dists.append(doc["result"]["wasserstein"] if doc else float("nan"))
        slope = oracles.loglog_slope(CALIBRATION_NS, dists)
        if not abs(slope + 0.5) <= 0.15:   # acceptance c07 tolerance
            bad.append(f"order-1 distance slope {slope} vs -0.5")

        for rep in out["simulate"]:
            doc = _report(rep)
            if doc is None:
                bad.append("simulate failed")
                continue
            vals = doc["result"]["values"]
            # exact normalization: replicates standardized by the true mean and sd
            if not (abs(vals["mean"]) <= 5.0 / math.sqrt(SIM_REPS)
                    and abs(vals["sd"] - 1.0) <= 0.1 and vals["count"] == SIM_REPS):
                bad.append(f"simulate values not standardized: {vals}")

        for rep in out["failing"]:
            # counted as failed while the fault stands; once mended, the
            # report must hold together like any other bound
            if rep is not None:
                bad += _bound_total_failures(_report(rep)["result"], "large-n bound")
        return bad

    def _check_case(self, c, res) -> list:
        bad = []
        w = c["weights"]
        dec = _report(res["decompose"])
        if dec is None:
            bad.append("decompose failed")
        else:
            d = dec["result"]
            # recomputed from the returned psi_1..psi_p; psi_0 is a constant
            defects = [oracles.degeneracy_defect(psi, w) for psi in d["psi"][1:]]
            if len(defects) != c["p"] or not max(defects) <= 1e-10:
                bad.append(f"level defects {defects}")
            want = oracles.ustat_variance_exhaustive(c["general"], w, c["p"] + 2)
            if not abs(d["variance_hoeffding"] - want) <= 1e-9 * (1.0 + abs(want)):
                bad.append(f"variance {d['variance_hoeffding']} vs exhaustive {want}")

        con = _report(res["contract"])
        if con is None:
            bad.append("contract failed")
        else:
            got = con["result"]["l2_norm"]
            want = oracles.weighted_l2(con["result"]["tensor"], w)
            if not abs(got - want) <= 1e-10 * (1.0 + want):
                bad.append(f"contraction norm {got} vs direct sum {want}")

        prod = _report(res["product"])
        if prod is None:
            bad.append("product-check failed")
        elif not prod["result"]["max_residual"] <= 1e-8:
            bad.append(f"product-check residual {prod['result']['max_residual']}")

        if res["inequalities"] is None or not res["inequalities"]["all_pass"]:
            bad.append("contraction inequalities do not all pass")

        for variant in ("b1", "b2", "general-B", "general-Bprime", "dominant",
                        "multivariate"):
            pair = [res[f"{variant}x{s}"] for s in (1, 3)]
            if any(rep is None for rep in pair):
                bad.append(f"{variant} bound failed")
                continue
            docs = [_report(rep)["result"] if isinstance(rep, str) else rep
                    for rep in pair]
            for doc in docs:
                bad += _bound_total_failures(doc, variant)
            a, b = docs[0]["total"], docs[1]["total"]
            if not abs(a - b) <= 1e-9 * (1.0 + abs(a)):   # acceptance c06 tolerance
                bad.append(f"{variant} total not scale invariant: {a} vs {b}")
        return bad


def _bound_total_failures(doc, label) -> list:
    total, terms = doc["total"], doc["terms"]
    s = math.fsum(terms.values())
    if not (math.isfinite(total) and total >= 0.0 and abs(total - s) <= 1e-12 * (1.0 + abs(s))):
        return [f"{label}: total {total} is not the sum of its terms {terms}"]
    return []


WORKLOADS = {
    "edge_regimes": EdgeRegimes,
    "motif_regimes": MotifRegimes,
    "finite_alphabet": FiniteAlphabet,
}
