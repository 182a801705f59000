"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The geometric-rate criteria drive full Monte Carlo
sweeps and take several minutes; everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

import ustatkit as uk
from ustatkit import geomgraph as gg
from ustatkit.bounds import TestFunctionProfile
from ustatkit.montecarlo import ols_loglog

from helpers import (
    all_samples,
    random_degenerate,
    random_kernel,
    random_measure,
    ustat_direct,
)

PROFILE = TestFunctionProfile(m1=1.0, m2=1.0, m3=1.0)


def _emit(num, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} - {description} ({detail})")
    assert ok, f"criterion {num}: {description}: {detail}"


# --- shared expensive sweeps -------------------------------------------------

@pytest.fixture(scope="session")
def c4_sweep_r2000():
    t0 = time.time()
    rep = gg.regime_experiment(
        uk.named_pattern("edge"), gg.DensityModel("uniform-box", 2),
        gg.RadiusSchedule("C4", rho=1.0),
        [256, 512, 1024, 2048, 4096, 8192], 2000, seed=11,
    )
    return rep, time.time() - t0


@pytest.fixture(scope="session")
def c3_sweep_r2000():
    t0 = time.time()
    rep = gg.regime_experiment(
        uk.named_pattern("edge"), gg.DensityModel("gaussian", 1),
        gg.RadiusSchedule("C3", beta=0.5),
        [64, 128, 256, 512, 1024, 2048, 4096, 8192], 2000, seed=11,
    )
    return rep, time.time() - t0


@pytest.fixture(scope="session")
def c4_sweep_distance():
    # distance-rate replica of the criterion-8 sweep; the coupling estimator
    # needs a far larger replicate budget than the variance fit, and the
    # distance criterion carries no runtime cap
    rep = gg.regime_experiment(
        uk.named_pattern("edge"), gg.DensityModel("uniform-box", 2),
        gg.RadiusSchedule("C4", rho=1.0),
        [256, 512, 1024, 2048, 4096, 8192], 20000, seed=11,
    )
    return rep


@pytest.fixture(scope="session")
def c3_sweep_distance():
    rep = gg.regime_experiment(
        uk.named_pattern("edge"), gg.DensityModel("gaussian", 1),
        gg.RadiusSchedule("C3", beta=0.5),
        [64, 128, 256, 512, 1024, 2048, 4096, 8192], 30000, seed=11,
    )
    return rep


# --- criteria ----------------------------------------------------------------

def test_c01_product_formula_identity():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        m = 3
        mu = random_measure(rng, m)
        p = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        psi = random_degenerate(rng, p, m, mu)
        phi = random_degenerate(rng, q, m, mu)
        worst = max(worst, uk.verify_product_formula(uk.product_kernels(psi, phi, 5, mu)))
    elapsed = time.time() - t0
    _emit(1, "product decomposition identity, 20 degenerate pairs",
          worst <= 1e-8 and elapsed <= 10.0,
          f"max residual {worst:.3g}, {elapsed:.1f}s")


def test_c02_hoeffding_reconstruction():
    rng = np.random.default_rng(102)
    t0 = time.time()
    worst_resid = 0.0
    worst_defect = 0.0
    worst_gap = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        n = int(rng.integers(p, 6))
        mu = random_measure(rng, m)
        kernel = random_kernel(rng, p, m)
        hs = uk.decompose(kernel, mu)
        from ustatkit.hoeffding import hoeffding_sum, _embed
        import itertools as it
        g0 = float(hs.g[0])
        for s in range(1, p + 1):
            defect = float(np.max(np.abs(np.tensordot(mu.weights, hs.psi[s], axes=([0], [0])))))
            worst_defect = max(worst_defect, defect)
            alt = np.full((m,) * s, ((-1.0) ** s) * g0)
            for k in range(1, s + 1):
                for subset in it.combinations(range(s), k):
                    alt += ((-1.0) ** (s - k)) * _embed(hs.g[k], subset, s, m)
            worst_gap = max(worst_gap, float(np.max(np.abs(hs.psi[s] - alt))))
        for x in all_samples(m, n):
            lhs = ustat_direct(kernel, x)
            rhs = hoeffding_sum(hs, n, list(x))
            worst_resid = max(worst_resid, abs(lhs - rhs))
    elapsed = time.time() - t0
    _emit(2, "decomposition reconstructs the statistic on every sample",
          worst_resid <= 1e-9 and worst_defect <= 1e-10 and worst_gap <= 1e-10
          and elapsed <= 10.0,
          f"residual {worst_resid:.3g}, defect {worst_defect:.3g}, "
          f"construction gap {worst_gap:.3g}, {elapsed:.1f}s")


def test_c03_variance_formulas_agree():
    rng = np.random.default_rng(103)
    t0 = time.time()
    worst_rel = 0.0
    ok_lower = True
    for _ in range(100):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        n = int(rng.integers(p, p + 12))
        mu = random_measure(rng, m)
        kernel = random_kernel(rng, p, m)
        v_h, v_g = uk.variance(uk.decompose(kernel, mu), n)
        worst_rel = max(worst_rel, abs(v_h - v_g) / (1.0 + abs(v_g)))
        g0 = float(uk.compute_g(kernel, mu, 0))
        lower = math.comb(n, p) * (uk.lp_norm(kernel, mu, 2.0) ** 2 - g0 * g0)
        ok_lower = ok_lower and min(v_h, v_g) >= lower - 1e-9 * (1.0 + abs(lower))
    elapsed = time.time() - t0
    _emit(3, "variance formulas agree and dominate the binomial lower bound",
          worst_rel <= 1e-9 and ok_lower and elapsed <= 5.0,
          f"max relative gap {worst_rel:.3g}, {elapsed:.1f}s")


def test_c04_contraction_norm_suite():
    rng = np.random.default_rng(104)
    t0 = time.time()
    all_ok = True
    for _ in range(100):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        mu = random_measure(rng, m)
        report = uk.verify_contraction_inequalities(
            random_kernel(rng, p, m), random_kernel(rng, q, m), mu
        )
        all_ok = all_ok and report["all_pass"]
    elapsed = time.time() - t0
    _emit(4, "all six contraction-norm checks on 100 random pairs",
          all_ok and elapsed <= 30.0, f"{elapsed:.1f}s")


def test_c05_aggregate_ordering():
    rng = np.random.default_rng(105)
    ok = True
    worst = -1.0
    for _ in range(50):
        m = int(rng.integers(2, 5))
        mu = random_measure(rng, m)
        pi = int(rng.integers(1, 4))
        pk = int(rng.integers(1, 4))
        psi = random_degenerate(rng, pi, m, mu)
        phi = random_degenerate(rng, pk, m, mu)
        a1, a2 = uk.contraction_aggregates(psi, phi, mu, 10)
        ok = ok and a1 <= a2 + 1e-12
        worst = max(worst, a1 - a2)
    _emit(5, "first contraction aggregate never exceeds the second",
          ok, f"max A1-A2 = {worst:.3g}")


def test_c06_bound_scale_invariance():
    rng = np.random.default_rng(106)
    ok = True
    worst = 0.0

    def check(a, b):
        nonlocal ok, worst
        rel = abs(a - b) / (1.0 + abs(a))
        worst = max(worst, rel)
        ok = ok and rel <= 1e-9

    for i in range(20):
        m = int(rng.integers(2, 5))
        mu = random_measure(rng, m)
        p = int(rng.integers(1, 4))
        psi = random_degenerate(rng, p, m, mu)
        b1, b2 = uk.bound_degenerate_1d(psi, mu, 30, None)
        s1, s2 = uk.bound_degenerate_1d(psi.scaled(3.0), mu, 30, None)
        check(b1.total, s1.total)
        check(b2.total, s2.total)
        general = uk.SymmetricKernel(random_kernel(rng, 2, m).values + 0.3)
        bg = uk.bound_general(general, mu, 30, PROFILE)
        sg = uk.bound_general(general.scaled(3.0), mu, 30, PROFILE)
        check(bg.total, sg.total)
        bd = uk.bound_dominant(general, mu, 30)
        sd = uk.bound_dominant(general.scaled(3.0), mu, 30)
        check(bd.total, sd.total)
        if i % 4 == 0:
            pair = [random_degenerate(rng, 1, m, mu), random_degenerate(rng, 2, m, mu)]
            bm = uk.bound_multivariate(pair, mu, 20, PROFILE)
            sm = uk.bound_multivariate([k.scaled(3.0) for k in pair], mu, 20, PROFILE)
            check(bm.total, sm.total)
    _emit(6, "every bound report is invariant under kernel rescaling",
          ok, f"max relative drift {worst:.3g}")


def test_c07_order_one_clt_calibration():
    t0 = time.time()
    kernel, mu = uk.benchmark_kernel()
    ns = [100, 1000, 10000]
    ds = []
    for n in ns:
        rep = uk.simulate(kernel, mu, n, 10000, seed=7, normalization="exact")
        ds.append(uk.wasserstein_to_normal(rep).value)
    slope = ols_loglog(ns, ds).slope
    elapsed = time.time() - t0
    _emit(7, "order-1 benchmark distance decays at the root-n rate",
          abs(slope + 0.5) <= 0.15 and elapsed <= 120.0,
          f"slope {slope:.3f}, distances {[round(d, 4) for d in ds]}, {elapsed:.1f}s")


def test_c08_thermodynamic_variance_scaling(c4_sweep_r2000):
    rep, elapsed = c4_sweep_r2000
    fitted = rep.exponents["variance"]["fitted"]
    _emit(8, "thermodynamic-regime count variance grows linearly",
          abs(fitted - 1.0) <= 0.15 and elapsed <= 300.0,
          f"exponent {fitted:.3f}, {elapsed:.1f}s")


def test_c09_dense_nonuniform_variance_scaling(c3_sweep_r2000):
    rep, elapsed = c3_sweep_r2000
    fitted = rep.exponents["variance"]["fitted"]
    target = rep.exponents["variance"]["target"]
    _emit(9, "dense non-uniform count variance follows the projection order",
          abs(fitted - target) <= 0.2 and elapsed <= 300.0,
          f"exponent {fitted:.3f} vs target {target}, {elapsed:.1f}s")


def test_c10_clt_rate_for_counts(c4_sweep_distance, c3_sweep_distance):
    ok = True
    details = []
    for label, rep in (("C4", c4_sweep_distance), ("C3", c3_sweep_distance)):
        fitted = rep.exponents["distance"]["fitted"]
        last = rep.records[-1]
        ok = ok and abs(fitted + 0.5) <= 0.2 and last["dw"] <= 0.1
        details.append(f"{label}: exponent {fitted:.3f}, final dw {last['dw']:.4f}")
    _emit(10, "normalized counts approach the normal at the root-n rate",
          ok, "; ".join(details))


def test_c11_dense_uniform_variance_safeguard():
    # dense uniform-box sweep: the binomial lower bound must hold at every n,
    # and the regime report must flag its rates as bounds, not asymptotics
    pat = uk.named_pattern("edge")
    box = gg.DensityModel("uniform-box", 2)
    sched = gg.RadiusSchedule("C2", beta=0.5)
    ns = [128, 256, 512, 1024, 2048]
    all_ok = True
    worst = None
    for n in ns:
        out = uk.variance_lower_bound_check(pat, box, sched.radius(n, 2), n,
                                            reps=1000, seed=19)
        all_ok = all_ok and out["ok"]
        ratio = out["lhs_variance"] / out["rhs_bound"]
        worst = ratio if worst is None else min(worst, ratio)
    rep = gg.regime_experiment(pat, box, sched, ns, 300, seed=23)
    flags_ok = (rep.exponents["variance"]["flag"] == "lower-bound-only"
                and rep.exponents["distance"]["flag"] == "upper-bound-only")
    _emit(11, "dense-uniform variance lower bound holds; rates flagged as bounds",
          all_ok and flags_ok, f"min variance/bound ratio {worst:.3f}")


def test_c12_projection_contraction_scaling():
    t0 = time.time()
    pat = uk.named_pattern("edge")
    box = gg.DensityModel("uniform-box", 2)
    ts = (0.4, 0.2, 0.1, 0.05)
    vals = []
    reliable = True
    for t in ts:
        est = uk.gk_contraction_mc(pat, box, t, 2, 2, 1, 1, 80000, seed=12, inner=160)
        vals.append(est.value)
        reliable = reliable and est.reliable
    slope = ols_loglog(ts, vals).slope
    elapsed = time.time() - t0
    _emit(12, "projection-contraction norms scale at the predicted radius power",
          reliable and abs(slope - 3.0) <= 0.5 and elapsed <= 180.0,
          f"slope {slope:.3f} vs 3, {elapsed:.1f}s")


def test_c13_cli_determinism(tmp_path, replicate_workers):
    import json
    from ustatkit.cli import main

    kernel = {"order": 2, "alphabet": 2, "values": [1.0, 0.0, 0.0, 1.0]}
    measure = {"weights": [0.5, 0.5]}
    kp, mp = tmp_path / "K.json", tmp_path / "M.json"
    kp.write_text(json.dumps(kernel))
    mp.write_text(json.dumps(measure))

    commands = [
        ["decompose", "--kernel", str(kp), "--measure", str(mp), "--n", "6"],
        ["simulate", "--kernel", str(kp), "--measure", str(mp), "--n", "20",
         "--reps", "300", "--seed", "5", "--normalization", "empirical"],
        ["geomgraph", "--pattern", "edge", "--density", "uniform-box", "--dim", "2",
         "--regime", "C4", "--rho", "1.0", "--ns", "64,128,256,512",
         "--reps", "120", "--seed", "3"],
    ]

    def reports(tag):
        out = []
        for idx, argv in enumerate(commands):
            path = tmp_path / f"{tag}{idx}.json"
            out.append(path.read_bytes() if main(argv + ["--out", str(path)]) == 0 else None)
        return out

    a, b = reports("a"), reports("b")
    replicate_workers(1)
    one = reports("one")
    replicate_workers(2)
    two = reports("two")
    ok = None not in a and a == b == one == two
    _emit(13, "identical configurations produce byte-identical reports", ok,
          f"{len(commands)} commands compared, also at 1 and 2 replicate workers")
