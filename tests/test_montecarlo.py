import ast
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import ustatkit
from ustatkit import (
    DiscreteMeasure,
    SymmetricKernel,
    montecarlo,
    simulate,
    wasserstein_to_normal,
)
from ustatkit.errors import CapacityError, ConfigurationError, ParameterError, PreconditionError
from ustatkit.geomgraph import (
    DensityModel,
    RadiusSchedule,
    gk_contraction_mc,
    named_pattern,
    regime_experiment,
    variance_lower_bound_check,
)
from ustatkit.montecarlo import (
    NormalizationRecord,
    Purpose,
    ReplicateSet,
    _block_rows,
    _replicates,
    coupling_bias,
    coupling_distance,
    debiased_distance,
    fit_distance_powerlaw,
    normal_quantile_grid,
    ols_loglog,
    stream,
)
from ustatkit.hoeffding import ustat_values_from_count_matrix

HALF = DiscreteMeasure(np.array([0.5, 0.5]))
COIN = SymmetricKernel(np.array([1.0, -1.0]))


def _normal_repset(r, seed=123):
    values = stream(seed, Purpose.REPLICATE).standard_normal(r)
    return ReplicateSet(values=values, seed=seed,
                        normalization=NormalizationRecord(0.0, 1.0, "exact"))


class TestStreams:
    def test_streams_are_reproducible(self):
        a = stream(7, Purpose.REPLICATE, 0, 3).standard_normal(5)
        b = stream(7, Purpose.REPLICATE, 0, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = stream(7, Purpose.REPLICATE, 0, 3).standard_normal(5)
        b = stream(7, Purpose.REPLICATE, 0, 4).standard_normal(5)
        c = stream(8, Purpose.REPLICATE, 0, 3).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_keys_are_distinct_at_boundary_values(self):
        keys = {}
        for seed in (0, 2**64 - 1):
            for purpose in Purpose:
                for slot in (0, 1, 2**24 - 1):
                    for j in (0, 1, 2**32 - 1):
                        key = stream(seed, purpose, slot, j).bit_generator.state["state"]["key"]
                        keys[(seed, purpose, slot, j)] = tuple(int(w) for w in key)
        assert len(set(keys.values())) == len(keys)
        # replicate keys keep the (seed, slot << 32 | j) layout of earlier releases
        assert keys[(2**64 - 1, Purpose.REPLICATE, 1, 2**32 - 1)] == (2**64 - 1, 2**33 - 1)

    @pytest.mark.parametrize("seed, purpose, slot, j", [
        (-1, Purpose.REPLICATE, 0, 0),
        (2**64, Purpose.REPLICATE, 0, 0),
        (0, Purpose.REPLICATE, 0, 2**32),
        (0, Purpose.REPLICATE, 0, -1),
        (0, Purpose.BOOTSTRAP, 2**24, 0),
        (0, 1, 0, 0),
    ])
    def test_out_of_range_keys_raise(self, seed, purpose, slot, j):
        with pytest.raises(ParameterError):
            stream(seed, purpose, slot, j)

    def test_replicate_seed_is_checked(self):
        with pytest.raises(ParameterError):
            simulate(COIN, HALF, 10, 100, seed=-1)

    def test_only_stream_builds_generators(self):
        # every Philox key comes from montecarlo.stream; the symmetry check's
        # fixed permutation sample is the one seeded generator elsewhere
        found = set()

        def visit(node, module, func):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    callee = getattr(child.func, "attr", getattr(child.func, "id", None))
                    if callee in ("Philox", "default_rng"):
                        found.add((module, func, ast.unparse(child)))
                if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.LShift)
                        and isinstance(child.right, ast.Constant) and child.right.value == 32):
                    found.add((module, func, "<< 32"))
                name = child.name if isinstance(child, ast.FunctionDef) else func
                visit(child, module, name)

        for path in sorted(Path(ustatkit.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), path.stem, None)
        assert found == {
            ("montecarlo", "stream", "np.random.Philox(key=key)"),
            ("montecarlo", "stream", "<< 32"),
            ("core", "_check_symmetry", "np.random.default_rng(0)"),
        }


def _index(rng):
    """The replicate index j of a stream built by `stream`."""
    return int(rng.bit_generator.state["state"]["key"][1]) & 0xFFFFFFFF


def _fail_at(bad):
    """A draw that raises ``bad[j]`` at the replicates j it names."""

    def draw(rng):
        j = _index(rng)
        if j in bad:
            raise bad[j]
        return rng.integers(0, 1000)

    return draw


def _dirty_draw(rng):
    """Five draw kinds, led by kind j % 5 of replicate j, as bytes.  Nine
    32-bit draws in all leave the generator holding half of a 64-bit word,
    and part of its Philox block, for the next replicate."""
    kinds = (
        lambda: rng.multinomial(40, [0.2, 0.3, 0.5]),
        lambda: rng.random(3),
        lambda: rng.standard_normal(3),
        lambda: rng.integers(0, 2**31, size=4, dtype=np.int32),
        lambda: rng.integers(0, 2**63, size=2, dtype=np.int64),
    )
    lead = _index(rng) % len(kinds)
    rows = [kind() for kind in kinds[lead:] + kinds[:lead]]
    rows.append(rng.integers(0, 2**31, size=5, dtype=np.int32))
    return b"".join(row.tobytes() for row in rows)


def _ends(*args):
    """`range`, cut to its first and last three members."""
    r = range(*args)
    return r if len(r) <= 6 else [*r[:3], *r[-3:]]


class _SparseRows:
    """Stands in for a replicate array of 2**32 rows; keeps the rows filled."""

    shape = (2**32,)

    def __init__(self):
        self.rows = {}

    def __setitem__(self, j, row):
        if len(self.rows) >= 8:
            raise RuntimeError("the replicate loop ran past its thinned range")
        self.rows[j] = row


class TestRekey:
    KEYS = ((7, Purpose.REPLICATE, 3), (2**64 - 1, Purpose.GK, 2**24 - 1))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed, purpose, slot", KEYS)
    def test_draws_match_fresh_streams(self, replicate_workers, workers, seed, purpose,
                                       slot):
        replicate_workers(workers)
        out = _replicates(np.empty(23, dtype=object), _dirty_draw, seed, purpose, slot)
        for j, row in enumerate(out):
            assert row == _dirty_draw(stream(seed, purpose, slot, j))

    def test_top_replicate_index(self, replicate_workers, monkeypatch):
        # the loop's range is thinned to its ends, so replicates 2**32 - 3 to
        # 2**32 - 1 run straight after replicates 0 to 3
        replicate_workers(1)
        monkeypatch.setattr(montecarlo, "range", _ends, raising=False)
        seed, purpose, slot = self.KEYS[1]
        out = _replicates(_SparseRows(), _dirty_draw, seed, purpose, slot)
        assert sorted(out.rows) == [0, 1, 2, 3, 2**32 - 3, 2**32 - 2, 2**32 - 1]
        for j, row in out.rows.items():
            assert row == _dirty_draw(stream(seed, purpose, slot, j))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_generator_per_process(self, replicate_workers, monkeypatch, workers):
        # a forked worker starts from a copy of the parent's list, so every
        # row reads 1 when no process built a second generator
        replicate_workers(workers)
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(None)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        rows = _replicates(np.empty(40, dtype=np.int64), lambda rng: len(built), 1)
        assert len(built) == 1
        assert set(rows) == {1}


class TestReplicateWorkers:
    MU = DiscreteMeasure(np.array([0.2, 0.3, 0.5]))

    def _both(self, replicate_workers, run):
        replicate_workers(1)
        serial = run()
        replicate_workers(2)
        return serial, run()

    def test_forked_rows_match_serial_rows(self, replicate_workers):
        draws = (
            (lambda: np.empty(41), lambda rng: rng.poisson(30.0)),
            (lambda: np.empty((41, 3), dtype=np.int64),
             lambda rng: rng.multinomial(500, self.MU.weights)),
        )
        for make, draw in draws:
            serial, forked = self._both(
                replicate_workers, lambda: _replicates(make(), draw, 7, Purpose.REPLICATE, 3))
            assert serial.dtype == forked.dtype
            assert serial.tobytes() == forked.tobytes()

    def test_blocks_run_in_children(self, replicate_workers):
        replicate_workers(3)
        pids = _replicates(np.empty(9, dtype=np.int64), lambda rng: os.getpid(), 1)
        assert list(pids[:3]) == [os.getpid()] * 3
        assert len(set(pids[3:6])) == len(set(pids[6:])) == 1
        assert len(set(pids)) == 3

    def test_callers_match_at_one_and_two_workers(self, replicate_workers):
        edge, box = named_pattern("edge"), DensityModel("uniform-box", 2)
        kernel = SymmetricKernel(np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.3],
                                           [0.0, 0.3, 2.0]]))
        runs = (
            lambda: repr(regime_experiment(edge, box, RadiusSchedule("C4", rho=1.0),
                                           [64, 128, 256, 512], 100, seed=3).to_dict()),
            lambda: repr(variance_lower_bound_check(edge, box, 0.1, 64, 200, seed=5,
                                                    q_samples=1000)),
            lambda: simulate(kernel, self.MU, 30, 500, seed=9).values.tobytes(),
            lambda: simulate(kernel, self.MU, 30, 500, seed=9,
                             normalization="empirical").values.tobytes(),
        )
        for run in runs:
            serial, forked = self._both(replicate_workers, run)
            assert serial == forked

    def test_block_estimates_match_at_one_two_and_three_workers(self, replicate_workers):
        # ragged totals: the last row is cut
        edge, box = named_pattern("edge"), DensityModel("uniform-box", 2)
        runs = (
            lambda: repr(gk_contraction_mc(edge, box, 0.2, 2, 2, 1, 1, 10_001, seed=4,
                                           inner=8)),
            lambda: repr(variance_lower_bound_check(edge, box, 0.1, 64, 100, seed=5,
                                                    q_samples=120_001)),
            lambda: repr(coupling_bias.__wrapped__(300)),
            lambda: repr(regime_experiment(edge, box, RadiusSchedule("C4", rho=1.0),
                                           [64, 128, 256, 512], 100, seed=3).to_dict()),
        )
        for run in runs:
            found = []
            for workers in (1, 2, 3):
                replicate_workers(workers)
                found.append(run())
            assert found[0] == found[1] == found[2]

    def test_child_error_is_reraised(self, replicate_workers):
        replicate_workers(2)
        with pytest.raises(ZeroDivisionError, match="^replicate 7$"):
            _replicates(np.empty(10), _fail_at({7: ZeroDivisionError("replicate 7")}), 1)

    @pytest.mark.parametrize("bad, want", [
        ({4: KeyError("block 1"), 7: ValueError("block 2")}, KeyError),
        ({8: KeyError("block 2"), 2: ValueError("block 0")}, ValueError),
        ({0: ValueError("replicate 0"), 5: KeyError("block 1")}, ValueError),
    ])
    def test_lowest_failing_block_wins(self, replicate_workers, bad, want):
        replicate_workers(3)
        with pytest.raises(want):
            _replicates(np.empty(9), _fail_at(bad), 1)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_child_or_pipe_is_left(self, replicate_workers):
        replicate_workers(3)
        fds = sorted(os.listdir("/proc/self/fd"))
        _replicates(np.empty(9), _fail_at({}), 1)
        with pytest.raises(KeyError):
            _replicates(np.empty(9), _fail_at({1: KeyError("parent block")}), 1)
        with pytest.raises(KeyError):
            _replicates(np.empty(9), _fail_at({4: KeyError("child block")}), 1)
        assert sorted(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_stays_in_process_while_a_thread_runs(self, replicate_workers):
        replicate_workers(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30.0,))
        other.start()
        try:
            pids = _replicates(np.empty(8, dtype=np.int64), lambda rng: os.getpid(), 1)
        finally:
            release.set()
            other.join(timeout=30.0)
        assert not other.is_alive()
        assert set(pids) == {os.getpid()}


@pytest.mark.parametrize("total, size", [
    (1, 1), (1, 50), (7, 7), (8, 7), (99, 1000), (1000, 3), (10_001, 256), (120_001, 50_000),
])
def test_block_rows_cut_the_total_into_equal_rows(replicate_workers, total, size):
    replicate_workers(1)
    cols = []

    def draw(rng, c):
        cols.append(c)
        return np.full(c, _index(rng))

    out = _block_rows(total, size, draw, 1, Purpose.QPROB)
    rows, c = len(cols), cols[0]
    assert set(cols) == {c}
    assert rows == math.ceil(total / size)
    assert rows * c >= total and c <= size
    assert rows * c - total < rows
    assert out.tobytes() == np.repeat(np.arange(rows, dtype=float), c)[:total].tobytes()


class TestSimulate:
    def test_coin_kernel_moments(self):
        rep = simulate(COIN, HALF, 10, 4000, seed=1, normalization="exact")
        assert rep.normalization.sd == pytest.approx(math.sqrt(10.0))
        assert abs(float(rep.values.mean())) <= 4.0 / math.sqrt(4000)

    def test_constant_kernel_rejected_in_exact_mode(self):
        const = SymmetricKernel(np.full((2, 2), 1.0))
        with pytest.raises(PreconditionError):
            simulate(const, HALF, 10, 100, seed=0, normalization="exact")

    def test_exact_normalization_decomposes_once(self, decompose_calls):
        k = SymmetricKernel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        simulate(k, HALF, 10, 50, seed=1, normalization="exact")
        assert decompose_calls == [2]

    def test_determinism(self):
        a = simulate(COIN, HALF, 25, 500, seed=9, normalization="exact")
        b = simulate(COIN, HALF, 25, 500, seed=9, normalization="exact")
        assert np.array_equal(a.values, b.values)

    def test_values_match_per_replicate_streams(self):
        # replicate j must be a pure function of stream (seed, REPLICATE, 0, j)
        rep = simulate(COIN, HALF, 12, 4, seed=5, normalization="exact")
        j = 2
        counts = stream(5, Purpose.REPLICATE, 0, j).multinomial(12, HALF.weights)
        raw = counts[0] * 1.0 + counts[1] * (-1.0)
        assert rep.values[j] == pytest.approx(raw / math.sqrt(12.0))

    def test_empirical_normalization(self):
        rep = simulate(COIN, HALF, 30, 800, seed=3, normalization="empirical")
        assert float(rep.values.mean()) == pytest.approx(0.0, abs=1e-12)
        assert float(rep.values.std(ddof=1)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(("args", "error", "message"), [
        ((COIN, HALF, 10, 100, 0, "raw"), ConfigurationError, "unknown normalization"),
        ((COIN, HALF, 10, 1, 0), ParameterError, "two replicates"),
        ((COIN, None, 10, 100, 0), ParameterError, "need a measure"),
        ((SymmetricKernel(np.eye(2)), HALF, 1, 100, 0), ParameterError, "need n >= p = 2"),
        ((np.ones(2), HALF, 10, 100, 0), ParameterError, "unsupported kernel type"),
        ((SymmetricKernel(np.ones(2)), HALF, 10, 100, 0, "empirical"), PreconditionError,
         "replicates are constant"),
    ])
    def test_guards(self, args, error, message):
        with pytest.raises(error, match=message):
            simulate(*args)

    def test_empirical_normalization_is_the_replicate_sets(self):
        mu = DiscreteMeasure(np.array([0.2, 0.3, 0.5]))
        k = SymmetricKernel(np.array([[1.0, -0.5, 0.2], [-0.5, 0.3, 0.7], [0.2, 0.7, -1.0]]))
        counts = np.array([stream(6, Purpose.REPLICATE, 0, j).multinomial(15, mu.weights)
                           for j in range(200)])
        want = ReplicateSet.empirical(ustat_values_from_count_matrix(k.values, counts), 6)
        got = simulate(k, mu, 15, 200, seed=6, normalization="empirical")
        assert np.array_equal(got.values, want.values)
        assert (got.normalization, got.seed, got.slot) == (want.normalization, 6, 0)

    def test_order_two_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal((3, 3))
        k = SymmetricKernel((vals + vals.T) / 2.0)
        mu = DiscreteMeasure(np.array([0.2, 0.3, 0.5]))
        rep = simulate(k, mu, 9, 3, seed=4, normalization="empirical")
        from helpers import ustat_direct
        for j in range(3):
            counts = stream(4, Purpose.REPLICATE, 0, j).multinomial(9, mu.weights)
            x = [s for s, c in enumerate(counts) for _ in range(c)]
            direct = ustat_direct(k, x)
            raw = rep.values[j] * rep.normalization.sd + rep.normalization.mean
            assert raw == pytest.approx(direct, abs=1e-9)


class TestOneResampler:
    def test_every_bootstrap_draws_through_it(self, record_calls):
        # per sweep size: the count moments' bootstrap and the distance's
        calls = record_calls(montecarlo, "_resampled", lambda values, rng: values.size)
        edge, box = named_pattern("edge"), DensityModel("uniform-box", 2)
        regime_experiment(edge, box, RadiusSchedule("C4", rho=1.0), [64, 128, 256, 512],
                          100, seed=5)
        assert calls == [100] * 8
        calls.clear()
        variance_lower_bound_check(edge, box, 0.1, 64, 120, seed=5, q_samples=1000)
        assert calls == [120]


class TestWasserstein:
    def test_self_coupling_is_zero(self):
        grid = normal_quantile_grid(500)
        assert coupling_distance(grid) == 0.0
        rows = np.stack([grid[::-1], grid + 1.0])
        assert np.allclose(coupling_distance(rows), [0.0, 1.0], rtol=0.0, atol=1e-12)

    def test_standard_normal_calibration(self):
        rep = _normal_repset(20000)
        est = wasserstein_to_normal(rep)
        assert est.value <= 0.02
        assert est.stderr > 0.0

    def test_constant_zero_values(self):
        rep = ReplicateSet(values=np.zeros(5000), seed=0,
                           normalization=NormalizationRecord(0.0, 1.0, "exact"))
        est = wasserstein_to_normal(rep)
        assert est.value == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.02)

    def test_shift_bounds(self):
        rep = _normal_repset(2000)
        base = wasserstein_to_normal(rep).value
        c = 0.75
        shifted = ReplicateSet(values=rep.values + c, seed=rep.seed,
                               normalization=rep.normalization)
        new = wasserstein_to_normal(shifted).value
        assert new <= base + c + 1e-12
        assert new >= c - 2.0 * base

    def test_requires_enough_replicates(self):
        rep = ReplicateSet(values=np.arange(50, dtype=float), seed=0,
                           normalization=NormalizationRecord(0.0, 1.0, "exact"))
        with pytest.raises(CapacityError):
            wasserstein_to_normal(rep)

    def test_coupling_bias_decreases_with_replicates(self):
        small = coupling_bias(500)
        large = coupling_bias(5000)
        assert 0.0 < large < small

    def test_coupling_bias_builds_its_grid_once(self, monkeypatch, replicate_workers):
        calls = []
        real = montecarlo._ndtri
        monkeypatch.setattr(montecarlo, "_ndtri", lambda y: calls.append(y) or real(y))
        normal_quantile_grid.cache_clear()
        replicate_workers(1)
        coupling_bias.__wrapped__(263)
        assert len(calls) == 263
        assert normal_quantile_grid.cache_info().misses == 1

    def test_coupling_bias_builds_its_grid_before_the_replicates(self, monkeypatch):
        # replicate 0's time decides whether to fork, so it must not pay for the grid
        cached = []
        real = montecarlo._replicates

        def entering(*args, **kwargs):
            cached.append(normal_quantile_grid.cache_info().currsize)
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_replicates", entering)
        normal_quantile_grid.cache_clear()
        coupling_bias.__wrapped__(137)
        assert cached == [1]

    def test_quantile_grid_is_shared_read_only(self):
        grid = normal_quantile_grid(300)
        assert normal_quantile_grid(300) is grid and not grid.flags.writeable
        assert grid.tobytes() == special.ndtri((np.arange(1, 301) - 0.5) / 300).tobytes()

    def test_quantile_grid_equals_scipy_bit_for_bit(self):
        for r in [*range(1, 3001), 5000, 10_000, 20_000, 50_000, 100_000]:
            mids = (np.arange(1, r + 1) - 0.5) / r
            assert normal_quantile_grid.__wrapped__(r).tobytes() == special.ndtri(mids).tobytes(), r

    @pytest.mark.parametrize("edge", [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0),
                                      0.5, 1e-300])
    def test_quantile_equals_scipy_across_each_branch_edge(self, edge):
        # exp(-2) and 1 - exp(-2) bound the central rational approximation and
        # exp(-32) is where sqrt(-2 log y) crosses 8 between the two tail ones
        ys = [edge]
        for _ in range(3):
            ys = [np.nextafter(ys[0], 0.0), *ys, np.nextafter(ys[-1], 1.0)]
        ours = np.array([montecarlo._ndtri(float(y)) for y in ys])
        assert ours.tobytes() == special.ndtri(np.array(ys)).tobytes()

    def test_quantile_equals_scipy_on_uniform_draws(self):
        u = stream(11, Purpose.CALIBRATION).random(20_000)
        ys = np.concatenate([u, u**16, u**64, 1.0 - u**16])
        ys = ys[(ys > 0.0) & (ys < 1.0)]
        ours = np.array([montecarlo._ndtri(y) for y in ys.tolist()])
        assert ours.tobytes() == special.ndtri(ys).tobytes()

    @pytest.mark.parametrize("case", ["normal", "counts", "signed-zeros"])
    @pytest.mark.parametrize("r", [100, 65_537])  # 65,537 ranks overflow uint16
    def test_rank_bootstrap_equals_resorting_values(self, case, r):
        rng = np.random.default_rng(r)
        values = {"normal": lambda: rng.standard_normal(r),
                  "counts": lambda: rng.poisson(1.5, r).astype(float),
                  # a sign times 0, 1 or 2: both zeros, each many times
                  "signed-zeros": lambda: rng.choice([-1.0, 1.0], r) * rng.integers(0, 3, r),
                  }[case]()
        for seed, slot in [(0, 0), (9, 4)]:
            rep = ReplicateSet(values=values, seed=seed, slot=slot,
                               normalization=NormalizationRecord(0.0, 1.0, "exact"))
            boots = coupling_distance(montecarlo._resampled(
                rep.values, stream(seed, Purpose.BOOTSTRAP, slot)))
            est = wasserstein_to_normal(rep)
            assert est.value.hex() == float(coupling_distance(rep.values)).hex()
            assert est.stderr.hex() == float(boots.std(ddof=1)).hex()

    def test_debias_recovers_signal(self):
        assert debiased_distance(0.05, 0.03) == pytest.approx(0.04)
        assert debiased_distance(0.02, 0.03) == 0.0


class TestFloorAwareFit:
    NS = [64.0, 128.0, 256.0, 512.0]

    def test_recovers_the_exponent_above_the_floor(self):
        ns = np.array(self.NS)
        dws = np.sqrt((2.0 * ns**-0.5) ** 2 + 0.02**2)
        fit = fit_distance_powerlaw(ns, dws, [0.005] * 4, 0.02)
        assert fit.slope == pytest.approx(-0.5, abs=1e-6)
        assert fit.amplitude == pytest.approx(2.0, rel=1e-5)

    def test_no_distance_above_the_floor_gives_no_fit(self):
        # every raw distance is noise: there is no exponent to report
        fit = fit_distance_powerlaw(self.NS, [0.050, 0.066, 0.058, 0.074],
                                    [0.01] * 4, 0.074)
        assert math.isnan(fit.slope)
        assert math.isnan(fit.amplitude)
        assert math.isnan(fit.stderr)


class TestRateFit:
    def test_exact_powerlaw(self):
        ns = np.array([10.0, 100.0, 1000.0, 10000.0])
        fit = ols_loglog(ns, 3.0 * ns**-0.5)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)

    def test_noisy_powerlaw(self):
        rng = np.random.default_rng(30)
        ns = np.array([10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0])
        ds = 2.0 / ns * (1.0 + 0.01 * rng.standard_normal(ns.size))
        fit = ols_loglog(ns, ds)
        assert fit.slope == pytest.approx(-1.0, abs=0.05)

    def test_constant_series(self):
        fit = ols_loglog([10, 100, 1000, 10000], [2.5, 2.5, 2.5, 2.5])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError, match="equal length"):
            ols_loglog([10, 100, 1000, 10000], [1.0, 0.5, 0.25])
        for ns, ds in (([10, 100, 1000], [1.0, -0.5, 0.25]), ([10, 100, 1000], [1.0, 0.0, 0.25]),
                       ([0, 100, 1000], [1.0, 0.5, 0.25])):
            with pytest.raises(ParameterError, match="positive entries"):
                ols_loglog(ns, ds)

    def test_three_points_suffice(self):
        # the order-1 calibration fits three sample sizes
        fit = ols_loglog([100, 1000, 10000], [0.3, 0.1, 0.03])
        assert fit.slope == pytest.approx(-0.5, abs=0.03)
