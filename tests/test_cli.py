import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ustatkit
from ustatkit import cli
from ustatkit.cli import build_parser, canonical_json, main

from helpers import random_kernel, shift_instance


@pytest.fixture
def files(tmp_path):
    kernel = {"order": 2, "alphabet": 2, "values": [1.0, 0.0, 0.0, 1.0]}
    measure = {"weights": [0.5, 0.5]}
    kpath = tmp_path / "K.json"
    mpath = tmp_path / "M.json"
    kpath.write_text(json.dumps(kernel))
    mpath.write_text(json.dumps(measure))
    # the top Hoeffding level of the kernel: degenerate
    dpath = tmp_path / "D.json"
    dpath.write_text(json.dumps({"order": 2, "alphabet": 2, "values": [0.5, -0.5, -0.5, 0.5]}))
    return {"kernel": str(kpath), "measure": str(mpath), "degenerate": str(dpath),
            "dir": tmp_path}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 1.0 / 3.0, "a": 2})
        assert text == '{"a": 2, "b": 0.33333333333333331}\n'

    def test_numpy_types(self):
        text = canonical_json({"x": np.float64(0.5), "y": np.int64(3),
                               "z": np.array([1.0, 2.0])})
        assert '"x": 0.5' in text and '"y": 3' in text and '"z": [1, 2]' in text

    def test_bools_are_json_bools(self):
        # a Python bool is an int, so it must be recognised before numbers
        text = canonical_json({"a": True, "b": np.bool_(False), "c": [False]})
        assert text == '{"a": true, "b": false, "c": [false]}\n'


class TestDecompose:
    def test_identity_kernel_report(self, files, capsys):
        code = main(["decompose", "--kernel", files["kernel"],
                     "--measure", files["measure"], "--n", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        psi2 = doc["result"]["psi"][2]
        assert psi2 == [[0.5, -0.5], [-0.5, 0.5]]
        assert doc["result"]["variance_hoeffding"] == pytest.approx(1.5)
        assert "seed" not in doc["config"]

    def test_decomposes_once(self, files, decompose_calls):
        assert main(["decompose", "--kernel", files["kernel"],
                     "--measure", files["measure"], "--n", "4"]) == 0
        assert decompose_calls == [2]

    def test_missing_measure_file(self, files):
        code = main(["decompose", "--kernel", files["kernel"],
                     "--measure", str(files["dir"] / "nope.json")])
        assert code == 2

    def test_variance_past_the_float_range_is_a_capacity_error(self, tmp_path, capsys):
        kpath = tmp_path / "K3.json"
        values = random_kernel(np.random.default_rng(3), 3, 2).values
        kpath.write_text(json.dumps({"order": 3, "alphabet": 2, "values": values.ravel().tolist()}))
        mpath = tmp_path / "M.json"
        mpath.write_text(json.dumps({"weights": [0.5, 0.5]}))
        code = main(["decompose", "--kernel", str(kpath), "--measure", str(mpath),
                     "--n", str(10**80)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"capacity error: the variance at n = {10**80} ")

    def test_malformed_kernel(self, files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"order": 2, "alphabet": 2, "values": [1.0]}))
        code = main(["decompose", "--kernel", str(bad), "--measure", files["measure"]])
        assert code == 2


SHIFTED_ARGVS = [
    ["decompose", "--n", "10"],
    ["simulate", "--n", "10", "--reps", "100", "--normalization", "exact"],
]


class TestShiftedKernel:
    @pytest.mark.parametrize("argv", SHIFTED_ARGVS)
    def test_large_mean_is_valid(self, tmp_path, argv):
        # a mean 1e3 times the kernel's spread must not trip a numeric contract
        assert self._run(tmp_path, argv, 1e3) == 0

    @pytest.mark.parametrize("argv", SHIFTED_ARGVS)
    def test_mean_of_1e9_is_valid(self, tmp_path, argv):
        assert self._run(tmp_path, argv, 1e9) == 0

    @staticmethod
    def _run(tmp_path, argv, shift):
        kernel, mu = shift_instance(2)
        kpath, mpath = tmp_path / "K.json", tmp_path / "M.json"
        kpath.write_text(json.dumps({"order": 2, "alphabet": 3,
                                     "values": (kernel.values + shift).ravel().tolist()}))
        mpath.write_text(json.dumps({"weights": mu.weights.tolist()}))
        return main(argv[:1] + ["--kernel", str(kpath), "--measure", str(mpath)] + argv[1:])


class TestProductCheck:
    def test_within_capacity(self, files, tmp_path, capsys):
        # degenerate kernel over m = 3
        import ustatkit as uk
        rng = np.random.default_rng(1)
        w = rng.random(3) + 0.3
        w /= w.sum()
        mu = uk.DiscreteMeasure(w)
        hs = uk.decompose(uk.symmetrize(rng.standard_normal((3, 3))), mu)
        kern = {"order": 2, "alphabet": 3, "values": list(np.asarray(hs.psi[2]).ravel())}
        kp = tmp_path / "D.json"
        kp.write_text(json.dumps(kern))
        mp = tmp_path / "MU.json"
        mp.write_text(json.dumps({"weights": list(w)}))
        code = main(["product-check", "--psi", str(kp), "--phi", str(kp),
                     "--n", "5", "--measure", str(mp)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["max_residual"] <= 1e-8

    def test_product_kernels_built_once(self, files, tmp_path, record_calls):
        import ustatkit as uk
        from ustatkit import product
        calls = record_calls(product, "product_kernels")
        mu = uk.DiscreteMeasure(np.array([0.5, 0.5]))
        hs = uk.decompose(uk.SymmetricKernel(np.array([[1.0, 0.0], [0.0, 1.0]])), mu)
        kp = tmp_path / "D.json"
        kp.write_text(json.dumps({"order": 2, "alphabet": 2,
                                  "values": list(np.asarray(hs.psi[2]).ravel())}))
        assert main(["product-check", "--psi", str(kp), "--phi", str(kp),
                     "--n", "6", "--measure", files["measure"]]) == 0
        assert len(calls) == 1

    def test_capacity_exit_code(self, files, tmp_path, capsys):
        import ustatkit as uk
        mu = uk.DiscreteMeasure(np.array([0.5, 0.5]))
        hs = uk.decompose(uk.SymmetricKernel(np.array([[1.0, 0.0], [0.0, 1.0]])), mu)
        kern = {"order": 2, "alphabet": 2, "values": list(np.asarray(hs.psi[2]).ravel())}
        kp = tmp_path / "D.json"
        kp.write_text(json.dumps(kern))
        code = main(["product-check", "--psi", str(kp), "--phi", str(kp),
                     "--n", "40", "--measure", files["measure"]])
        assert code == 3


class TestBound:
    @pytest.mark.parametrize("variant", ["b1", "b2"])
    def test_bound_past_the_float_range_is_a_capacity_error(self, files, capsys, variant):
        code = main(["bound", "--kernel", files["degenerate"], "--measure", files["measure"],
                     "--n", str(10**400), "--variant", variant])
        assert code == 3
        assert capsys.readouterr().err.startswith("capacity error: n, a 401-digit integer")

    def test_non_degenerate_kernel_is_validation_error(self, files):
        code = main(["bound", "--kernel", files["kernel"], "--measure", files["measure"],
                     "--n", "20", "--variant", "b1"])
        assert code == 2

    def test_general_variant(self, files, capsys):
        code = main(["bound", "--kernel", files["kernel"], "--measure", files["measure"],
                     "--n", "20", "--variant", "general-B"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["total"] > 0
        assert doc["config"]["profile"] == "1,1,1"
        assert sorted(doc["result"]) == ["extras", "terms", "total"]

    @pytest.mark.parametrize("variant", ["b1", "b2"])
    def test_wasserstein_variants_take_no_profile(self, files, capsys, variant):
        argv = ["bound", "--kernel", files["degenerate"], "--measure", files["measure"],
                "--n", "20", "--variant", variant]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"]["profile"] is None
        assert main(argv + ["--profile", "1,1,1"]) == 2
        assert "field 'profile'" in capsys.readouterr().err


FIELD_ARGVS = [
    (["bound", "--n", "20", "--variant", "general-B", "--profile", "1,1"], "profile"),
    (["bound", "--n", "20", "--variant", "general-B", "--profile", "1,x,1"], "profile"),
    (["geomgraph", "--pattern", "edge", "--density", "uniform-box", "--dim", "2",
      "--regime", "C4", "--rho", "1.0", "--ns", "64,1e2,256,512", "--reps", "100"], "ns"),
]


class TestListFields:
    @pytest.mark.parametrize(("argv", "field"), FIELD_ARGVS)
    def test_malformed_list_names_its_field(self, files, capsys, argv, field):
        if argv[0] == "bound":
            argv = argv[:1] + ["--kernel", files["kernel"], "--measure", files["measure"]] + argv[1:]
        assert main(argv) == 2
        assert f"field '{field}'" in capsys.readouterr().err


class TestSimulate:
    def test_report_and_dump(self, files, tmp_path, capsys):
        dump = tmp_path / "vals.csv"
        code = main(["simulate", "--kernel", files["kernel"], "--measure", files["measure"],
                     "--n", "30", "--reps", "400", "--seed", "3",
                     "--normalization", "empirical", "--dump", str(dump)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["values"]["count"] == 400
        lines = dump.read_text().strip().split("\n")
        assert len(lines) == 400

    def test_constant_kernel_exact_mode_fails_validation(self, files, tmp_path):
        const = tmp_path / "C.json"
        const.write_text(json.dumps({"order": 1, "alphabet": 2, "values": [2.0, 2.0]}))
        code = main(["simulate", "--kernel", str(const), "--measure", files["measure"],
                     "--n", "10", "--reps", "200"])
        assert code == 2


class TestDeterminism:
    def test_simulate_reports_are_byte_identical(self, files, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["simulate", "--kernel", files["kernel"], "--measure", files["measure"],
                "--n", "25", "--reps", "300", "--seed", "9",
                "--normalization", "empirical"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert _read(out1) == _read(out2)

    def test_geomgraph_reports_and_csv_byte_identical(self, tmp_path):
        args = ["geomgraph", "--pattern", "edge", "--density", "uniform-box",
                "--dim", "2", "--regime", "C4", "--rho", "1.0",
                "--ns", "64,128,256,512", "--reps", "150", "--seed", "4"]
        o1, c1 = tmp_path / "g1.json", tmp_path / "g1.csv"
        o2, c2 = tmp_path / "g2.json", tmp_path / "g2.csv"
        assert main(args + ["--out", str(o1), "--csv", str(c1)]) == 0
        assert main(args + ["--out", str(o2), "--csv", str(c2)]) == 0
        assert _read(o1) == _read(o2)
        assert _read(c1) == _read(c2)
        header = c1.read_text().split("\n")[0]
        assert header == "n,t,mean,mean_se,var,var_se,dw,dw_se"

    def test_console_script_entrypoint(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "ustatkit.cli", "decompose",
             "--kernel", files["kernel"], "--measure", files["measure"]],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert '"psi"' in proc.stdout



_SCIPY_FREE_SCRIPT = """
import json, sys
import numpy as np
from ustatkit.cli import main
from ustatkit.geomgraph import count_subgraphs, named_pattern

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

exit_codes = [main(argv) for argv in json.loads(sys.argv[1])]
exact = scipy_modules()
rng = np.random.default_rng(5)
planar = rng.random((512, 2))
counts = [count_subgraphs(planar, named_pattern("edge"), 0.05),
          count_subgraphs(planar, named_pattern("triangle"), 0.05),
          count_subgraphs(rng.random((512, 1)), named_pattern("edge"), 0.01)]
print(json.dumps({"exit_codes": exit_codes, "exact": exact,
                  "counts": counts, "after_counts": scipy_modules()}))
"""


class TestStartUp:
    def test_exact_subcommands_and_planar_counts_import_no_scipy(self, files, tmp_path):
        # a fresh interpreter: this test process imported scipy long ago
        k, d, m = files["kernel"], files["degenerate"], files["measure"]
        out = ["--out", str(tmp_path / "report.json")]
        argvs = [
            ["decompose", "--kernel", k, "--measure", m, "--n", "6", *out],
            ["contract", "--psi", k, "--phi", k, "--r", "1", "--l", "1", "--measure", m, *out],
            ["product-check", "--psi", d, "--phi", d, "--n", "6", "--measure", m, *out],
            ["bound", "--kernel", d, "--measure", m, "--n", "20", "--variant", "b1", *out],
            ["bound", "--kernel", k, "--measure", m, "--n", "20", "--variant", "general-B",
             *out],
            ["simulate", "--kernel", k, "--measure", m, "--n", "10", "--reps", "200", *out],
            ["simulate", "--kernel", k, "--measure", m, "--n", "10", "--reps", "200",
             "--normalization", "empirical", *out],
        ]
        src = str(Path(ustatkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_SCRIPT, json.dumps(argvs)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["exit_codes"] == [0] * len(argvs)
        assert doc["exact"] == []
        assert min(doc["counts"]) > 0
        assert "scipy.spatial" not in doc["after_counts"]


class TestSeedRange:
    @pytest.mark.parametrize("command", ["simulate", "geomgraph"])
    def test_negative_seed_is_validation_error(self, files, capsys, command):
        if command == "simulate":
            argv = ["simulate", "--kernel", files["kernel"], "--measure", files["measure"],
                    "--n", "10", "--reps", "200"]
        else:
            argv = ["geomgraph", "--pattern", "edge", "--density", "uniform-box",
                    "--dim", "2", "--regime", "C4", "--rho", "1.0",
                    "--ns", "64,128,256,512", "--reps", "100"]
        assert main(argv + ["--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "contract", "bound"])
    def test_seed_is_a_usage_error_where_nothing_is_drawn(self, files, command):
        argv = {"decompose": ["--kernel", files["kernel"]],
                "contract": ["--psi", files["kernel"], "--phi", files["kernel"],
                             "--r", "1", "--l", "1"],
                "bound": ["--kernel", files["kernel"], "--n", "20"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--measure", files["measure"], "--seed", "1"])
        assert exc.value.code == 2


def _write(path, doc):
    # json.dumps writes a non-finite float as NaN or Infinity, which json.load reads back
    path.write_text(json.dumps(doc))
    return str(path)


class TestInputValidation:
    @pytest.mark.parametrize(("case", "message"), [
        ("kappa-nan", "kappa_2"),
        ("kappa-array", "JSON object"),
        ("measure-nan", "weights must be finite"),
        ("kernel-nan", "kernel values must be finite"),
        ("mc-zero", "mc"),
        ("mc-negative", "mc"),
        ("kernel-order-null", "field 'order'"),
        ("measure-weights-object", "field 'weights'"),
        ("pattern-p-null", "field 'p'"),
    ])
    def test_exit_code_and_message(self, files, tmp_path, capsys, case, message):
        kernel, measure, tail = files["degenerate"], files["measure"], []
        if case == "kappa-nan":
            tail = ["--kappa", _write(tmp_path / "kappa.json", {"2": float("nan")})]
        elif case == "kappa-array":
            tail = ["--kappa", _write(tmp_path / "kappa.json", [1.0, 2.0])]
        elif case == "measure-nan":
            measure = _write(tmp_path / "M.json", {"weights": [float("nan"), 1.0]})
        elif case == "kernel-nan":
            kernel = _write(tmp_path / "K.json", {"order": 1, "alphabet": 2,
                                                  "values": [float("nan"), 1.0]})
        elif case == "kernel-order-null":
            kernel = _write(tmp_path / "K.json", {"order": None, "alphabet": 2,
                                                  "values": [0.5, -0.5]})
        elif case == "measure-weights-object":
            measure = _write(tmp_path / "M.json", {"weights": {"a": 1}})
        if case.startswith("mc"):
            argv = ["product-check", "--psi", kernel, "--phi", kernel, "--n", "40",
                    "--mc", "0" if case == "mc-zero" else "-3", "--measure", measure]
        elif case.startswith("pattern"):
            pattern = _write(tmp_path / "P.json", {"p": None, "adjacency": [[0, 1], [1, 0]]})
            argv = ["geomgraph", "--pattern", pattern, "--density", "uniform-box", "--dim", "2",
                    "--regime", "C4", "--rho", "1.0", "--ns", "16,32,64,128", "--reps", "100"]
        else:
            argv = ["bound", "--kernel", kernel, "--n", "20", "--variant", "b1",
                    "--measure", measure, *tail]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(("profile", "name"), [("1,1,nan", "m3"), ("inf,1,1", "m1")])
    def test_non_finite_profile_names_its_field(self, files, capsys, profile, name):
        assert main(["bound", "--kernel", files["kernel"], "--measure", files["measure"],
                     "--n", "20", "--variant", "general-B", "--profile", profile]) == 2
        assert f"{name} must be finite and non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_non_finite_rho_names_its_field(self, capsys, rho):
        argv = ["geomgraph", "--pattern", "edge", "--density", "uniform-box", "--dim", "2",
                "--regime", "C4", "--rho", rho, "--ns", "16,32,64,128", "--reps", "100"]
        assert main(argv) == 2
        assert f"regime C4 needs a finite rho > 0, got {rho}" in capsys.readouterr().err

    @pytest.mark.parametrize(("extra", "message"), [
        (["--rho", "1", "--beta", "0.5"], "field 'beta' does not apply to regime C4"),
        ([], "regime C4 needs a finite rho > 0, got None"),
    ])
    def test_schedule_takes_exactly_its_regime_parameter(self, capsys, extra, message):
        argv = ["geomgraph", "--pattern", "edge", "--density", "uniform-box", "--dim", "2",
                "--regime", "C4", *extra, "--ns", "16,32,64,128", "--reps", "100"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB", ""])
    def test_memory_error_is_a_capacity_error(self, files, capsys, monkeypatch, message):
        from ustatkit import cli

        def exhausted(args):
            raise MemoryError(message)

        monkeypatch.setitem(cli._HANDLERS, "decompose", exhausted)
        assert main(["decompose", "--kernel", files["kernel"],
                     "--measure", files["measure"]]) == 3
        shown = message or "out of memory"
        assert capsys.readouterr().err == f"capacity error: {shown}\n"


class TestEveryOptionIsRead:
    """Each parsed option is read by its subcommand: an option that is only
    echoed into the report's config does nothing."""

    @staticmethod
    def _options_read(argv):
        read = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        args = build_parser().parse_args(argv, namespace=Recorder())
        options = set(vars(args)) - {"command", "out", "csv", "dump"}
        read.clear()
        cli._HANDLERS[args.command](args)
        return options, read

    def test_no_option_is_only_echoed(self, files, tmp_path):
        k, d, m = files["kernel"], files["degenerate"], files["measure"]
        sweep = ["geomgraph", "--pattern", "edge", "--ns", "16,32,64,128", "--reps", "100"]
        runs = {
            "decompose": [["--kernel", k, "--measure", m, "--n", "4"]],
            "contract": [["--psi", k, "--phi", k, "--r", "1", "--l", "1", "--measure", m]],
            "product-check": [["--psi", d, "--phi", d, "--n", "30", "--mc", "20",
                               "--measure", m]],
            "bound": [["--kernel", d, "--measure", m, "--n", "20", "--variant", "b1"],
                      ["--kernel", k, "--measure", m, "--n", "20", "--variant", "general-B"]],
            "simulate": [["--kernel", k, "--measure", m, "--n", "10", "--reps", "100",
                          "--dump", str(tmp_path / "dump.txt")]],
            "geomgraph": [["--density", "uniform-box", "--dim", "2", "--regime", "C4",
                           "--rho", "1.0"],
                          ["--density", "gaussian", "--dim", "1", "--regime", "C3",
                           "--beta", "0.5"]],
        }
        for command, argvs in runs.items():
            options, read = set(), set()
            for argv in argvs:
                argv = sweep + argv if command == "geomgraph" else [command, *argv]
                parsed, seen = self._options_read(argv)
                options |= parsed
                read |= seen
            assert options <= read, (command, sorted(options - read))
