import json
import subprocess
import sys

import numpy as np
import pytest

from ustatkit.cli import canonical_json, main

from helpers import shift_instance


@pytest.fixture
def files(tmp_path):
    kernel = {"order": 2, "alphabet": 2, "values": [1.0, 0.0, 0.0, 1.0]}
    measure = {"weights": [0.5, 0.5]}
    kpath = tmp_path / "K.json"
    mpath = tmp_path / "M.json"
    kpath.write_text(json.dumps(kernel))
    mpath.write_text(json.dumps(measure))
    return {"kernel": str(kpath), "measure": str(mpath), "dir": tmp_path}


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
        assert doc["config"]["seed"] == 0

    def test_decomposes_once(self, files, decompose_calls):
        assert main(["decompose", "--kernel", files["kernel"],
                     "--measure", files["measure"], "--n", "4"]) == 0
        assert decompose_calls == [2]

    def test_missing_measure_file(self, files):
        code = main(["decompose", "--kernel", files["kernel"],
                     "--measure", str(files["dir"] / "nope.json")])
        assert code == 2

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

    def test_product_kernels_built_once(self, files, tmp_path, monkeypatch):
        import ustatkit as uk
        from ustatkit import cli, product
        calls = []
        original = product.product_kernels

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(product, "product_kernels", counting)
        monkeypatch.setattr(cli, "product_kernels", counting)
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
