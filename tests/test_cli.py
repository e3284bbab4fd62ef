import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from tenclass import Tensor, canonical_dumps, classify, load_tensor, tensor_to_json
from tenclass import cli
from tenclass.cli import main


def write_tensor(path, doc):
    path.write_text(canonical_dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


@pytest.fixture
def almost_e0_file(tmp_path, almost_e0_tensor):
    path = tmp_path / "almost_e0.json"
    return write_tensor(path, tensor_to_json(almost_e0_tensor))


class TestClassifyCommand:
    def test_report_and_exit_code(self, almost_e0_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--out", str(out), "classify", almost_e0_file])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["almostE0"]["status"] == "Holds"
        assert doc["verdicts"]["E0"]["status"] == "Fails"
        assert doc["consistency_violations"] == []

    def test_zero_tensor(self, tmp_path):
        f = write_tensor(tmp_path / "zero.json",
                         {"order": 3, "dim": 2, "format": "coo", "entries": []})
        out = tmp_path / "report.json"
        code = main(["--out", str(out), "classify", f])
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["E0"]["status"] == "Holds"
        assert doc["verdicts"]["E"]["status"] == "Fails"
        # t = rho = 0: strong M fails by the same rule as E, so every verdict
        # is decisive
        assert code == 0
        assert doc["verdicts"]["strongM"]["status"] == "Fails"

    def test_nan_rejected_without_report(self, tmp_path, capsys):
        f = write_tensor(
            tmp_path / "bad.json",
            '{"order": 3, "dim": 2, "format": "coo", "entries": [[[0, 1, 0], NaN]]}')
        out = tmp_path / "report.json"
        code = main(["--out", str(out), "classify", f])
        assert code == 1
        assert not out.exists()
        assert "(0, 1, 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("a", [-1.5, 0.0, 0.75])
    def test_dim1_tensor_reports_every_class(self, tmp_path, order, a):
        f = write_tensor(tmp_path / "dim1.json",
                         {"order": order, "dim": 1, "format": "coo",
                          "entries": [[[0] * order, a]]})
        out = tmp_path / "report.json"
        code = main(["--out", str(out), "classify", f])
        assert code != 1
        doc = json.loads(out.read_text())
        assert len(doc["verdicts"]) == 19
        assert doc["consistency_violations"] == []
        for name in ("almostE0", "almostE", "almostC0", "almostC"):
            assert doc["verdicts"][name]["status"] == "Fails"
            assert doc["verdicts"][name]["info"] == {"reason": "dim_below_2"}

    def test_huge_entries_get_a_report(self, tmp_path):
        # unscaled, the root bounds of this finite tensor overflow to +-inf
        huge = [[[0, 0, 0], 1e308], [[0, 1, 1], -1e308], [[1, 0, 0], -1e308],
                [[1, 1, 1], 1e308]]
        statuses = []
        for name, scale in (("huge", 0), ("small", -1000)):
            f = write_tensor(tmp_path / f"{name}.json", {
                "order": 3, "dim": 2, "format": "coo",
                "entries": [[i, math.ldexp(v, scale)] for i, v in huge]})
            out = tmp_path / f"{name}_report.json"
            start = time.perf_counter()
            assert main(["--out", str(out), "classify", f]) == 0
            assert time.perf_counter() - start < 1.0
            doc = json.loads(out.read_text())
            statuses.append({k: v["status"] for k, v in doc["verdicts"].items()})
        assert statuses[0] == statuses[1]

    def test_unserializable_report_is_an_error(self, almost_e0_file, tmp_path, capsys,
                                               monkeypatch):
        # a report holding inf is written as no report at all
        def with_inf(A, config):
            report = classify(A, config)
            report.verdicts["E0"] = replace(report.verdicts["E0"], worst_bound=math.inf)
            return report

        monkeypatch.setattr(cli, "classify", with_inf)
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "classify", almost_e0_file]) == 1
        assert not out.exists()
        assert "error: cannot serialize non-finite float" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["classify"], ["spectral", "--radius"]])
    def test_order1_rejected(self, tmp_path, capsys, command):
        f = write_tensor(tmp_path / "vector.json",
                         {"order": 1, "dim": 2, "format": "coo",
                          "entries": [[[0], 1.0], [[1], -2.0]]})
        out = tmp_path / "report.json"
        assert main(["--out", str(out), command[0], f, *command[1:]]) == 1
        assert not out.exists()
        assert "'order' must be at least 2" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        f = write_tensor(tmp_path / "bad.json", "{not json")
        assert main(["classify", f]) == 1
        assert "error" in capsys.readouterr().err


class TestSpectralCommand:
    def test_radius(self, tmp_path):
        f = write_tensor(tmp_path / "ones.json", tensor_to_json(Tensor.ones(3, 2)))
        out = tmp_path / "r.json"
        assert main(["--out", str(out), "spectral", f, "--radius"]) == 0
        doc = json.loads(out.read_text())
        assert doc["radius"]["lower"] <= 4.0 <= doc["radius"]["upper"]

    def test_eigenpair(self, tmp_path):
        A = Tensor(-Tensor.identity(3, 2).data)
        f = write_tensor(tmp_path / "negI.json", tensor_to_json(A))
        out = tmp_path / "p.json"
        assert main(["--out", str(out), "spectral", f, "--eigenpair"]) == 0
        doc = json.loads(out.read_text())
        assert doc["eigenpair"]["lambda"] == pytest.approx(-1.0, abs=1e-10)

    def test_eigenpair_requires_symmetric(self, tmp_path, almost_e_tensor, capsys):
        f = write_tensor(tmp_path / "asym.json", tensor_to_json(almost_e_tensor))
        assert main(["spectral", f, "--eigenpair"]) == 1
        assert "symmetric" in capsys.readouterr().err

    def test_flags_are_exclusive(self, tmp_path, almost_e_tensor):
        f = write_tensor(tmp_path / "t.json", tensor_to_json(almost_e_tensor))
        with pytest.raises(SystemExit):
            main(["spectral", f, "--radius", "--eigenpair"])


class TestVerifyCommand:
    def test_single_suite(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["--seed", "7", "--out", str(out), "verify", "dd_implies_E0",
                     "--count", "8"]) == 0
        doc = json.loads(out.read_text())
        assert doc["violations"] == [] and doc["instances"] == 8

    def test_all_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--seed", "7", "verify", "all", "--count", "4"]
        assert main(args[:2] + ["--out", str(out1)] + args[2:]) == 0
        assert main(args[:2] + ["--out", str(out2)] + args[2:]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "bogus"])


class TestFixturesCommand:
    def test_all_pass(self, tmp_path):
        out = tmp_path / "fx.json"
        assert main(["--out", str(out), "fixtures"]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True


class TestGenCommand:
    def test_roundtrip_strong_m(self, tmp_path, capsys):
        code = main(["--seed", "3", "--out", str(tmp_path), "gen", "--kind", "zTensor",
                     "--factor", "1.5", "--count", "5", "--order", "3", "--dim", "2"])
        assert code == 0
        paths = [p for p in capsys.readouterr().out.splitlines() if p]
        assert len(paths) == 5
        from tenclass import is_m_tensor

        for p in paths:
            A = load_tensor(p)
            assert is_m_tensor(A, strong=True).holds
            assert np.array_equal(load_tensor(p).data, A.data)

    def test_written_file_reparses_identically(self, tmp_path, capsys):
        main(["--seed", "5", "--out", str(tmp_path), "gen", "--kind", "symmetric",
              "--count", "1", "--order", "3", "--dim", "3"])
        path = capsys.readouterr().out.strip()
        A = load_tensor(path)
        doc = json.loads(open(path).read())
        assert Tensor.from_coo(doc["order"], doc["dim"],
                               [(tuple(i), v) for i, v in doc["entries"]]) == A

    def test_bad_kind(self, capsys):
        assert main(["gen", "--kind", "bogus"]) == 1
        assert "unknown generator kind" in capsys.readouterr().err
