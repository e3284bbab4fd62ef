import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from tenclass import (Tensor, canonical_dumps, classify, is_diag_dominant, load_tensor,
                      parse_tensor, tensor_to_json)
from tenclass import cli
from tenclass.classifiers import CLASSES
from tenclass.cli import main
from tenclass.subdivision import FAILS, Verdict


def write_tensor(path, doc):
    path.write_text(canonical_dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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

    @pytest.mark.parametrize("fmt,entries", [
        ("coo", "[[[0, 0, 0], 1{z}]]"),
        ("dense", "[[[1{z}, 0], [0, 1]], [[0, 0], [0, 1]]]"),
    ], ids=["coo", "dense"])
    def test_integer_past_the_float_range_rejected(self, tmp_path, capsys, fmt, entries):
        text = entries.format(z="0" * 400)  # a 401-digit JSON integer
        f = write_tensor(tmp_path / "huge.json",
                         f'{{"order": 3, "dim": 2, "format": "{fmt}", "entries": {text}}}')
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "classify", f]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_json(self, tmp_path, capsys):
        f = write_tensor(tmp_path / "bad.json", "{not json")
        assert main(["classify", f]) == 1
        assert "error" in capsys.readouterr().err


class TestErrorExit:
    """Every usage error exits 1 with an ``error:`` line and no report."""

    @pytest.mark.parametrize("option", [["--epsilon", "0"], ["--max-depth", "0"],
                                        ["--epsilon", "inf"], ["--epsilon", "nan"]])
    @pytest.mark.parametrize("command", [["fixtures"], ["verify", "dd_implies_E0"]])
    def test_bad_config(self, tmp_path, capsys, option, command):
        out = tmp_path / "report.json"
        assert main([*option, "--out", str(out), *command]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command,runner", [(["fixtures"], "run_fixtures"),
                                                (["verify", "dd_implies_E0"], "run_suite")])
    def test_unserializable_report(self, tmp_path, capsys, monkeypatch, command, runner):
        report = {"passed": True, "violations": [], "inconclusive": 0, "value": math.inf}
        monkeypatch.setattr(cli, runner, lambda *args, **kwargs: report)
        out = tmp_path / "report.json"
        assert main(["--out", str(out), *command]) == 1
        assert not out.exists()
        assert "error: cannot serialize non-finite float" in capsys.readouterr().err

    # numpy refuses an order-40, dim-2 array (8 TiB) outright
    @pytest.mark.parametrize("text,command", [
        ('{"order": 3, "dim": 2, "format": "dense", "entries": '
         + "[" * 3000 + "]" * 3000 + "}", ["classify"]),
        ('{"order": 40, "dim": 2, "entries": []}', ["classify"]),
        (None, ["gen", "--kind", "nonneg", "--order", "40", "--dim", "2"]),
    ], ids=["classify-too-deep", "classify-too-large", "gen-too-large"])
    def test_too_deep_or_too_large(self, tmp_path, capsys, text, command):
        out = tmp_path / "out"
        if text is not None:
            command = [*command, write_tensor(tmp_path / "t.json", text)]
        assert main(["--out", str(out), *command]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--epsilon", "abc", "fixtures"], ["classify"]],
                             ids=["epsilon-not-a-number", "classify-without-file"])
    def test_parser_errors(self, capsys, argv):
        # argparse errors leave through the same exit, not its usage block and exit 2
        assert main(argv) == 1
        assert_one_error_line(capsys)

    def test_subset_cap_0(self, capsys):
        assert main(["--subset-cap", "0", "fixtures"]) == 1
        assert capsys.readouterr().err == "error: subset_cap must be an integer of at least 1\n"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        f = write_tensor(tmp_path / "typo.json", '{"order": 3, "dim": 2, '
                                                 '"entires": [[[0, 0, 0], -1.0]]}')
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "classify", f]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key 'entires'") and err.count("\n") == 1


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

    def test_radius_past_the_float_range_is_null(self, tmp_path):
        # rho = 4e308; unscaled, the iteration overflows
        f = write_tensor(tmp_path / "big.json", tensor_to_json(Tensor(np.full((2,) * 3, 1e308))))
        out = tmp_path / "r.json"
        assert main(["--out", str(out), "spectral", f, "--radius"]) == 0
        doc = json.loads(out.read_text())["radius"]
        assert (doc["lower"], doc["upper"], doc["converged"]) == (None, None, True)

    def test_radius_rejects_a_negative_subnormal_entry(self, tmp_path, capsys):
        # scaling by 2**-1 rounds -5e-324 to -0.0; the sign test reads the tensor
        A = Tensor.from_coo(3, 2, [((0, 0, 0), 1.0), ((0, 1, 1), -5e-324),
                                   ((1, 0, 0), 0.5)])
        f = write_tensor(tmp_path / "sub.json", tensor_to_json(A))
        out = tmp_path / "r.json"
        assert main(["--out", str(out), "spectral", f, "--radius"]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: negative entry at index (0, 1, 1)\n")

    def test_eigenpair_near_overflow(self, tmp_path):
        # every positive x is an eigenvector of -1e308 * I with lambda = -1e308
        A = Tensor(-1e308 * Tensor.identity(3, 2).data)
        f = write_tensor(tmp_path / "negI.json", tensor_to_json(A))
        out = tmp_path / "p.json"
        assert main(["--out", str(out), "spectral", f, "--eigenpair"]) == 0
        doc = json.loads(out.read_text())["eigenpair"]
        assert doc["lambda"] == pytest.approx(-1e308, rel=1e-15)
        assert doc["residual"] <= 1e-14 * 1e308

    def test_eigenpair_requires_symmetric(self, tmp_path, almost_e_tensor, capsys):
        f = write_tensor(tmp_path / "asym.json", tensor_to_json(almost_e_tensor))
        assert main(["spectral", f, "--eigenpair"]) == 1
        assert "symmetric" in capsys.readouterr().err

    def test_flags_are_exclusive(self, tmp_path, almost_e_tensor, capsys):
        f = write_tensor(tmp_path / "t.json", tensor_to_json(almost_e_tensor))
        assert main(["spectral", f, "--radius", "--eigenpair"]) == 1
        assert_one_error_line(capsys)

    def test_nonpositive_needs_eigenpair(self, tmp_path, capsys):
        f = write_tensor(tmp_path / "t.json", tensor_to_json(Tensor.identity(3, 2)))
        assert main(["spectral", f, "--radius", "--nonpositive"]) == 1
        assert_one_error_line(capsys)


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

    @pytest.mark.parametrize("count", ["0", "-1"])
    @pytest.mark.parametrize("suite", ["dd_implies_E0", "all"])
    def test_count_below_one_rejected(self, tmp_path, capsys, suite, count):
        # a report of no instances would pass a gate that checked nothing
        out = tmp_path / "r.json"
        assert main(["--out", str(out), "verify", suite, "--count", count]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: count must be an integer of at least 1\n"

    def test_unknown_suite_rejected(self, capsys):
        assert main(["verify", "bogus"]) == 1
        assert_one_error_line(capsys)

    def test_violations_are_written_for_triage(self, tmp_path, monkeypatch, capsys):
        # a broken E0 predicate violates dd_nonneg_diag_implies_E0 on every
        # instance; the suite runs in this process, where the patch holds
        monkeypatch.setenv("TENCLASS_THREADS", "1")
        monkeypatch.setitem(CLASSES, "E0", lambda c: Verdict(FAILS, None, 0.0, 0, 0, None))
        out = tmp_path / "r.json"
        # a recorded violation exits 2, as a fixture mismatch does
        assert main(["--out", str(out), "verify", "dd_implies_E0", "--count", "2"]) == 2
        assert "2 violation(s) recorded" in capsys.readouterr().err
        report = json.loads(out.read_text())
        files = sorted((tmp_path / "violations").iterdir())
        assert [f.name for f in files] == ["dd_implies_E0_0_0.json", "dd_implies_E0_1_1.json"]
        for i, (f, violation) in enumerate(zip(files, report["violations"])):
            doc = json.loads(f.read_text())
            assert doc["name"] == f"dd_implies_E0_violation_{i}"
            assert doc["description"] == "dd_nonneg_diag_implies_E0"
            assert doc["all_tensors"] == violation["tensors"]
            assert doc["tensor"] == doc["all_tensors"][0]
            assert is_diag_dominant(parse_tensor(doc["tensor"])).holds


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
