import hashlib
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import pytest

from symplie import __version__, catalog, cli
from symplie.documents import algebra_to_document, dumps_document, parse_document
from symplie.extension import ExtensionInvariantError
from symplie.linalg import Matrix
from symplie.symplectic import DegenerateFormError, FlatnessInvariantError, change_of_basis


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestVerify:
    def test_flat_catalog_entry(self, capsys):
        rc, out, _ = run(capsys, "verify", "--catalog", "g6_2")
        assert rc == 0
        assert "input: g6_2 (dim 6)" in out
        assert "flat: yes" in out
        assert "claims:" in out
        assert "FAIL" not in out

    def test_non_flat_entry(self, capsys):
        rc, out, _ = run(capsys, "verify", "--catalog", "aff1",
                         "--report", "flat")
        assert rc == 2
        assert "flat: no" in out
        assert "first_violation_at: (0, 1)" in out

    def test_structure_only_report_passes_on_aff1(self, capsys):
        # every applicable structural claim holds even though aff1 is not flat
        rc, out, _ = run(capsys, "verify", "--catalog", "aff1",
                         "--report", "structure")
        assert rc == 0
        assert "nilpotency_class: none" in out
        assert "n/a" in out

    def test_parametrized_entry(self, capsys):
        rc, out, _ = run(capsys, "verify", "--catalog", "g6_1",
                         "--param", "lam=3")
        assert rc == 0
        assert "flat: yes" in out

    def test_document_file(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        rc, _, _ = run(capsys, "catalog", "export", "r3_h3",
                       "--out", str(path))
        assert rc == 0
        rc, out, _ = run(capsys, "verify", str(path))
        assert rc == 0
        assert f"input: {path}" in out

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "verify", "does-not-exist.json")
        assert rc == 1
        assert "error:" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        rc, _, err = run(capsys, "verify", str(path))
        assert rc == 1
        assert "not valid JSON" in err

    def test_axiom_violations_reported(self, capsys, tmp_path):
        doc = {
            "dim": 4,
            "basis": ["x1", "x2", "x3", "x4"],
            "brackets": [{"u": "x1", "v": "x2", "value": {"x3": "1"}}],
            "omega": [{"u": "x1", "v": "x2", "value": "1"},
                      {"u": "x3", "v": "x4", "value": "1"}],
        }
        path = tmp_path / "notclosed.json"
        path.write_text(dumps_document(doc))
        rc, _, err = run(capsys, "verify", str(path))
        assert rc == 1
        assert "not closed" in err

    def test_file_and_catalog_conflict(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        rc, _, err = run(capsys, "verify", str(path), "--catalog", "g6_2")
        assert rc == 1
        assert "not both" in err

    def test_no_input(self, capsys):
        rc, _, err = run(capsys, "verify")
        assert rc == 1
        assert "--catalog" in err


class TestCatalog:
    def test_list(self, capsys):
        rc, out, _ = run(capsys, "catalog", "list")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13
        assert any(line.startswith("r_h3_dim4") for line in lines)
        assert any("not flat" in line or "class -" in line for line in lines)

    def test_show(self, capsys):
        rc, out, _ = run(capsys, "catalog", "show", "g6_3")
        assert rc == 0
        assert "[x1, x2] = x4" in out
        assert "omega(x2, x5) = 1/2" in out
        assert "class: g6_3" in out

    def test_show_with_param(self, capsys):
        rc, out, _ = run(capsys, "catalog", "show", "g6_1",
                         "--param", "lam=3")
        assert rc == 0
        assert "lam=3" in out
        assert "omega(x3, x4) = 2" in out

    def test_show_needs_name(self, capsys):
        rc, _, err = run(capsys, "catalog", "show")
        assert rc == 1
        assert "needs an entry name" in err

    def test_unknown_entry(self, capsys):
        rc, _, err = run(capsys, "catalog", "show", "nope")
        assert rc == 1
        assert "unknown catalog entry" in err

    def test_constraint_violation(self, capsys):
        rc, _, err = run(capsys, "catalog", "export", "g6_1",
                         "--param", "lam=0")
        assert rc == 1
        assert "outside {0, 1}" in err

    def test_bad_param_syntax(self, capsys):
        rc, _, err = run(capsys, "catalog", "show", "g6_1",
                         "--param", "lam")
        assert rc == 1
        assert "key=value" in err

    def test_export_round_trips(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc, _, _ = run(capsys, "catalog", "export", "g6_2", "--out", str(path))
        assert rc == 0
        doc = parse_document(path.read_text())
        assert doc["meta"]["name"] == "g6_2"
        assert doc["dim"] == 6

    def test_export_to_stdout(self, capsys):
        rc, out, _ = run(capsys, "catalog", "export", "abelian2")
        assert rc == 0
        assert json.loads(out)["dim"] == 2

    def test_list_and_show_golden(self, capsys):
        """The text of catalog list and of catalog show for every entry,
        pinned byte for byte (the output digest covers only export)."""
        runs = [("catalog", "list")]
        runs += [("catalog", "show", name) for name in catalog.names()]
        runs.append(("catalog", "show", "g6_1", "--param", "lam=1/2"))
        digest = hashlib.sha256()
        for argv in runs:
            rc, out, err = run(capsys, *argv)
            assert rc == 0 and err == "", argv
            digest.update(out.encode())
        assert digest.hexdigest() == ("e9132b765d035e02274d7f23a29f1d6f"
                                      "5c5ac26b9f5bc164fdacbd79f24f8c25")


class TestExtend:
    def test_zero_pair_from_zero_base(self, capsys):
        rc, out, _ = run(capsys, "extend", "--catalog", "zero",
                         "--xi", "zero", "--b0", "zero")
        assert rc == 0
        doc = json.loads(out)
        assert doc["dim"] == 2
        assert doc["meta"]["extended_from"] == "zero"

    def test_inline_xi(self, capsys, tmp_path):
        path = tmp_path / "ext.json"
        rc, _, _ = run(capsys, "extend", "--catalog", "abelian2",
                       "--xi", "[[0, 1], [0, 0]]", "--b0", "1,0",
                       "--out", str(path))
        assert rc == 0
        rc, out, _ = run(capsys, "classify", str(path))
        assert rc == 0
        assert "class: RxH3" in out

    def test_xi_from_file_with_rational_strings(self, capsys, tmp_path):
        xi_path = tmp_path / "xi.json"
        xi_path.write_text('[["0", "1/2"], ["0", "0"]]')
        rc, out, _ = run(capsys, "extend", "--catalog", "abelian2",
                         "--xi", str(xi_path), "--b0=-2,0")
        assert rc == 0
        assert json.loads(out)["dim"] == 4

    def test_inadmissible_pair(self, capsys):
        rc, _, err = run(capsys, "extend", "--catalog", "abelian2",
                         "--xi", "[[1, 0], [0, 0]]", "--b0", "zero")
        assert rc == 2
        assert "check failed" in err
        assert "commutator_with_adjoint" in err

    def test_non_flat_base(self, capsys):
        rc, _, err = run(capsys, "extend", "--catalog", "aff1",
                         "--xi", "zero", "--b0", "zero")
        assert rc == 2
        assert "flat" in err

    def test_argument_validation(self, capsys, tmp_path):
        rc, _, err = run(capsys, "extend", "--catalog", "abelian2",
                         "--xi", "zero")
        assert rc == 1 and "--b0" in err
        rc, _, err = run(capsys, "extend", "--catalog", "abelian2",
                         "--xi", "[[0,1]]", "--b0", "zero")
        assert rc == 1 and "2x2" in err
        rc, _, err = run(capsys, "extend", "--catalog", "abelian2",
                         "--xi", "zero", "--b0", "1,2,3")
        assert rc == 1 and "comma-separated" in err
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(dumps_document(
            {"base_dim": 4, "xi": [["0"] * 4] * 4, "b0": ["0"] * 4}))
        rc, _, err = run(capsys, "extend", "--catalog", "abelian2",
                         "--pair", str(pair_path))
        assert rc == 1 and "base dimension 4" in err

    def test_malformed_json_names_its_option(self, capsys, tmp_path):
        rc, out, err = run(capsys, "extend", "--catalog", "abelian2",
                           "--xi", "[[1, 0], [0", "--b0", "zero")
        assert rc == 1 and out == ""
        assert err == ("error: --xi: not valid JSON: "
                       "Expecting ',' delimiter: line 1 column 12 (char 11)\n")
        pair_path = tmp_path / "pair.json"
        pair_path.write_text('{"base_dim": 2,')
        rc, out, err = run(capsys, "extend", "--catalog", "abelian2",
                           "--pair", str(pair_path))
        assert rc == 1 and out == ""
        assert err == ("error: --pair: not valid JSON: Expecting property name "
                       "enclosed in double quotes: line 1 column 16 (char 15)\n")

    def test_bad_literal_names_its_option_and_entry(self, capsys):
        rc, out, err = run(capsys, "extend", "--catalog", "abelian2",
                           "--xi", '[["0", "0"], ["0", "x"]]', "--b0", "zero")
        assert (rc, out, err) == (1, "", "error: --xi[1][1]: not a rational literal: 'x'\n")
        rc, out, err = run(capsys, "extend", "--catalog", "abelian2",
                           "--xi", "[[0, 0], [1.5, 0]]", "--b0", "zero")
        assert (rc, out, err) == (
            1, "", "error: --xi[1][0]: expected an integer or a rational string\n")
        rc, out, err = run(capsys, "extend", "--catalog", "abelian2",
                           "--xi", "zero", "--b0", "1,y")
        assert (rc, out, err) == (1, "", "error: --b0[1]: not a rational literal: 'y'\n")
        rc, out, err = run(capsys, "extend", "--catalog", "abelian2",
                           "--xi", "zero", "--b0", "1/0,0")
        assert (rc, out, err) == (1, "", "error: --b0[0]: zero denominator: '1/0'\n")

    def test_empty_b0_and_inline_object_xi(self, capsys):
        # an empty --b0 lists no rationals, which only a dim-0 base accepts
        rc, _, err = run(capsys, "extend", "--catalog", "abelian2",
                         "--xi", "zero", "--b0", "")
        assert rc == 1 and "must list 2 comma-separated rationals" in err
        rc, out, _ = run(capsys, "extend", "--catalog", "zero",
                         "--xi", "zero", "--b0", "")
        assert rc == 0 and parse_document(out)["dim"] == 2
        # inline JSON that is not an array is rejected as such, not read as a path
        rc, _, err = run(capsys, "extend", "--catalog", "abelian2",
                         "--xi", '{"a": 1}', "--b0", "zero")
        assert rc == 1 and "--xi must be a 2x2 array" in err


class TestReduce:
    def test_single_step(self, capsys, tmp_path):
        base_path = tmp_path / "base.json"
        pair_path = tmp_path / "pair.json"
        rc, _, _ = run(capsys, "reduce", "--catalog", "r_h3_dim4",
                       "--out", str(base_path), "--pair-out", str(pair_path))
        assert rc == 0
        base_doc = parse_document(base_path.read_text())
        assert base_doc["dim"] == 2
        assert base_doc["brackets"] == []
        pair_doc = parse_document(pair_path.read_text())
        assert pair_doc == {"base_dim": 2, "xi": [["0", "0"], ["0", "0"]],
                            "b0": ["0", "-1"]}

    def test_center_index(self, capsys, tmp_path):
        out_path = tmp_path / "b.json"
        rc, _, _ = run(capsys, "reduce", "--catalog", "r3_h3",
                       "--center-index", "3", "--out", str(out_path))
        assert rc == 0
        assert parse_document(out_path.read_text())["dim"] == 4
        rc, _, err = run(capsys, "reduce", "--catalog", "r3_h3",
                         "--center-index", "9")
        assert rc == 1
        assert "center dimension 4" in err

    @pytest.mark.parametrize("index", ["-1", "-4", "4"])
    def test_center_index_out_of_range(self, capsys, index):
        rc, out, err = run(capsys, "reduce", "--catalog", "r3_h3", "--center-index", index)
        assert rc == 1
        assert out == ""
        assert f"--center-index {index} is out of range" in err
        assert "the center dimension 4 allows 0..3" in err

    @pytest.mark.parametrize("index", ["0", "7"])
    def test_center_index_with_auto(self, capsys, index):
        """--auto picks its own center vectors, so an index given with it,
        in range or not, is refused before any work."""
        rc, out, err = run(capsys, "reduce", "--catalog", "g6_3", "--auto",
                           "--center-index", index)
        assert rc == 1
        assert out == ""
        assert err == "error: give --center-index or --auto, not both\n"

    def test_non_flat_input(self, capsys):
        rc, _, err = run(capsys, "reduce", "--catalog", "aff1")
        assert rc == 2
        assert "flat" in err

    def test_auto_tower(self, capsys, tmp_path):
        tower_path = tmp_path / "tower.json"
        rc, _, err = run(capsys, "reduce", "--catalog", "g6_3", "--auto",
                         "--pair-out", str(tower_path))
        assert rc == 0
        assert "reduced g6_3 to dimension 0 in 3 step(s)" in err
        doc = parse_document(tower_path.read_text())
        assert [step["base_dim"] for step in doc["steps"]] == [0, 2, 4]

    def test_auto_on_dimension_zero(self, capsys, tmp_path):
        base_path = tmp_path / "base.json"
        rc, out, err = run(capsys, "reduce", "--catalog", "zero", "--auto",
                           "--out", str(base_path))
        assert rc == 0
        assert "reduced zero to dimension 0 in 0 step(s)" in err
        assert parse_document(out) == {"steps": []}
        base = parse_document(base_path.read_text())
        assert base["dim"] == 0 and base["basis"] == []

    def test_auto_then_rebuild_pipeline(self, capsys, tmp_path):
        # reduce to a tower, then re-extend stage by stage and classify
        tower_path = tmp_path / "tower.json"
        rc, _, _ = run(capsys, "reduce", "--catalog", "g6_2", "--auto",
                       "--pair-out", str(tower_path))
        assert rc == 0
        steps = parse_document(tower_path.read_text())["steps"]

        cur = tmp_path / "stage0.json"
        rc, _, _ = run(capsys, "catalog", "export", "zero", "--out", str(cur))
        assert rc == 0
        for k, step in enumerate(steps):
            pair_path = tmp_path / f"pair{k}.json"
            pair_path.write_text(dumps_document(step))
            nxt = tmp_path / f"stage{k + 1}.json"
            rc, _, _ = run(capsys, "extend", "--base", str(cur),
                           "--pair", str(pair_path), "--out", str(nxt))
            assert rc == 0
            cur = nxt
        rc, out, _ = run(capsys, "classify", str(cur))
        assert rc == 0
        assert "class: g6_2" in out


class TestClassify:
    def test_catalog_entries(self, capsys):
        for name, cls in (("abelian6", "R^6"), ("r_h3_dim4", "RxH3"),
                          ("g6_1", "g6_1")):
            rc, out, _ = run(capsys, "classify", "--catalog", name)
            assert rc == 0
            assert f"class: {cls}" in out

    def test_bad_param_names_its_key(self, capsys):
        rc, out, err = run(capsys, "classify", "--catalog", "g6_1", "--param", "lam=1/0")
        assert (rc, out, err) == (1, "", "error: --param lam: zero denominator: '1/0'\n")
        rc, out, err = run(capsys, "catalog", "show", "g6_1", "--param", "lam=x")
        assert (rc, out, err) == (1, "", "error: --param lam: not a rational literal: 'x'\n")

    def test_non_flat(self, capsys):
        rc, out, _ = run(capsys, "classify", "--catalog", "aff1")
        assert rc == 2
        assert "flat: no" in out
        assert "not applicable" in out

    def test_unsupported_dimension(self, capsys, tmp_path):
        doc = {
            "dim": 8,
            "basis": [f"x{k}" for k in range(1, 9)],
            "brackets": [],
            "omega": [{"u": f"x{k}", "v": f"x{9 - k}", "value": "1"}
                      for k in range(1, 5)],
        }
        path = tmp_path / "dim8.json"
        path.write_text(dumps_document(doc))
        rc, _, err = run(capsys, "classify", str(path))
        assert rc == 1
        assert "dimensions 0, 2, 4, 6" in err


class TestUsage:
    def test_no_command(self, capsys):
        rc, _, err = run(capsys)
        assert rc == 1
        assert "error:" in err

    def test_unknown_command(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 1
        assert "error:" in err

    def test_bad_report_choice(self, capsys):
        rc, _, err = run(capsys, "verify", "--catalog", "g6_2",
                         "--report", "everything")
        assert rc == 1
        assert "invalid choice" in err


class TestInternalErrors:
    """A failed internal invariant ends in exit code 3, not a traceback."""

    @pytest.mark.parametrize("error", [ExtensionInvariantError,
                                       FlatnessInvariantError,
                                       DegenerateFormError])
    def test_exit_code_3(self, capsys, monkeypatch, error):
        def broken(s):
            raise error("invariant broke")
        monkeypatch.setattr("symplie.cli.reduction_tower", broken)
        rc, out, err = run(capsys, "reduce", "--catalog", "g6_3", "--auto")
        assert rc == 3
        assert err == "internal error: invariant broke\n"
        assert "Traceback" not in out + err


class TestClosedStdout:
    """A reader that closes standard output early, as ``| head -1`` does,
    ends the command quietly with exit code 141, not as bad input; the
    pipe fails on a write when stdout is unbuffered and on the flush
    when it is buffered."""

    class FailingWrite:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    class FailingFlush:
        def write(self, text):
            return len(text)

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    @pytest.mark.parametrize("stdout", [FailingWrite, FailingFlush])
    @pytest.mark.parametrize("argv", [["verify", "--catalog", "g6_3"],
                                      ["catalog", "export", "g6_3"]])
    def test_exit_code_141(self, capsys, monkeypatch, stdout, argv):
        monkeypatch.setattr(sys, "stdout", stdout())
        assert cli.main(argv) == 141
        assert capsys.readouterr().err == ""


class TestOversizedDocument:
    def test_dim_over_the_limit(self, capsys, tmp_path):
        doc = tmp_path / "big.json"
        doc.write_text(json.dumps({"dim": 1000000, "basis": [],
                                   "brackets": [], "omega": []}))
        rc, _, err = run(capsys, "verify", str(doc))
        assert rc == 1
        assert err == "error: dim: 1000000 exceeds the limit of 16\n"


class TestLongNumbers:
    """A number longer than the interpreter's int-string limit: in the
    input it is bad input that names its field (exit 1); in a result it
    is an internal error (exit 3), since the input was valid."""

    def test_literal_over_the_limit(self, capsys, tmp_path):
        doc = tmp_path / "long.json"
        doc.write_text(json.dumps({
            "dim": 2, "basis": ["x1", "x2"], "brackets": [],
            "omega": [{"u": "x1", "v": "x2", "value": "1" * 5000}]}))
        rc, out, err = run(capsys, "verify", str(doc))
        assert rc == 1 and out == ""
        assert err == ("error: omega[0].value: literal of 5000 digits exceeds "
                       "the limit of 4300 digits\n")

    def test_json_number_over_the_limit(self, capsys, tmp_path):
        doc = tmp_path / "long.json"
        doc.write_text('{"dim": ' + "9" * 5000 + ', "basis": []}')
        rc, out, err = run(capsys, "verify", str(doc))
        assert rc == 1 and out == ""
        assert err == "error: not valid JSON: a number exceeds the limit of 4300 digits\n"
        xi = "[[" + "1" * 5000 + ", 0], [0, 0]]"
        rc, out, err = run(capsys, "extend", "--catalog", "abelian2", "--xi", xi,
                           "--b0", "zero")
        assert rc == 1 and out == ""
        assert err == "error: --xi: not valid JSON: a number exceeds the limit of 4300 digits\n"

    def test_unwritable_tower(self, capsys, tmp_path):
        # g6_3 in the basis L U, unitriangular factors with 20-digit
        # entries: its literals have at most 179 digits, its reduction
        # tower's up to 929
        rng = random.Random(5)

        def unitriangular(lower):
            rows = [[int(i == j) for j in range(6)] for i in range(6)]
            for i in range(6):
                for j in range(i) if lower else range(i + 1, 6):
                    rows[i][j] = rng.randint(-10 ** 20, 10 ** 20)
            return Matrix.from_rows(rows)
        t = unitriangular(True) @ unitriangular(False)
        doc = tmp_path / "g6_3.json"
        doc.write_text(dumps_document(algebra_to_document(
            change_of_basis(catalog.get("g6_3").algebra, t))))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            rc, out, err = run(capsys, "reduce", "--base", str(doc), "--auto",
                               "--pair-out", str(tmp_path / "tower.json"))
        finally:
            sys.set_int_max_str_digits(limit)
        assert rc == 3 and out == ""
        assert err == ("internal error: cannot write a rational of about 928 digits; "
                       "the limit for int-string conversion is 640 digits\n")


class TestNotUtf8:
    """A file that is not UTF-8 is reported by its path, whichever option
    names it (exit 1)."""

    MESSAGE = "not UTF-8 text: invalid start byte at byte 0\n"

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff[]")
        return str(path)

    def test_document(self, capsys, bad):
        for argv in (["verify", bad], ["classify", bad],
                     ["extend", "--base", bad, "--xi", "zero", "--b0", "zero"]):
            assert run(capsys, *argv) == (1, "", f"error: {bad}: {self.MESSAGE}"), argv

    def test_pair_file(self, capsys, bad):
        rc, out, err = run(capsys, "extend", "--catalog", "abelian2", "--pair", bad)
        assert (rc, out, err) == (1, "", f"error: {bad}: {self.MESSAGE}")

    def test_xi_file(self, capsys, bad):
        rc, out, err = run(capsys, "extend", "--catalog", "abelian2", "--xi", bad,
                           "--b0", "zero")
        assert (rc, out, err) == (1, "", f"error: {bad}: {self.MESSAGE}")


class TestNestedJson:
    """A short document of deeply nested arrays ends in exit code 1 and an
    error line, run as a real process so that a traceback would show."""

    @pytest.mark.parametrize("argv", [
        ["verify", "{doc}"],
        ["extend", "--catalog", "abelian2", "--xi", "{doc}", "--b0", "zero"],
    ])
    def test_error_not_traceback(self, tmp_path, argv):
        doc = tmp_path / "nested.json"
        doc.write_text("[" * 3000)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "symplie.cli"] + [a.format(doc=doc) for a in argv],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestModuleEntryPoint:
    """python -m symplie runs cli.main in a real process and exits with
    its code."""

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--catalog", "g6_3"], 0),
        (["verify", "--catalog", "no_such_entry"], 1),
        (["verify", "--catalog", "aff1", "--report", "flat"], 2),
    ])
    def test_exit_code(self, argv, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "symplie"] + argv,
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 0:
            assert proc.stdout.startswith("input: g6_3 (dim 6)\n")
            assert "FAIL" not in proc.stdout
        if code == 1:
            assert proc.stderr.startswith("error: ")
        if code == 2:
            assert "first_violation_at: (0, 1)" in proc.stdout


class TestParserReuse:
    """One parser serves every main call; no call leaves state in it."""

    def test_one_parser(self):
        assert cli._build_parser() is cli._build_parser()

    def test_params_do_not_pile_up(self, capsys, monkeypatch):
        seen = []
        original = cli._params_dict

        def recording(args):
            seen.append(list(args.param or []))
            return original(args)

        monkeypatch.setattr(cli, "_params_dict", recording)
        for argv in (["catalog", "show", "g6_1", "--param", "lam=2"],
                     ["catalog", "show", "g6_1", "--param", "lam=3"],
                     ["verify", "--catalog", "g6_2", "--report", "flat"]):
            rc, _, _ = run(capsys, *argv)
            assert rc == 0
        assert seen == [["lam=2"], ["lam=3"], []]

    def test_reduce_auto_then_single_step(self, capsys, tmp_path):
        tower = tmp_path / "tower.json"
        rc, _, err = run(capsys, "reduce", "--catalog", "r_h3_dim4", "--auto",
                         "--pair-out", str(tower))
        assert rc == 0 and "reduced r_h3_dim4 to dimension 0" in err
        assert "steps" in parse_document(tower.read_text())
        base = tmp_path / "base.json"
        rc, out, err = run(capsys, "reduce", "--catalog", "r_h3_dim4",
                           "--out", str(base))
        assert rc == 0 and out == "" and err == ""
        assert parse_document(base.read_text())["dim"] == 2


def test_version(capsys):
    """--version names the package version, the scalar backend and the
    Python version, and main returns 0 without raising SystemExit."""
    rc, out, err = run(capsys, "--version")
    assert rc == 0 and err == ""
    assert out == (f"symplie {__version__} (scalars: fractions.Fraction, "
                   f"Python {platform.python_version()})\n")


class TestUnknownNames:
    """An unknown name is reported as the plain message, not quoted as a
    KeyError would print it."""

    def test_unknown_catalog_entry(self, capsys):
        rc, out, err = run(capsys, "catalog", "show", "nope")
        assert rc == 1 and out == ""
        assert err == ("error: unknown catalog entry 'nope'; available: "
                       + ", ".join(catalog.names()) + "\n")

    def test_unknown_family(self, capsys, monkeypatch):
        # no subcommand takes a family name, so a catalog lookup stands in
        monkeypatch.setattr(cli.catalog, "get",
                            lambda name, **params: catalog.admissible_family(name, params))
        rc, out, err = run(capsys, "catalog", "show", "nope")
        assert rc == 1 and out == ""
        assert err == ("error: unknown family 'nope'; available: "
                       + ", ".join(catalog.family_names()) + "\n")
