import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fanoblowup import MAX_BITS, MAX_DIM, Construction, HorizontalDivisor, as_rational, catalog, cli, invariants, refinement
from fanoblowup.cli import MAX_M, main

PAIR_ENTRY = """\
[family-4.2]
n = 3
r = 2
l = 2
vol_v = 8
expect_a = {expected}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_computation(monkeypatch):
    """Make every computation the CLI reaches fail, so that a refused input is never run."""
    def reached(*args, **kwargs):
        raise AssertionError("a refused input reached the computation")
    for owner, name in ((cli, "coefficient_a"), (cli, "report"), (cli, "convergence_table"), (catalog, "report")):
        monkeypatch.setattr(owner, name, reached)


def with_unknown_classification(monkeypatch, owner):
    """Make owner.report return reports whose classification is of neither kind."""
    real = invariants.report
    monkeypatch.setattr(owner, "report", lambda c: real(c)._replace(classification="neither kind"))


TOO_WIDE = f"{2 ** MAX_BITS + 1}/{2 ** MAX_BITS}"
# int converts a run of at most this many digits (0: any number).
DIGIT_LIMIT = sys.get_int_max_str_digits()
OVER_LONG = "9" * 5000
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts digit runs of any length")


def over_long_refusal(text: str) -> str:
    return f"numbers are limited to {DIGIT_LIMIT} digits, got {len(text)} characters starting {text[:24]!r}"


class TestCoeff:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "coeff", "--dim", "3", "--index", "3/2")
        assert code == 0
        assert out.splitlines() == ["9/52", "decimal: 0.173076923077"]

    def test_quiet(self, capsys):
        code, out, _ = run(capsys, "coeff", "--dim", "4", "--index", "2", "--quiet")
        assert code == 0
        assert out == "13/75\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "coeff", "--dim", "3", "--index", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 3, "r": "3", "a": "33/152", "decimal": "0.217105263158"}
        assert Fraction(doc["a"]) == Fraction(33, 152)

    def test_invalid_index_exits_2(self, capsys):
        code, _, err = run(capsys, "coeff", "--dim", "3", "--index", "1")
        assert code == 2
        assert "r must exceed 1" in err

    def test_unparsable_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["coeff", "--dim", "3", "--index", "x/y"])
        assert exc.value.code == 2


class TestInvariants:
    def test_pair_case_text(self, capsys):
        code, out, _ = run(capsys, "invariants", "--dim", "3", "--index", "2", "--l", "2", "--vol-v", "8")
        assert code == 0
        assert "classification reduces-to-pair a=11/56" in out
        assert "s_v0       1" in out and "s_vinf     1" in out

    def test_unstable_case_text(self, capsys):
        code, out, _ = run(capsys, "invariants", "--dim", "3", "--index", "3", "--l", "3")
        assert code == 0
        assert "classification k-unstable destabilizer=infinity-section beta=-15/128" in out

    def test_json_schema_and_values(self, capsys):
        code, out, _ = run(capsys, "invariants", "--dim", "3", "--index", "2", "--l", "2", "--vol-v", "8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["n", "r", "l", "vol_v", "vol_y", "s_v0", "s_vinf", "beta_v0", "beta_vinf", "classification"]
        assert doc["vol_y"] == "28"
        assert doc["classification"] == {"kind": "reduces-to-pair", "a": "11/56"}
        assert Fraction(doc["vol_y"]) == 28

    def test_inadmissible_l_exits_2(self, capsys):
        code, _, err = run(capsys, "invariants", "--dim", "3", "--index", "2", "--l", "5")
        assert code == 2
        assert "l must satisfy" in err

    def test_invariant_violation_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(invariants, "_profile_integrals", lambda c, d: (1, [1 + Fraction(1, 10 ** 30), 0]))
        code, out, err = run(capsys, "invariants", "--dim", "3", "--index", "2", "--l", "2")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: betas do not vanish at l = 2")

    def test_unknown_classification_exits_3(self, capsys, monkeypatch):
        rep = invariants.report(Construction(3, 2, 2))
        monkeypatch.setattr(cli, "report", lambda c: rep._replace(classification="neither kind"))
        code, out, err = run(capsys, "invariants", "--dim", "3", "--index", "2", "--l", "2", "--json")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: unknown classification")

    def test_unbalanced_betas_exit_3(self, capsys, monkeypatch):
        s_values = {HorizontalDivisor.ZERO_SECTION: Fraction(11, 10), HorizontalDivisor.INFINITY_SECTION: Fraction(19, 20)}
        monkeypatch.setattr(invariants, "_profile_integrals", lambda c, d: (1, [s_values[d], 0]))
        code, out, err = run(capsys, "invariants", "--dim", "3", "--index", "2", "--l", "1/2")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: horizontal betas must sum to zero")

    def test_unknown_classification_text_exits_3(self, capsys, monkeypatch):
        with_unknown_classification(monkeypatch, cli)
        code, out, err = run(capsys, "invariants", "--dim", "3", "--index", "2", "--l", "2")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: unknown classification")

    @pytest.mark.parametrize("fault", [ZeroDivisionError("division by zero"), KeyError("vol_y")])
    def test_unexpected_exception_exits_3(self, capsys, monkeypatch, fault):
        def fail(c):
            raise fault
        monkeypatch.setattr(cli, "report", fail)
        code, out, err = run(capsys, "invariants", "--dim", "3", "--index", "2", "--l", "2")
        assert (code, out) == (3, "")
        assert err == f"internal error: {fault}\n"

    def test_deterministic_json(self, capsys):
        argv = ("invariants", "--dim", "4", "--index", "3", "--l", "5/2", "--json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestCatalog:
    def test_default_catalog_passes(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("entries passed")

    def test_default_catalog_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] == doc["total"] == len(doc["entries"])
        entry = doc["entries"][0]
        assert list(entry)[0] == "name" and list(entry)[-1] == "pass"
        for key in ("r", "l", "vol_v", "vol_y", "s_v0", "s_vinf", "beta_v0", "beta_vinf"):
            Fraction(entry[key])  # every rational field round-trips

    def test_expectation_mismatch_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(PAIR_ENTRY.format(expected="1/2"), encoding="utf-8")
        code, out, _ = run(capsys, "catalog", str(path))
        assert code == 1
        assert "FAIL family-4.2" in out
        assert "11/56 ≠ 1/2" in out

    def test_correct_expectation_exits_0(self, tmp_path, capsys):
        path = tmp_path / "good.cfg"
        path.write_text(PAIR_ENTRY.format(expected="11/56"), encoding="utf-8")
        code, out, _ = run(capsys, "catalog", str(path))
        assert code == 0
        assert "PASS family-4.2: reduces-to-pair a=11/56" in out

    def test_empty_catalog_exits_0(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "catalog", str(path))
        assert code == 0
        assert "0/0 entries passed" in out

    def test_parse_error_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("[entry]\nn = 3\nr 2\n", encoding="utf-8")
        code, _, err = run(capsys, "catalog", str(path))
        assert code == 2
        assert "line" in err and "3" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "odd.cfg"
        path.write_text("[entry]\nn = 3\nr = 2\nl = 2\nvolume = 1\n", encoding="utf-8")
        code, _, err = run(capsys, "catalog", str(path))
        assert code == 2
        assert "unknown key" in err

    @pytest.mark.parametrize(
        "entry, reason",
        [
            ("n = 3\nr = 2\n", "missing required key 'l'"),
            (
                "n = 3\nr = 3\nl = 3\nexpect_destabilizer = zero\n",
                "expect_destabilizer must be 'zero-section' or 'infinity-section', got 'zero'",
            ),
        ],
    )
    def test_missing_key_or_bad_destabilizer_exits_2(self, tmp_path, capsys, monkeypatch, entry, reason):
        refuse_computation(monkeypatch)
        path = tmp_path / "refused.cfg"
        path.write_text(f"[entry]\n{entry}", encoding="utf-8")
        code, out, err = run(capsys, "catalog", str(path))
        assert (code, out, err) == (2, "", f"error: entry [entry]: {reason}\n")

    def test_inadmissible_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inadmissible.cfg"
        path.write_text("[entry]\nn = 3\nr = 1\nl = 0\n", encoding="utf-8")
        code, _, err = run(capsys, "catalog", str(path))
        assert code == 2
        assert "r must exceed 1" in err

    def test_quiet_hides_passing_entries(self, capsys):
        code, out, _ = run(capsys, "catalog", "--quiet")
        assert code == 0
        assert "PASS" not in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "catalog", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "cannot read catalog" in err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"[a]\nn = 3\nr = 2\nl = \xff\n")
        with pytest.raises(catalog.CatalogError, match="cannot read catalog"):
            catalog.load_catalog(path)
        code, out, err = run(capsys, "catalog", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read catalog {path}: ")

    def test_default_keys_alone_exits_2(self, tmp_path, capsys):
        path = tmp_path / "default.cfg"
        path.write_text(PAIR_ENTRY.replace("family-4.2", "DEFAULT").format(expected="1/2"), encoding="utf-8")
        code, out, err = run(capsys, "catalog", str(path))
        assert code == 2
        assert "[DEFAULT]" in err and out == ""

    def test_default_keys_beside_entry_exits_2(self, tmp_path, capsys):
        # Read as INI defaults, these keys would leak into the 3.31 entry and fail it.
        path = tmp_path / "default_and_331.cfg"
        path.write_text(
            PAIR_ENTRY.replace("family-4.2", "DEFAULT").format(expected="1/2")
            + "\n[family-3.31]\nn = 3\nr = 3\nl = 1\nexpect_destabilizer = zero-section\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "catalog", str(path))
        assert code == 2
        assert "[DEFAULT]" in err and out == ""

    def test_empty_default_is_ignored(self, tmp_path, capsys):
        # An empty [DEFAULT] merges nothing into the entries, so it is read as no entry.
        path = tmp_path / "empty_default.cfg"
        path.write_text("[DEFAULT]\n\n" + PAIR_ENTRY.format(expected="11/56"), encoding="utf-8")
        assert [entry.name for entry in catalog.load_catalog(path)] == ["family-4.2"]
        code, out, _ = run(capsys, "catalog", str(path))
        assert (code, out.splitlines()[-1]) == (0, "1/1 entries passed")

    def test_both_expectations_exit_2(self, tmp_path, capsys, monkeypatch):
        refuse_computation(monkeypatch)
        path = tmp_path / "both.cfg"
        path.write_text(PAIR_ENTRY.format(expected="11/56") + "expect_destabilizer = zero-section\n", encoding="utf-8")
        code, out, err = run(capsys, "catalog", str(path))
        assert (code, out) == (2, "")
        assert "entry [family-4.2]: expect_destabilizer cannot be met at l = 2" in err

    @pytest.mark.parametrize("flags", [[], ["--quiet"], ["--json"]])
    def test_unknown_classification_exits_3(self, capsys, monkeypatch, flags):
        with_unknown_classification(monkeypatch, catalog)
        code, out, err = run(capsys, "catalog", *flags)
        assert (code, out) == (3, "")
        assert err.startswith("internal error: unknown classification")

    def test_wrong_kind_details(self, tmp_path, capsys, monkeypatch):
        # l fixes the kind of verdict, so an expectation of the other kind is refused at load.
        refuse_computation(monkeypatch)
        path = tmp_path / "kinds.cfg"
        path.write_text(
            "[unstable]\nn = 3\nr = 3\nl = 3\nexpect_a = 1/2\n"
            "[pair]\nn = 3\nr = 2\nl = 2\nexpect_destabilizer = zero-section\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "catalog", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: entry [unstable]: expect_a cannot be met at l = 3; ")

    @pytest.mark.parametrize("l", ["0", "1/2", "1", "3/2", "2", "3"])
    def test_l_decides_the_expectation_key(self, tmp_path, capsys, monkeypatch, l):
        # One l from each branch of report(): 0, (0, 1), 1, (1, 2), 2 and (2, r + 1) at r = 3.
        verdict = invariants.report(Construction(3, 3, Fraction(l))).classification
        fields = invariants.classification_fields(verdict)
        if "a" in fields:
            met, unmet = f"expect_a = {fields['a']}", "expect_destabilizer = zero-section"
        else:
            met, unmet = f"expect_destabilizer = {fields['destabilizer']}", "expect_a = 1/2"
        path = tmp_path / "entry.cfg"
        path.write_text(f"[entry]\nn = 3\nr = 3\nl = {l}\n{met}\n", encoding="utf-8")
        code, out, _ = run(capsys, "catalog", str(path))
        assert (code, out) == (0, f"PASS entry: {invariants.classification_text(verdict)}\n1/1 entries passed\n")
        refuse_computation(monkeypatch)
        path.write_text(f"[entry]\nn = 3\nr = 3\nl = {l}\n{unmet}\n", encoding="utf-8")
        code, out, err = run(capsys, "catalog", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: entry [entry]: {unmet.split()[0]} cannot be met at l = {l}; ")

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("n", str(MAX_DIM + 1), f"n is limited to {MAX_DIM}"),
            ("r", TOO_WIDE, f"limited to {MAX_BITS} bits"),
            ("vol_v", "1e3", "exponent notation is not accepted"),
            ("expect_a", f"1/{2 ** MAX_BITS}", f"limited to {MAX_BITS} bits"),
            ("r", "3_0/2", "digit separators '_' are not accepted, got '3_0/2'"),
            ("n", "3_0", "digit separators '_' are not accepted, got '3_0'"),
            ("n", "3.0", "n must be an integer, got '3.0'"),
            ("r", "three", "expected a rational like 7 or 3/2, got 'three'"),
            pytest.param("n", OVER_LONG, over_long_refusal(OVER_LONG), marks=needs_digit_limit, id="n-over-long"),
        ],
    )
    def test_bounds_exit_2(self, tmp_path, capsys, monkeypatch, key, value, reason):
        refuse_computation(monkeypatch)
        fields = {"n": "3", "r": "2", "l": "2", "vol_v": "8", "expect_a": "11/56", key: value}
        path = tmp_path / "big.cfg"
        path.write_text("[big]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()), encoding="utf-8")
        code, out, err = run(capsys, "catalog", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: entry [big]: ") and reason in err

    def test_byte_order_mark_is_read(self, tmp_path, capsys):
        text = catalog.default_catalog_path().read_text(encoding="utf-8")
        path = tmp_path / "bom.cfg"
        path.write_text("\ufeff" + text, encoding="utf-8")
        code, out, _ = run(capsys, "catalog", str(path))
        assert (code, out) == (0, run(capsys, "catalog")[1])

    def test_readme_example_passes(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(block, encoding="utf-8")
        code, out, _ = run(capsys, "catalog", str(path))
        assert code == 0
        assert "PASS family-4.2" in out


class TestRefine:
    def test_rows_text(self, capsys):
        code, out, _ = run(capsys, "refine", "--dim", "3", "--index", "3", "--base", "ps:2:1", "--m", "1,2")
        assert code == 0
        assert "m=1    a_m=3/11" in out
        assert "m=2    a_m=51/200" in out
        assert "target a(3,3) = 33/152" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "refine", "--dim", "3", "--index", "3", "--base", "ps:2:1", "--m", "2,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["target"] == "33/152"
        assert [row["m"] for row in doc["rows"]] == [1, 2]
        assert doc["rows"][0]["a_m"] == "3/11"

    def test_repeated_level_prints_one_row(self, capsys):
        code, out, _ = run(capsys, "refine", "--dim", "3", "--index", "3", "--base", "ps:2:1", "--m", "2,2,2", "--quiet")
        assert code == 0
        assert out.splitlines() == ["m=2    a_m=51/200  error=0.0378947368421"]

    def test_fractional_stride_exits_2(self, capsys):
        code, _, err = run(capsys, "refine", "--dim", "3", "--index", "3/2", "--base", "ps:2:2", "--m", "3")
        assert code == 2
        assert "multiples of 2" in err

    def test_valid_even_m_for_half_integer_r(self, capsys):
        code, out, _ = run(capsys, "refine", "--dim", "3", "--index", "3/2", "--base", "ps:2:2", "--m", "2")
        assert code == 0
        assert "a_m=27/140" in out

    def test_base_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "refine", "--dim", "3", "--index", "2", "--base", "ps:2:3", "--m", "2")
        assert code == 2
        assert "base mismatch" in err

    def test_failed_check_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(refinement, "coefficient_a", lambda n, r: Fraction(3, 11))  # a_1 at (3, 3)
        code, out, err = run(capsys, "refine", "--dim", "3", "--index", "3", "--base", "ps:2:1", "--m", "1")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: finite-m value unexpectedly equals the limit at m = 1")

    def test_unknown_base_exits_2(self, capsys):
        for base in ("grassmannian:2:4", "ps:2:x", "ps:x:1"):
            with pytest.raises(SystemExit) as exc:
                main(["refine", "--dim", "3", "--index", "3", "--base", base, "--m", "1"])
            assert exc.value.code == 2
            assert f"unknown base {base!r}; supported form: ps:<s>:<d>" in capsys.readouterr().err


class TestGlobalFlags:
    def test_json_before_subcommand(self, capsys):
        code, out, _ = run(capsys, "--json", "coeff", "--dim", "4", "--index", "2")
        assert code == 0
        assert json.loads(out)["a"] == "13/75"

    def test_quiet_before_subcommand(self, capsys):
        assert run(capsys, "--quiet", "coeff", "--dim", "4", "--index", "2") == (0, "13/75\n", "")

    def test_one_parser_per_command(self, monkeypatch):
        # The main parser and one per subcommand; no parent parsers.
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._build_parser()
        assert built == ["fanoblowup", *(f"fanoblowup {name}" for name in ("coeff", "invariants", "catalog", "refine"))]


class TestBounds:
    REFINE = ["refine", "--dim", "3", "--index", "3", "--base", "ps:2:1"]

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["coeff", "--dim", str(MAX_DIM + 1), "--index", "2"], f"n is limited to {MAX_DIM}"),
            (["invariants", "--dim", "100000", "--index", "2", "--l", "1"], f"n is limited to {MAX_DIM}"),
            (["coeff", "--dim", "3", "--index", TOO_WIDE], f"limited to {MAX_BITS} bits"),
            (["invariants", "--dim", "3", "--index", "2", "--l", f"1/{2 ** MAX_BITS}"], f"limited to {MAX_BITS} bits"),
            (["invariants", "--dim", "3", "--index", "2", "--l", "1", "--vol-v", "1e3"], "exponent notation"),
            (REFINE + ["--m", "100000000"], f"limited to a total of {MAX_M}"),
            (REFINE + ["--m", f"{MAX_M},1"], f"limited to a total of {MAX_M}"),
            (["coeff", "--dim", "3", "--index", "3_0/2"], "digit separators '_' are not accepted, got '3_0/2'"),
            (["coeff", "--dim", "3_0", "--index", "2"], "digit separators '_' are not accepted, got '3_0'"),
            (["coeff", "--dim", "x", "--index", "2"], "n must be an integer, got 'x'"),
            (["coeff", "--dim", "3.0", "--index", "2"], "n must be an integer, got '3.0'"),
            (REFINE + ["--m", "1_0"], "digit separators '_' are not accepted, got '1_0'"),
            (REFINE + ["--m", "1,x"], "m must be an integer, got 'x'"),
            (
                ["refine", "--dim", "3", "--index", "3", "--base", "ps:0_2:1", "--m", "1"],
                "digit separators '_' are not accepted, got '0_2'",
            ),
            *(
                (["invariants", "--dim", "3", "--index", text, "--l", "2"], reason)
                for text, reason in [
                    ("3_0/2", "digit separators '_' are not accepted"),
                    ("1e1", "exponent notation is not accepted"),
                    ("2E0", "exponent notation is not accepted"),
                    ("1.e2", "exponent notation is not accepted"),
                    ("\u0661e1", "exponent notation is not accepted"),
                    ("three", "expected a rational like 7 or 3/2, got 'three'"),
                ]
            ),
            *(
                pytest.param(argv, over_long_refusal(text), marks=needs_digit_limit, id=f"{flag}-over-long")
                for flag, argv, text in [
                    ("dim", ["coeff", "--dim", OVER_LONG, "--index", "2"], OVER_LONG),
                    ("index", ["coeff", "--dim", "3", "--index", OVER_LONG], OVER_LONG),
                    ("l", ["invariants", "--dim", "3", "--index", "2", "--l", f"1/{OVER_LONG}"], f"1/{OVER_LONG}"),
                    ("m", REFINE + ["--m", f"1,{OVER_LONG}"], OVER_LONG),
                ]
            ),
            *(
                pytest.param(
                    ["refine", "--dim", "3", "--index", "3", "--base", base, "--m", "1"],
                    f"the sizes s and d must be from 1 to {MAX_DIM}, got {base!r}",
                    id=f"base-{base}",
                )
                for base in ["ps:0:1", "ps:2:0", "ps:-1:1", f"ps:{MAX_DIM + 1}:1", f"ps:2:{MAX_DIM + 1}"]
            ),
        ],
    )
    def test_refused_with_exit_2(self, capsys, monkeypatch, argv, reason):
        refuse_computation(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize(
        "read, text, reason",
        [
            (catalog.bounded_dim, "9" * 3000, f"n is limited to {MAX_DIM}, got {{}}"),
            (catalog.bounded_rational, "1" + "0" * 3000, f"numerator and denominator are limited to {MAX_BITS} bits, got {{}}"),
        ],
        ids=["dim", "bits"],
    )
    def test_bounds_quote_long_text_by_excerpt(self, read, text, reason):
        with pytest.raises(ValueError) as refused:
            read(text)
        assert str(refused.value) == reason.format(f"{len(text)} characters starting {text[:24]!r}")

    LONG = "x" * 3000

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeff", "--dim", "3", "--index", LONG],
            ["coeff", "--dim", LONG, "--index", "2"],
            ["coeff", "--dim", "9" * 3000, "--index", "2"],
            ["coeff", "--dim", "3", "--index", "1" + "0" * 3000],
            ["invariants", "--dim", "3", "--index", "2", "--l", "1_0" * 1000],
            ["invariants", "--dim", "3", "--index", "2", "--l", "1", "--vol-v", "1e" + "0" * 3000],
            REFINE + ["--m", f"1,{LONG}"],
            REFINE + ["--m", ",".join(["1"] * (MAX_M + 1))],
            ["refine", "--dim", "3", "--index", "3", "--base", "q" * 3000, "--m", "1"],
            ["refine", "--dim", "3", "--index", "3", "--base", f"ps:{LONG}:1", "--m", "1"],
            ["refine", "--dim", "3", "--index", "3", "--base", f"ps:{'9' * 3000}:1", "--m", "1"],
            ["refine", "--dim", "3", "--index", "3", "--base", f"ps:-{'9' * 3000}:1", "--m", "1"],
            ["refine", "--dim", "3", "--index", "3", "--base", f"ps:2:{'9' * 3000}", "--m", "1"],
        ],
        ids=[
            "index", "dim", "dim-bound", "index-bits", "l-separators", "vol-v-exponent", "m", "m-total", "base",
            "base-size", "base-size-bound", "base-size-negative", "base-degree-bound",
        ],
    )
    def test_refused_long_text_keeps_stderr_short(self, capsys, monkeypatch, argv):
        refuse_computation(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        # The usage line and the reason, with the text cut to its first 24 characters.
        assert len(capsys.readouterr().err) < 400

    @pytest.mark.parametrize("key", ["n", "r", "expect_destabilizer"])
    def test_catalog_refusal_of_long_text_keeps_stderr_short(self, tmp_path, capsys, monkeypatch, key):
        refuse_computation(monkeypatch)
        entry = {"n": "3", "r": "3", "l": "3", key: "q" * 3000}
        path = tmp_path / "long.cfg"
        path.write_text("[long]\n" + "".join(f"{k} = {v}\n" for k, v in entry.items()), encoding="utf-8")
        code, out, err = run(capsys, "catalog", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: entry [long]: ") and len(err) < 200

    @pytest.mark.parametrize("text", ["3/2", " 3/2 ", "2.5", "-0", "7", "3_0/2", "1e1", "1.e2", "three", "1/0"])
    def test_flags_read_rationals_as_the_library_does(self, text):
        try:
            expected = as_rational(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                catalog.bounded_rational(text)
            assert str(refused.value) == str(exc)
        else:
            assert catalog.bounded_rational(text) == expected

    def test_largest_admitted_values(self, capsys):
        wide = f"{2 ** MAX_BITS - 1}/{2 ** (MAX_BITS - 1)}"
        code, out, _ = run(capsys, "coeff", "--dim", str(MAX_DIM), "--index", wide, "--quiet")
        assert code == 0 and Fraction(out) > 0


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_process(stdout, unbuffered: bool, *argv, **env) -> subprocess.CompletedProcess:
    """Run the CLI in its own interpreter with the given stdout, buffered or not."""
    base = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    base.update(PYTHONPATH=str(SRC), **env)
    if unbuffered:
        base["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "fanoblowup.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=base, text=True
    )


class TestUnwritableOutput:
    """A result that cannot be written exits 4 with one line on stderr, never a traceback."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_device_exits_4(self, unbuffered):
        with open("/dev/full", "w") as full:
            done = run_cli_process(full, unbuffered, "catalog")
        assert done.returncode == 4
        assert done.stderr == "error: cannot write output: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_exits_4(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_cli_process(write_end, unbuffered, "catalog")
        finally:
            os.close(write_end)
        assert done.returncode == 4
        assert done.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"

    def test_unencodable_text_exits_4(self):
        mismatch = SRC.parent / "tests" / "data" / "mismatch_catalog.cfg"
        done = run_cli_process(subprocess.PIPE, False, "catalog", str(mismatch), PYTHONIOENCODING="ascii")
        assert done.returncode == 4
        assert done.stderr.startswith("error: cannot write output: 'ascii' codec can't encode character")
        assert done.stderr.count("\n") == 1


class TestImportCost:
    def test_import_leaves_out_slow_stdlib_modules(self):
        """Every CLI call pays for the import: no dataclasses (it pulls in inspect) or configparser.

        A module the interpreter already holds before the import (a ``.pth``
        file run by ``site`` may load inspect) is not the package's cost.
        """
        probe = (
            "import sys; held = set(sys.modules); import fanoblowup.cli; "
            "print(sorted({'dataclasses', 'inspect', 'configparser'} & (set(sys.modules) - held)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"
