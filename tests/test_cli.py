import json
import sys
from fractions import Fraction

import pytest

from qoscpoly import QFACTORIAL, cli
from qoscpoly.report import (DISCREPANCY, FAIL, PASS, VerificationReport,
                             fmt_exact, record)
from qoscpoly.verify import RunConfig, run_suites


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAST = ["--nmax", "4", "--order", "6"]


class TestReport:
    def test_record_statuses(self):
        assert record("a", {}, True, 1, 1).status == PASS
        assert record("a", {}, False, 1, 2).status == FAIL
        assert record("a", {}, False, 1, 2, discrepancy=True).status == DISCREPANCY

    def test_ok_ignores_discrepancies(self):
        rep = VerificationReport({}, 0)
        rep.records.extend([record("a", {}, True, 1, 1),
                            record("b", {}, False, 1, 2, discrepancy=True)])
        assert rep.ok
        rep.records.extend([record("c", {}, False, 1, 2)])
        assert not rep.ok

    def test_text_summary_line(self):
        rep = VerificationReport({}, 7)
        rep.records.extend([record("a", {}, True, 1, 1)])
        text = rep.to_text()
        assert "summary: 1 pass, 0 fail, 0 documented-discrepancy (seed=7)" in text

    def test_json_roundtrip(self):
        rep = VerificationReport({"q": "1/4"}, 0)
        rep.records.extend([record("zz", {"n": 3}, True, "1", "1"),
                            record("aa", {}, False, "1", "2")])
        data = json.loads(rep.to_json())
        assert data["summary"][FAIL] == 1
        assert [r["check_id"] for r in data["records"]] == ["aa", "zz"]

    def test_exact_values_of_any_size(self):
        # past Python's default limit of 4300 digits for int-to-str
        big = 10 ** 5000
        assert fmt_exact(Fraction(-big, 7)) == "-1" + "0" * 5000 + "/7"
        assert fmt_exact([big, Fraction(1, big)]) == \
            f"[1{'0' * 5000}, 1/1{'0' * 5000}]"

    def test_csv_header(self):
        rep = VerificationReport({}, 0)
        first = rep.to_csv().splitlines()[0]
        assert first == "check_id,params,status,lhs,rhs,note"


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--suite", "qkernel"] + FAST)
        assert code == cli.EXIT_OK
        assert "fail" in out.splitlines()[-1]
        assert "[fail]" not in out

    def test_discrepancies_do_not_fail(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "qseries", "--suite", "matrixelements"]
            + FAST)
        assert code == cli.EXIT_OK
        assert "[documented-discrepancy]" in out

    def test_wrong_closed_form_fails(self, capsys, monkeypatch):
        # documented-discrepancy covers only the predicted Hahn cells, so a
        # q-factorial closed form off by a factor of 2 fails the run
        import qoscpoly.matel as matel
        closed = matel.matel_closed

        def doubled(ctx, family, *args):
            m = closed(ctx, family, *args)
            if family is QFACTORIAL:
                return [[2 * v for v in row] for row in m]
            return m

        monkeypatch.setattr(matel, "matel_closed", doubled)
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "matrixelements", "--nmax", "2"])
        assert code == cli.EXIT_VERIFICATION_FAILED
        assert "[fail] matrixelements/closed-vs-oracle/qfactorial/" in out
        assert "[fail] matrixelements/closed-vs-oracle/qgaussian/" not in out

    def test_wrong_linear_coefficient_fails_exactly_where_it_shows(
            self, capsys, monkeypatch):
        # doubling only the (alpha*beta)^1 coefficient of the q-factorial
        # closed form changes an element exactly where alpha*beta != 0 and
        # deg P_{n,r} >= 1, i.e. min(n, r) >= 1
        import qoscpoly.matel as matel
        from qoscpoly import Poly
        closed = matel.matel_closed

        def corrupted(ctx, family, *args):
            m = closed(ctx, family, *args)
            if family is QFACTORIAL:
                return [[Poly([p.coeff(0), 2 * p.coeff(1), *p.coeffs[2:]])
                         for p in row] for row in m]
            return m

        monkeypatch.setattr(matel, "matel_closed", corrupted)
        code, out, _ = run_cli(capsys, ["verify", "--suite", "matrixelements",
                                        "--nmax", "2", "--format", "json"])
        assert code == cli.EXIT_VERIFICATION_FAILED
        records = json.loads(out)["records"]
        failed = {r["check_id"] for r in records if r["status"] == FAIL}
        expected = {
            r["check_id"] for r in records
            if r["check_id"].startswith(
                "matrixelements/closed-vs-oracle/qfactorial/")
            and Fraction(r["params"]["alpha"]) * Fraction(r["params"]["beta"])
            and min(int(r["params"]["n"]), int(r["params"]["r"])) >= 1}
        # 4 (mu, nu) x 9 points with alpha*beta != 0 x 4 cells with n, r >= 1
        assert len(expected) == 144
        assert failed == expected

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "qkernel", "--format", "json"] + FAST)
        assert code == cli.EXIT_OK
        data = json.loads(out)
        assert set(data) == {"context", "seed", "summary", "records"}
        assert data["summary"][FAIL] == 0

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--suite", "polyfamilies", "--seed", "3",
                "--format", "json"] + FAST
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_seed_changes_randomized_cases(self):
        cfgs = [RunConfig(suites=("hahncalc",), nmax=4, order=6, seed=s)
                for s in (0, 1)]
        reports = [run_suites(c) for c in cfgs]
        assert reports[0].to_json() != reports[1].to_json()

    def test_bad_s_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--s", "3/2"])
        assert code == cli.EXIT_USAGE
        assert "error" in err

    def test_order_zero_passes(self, capsys):
        # every pairing's residual is 1*1 - 1 = 0 at order 0: the alternate
        # pairing's nonzero residual is predicted from t^1 on
        code, out, _ = run_cli(capsys, ["verify", "--nmax", "0", "--order", "0"])
        assert code == cli.EXIT_OK
        assert "[pass] qseries/exp-pair-alternate\n" in out

    @pytest.mark.parametrize("argv", [
        "verify --suite qkernel --nmax 1 --omega -1/3 --format json",
        "table hahn --nmax 2 --omega -1/3 --format json"])
    def test_negative_omega_after_space(self, capsys, argv):
        code, out, err = run_cli(capsys, argv.split())
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["context"]["omega"] == "-1/3"
        joined = argv.replace("--omega ", "--omega=").split()
        assert run_cli(capsys, joined) == (code, out, err)

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        # the installed script calls main() with no argv, so the words,
        # a negative value after a space among them, come from sys.argv
        argv = "table hahn --nmax 2 --omega -1/3 --format json".split()
        monkeypatch.setattr(sys, "argv", ["qoscpoly", *argv])
        code, out, err = run_cli(capsys, None)
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["context"]["omega"] == "-1/3"
        assert run_cli(capsys, argv) == (code, out, err)

    @pytest.mark.parametrize("argv, option", [
        ("verify --suite qkernel --nmax 1 --om -1/3 --format json", "--om"),
        ("table hahn --nmax 2 --ome -1/3 --format json", "--ome")])
    def test_negative_value_after_abbreviation(self, capsys, argv, option):
        # argparse takes --om and --ome for --omega, and so does the rule
        # that joins a negative value to its option
        code, out, err = run_cli(capsys, argv.split())
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["context"]["omega"] == "-1/3"
        joined = argv.replace(option + " ", "--omega=").split()
        assert run_cli(capsys, joined) == (code, out, err)

    def test_negative_rational_size_is_invalid_int(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--nmax", "-1/3"])
        assert exc.value.code == cli.EXIT_USAGE
        assert ("argument --nmax: invalid int value: '-1/3'"
                in capsys.readouterr().err)

    def test_negative_word_after_a_value_is_not_joined(self, capsys):
        # --omega=1/3 has its value, so -1/3 stays a word of its own
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "qkernel", "--omega=1/3", "-1/3"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "unrecognized arguments: -1/3" in capsys.readouterr().err

    def test_negative_seed_after_space(self, capsys):
        argv = ["verify", "--suite", "hahncalc", "--format", "json"] + FAST
        code, out, err = run_cli(capsys, argv + ["--seed", "-3"])
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["seed"] == -3
        assert run_cli(capsys, argv + ["--seed=-3"]) == (code, out, err)

    @pytest.mark.parametrize("argv", ["verify --s -1/2", "table poly --s -1/2"])
    def test_negative_s_reaches_range_check(self, capsys, argv):
        code, out, err = run_cli(capsys, argv.split())
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert "error: base root s must satisfy 0 < s < 1, got -1/2" in err

    @pytest.mark.parametrize("argv", [
        "verify --s 1/0", "verify --omega 1/0", "table poly --s 1/0"])
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, argv.split())
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "error: zero denominator in '1/0'" in err

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, ["verify", "--suite", "nonsense"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_huge_exact_values_serialise(self, capsys):
        # at s = 1/9 the Euler partial sums run to about 12,100 characters
        code, out, _ = run_cli(capsys, ["verify", "--suite", "qseries",
                                        "--s", "1/9", "--format", "json"])
        assert code == cli.EXIT_OK
        euler = [r for r in json.loads(out)["records"]
                 if r["check_id"].startswith("qseries/euler-")]
        assert len(euler) == 6
        assert all(r["status"] == PASS for r in euler)
        assert max(len(r["lhs"]) for r in euler) > 4300

    def test_repeated_suite_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "--suite", "qkernel", "--suite", "qkernel"]
            + FAST)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "'qkernel' is listed more than once" in err

    def test_table_takes_no_seed(self, capsys):
        # tables are not randomised: --seed belongs to verify only
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "poly", "--seed", "1"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    # argparse only parses the int; context.nonnegative rejects it, through
    # run_suites or cmd_table; no table rejects a negative --nmax of hahn or
    # --order of poly further down, so cmd_table's check alone catches them
    @pytest.mark.parametrize("argv", [
        "table matel --nmax -1", "table poly --nmax -3", "verify --order -1",
        "verify --nmax -1", "table genfun --order -2", "table hahn --nmax -1",
        "table poly --order -1"])
    def test_negative_size_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, argv.split())
        flag, value = argv.split()[-2:]
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: {flag[2:]} must be >= 0, got {value}\n"

    @pytest.mark.parametrize("argv", ["verify --nmax -1", "table hahn --order -1"])
    def test_negative_size_writes_no_file(self, capsys, tmp_path, argv):
        path = tmp_path / "out"
        code, _, _ = run_cli(capsys, argv.split() + ["--out", str(path)])
        assert code == cli.EXIT_USAGE
        assert not path.exists()

    def test_failure_exit_code(self, capsys, monkeypatch):
        # force a failing record through a stubbed suite
        import qoscpoly.verify as verify

        def broken_suite(ctx, nmax, order, rng):
            return [record("stub/forced-failure", {}, False, 0, 1)]

        monkeypatch.setitem(verify.SUITES, "qkernel", broken_suite)
        code, out, _ = run_cli(capsys, ["verify", "--suite", "qkernel"] + FAST)
        assert code == cli.EXIT_VERIFICATION_FAILED
        assert "[fail] stub/forced-failure" in out

    def test_wrong_basis_factor_fails(self, capsys, monkeypatch):
        # q^(k+1) for q^k in the q-Gaussian factors; every check built on
        # the product basis must notice against its independent side
        from dataclasses import replace

        from qoscpoly.families import Basis
        monkeypatch.setattr(Basis, "QGAUSSIAN", replace(
            Basis.QGAUSSIAN, factor=lambda ctx, k: (-ctx.q_pow(k + 1), 1)))
        code, out, _ = run_cli(capsys, [
            "verify", "--suite", "polyfamilies", "--suite", "qseries",
            "--nmax", "3", "--order", "4", "--format", "json"])
        assert code == cli.EXIT_VERIFICATION_FAILED
        failed = {"/".join(r["check_id"].split("/")[:2])
                  for r in json.loads(out)["records"] if r["status"] == FAIL}
        assert {"polyfamilies/gaussian-three-way", "polyfamilies/inversion",
                "polyfamilies/connection", "qseries/gaussian-genfun",
                "qseries/raising-series-factorizes"} <= failed

    @pytest.mark.parametrize("argv", [
        "verify --suite matrixelements --nmax 2", "table matel --nmax 2"])
    def test_degenerate_hahn_context_rejected(self, capsys, argv):
        # omega = 3/4 at q = 1/4 puts omega0 = 1, where sigma = 1 - omega0 = 0
        code, out, err = run_cli(capsys,
                                 argv.split() + ["--s", "1/2", "--omega", "3/4"])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "omega0 = 1" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "qkernel", "--format", "csv",
                     "--out", str(path)] + FAST)
        assert code == cli.EXIT_OK
        assert out == ""
        assert path.read_text().startswith("check_id,")

    def test_out_unwritable(self, capsys):
        code, _, err = run_cli(
            capsys, ["verify", "--suite", "qkernel",
                     "--out", "/nonexistent-dir/report.txt"] + FAST)
        assert code == cli.EXIT_IO
        assert "cannot write" in err


class TestTableCommand:
    def test_poly_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["table", "poly", "--format", "json", "--nmax", "3"])
        assert code == cli.EXIT_OK
        data = json.loads(out)
        assert set(data) == {"context", "kind", "rows"}
        assert data["kind"] == "poly"
        families = {row["family"] for row in data["rows"]}
        assert families == {"qgaussian", "qfactorial", "hahn"}

    def test_matel_rows_agree_for_exact_families(self, capsys):
        # at omega = 0 the Hahn rows agree too; to nmax 12 the shared
        # Pochhammer row (q^-n; q)_j reaches n = 12, in 3 x 13 x 13 rows
        for argv, exact in (("--nmax 3", {"qgaussian", "qfactorial"}),
                            ("--nmax 12 --omega 0",
                             {"qgaussian", "qfactorial", "hahn"})):
            code, out, _ = run_cli(
                capsys, ["table", "matel", "--format", "json", *argv.split()])
            assert code == cli.EXIT_OK
            rows = json.loads(out)["rows"]
            assert len(rows) == 3 * (int(argv.split()[1]) + 1) ** 2
            assert all(row["agree"] for row in rows if row["family"] in exact)

    def test_help_says_which_table_reads_which_size(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--help"])
        assert exc.value.code == cli.EXIT_OK
        text = " ".join(capsys.readouterr().out.split())
        assert "series truncation order; of the tables, only genfun reads it" \
            in text
        assert "tabulate (every table but genfun reads it)" in text
        # and the size a table does not read changes none of its bytes
        for kind in cli.TABLE_ROWS:
            unread = "--nmax" if kind == "genfun" else "--order"
            argv = ["table", kind, "--nmax", "2", "--order", "2"]
            assert run_cli(capsys, argv) == run_cli(capsys, argv + [unread, "3"])

    def test_position_table(self, capsys):
        code, out, _ = run_cli(
            capsys, ["table", "position", "--format", "json", "--nmax", "2"])
        rows = json.loads(out)["rows"]
        assert rows[0]["coeffs"] == ["1"]
        assert rows[1]["coeffs"] == ["0", "1"]

    def test_csv_and_text_formats(self, capsys):
        for fmt in ("csv", "text"):
            code, out, _ = run_cli(
                capsys, ["table", "genfun", "--format", fmt, "--order", "4"])
            assert code == cli.EXIT_OK
            assert out

    def test_context_block(self, capsys):
        _, out, _ = run_cli(
            capsys, ["table", "hahn", "--format", "json", "--nmax", "2",
                     "--s", "3/4", "--omega", "1/8"])
        ctx = json.loads(out)["context"]
        assert ctx == {"s": "3/4", "q": "9/16", "omega": "1/8", "omega0": "2/7"}
