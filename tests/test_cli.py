import json
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
        rep.extend([record("a", {}, True, 1, 1),
                    record("b", {}, False, 1, 2, discrepancy=True)])
        assert rep.ok
        rep.extend([record("c", {}, False, 1, 2)])
        assert not rep.ok

    def test_text_summary_line(self):
        rep = VerificationReport({}, 7)
        rep.extend([record("a", {}, True, 1, 1)])
        text = rep.to_text()
        assert "summary: 1 pass, 0 fail, 0 documented-discrepancy (seed=7)" in text

    def test_json_roundtrip(self):
        rep = VerificationReport({"q": "1/4"}, 0)
        rep.extend([record("zz", {"n": 3}, True, "1", "1"),
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

    @pytest.mark.parametrize("argv", [
        "table matel --nmax -1", "table poly --nmax -3", "verify --order -1",
        "verify --nmax -1", "table genfun --order -2"])
    def test_negative_size_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        flag = argv.split()[-2]
        assert exc.value.code == cli.EXIT_USAGE
        assert f"argument {flag}: must be >= 0" in capsys.readouterr().err

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
        code, out, _ = run_cli(
            capsys, ["table", "matel", "--format", "json", "--nmax", "3"])
        assert code == cli.EXIT_OK
        rows = json.loads(out)["rows"]
        for row in rows:
            if row["family"] != "hahn":
                assert row["agree"]

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
