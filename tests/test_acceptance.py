"""Acceptance suite: one test per published acceptance criterion.

Each test prints a single pass/fail line on the real terminal (bypassing
capture) and then asserts, so a plain ``pytest -v`` run shows all ten
verdicts.  Criteria 02-09 read the records that the verification suites
return at the criterion's own contexts.  Each asserts the exact number of
records of every check it reads and that none of them failed, so a suite
that silently drops cells fails the criterion too.  Explicit loops remain
only for cells that no suite covers, and in criterion 01 (see there).
"""

import json
import random
from fractions import Fraction as F

from qoscpoly import (Basis, Poly, QContext, basic_hyp_terminating, cli,
                      hahn_factorial, q_binomial, q_factorial,
                      qfactorial_pochhammer_value, qgaussian)
from qoscpoly.report import DISCREPANCY, FAIL
from qoscpoly.verify import SUITES

QS = (F(1, 4), F(1, 2))
OMEGAS = (F(0), F(1, 8), F(1, 3))
AT_ONE_EIGHTH = tuple(QContext(s, F(1, 8)) for s in (F(1, 2), F(3, 4)))
SEED = 0
_RUNS = {}


def read(suite, contexts, counts, nmax=12, order=12):
    """The records of the checks named in ``counts``, run at every context.

    Each suite run is cached in ``_RUNS`` and shared between criteria.  A
    check's name is the first two segments of its record id; ``counts``
    gives the number of records each check has per context.  Returns whether
    every count is exact and no record failed, plus the records by name.
    """
    found = {name: [] for name in counts}
    for ctx in contexts:
        key = (suite, ctx, nmax, order, SEED)
        if key not in _RUNS:
            _RUNS[key] = SUITES[suite](ctx, nmax, order, random.Random(SEED))
        for r in _RUNS[key]:
            name = "/".join(r.check_id.split("/")[:2])
            if name in found:
                found[name].append(r)
    ok = all(len(found[name]) == n * len(contexts)
             and all(r.status != FAIL for r in found[name])
             for name, n in counts.items())
    return ok, found


def verdict(capsys, number, ok, description):
    with capsys.disabled():
        print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - "
              f"{description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_triple_construction(capsys):
    # the polyfamilies suite caps qfactorial-identity at n <= 10 and this
    # criterion checks n <= 15, so it keeps its own loop (which is also the
    # cheaper of the two at these six contexts)
    ok = True
    for q in QS:
        for omega in OMEGAS:
            ctx = QContext.from_q(q, omega)
            for n in range(16):
                ok &= (qgaussian(ctx, n, "product")
                       == qgaussian(ctx, n, "recursion")
                       == qgaussian(ctx, n, "explicit_sum"))
                ok &= (hahn_factorial(ctx, n, "product")
                       == hahn_factorial(ctx, n, "recursion")
                       == hahn_factorial(ctx, n, "explicit_sum"))
            for n in range(16):
                p = Basis.QFACTORIAL.element(ctx, n)
                for x in range(11):
                    ok &= p(q ** x) == qfactorial_pochhammer_value(ctx, n, x)
    verdict(capsys, 1, ok,
            "three constructions agree exactly for every family")


def test_criterion_02_ladder_algebra(capsys):
    ok, _ = read("operators", AT_ONE_EIGHTH, {
        "operators/analytic-vs-basis": 3 * 2 * 13,  # families, directions, n
        "operators/algebra": 3 * 6 * 13,  # families, relations, n
        "operators/raising-power": 2 * 10,
    })
    verdict(capsys, 2, ok,
            "analytic and basis ladder actions, eigen-relations, and "
            "repeated raising all exact")


def test_criterion_03_difference_equation(capsys):
    ok, _ = read("operators", [QContext.from_q(q) for q in QS],
                 {"operators/difference-equation": 13})
    verdict(capsys, 3, ok, "difference-equation residual is the zero "
            "polynomial for n <= 12")


def test_criterion_04_generating_functions(capsys):
    ok, _ = read("qseries", AT_ONE_EIGHTH, {
        "qseries/gaussian-genfun": 4 * 13,  # x, n
        "qseries/hahn-genfun": 4 * 13,
        "qseries/raising-series-factorizes": 2,
    })
    # terminating forms in u = q^x at integer x <= 8: both finite sums
    # are polynomials in t, compared at exact rational points
    for ctx in AT_ONE_EIGHTH:
        q = ctx.q
        for x in range(9):
            for t in (F(1, 3), F(-2), F(5, 7)):
                lhs = basic_hyp_terminating(ctx, [q ** -x, 0], [], t * q ** x)
                rhs = sum((qfactorial_pochhammer_value(ctx, n, x) * t ** n
                           / q_factorial(ctx, n) for n in range(x + 1)), F(0))
                ok &= lhs == rhs
                lhs = basic_hyp_terminating(ctx, [q ** -x], [], -t * q ** x)
                rhs = sum((ctx.q_pow(n * (n - 1) // 2)
                           * qfactorial_pochhammer_value(ctx, n, x) * t ** n
                           / q_factorial(ctx, n) for n in range(x + 1)), F(0))
                ok &= lhs == rhs
    verdict(capsys, 4, ok, "generating-function coefficients, terminating "
            "u-forms, and the Euler factorization are exact")


def test_criterion_05_inversion_connection(capsys):
    ok, _ = read("polyfamilies", AT_ONE_EIGHTH, {
        "polyfamilies/roundtrip": 3 * 5,  # bases, trials
        "polyfamilies/connection": 16,
    }, nmax=15)
    ok &= read("matrixelements", AT_ONE_EIGHTH, {
        "matrixelements/2phi0-first": 9 * 3,  # n, x
        "matrixelements/2phi0-second": 9 * 3,
    }, nmax=6)[0]
    # monomial inversion as an exact polynomial identity, degree <= 15
    for ctx in AT_ONE_EIGHTH:
        for n in range(16):
            recon = sum((q_binomial(ctx, n, k) * qgaussian(ctx, k)
                         for k in range(n + 1)), Poly.zero())
            ok &= recon == Poly.monomial(n)
    verdict(capsys, 5, ok, "inversion round-trips, the connection formula "
            "and both terminating 2phi0 identities are exact")


def test_criterion_06_matrix_element_grid(capsys):
    contexts = [QContext(s, omega) for s in (F(1, 2), F(3, 4))
                for omega in (F(0), F(1, 8))]
    ok, found = read("matrixelements", contexts, {
        # families, (mu, nu), (alpha, beta), (n, r)
        "matrixelements/closed-vs-oracle": 3 * 4 * 16 * 49,
        "matrixelements/hahn-reduces": 4 * 16 * 49,
    }, nmax=6)
    cells = found["matrixelements/closed-vs-oracle"]
    hahn_mismatches = sum(r.status == DISCREPANCY for r in cells)
    verdict(capsys, 6, ok,
            f"closed forms match the oracle on all {len(cells)} cells except "
            f"{hahn_mismatches} Hahn cells carried as documented "
            "discrepancies; the omega=0 Hahn column equals the q-Gaussian "
            "column")


def test_criterion_07_position_coefficients(capsys):
    printed = {f"polyfamilies/position-c{n}": 1 for n in range(1, 6)}
    ok, _ = read("polyfamilies", AT_ONE_EIGHTH, {
        **printed,
        "polyfamilies/position-even-origin": 7,
        "polyfamilies/position-odd-origin": 7,
    }, nmax=15)
    verdict(capsys, 7, ok, "printed coefficient polynomials c_1..c_5 and the "
            "closed forms at the origin are exact")


def test_criterion_08_hahn_calculus(capsys):
    ok, _ = read("hahncalc", AT_ONE_EIGHTH[:1], {
        "hahncalc/fundamental-derivative-of-integral": 8,
        "hahncalc/fundamental-integral-of-derivative": 8 * 2,  # trials, x
        "hahncalc/two-method-integral": 8 * 2,
        "hahncalc/leibniz-product": 20,
        "hahncalc/leibniz-quotient": 20,
        "hahncalc/exp-functional-equation": 3,
        "hahncalc/jackson-reduction": 1,
    })
    verdict(capsys, 8, ok, "fundamental theorems, Leibniz rules, exponential "
            "residual < 1e-9 at K=40, and the omega=0 reduction hold")


def test_criterion_09_exponential_pairing(capsys):
    ok, found = read("qseries", AT_ONE_EIGHTH, {
        "qseries/exp-pair-identity": 1,
        "qseries/exp-pair-alternate": 1,
    })
    ok &= all(r.status == DISCREPANCY
              for r in found["qseries/exp-pair-alternate"])
    verdict(capsys, 9, ok, "pair identity is an exact zero series to order "
            "12; the alternate pairing is surfaced as a documented "
            "discrepancy")


def test_criterion_10_cli_contract(capsys, monkeypatch, tmp_path):
    ok = True
    argv = ["verify", "--suite", "polyfamilies", "--nmax", "6",
            "--order", "8", "--seed", "1", "--format", "json"]
    outputs = []
    for run in range(2):
        path = tmp_path / f"run{run}.json"
        code = cli.main(argv + ["--out", str(path)])
        ok &= code == cli.EXIT_OK
        outputs.append(path.read_bytes())
    ok &= outputs[0] == outputs[1]
    ok &= json.loads(outputs[0])["summary"]["fail"] == 0
    ok &= cli.main(["verify", "--s", "3/2"]) == cli.EXIT_USAGE
    import qoscpoly.verify as verify
    from qoscpoly.report import record as make_record
    monkeypatch.setitem(
        verify.SUITES, "qkernel",
        lambda ctx, nmax, order, rng: [
            make_record("stub/forced-failure", {}, False, 0, 1)])
    code = cli.main(["verify", "--suite", "qkernel",
                     "--out", str(tmp_path / "fail.txt")])
    ok &= code == cli.EXIT_VERIFICATION_FAILED
    capsys.readouterr()
    verdict(capsys, 10, ok, "byte-identical reports for identical configs; "
            "exit codes honored for pass, failure and usage errors")
