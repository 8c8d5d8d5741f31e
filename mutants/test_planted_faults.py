"""Faults planted in a copy of the source must be reported by verify.

Each row plants one fault: a file of the package, a fragment that must
occur there exactly once, its replacement, the record-id prefix that must
fail, the verify arguments and why the fault shows there.  verify run on
the copy must exit 1 and write a json report that parses, with a fail
record under the prefix.  A fragment that no longer occurs fails its row,
so a refactor carries its faults along.  Run: python -m pytest -q mutants
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MATEL = ["--suite", "matrixelements", "--nmax", "4"]

# name: (file, fragment, replacement, failing prefix, verify arguments, why)
FAULTS = {
    "poly-compose-affine": (
        "poly.py", "for i in range(deg):", "for i in range(deg - 1):",
        "hahncalc/raised", [],
        "a Taylor shift one pass short leaves the top coefficients of "
        "p(qx + w) unshifted, so every Hahn difference leaves a remainder"),
    "families-rebuild-factor-index": (
        "families.py", "scale = basis.parts(ctx, k)",
        "scale = basis.parts(ctx, k + 1)",
        "operators/analytic-vs-basis/", ["--s", "2/3"],
        "a vector_to_poly that reads factor k + 1 for factor k rebuilds "
        "every ladder image from the wrong nested product, so it differs "
        "from the analytic operator"),
    "families-expand-remainder-scale": (
        "families.py", "out.append(Fraction(rem, den))",
        "out.append(Fraction(rem, den // gcd(den, *nums)))",
        "polyfamilies/roundtrip/", ["--s", "2/3"],
        "a remainder read over the quotient's reduced denominator, not over "
        "the one the division left it on, is off by their gcd, so the "
        "expansion no longer rebuilds p"),
    "matel-prefactor-denominator": (
        "matel.py", "pref.denominator * den * row.den)",
        "den * row.den)", "matrixelements/closed-vs-oracle/", MATEL,
        "a cell that drops its prefactor's denominator is off by it "
        "wherever the prefactor is not an integer"),
    "matel-prefactor-numerator": (
        "matel.py", "p, den = pref.numerator", "p, den = 2 * pref.numerator",
        "matrixelements/hahn-reduces/", MATEL,
        "a cell with twice its prefactor's numerator is wrong for every "
        "family alike, so hahn-reduces sees it only because its rhs is the "
        "q-Gaussian oracle"),
    "matel-side-offset": (
        "matel.py", "(nu, e, 1) if lower else (mu, 1 - e, -1)",
        "(nu, e, -1) if lower else (mu, 1 - e, 1)",
        "matrixelements/closed-vs-oracle/", MATEL,
        "the q-power of a cell with n + r + 1 and n + r - 1 swapped between "
        "the sides is off by s^(+-2d) wherever its f, e or 1 - e, is 1"),
    "matel-column-by-diagonal": (
        "matel.py", "key := (h.twice * d, d)", "key := d",
        "matrixelements/closed-vs-oracle/", MATEL,
        "U columns keyed by d alone let both sides of a diagonal share the "
        "one walked first, whose argument is wrong on the other side "
        "wherever mu != nu"),
    "matel-arriving-weight-index": (
        "matel.py", "(w_up, raise_", "([0, *w_up], raise_",
        "matrixelements/closed-vs-oracle/", MATEL,
        "raising paths into r weighted by index j - 1, not j, shift every "
        "raising weight, so the oracle disagrees with the closed form"),
    "qarith-walker-qq-step": (
        "qarith.py", "zd * (pd * qd - pn * qn)", "zd * (pd * qd + pn * qn)",
        "matrixelements/special-form/", MATEL,
        "a walker step with 1 + q^k for 1 - q^k walks (-q; q)_k, not "
        "(q; q)_k, so U differs from the basic hypergeometric sum, built "
        "from q_pochhammer, from n = 1 on"),
    "qarith-walker-q-power": (
        "qarith.py", "pd * qd - pn * qn)", "pd * qd - pn * qn * qn)",
        "matrixelements/special-form/", MATEL + ["--s", "2/3"],
        "a walker step with q's numerator squared walks the wrong (q; q)_k "
        "wherever that numerator is not 1: at the default s = 1/2, q = 1/4 "
        "hides it, so the row runs at s = 2/3"),
    "qarith-pochhammer-step": (
        "qarith.py", "b *= qn", "b *= qd",
        "qkernel/factorial-pochhammer/", ["--suite", "qkernel"],
        "a q_pochhammer whose q-power steps by qd, not qn, makes (q; q)_n "
        "the wrong product from n = 2 on"),
    "operators-hahn-raising-variable": (
        "operators.py", "return Poly([0, 1]) * p.compose_affine",
        "return Poly([0, 1], VAR_U) * p.compose_affine", "operators/raised", [],
        "a Hahn raising operator that returns a polynomial in u raises "
        "ValueError (variable mismatch), a fault like any other"),
}


@pytest.mark.parametrize("name", FAULTS)
def test_planted_fault_is_reported(tmp_path, name):
    file, fragment, replacement, prefix, args, why = FAULTS[name]
    shutil.copytree(SRC / "qoscpoly", tmp_path / "qoscpoly",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "qoscpoly" / file
    source = path.read_text()
    assert source.count(fragment) == 1, f"{file} must hold {fragment!r} once"
    path.write_text(source.replace(fragment, replacement))
    run = subprocess.run(
        [sys.executable, "-m", "qoscpoly.cli", "verify", *args,
         "--format", "json"], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert run.returncode == 1, f"{why}; exit {run.returncode}: {run.stderr}"
    records = json.loads(run.stdout)["records"]
    assert any(r["check_id"].startswith(prefix) and r["status"] == "fail"
               for r in records), f"{why}; no fail under {prefix}"
