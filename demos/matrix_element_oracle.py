"""Closed-form matrix elements against the brute-force ladder oracle.

The exponential-operator product E^(mu)(alpha a+) E^(nu)(beta a) maps the
n-th family polynomial to a combination of all of them; the expansion
coefficients have closed forms, and an independent oracle recomputes the
whole matrix at once by walking the lowering/raising paths with exact ladder
coefficients.  Both give each element as a monomial times a polynomial in
alpha*beta, and ``matel_at`` reads the matrix at one (alpha, beta).

For the Hahn family the published closed form provably disagrees with the
oracle wherever alpha*beta != 0, omega != 0 and min(n, r) >= 1 -- the
library keeps the formula as printed and reports the mismatch instead of
patching it.  Only those cells are tagged a documented discrepancy; a
mismatch anywhere else prints MISMATCH.

Run:  python3 demos/matrix_element_oracle.py
"""

from fractions import Fraction

from qoscpoly import (FAMILIES, HAHN, HALF_HALF, HALF_ZERO, QGAUSSIAN,
                      QContext, matel_at, matel_closed, matel_oracle)


def main():
    ctx = QContext(Fraction(1, 2), Fraction(1, 8))
    params = dict(mu=HALF_HALF, nu=HALF_ZERO, nmax=2)
    alpha, beta = Fraction(1, 3), Fraction(-1, 2)
    print(f"context: q = {ctx.q}, omega = {ctx.omega}")
    print(f"mu = 1/2, nu = 0, alpha = {alpha}, beta = {beta}\n")

    for family in FAMILIES:
        print(f"{family.name}:")
        closed = matel_at(matel_closed(ctx, family, **params), alpha, beta)
        oracle = matel_at(matel_oracle(ctx, family, **params), alpha, beta)
        for n in range(3):
            for r in range(3):
                c, o = closed[n][r], oracle[n][r]
                predicted = (family is HAHN and ctx.omega != 0
                             and alpha * beta != 0 and min(n, r) >= 1)
                tag = ("ok" if c == o else "documented discrepancy"
                       if predicted else "MISMATCH")
                print(f"  L[{n},{r}] closed = {c}  oracle = {o}  [{tag}]")
        print()

    print("at omega = 0 the Hahn elements collapse onto the q-Gaussian ones:")
    ctx0 = ctx.with_omega(0)
    hahn = matel_at(matel_oracle(ctx0, HAHN, **params), alpha, beta)
    gaussian = matel_at(matel_oracle(ctx0, QGAUSSIAN, **params), alpha, beta)
    for n in range(3):
        h, g = hahn[n][n], gaussian[n][n]
        print(f"  L[{n},{n}] hahn = {h}  gaussian = {g}"
              f"  [{'ok' if h == g else 'MISMATCH'}]")


if __name__ == "__main__":
    main()
