"""Closed-form matrix elements against the brute-force ladder oracle.

The exponential-operator product E^(mu)(alpha a+) E^(nu)(beta a) maps the
n-th family polynomial to a combination of all of them; the expansion
coefficients have closed forms, and an independent oracle recomputes them
by walking every lowering/raising path with exact ladder coefficients.

For the Hahn family the published closed form provably disagrees with the
oracle whenever alpha*beta != 0 and omega != 0 -- the library keeps the
formula as printed and reports the mismatch instead of patching it.

Run:  python3 demos/matrix_element_oracle.py
"""

from fractions import Fraction

from qoscpoly import (FAMILIES, HAHN, HALF_HALF, HALF_ZERO, QGAUSSIAN,
                      MatElParams, QContext, matel_closed, matel_oracle)


def main():
    ctx = QContext(Fraction(1, 2), Fraction(1, 8))
    params = dict(mu=HALF_HALF, nu=HALF_ZERO,
                  alpha=Fraction(1, 3), beta=Fraction(-1, 2))
    print(f"context: q = {ctx.q}, omega = {ctx.omega}")
    print(f"mu = 1/2, nu = 0, alpha = {params['alpha']}, "
          f"beta = {params['beta']}\n")

    for family in FAMILIES:
        print(f"{family.name}:")
        for n in range(3):
            for r in range(3):
                p = MatElParams(n=n, r=r, **params)
                closed = matel_closed(ctx, family, p)
                oracle = matel_oracle(ctx, family, p)
                tag = "ok" if closed == oracle else "documented discrepancy"
                print(f"  L[{n},{r}] closed = {closed}  oracle = {oracle}"
                      f"  [{tag}]")
        print()

    print("at omega = 0 the Hahn elements collapse onto the q-Gaussian ones:")
    ctx0 = ctx.with_omega(0)
    for n in range(3):
        p = MatElParams(n=n, r=n, **params)
        h = matel_oracle(ctx0, HAHN, p)
        g = matel_oracle(ctx0, QGAUSSIAN, p)
        print(f"  L[{n},{n}] hahn = {h}  gaussian = {g}"
              f"  [{'ok' if h == g else 'MISMATCH'}]")


if __name__ == "__main__":
    main()
