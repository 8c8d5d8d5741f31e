"""Tour of the three polynomial families with exact rational arithmetic.

Run:  python3 demos/families_tour.py
"""

from fractions import Fraction

from qoscpoly import (Basis, QContext, connect_hahn_gaussian, hahn_factorial,
                      q_factorial, qgaussian)


def show(title, poly):
    print(f"  {title}: {poly!r}")


def main():
    ctx = QContext(Fraction(1, 2), Fraction(1, 8))  # q = 1/4, omega = 1/8
    print(f"context: q = {ctx.q}, omega = {ctx.omega}, omega0 = {ctx.omega0}")

    print("\nq-Gaussian polynomials phi_n(x) = prod (x - q^k):")
    for n in range(4):
        show(f"phi_{n}", qgaussian(ctx, n))

    print("\nq-factorial polynomials phihat_n in u = q^x:")
    for n in range(4):
        show(f"phihat_{n}", Basis.QFACTORIAL.element(ctx, n))

    print("\nHahn factorial polynomials phidot_n(x) = prod (x - [k]_q w):")
    for n in range(4):
        show(f"phidot_{n}", hahn_factorial(ctx, n))

    print("\nthe same phidot_n rebuilt from the q-Gaussian connection:")
    for n in range(4):
        rebuilt = connect_hahn_gaussian(ctx, n)
        same = "ok" if rebuilt == hahn_factorial(ctx, n) else "MISMATCH"
        show(f"phidot_{n} [{same}]", rebuilt)

    print("\ngenerating-function coefficients phi_n(2)/[n]_q! :")
    values = [qgaussian(ctx, n)(2) / q_factorial(ctx, n) for n in range(6)]
    print("  " + ", ".join(str(v) for v in values))


if __name__ == "__main__":
    main()
