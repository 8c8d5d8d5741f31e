"""The two-parameter Hahn difference calculus on exact polynomials.

Run:  python3 demos/hahn_calculus.py
"""

from fractions import Fraction

from qoscpoly import (Poly, QContext, hahn_antiderivative,
                      hahn_derivative_poly, hahn_exp_normalized,
                      hahn_integral_closed, hahn_integral_numeric,
                      leibniz_residuals)


def main():
    ctx = QContext(Fraction(1, 2), Fraction(1, 8))
    print(f"context: q = {ctx.q}, omega = {ctx.omega}, "
          f"fixed point omega0 = {ctx.omega0}\n")

    p = Poly([Fraction(1, 3), -2, 0, 1])  # x^3 - 2x + 1/3
    print(f"p      = {p!r}")
    dp = hahn_derivative_poly(ctx, p)
    print(f"D p    = {dp!r}")
    anti = hahn_antiderivative(ctx, p)
    print(f"int p  = {anti!r}   (normalized so it vanishes at omega0)")
    print(f"D(int p) == p : {hahn_derivative_poly(ctx, anti) == p}")

    x = Fraction(1)
    exact = hahn_integral_closed(ctx, p, x)
    approx, terms = hahn_integral_numeric(ctx, p, x, Fraction(1, 10 ** 12))
    print(f"\nintegral from omega0 to {x}:")
    print(f"  closed form      : {exact}")
    print(f"  node sum ({terms} terms): {approx}")
    print(f"  difference       : {abs(exact - approx)}")

    f, g = Poly([1, 1]), Poly([0, 0, 1])
    pres, qres = leibniz_residuals(ctx, f, g)
    print(f"\nproduct-rule residual for (x+1, x^2) : {pres!r}")
    print(f"quotient-rule residual               : {qres!r}")

    print("\nnormalized Hahn exponential e(x) (40-factor product):")
    for x in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        print(f"  e({x}) = {float(hahn_exp_normalized(ctx, x, 40)):.12f}")


if __name__ == "__main__":
    main()
