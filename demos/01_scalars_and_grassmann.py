"""Tour of the exact scalar tower and the Grassmann engine.

Everything downstream rests on two layers: scalars that stay exact under
the square roots the odd generators force on us, and a Grassmann algebra
with a configurable antilinear star.
"""

from fractions import Fraction

from supercircle import GaussianRational, GeneratorSet, sqrt_neg_im

GR = GaussianRational


def main():
    print("== Gaussian rationals ==")
    x = GR(Fraction(3, 4), -2)
    y = GR(0, 1)
    print("x       =", x)
    print("x * i   =", x * y)
    print("x^-1    =", x.inverse())
    print("x * x^-1 =", x * x.inverse())

    print()
    print("== square roots of -i*m ==")
    for m in (1, 3, -3, 2, -8):
        s = sqrt_neg_im(m)
        print("m = %3d: s = %-22s s^2 = %s" % (m, s, s * s))
    print("(|m| = 2k^2 collapses back into the Gaussian rationals;")
    print(" other weights live in a tracked quadratic extension)")

    print()
    print("== Grassmann elements ==")
    base = GeneratorSet(["xi", "xibar"], pairing=[[0, 1]], even=["q"])
    gens = base.with_star_images(  # q is real
        [base.odd_gen("xibar"), base.odd_gen("xi")], [base.even_gen("q")])
    xi = gens.odd_gen("xi")
    xibar = gens.odd_gen("xibar")
    q = gens.even_gen("q")
    u = q + xi * xibar
    print("u           =", u)
    print("xi * xi     =", xi * xi)
    print("xi * xibar  =", xi * xibar)
    print("xibar * xi  =", xibar * xi)
    print("star(u)     =", u.star(), "   (pairing swaps xi and xibar)")
    print("u^-1        =", u.invert())
    print("u * u^-1    =", u * u.invert())
    print("parity of xi:", xi.parity(), " parity of u:", u.parity())


if __name__ == "__main__":
    main()
