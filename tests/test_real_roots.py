"""``real_roots`` against sympy's real-root counts, an independent oracle.

Together, the three checks below pin the output down completely: the number
of roots equals the oracle's count on the whole interval, each returned
interval holds exactly one root (and each returned rational is a root), and
the returned sets are disjoint and increasing.
"""

from fractions import Fraction

import pytest

from forbiddenq.continuants import ratio_in_q
from forbiddenq.exact import IntPoly, real_roots

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def rat(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def check_against_sympy(p: IntPoly, lo: Fraction, hi: Fraction) -> list:
    oracle = sympy.Poly(list(reversed(p.coeffs)), X)
    roots = real_roots(p, lo, hi)
    assert len(roots) == oracle.count_roots(rat(lo), rat(hi))
    prev = None
    for r in roots:
        if isinstance(r, Fraction):
            assert oracle.eval(rat(r)) == 0
            a = b = r
        else:
            assert oracle.eval(rat(r.lo)) != 0 and oracle.eval(rat(r.hi)) != 0
            assert oracle.count_roots(rat(r.lo), rat(r.hi)) == 1
            a, b = r.lo, r.hi
        assert lo <= a and b <= hi
        if prev is not None:
            assert prev < a if isinstance(r, Fraction) else prev <= a
        prev = b
    return roots


@pytest.mark.parametrize("n", range(1, 41))
def test_ratio_denominator_roots_match_sympy(n):
    _, den = ratio_in_q(n)
    roots = check_against_sympy(den, Fraction(0), Fraction(4))
    assert len(roots) == (n + 1) // 2


@pytest.mark.parametrize("n", range(2, 41, 5))
@pytest.mark.parametrize("c", [-10, -3, -1, 1, 3, 10])
def test_level_targets_match_sympy(n, c):
    num, den = ratio_in_q(n)
    check_against_sympy(num - c * den, Fraction(0), Fraction(4))
    check_against_sympy(num - c * den, Fraction(5, 2), Fraction(7, 2))
