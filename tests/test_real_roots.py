"""``real_roots`` and ``isolate_root`` against sympy's real-root counts, an
independent oracle.

For ``real_roots``, the three checks below pin the output down completely:
the number of roots equals the oracle's count on the whole interval, each
returned interval holds exactly one root (and each returned rational is a
root), and the returned sets are disjoint and increasing.  For
``isolate_root``, the ``Fraction`` transform of Descartes' rule in the
oracles decides when it must succeed, and sympy checks the interval it
returns.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from forbiddenq.continuants import ratio_in_q
from forbiddenq.exact import IntPoly, NoSignChange, isolate_root
from oracles import mobius_variations, real_roots

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


ENDS = st.fractions(min_value=-6, max_value=6, max_denominator=12)
WIDTHS = st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8).filter(any),
    ENDS,
    WIDTHS,
    st.sampled_from([Fraction(1, 3), Fraction(1, 10**6), Fraction(1, 10**30)]),
)
@example([-2, 0, 1], Fraction(1), Fraction(1), Fraction(1, 10**30))  # one root inside
@example([0, -1, 1], Fraction(0), Fraction(2), Fraction(1, 3))  # a root at lo
@example([0, 1, -2, 1], Fraction(-1), Fraction(2), Fraction(1, 3))  # a double root at hi
@example([-6, 11, -6, 1], Fraction(0), Fraction(4), Fraction(1, 3))  # three roots inside
@example([0, 0, 1], Fraction(-1), Fraction(13, 12), Fraction(1, 3))  # a double root inside
def test_isolate_root_matches_sympy(coeffs, lo, width, eps):
    # isolate_root succeeds exactly when p has no root at either end and the
    # Fraction transform of Descartes' rule counts one sign variation; sympy
    # then counts one distinct root in (lo, hi), and one in the interval
    # returned, which lies in [lo, hi] and has width <= eps
    hi = lo + width
    p = IntPoly(coeffs)
    oracle = sympy.Poly(list(reversed(p.coeffs)), X)
    one = (oracle.eval(rat(lo)) != 0 and oracle.eval(rat(hi)) != 0
           and mobius_variations(p, lo, hi) == 1)
    try:
        alg = isolate_root(p, lo, hi, eps)
    except NoSignChange:
        assert not one
        return
    assert one
    assert oracle.count_roots(rat(lo), rat(hi)) == 1
    assert lo <= alg.lo < alg.hi <= hi and alg.width <= eps
    assert oracle.eval(rat(alg.lo)) != 0 and oracle.eval(rat(alg.hi)) != 0
    assert oracle.count_roots(rat(alg.lo), rat(alg.hi)) == 1
