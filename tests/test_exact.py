import contextlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from forbiddenq import cli, exact
from forbiddenq.continuants import _u_brackets, ratio_in_q, u_set
from forbiddenq.exact import (
    AlgebraicNumber,
    IntPoly,
    NoSignChange,
    isolate_root,
)
from oracles import horner_eval, mobius_variations, parity_split, real_roots


def rand_poly(rng, max_deg=6, bound=9):
    return IntPoly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


def rand_frac(rng, bound=20):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def test_intpoly_canonical():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([]).is_zero
    assert IntPoly([0, 0]).is_zero
    assert IntPoly([3]).degree == 0
    assert IntPoly().degree == -1


def test_intpoly_refuses_coefficients_that_are_not_integers():
    # they used to be truncated: [1.9, 2.5, '3', 7/2] became (1, 2, 3, 3)
    for bad in (1.9, 2.5, "3", Fraction(7, 2), Fraction(3)):
        with pytest.raises(TypeError):
            IntPoly([1, bad])
    assert IntPoly([True, False, 2**100, -3]).coeffs == (1, 0, 2**100, -3)
    assert all(type(c) is int for c in IntPoly([True, 2]).coeffs)


def test_poly_eval_examples():
    assert IntPoly([1]).eval(Fraction(7, 3)) == 1
    assert IntPoly([1, -3, 1]).eval(Fraction(3)) == 1
    assert IntPoly([1, 0, -1]).eval(Fraction(1)) == 0


def test_poly_eval_respects_ring_ops():
    rng = random.Random(101)
    for _ in range(200):
        p, r = rand_poly(rng), rand_poly(rng)
        x = rand_frac(rng)
        assert (p + r).eval(x) == p.eval(x) + r.eval(x)
        assert (p * r).eval(x) == p.eval(x) * r.eval(x)


def test_eval_matches_fraction_horner():
    # the zero polynomial and constants included: b**deg is b**-1 for the
    # zero polynomial, a float, so it must not reach the division
    rng = random.Random(204)
    polys = [IntPoly(), IntPoly([5]), IntPoly([-3])]
    polys += [rand_poly(rng, max_deg=9) for _ in range(300)]
    for p in polys:
        for x in (rand_frac(rng), Fraction(7, 3), Fraction(0), rng.randint(-20, 20), 0):
            v = p.eval(x)
            assert isinstance(v, Fraction) and v == horner_eval(p, x)


def test_parity_split_examples():
    even, odd = parity_split(IntPoly([1, 0, -1]))
    assert even == IntPoly([1, -1]) and odd == IntPoly([])
    even, odd = parity_split(IntPoly([0, 3, 0, -4, 0, 1]))
    assert even == IntPoly([]) and odd == IntPoly([3, -4, 1])
    even, odd = parity_split(IntPoly([1, 1]))
    assert even == IntPoly([1]) and odd == IntPoly([1])


def test_parity_split_identity_pointwise():
    rng = random.Random(203)
    for _ in range(100):
        p = rand_poly(rng)
        even, odd = parity_split(p)
        x = rand_frac(rng)
        assert p.eval(x) == even.eval(x * x) + x * odd.eval(x * x)


def test_isolate_root_golden_ratio_like():
    alg = isolate_root(IntPoly([1, -3, 1]), 2, 3, Fraction(1, 10**12))
    assert alg.width <= Fraction(1, 10**12)
    assert abs(alg.approx - (3 + math.sqrt(5)) / 2) < 1e-11


def test_isolate_root_known_rational_root():
    alg = isolate_root(IntPoly([1, 0, -1]), Fraction(1, 2), 2)
    assert abs(alg.approx - 1.0) < 1e-9
    assert alg.lo < 1 < alg.hi


def test_isolate_root_vs_bisection_oracle():
    # independent oracle: plain float bisection on 5q^2 - 16q + 7
    f = lambda x: 5 * x * x - 16 * x + 7
    lo, hi = 2.5, 3.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    alg = isolate_root(IntPoly([7, -16, 5]), Fraction(5, 2), 3, Fraction(1, 10**12))
    assert abs(alg.approx - lo) < 1e-9
    assert abs(alg.approx - (8 + math.sqrt(29)) / 5) < 1e-11


def test_isolate_root_no_sign_change():
    with pytest.raises(NoSignChange):
        isolate_root(IntPoly([1, 0, 1]), 0, 1)
    with pytest.raises(NoSignChange):
        isolate_root(IntPoly([1, -3, 1]), 3, 4)


def test_isolate_root_defensive_square_free():
    # (q - 1) * (q - 3)**2 on [0, 2]: the double root outside the bracket
    # must not defeat isolation of the simple root at 1, and p itself, not
    # its square-free part, defines the root
    p = IntPoly([-9, 15, -7, 1])
    alg = isolate_root(p, 0, 2)
    assert abs(alg.approx - 1.0) < 1e-9
    assert alg.defining == p and alg.defining.degree == 3


def test_sign_change_certificate_reevaluates():
    for p, lo, hi in [
        (IntPoly([1, -3, 1]), Fraction(2), Fraction(3)),
        (IntPoly([7, -16, 5]), Fraction(5, 2), Fraction(3)),
        (IntPoly([-1, 0, 0, 1]), Fraction(0), Fraction(2)),
    ]:
        alg = isolate_root(p, lo, hi, Fraction(1, 10**15))
        vlo = alg.defining.eval(alg.lo)
        vhi = alg.defining.eval(alg.hi)
        assert (vlo > 0) != (vhi > 0) and vlo != 0 and vhi != 0


def test_algebraic_number_validation():
    p = IntPoly([1, -3, 1])
    with pytest.raises(ValueError):
        AlgebraicNumber(p, Fraction(3), Fraction(2))
    with pytest.raises(NoSignChange):
        AlgebraicNumber(p, Fraction(3), Fraction(4))
    # a number is its polynomial and its interval; approx is derived
    assert AlgebraicNumber._fields == ("defining", "lo", "hi")
    with pytest.raises(TypeError):
        AlgebraicNumber(p, Fraction(2), Fraction(3), 2.5)
    assert AlgebraicNumber(p, Fraction(2), Fraction(3)).approx == 2.5


@pytest.mark.parametrize("eps", [0, -1])
def test_refine_refuses_a_width_that_is_not_positive(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        AlgebraicNumber(IntPoly([-2, 0, 1]), Fraction(1), Fraction(2)).refine(eps)


def test_refine_and_compare():
    alg = isolate_root(IntPoly([1, -3, 1]), 2, 3)
    fine = alg.refine(Fraction(1, 10**30))
    assert fine.width <= Fraction(1, 10**30)
    assert fine.lo >= alg.lo and fine.hi <= alg.hi
    assert alg.compare_rational(Fraction(5, 2)) > 0
    assert alg.compare_rational(3) < 0
    assert alg.compare_rational(Fraction(2618034, 10**6)) < 0
    assert alg.compare_rational(Fraction(2618033, 10**6)) > 0
    one = isolate_root(IntPoly([1, 0, -1]), Fraction(1, 2), 2)
    assert one.compare_rational(1) == 0


def test_isolate_root_refuses_three_roots_behind_one_sign_change():
    # (q - 1)(q - 2)(q - 3) changes sign on (0, 4) but has three roots there
    p = IntPoly([-6, 11, -6, 1])
    assert p.sign_at(0) * p.sign_at(4) < 0
    with pytest.raises(NoSignChange):
        isolate_root(p, 0, 4)
    assert isolate_root(p, Fraction(5, 2), 4 - Fraction(1, 3)).compare_rational(3) == 0


def test_isolate_root_midpoint_hits_the_root():
    # the first midpoint of (0, 2) is the root of q - 1 itself
    eps = Fraction(1, 10**6)
    alg = isolate_root(IntPoly([-1, 1]), 0, 2, eps)
    assert alg.lo < 1 < alg.hi and alg.width <= eps


@pytest.mark.parametrize("lo,hi", [(0, 2), (-1, 1)], ids=["at_lo", "at_hi"])
@pytest.mark.parametrize("p", [IntPoly([0, -1, 1]), IntPoly([0, 1, -2, 1])])
def test_isolate_root_refuses_a_root_at_an_end(p, lo, hi):
    # x(x - 1) and x(x - 1)**2: a root at an end, refused rather than
    # searched around; the count runs first, so on (0, 2) the double root 1
    # of x(x - 1)**2 counts 2, and every other case counts the one root
    # inside and leaves the end to _bisect's two end values
    assert p.sign_at(Fraction(lo)) * p.sign_at(Fraction(hi)) == 0
    match = "2 sign variations" if (p.degree, lo) == (3, 0) else "at an end"
    with pytest.raises(NoSignChange, match=match):
        isolate_root(p, lo, hi)


@pytest.mark.parametrize("p,count", [(IntPoly([0, 1, -2, 1]), 2), (IntPoly([0, -1, 1]), 1)])
def test_isolate_root_reuses_the_square_free_part(monkeypatch, p, count):
    # one Descartes count on (1/2, 2) decides: x(x - 1) counts 1 and defines
    # its root 1 itself, while the double root 1 of x(x - 1)**2 counts 2 and
    # is refused, as no square-free part is taken
    calls = []
    variations = exact._variations
    monkeypatch.setattr(exact, "_variations",
                        lambda *args: calls.append(variations(*args)) or calls[-1])
    if count == 1:
        alg = isolate_root(p, Fraction(1, 2), 2)
        assert alg.defining == IntPoly([0, -1, 1]) and alg.compare_rational(1) == 0
    else:
        with pytest.raises(NoSignChange, match="2 sign variations"):
            isolate_root(p, Fraction(1, 2), 2)
    assert calls == [count]


def test_compare_rational_inside_a_wide_interval():
    # one sign decides every point of an interval that holds one simple root
    alg = isolate_root(IntPoly([-2, 0, 1]), 1, 2, Fraction(1, 2))
    assert alg.width == Fraction(1, 2)
    for k in range(1, 64):
        r = alg.lo + alg.width * Fraction(k, 64)
        assert alg.compare_rational(r) == (1 if r * r < 2 else -1)


def test_approx_is_the_float_of_the_midpoint():
    # approx is derived, and the JSON reader refuses any other float for it
    x = AlgebraicNumber(IntPoly([-2, 0, 1]), Fraction(1), Fraction(3, 2))
    assert x.approx == float(x) == 1.25
    d = cli.q_to_dict(x)
    assert d["approx"] == 1.25 and cli.q_from_dict(d) == x
    for approx in (math.nextafter(1.25, 2), 1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="approx is not the float of the interval midpoint"):
            cli.q_from_dict({**d, "approx": approx})
    # a midpoint too large for a float is refused when read, not as an overflow
    big = 10**400
    x = AlgebraicNumber(IntPoly([-big - 1, 1]), Fraction(big), Fraction(big + 2))
    d = {**d, "poly": [str(-big - 1), "1"], "interval": [str(big), str(big + 2)], "approx": 1e308}
    for read in (lambda: float(x), lambda: x.approx, lambda: cli.q_to_dict(x), lambda: cli.q_from_dict(d)):
        with pytest.raises(ValueError, match="too large for a float"):
            read()


def test_sign_at_matches_exact_value():
    rng = random.Random(303)
    for _ in range(300):
        p, x = rand_poly(rng, max_deg=9), rand_frac(rng)
        v = horner_eval(p, x)
        assert p.sign_at(x) == (v > 0) - (v < 0)


def test_real_roots_returns_exact_hits_as_fractions():
    # (q - 1)(q - 2)(q**2 - 3) on [0, 4]: 2 and 1 are bisection midpoints
    p = IntPoly([-1, 1]) * IntPoly([-2, 1]) * IntPoly([-3, 0, 1])
    roots = real_roots(p, 0, 4)
    assert [type(r) for r in roots] == [Fraction, AlgebraicNumber, Fraction]
    assert roots[0] == 1 and roots[2] == 2
    assert roots[1].compare_rational(Fraction(1732050, 10**6)) > 0
    assert roots[1].compare_rational(Fraction(1732051, 10**6)) < 0
    # closed interval: roots at either end are reported
    ends = real_roots(p, 1, 2)
    assert ends[0] == 1 and ends[2] == 2 and len(ends) == 3
    assert real_roots(p, Fraction(5, 2), 5) == []


def test_real_roots_intervals_are_disjoint_sign_changes():
    rng = random.Random(304)
    for _ in range(200):
        p = rand_poly(rng, max_deg=8)
        if p.is_zero:
            continue
        prev = Fraction(-30)
        for r in real_roots(p, -30, 30):
            if isinstance(r, Fraction):
                assert p.sign_at(r) == 0 and r >= prev
                prev = r
            else:
                assert r.lo >= prev and r.lo < r.hi
                assert r.defining.sign_at(r.lo) * r.defining.sign_at(r.hi) < 0
                prev = r.hi


def test_real_roots_repeated_root_counts_once():
    # (q - 1)**2 (q + 2)**3 has two distinct roots
    p = IntPoly([-1, 1]) * IntPoly([-1, 1]) * IntPoly([2, 1]) * IntPoly([2, 1]) * IntPoly([2, 1])
    assert real_roots(p, -2, 1) == [-2, 1]
    roots = real_roots(p, -3, 3)
    assert len(roots) == 2
    assert all(r.defining == IntPoly([-2, 1, 1]) for r in roots if isinstance(r, AlgebraicNumber))
    with pytest.raises(ValueError):
        real_roots(IntPoly(), 0, 1)


def _fraction_bisection(p, lo, hi, eps):
    """Oracle: plain rational bisection of a sign-change interval."""
    slo = p.sign_at(lo)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        sm = p.sign_at(mid)
        if sm == 0:
            return "hit", mid, lo, hi
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _bracket(r, lo, hi, eps):
    """Oracle: an interval of width <= eps around ``r``, strictly inside ``(lo, hi)``."""
    half = min(eps, r - lo, hi - r) / 2
    return r - half, r + half


def test_refine_matches_rational_bisection():
    # refine must give the very intervals of rational bisection on every
    # interval that holds one root, for ends on different denominators,
    # below zero, and at every width
    rng = random.Random(305)
    checked = several = 0
    for _ in range(1000):
        p = rand_poly(rng, max_deg=rng.choice([6, 12]))
        lo, hi = sorted((rand_frac(rng), rand_frac(rng)))
        if lo == hi or p.sign_at(lo) * p.sign_at(hi) >= 0:
            continue
        eps = Fraction(1, rng.choice([3, 10, 10**7, 10**20]))
        alg = AlgebraicNumber(p, lo, hi).refine(eps)
        if len(real_roots(p, lo, hi)) > 1:
            # outside AlgebraicNumber's contract: a sign-change cell of
            # bisection's last grid, perhaps around another root
            level = next(s for s in range(200) if (hi - lo) / 2**s <= eps)
            assert lo <= alg.lo < alg.hi <= hi and alg.width <= eps
            assert p.sign_at(alg.lo) * p.sign_at(alg.hi) < 0
            assert all(((x - lo) * 2**level / (hi - lo)).denominator == 1 for x in (alg.lo, alg.hi))
            several += 1
            continue
        want = _fraction_bisection(p, lo, hi, eps)
        if want[0] == "hit":
            assert alg.lo < want[1] < alg.hi and alg.width <= eps
        else:
            assert (alg.lo, alg.hi) == want
        checked += 1
    assert checked > 100 and several > 0


def test_sign_at_ratio_ignores_the_representation():
    rng = random.Random(306)
    for _ in range(200):
        p, x, k = rand_poly(rng, max_deg=9), rand_frac(rng), rng.randint(1, 2**40)
        v = p.value_at_ratio(x.numerator * k, x.denominator * k)
        assert (v > 0) - (v < 0) == p.sign_at(x)


EPS_DEEP = [Fraction(1, 10**12), Fraction(1, 10**20), Fraction(1, 10**40)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(0, 29), st.sampled_from(EPS_DEEP))
@example(5, 0, EPS_DEEP[2])
def test_isolate_root_on_u_brackets_is_bisections_cell(n, i, eps):
    # n = 5 has one bracket, around 4cos^2(pi/6) = 3, a grid point of the
    # bracket that plain bisection hits exactly
    den = ratio_in_q(n)[1]
    brackets = _u_brackets(n)
    _, lo, hi = brackets[i % len(brackets)]
    alg = isolate_root(den, lo, hi, eps)
    want = _fraction_bisection(den, lo, hi, eps)
    if want[0] == "hit":
        assert alg.lo < want[1] < alg.hi and alg.width <= eps
    else:
        assert (alg.lo, alg.hi) == want


@pytest.mark.parametrize("p", [IntPoly([-3, 8]), IntPoly([-3, 8]) * IntPoly([5, 1]), IntPoly([-5, 0, 32])])
@pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(1, 7), Fraction(1, 10**9)])
def test_refine_returns_bisections_interval_for_a_root_on_the_grid(p, eps):
    # 3/8 is a point of the dyadic grid of (0, 1): bisection meets it as the
    # midpoint of [1/4, 1/2] and returns the narrow interval around it
    # (x**2 = 5/32 has none, for contrast)
    alg = AlgebraicNumber(p, Fraction(0), Fraction(1)).refine(eps)
    want = _fraction_bisection(p, Fraction(0), Fraction(1), eps)
    if want[0] == "hit":
        assert want[1:] == (Fraction(3, 8), Fraction(1, 4), Fraction(1, 2))
        want = _bracket(*want[1:], eps)
    assert (alg.lo, alg.hi) == want


def test_refine_meets_a_root_at_the_neighbour_grid_point():
    # 11/8 is not where a secant step lands but the neighbour it checks next;
    # bisection meets it as a midpoint and returns the narrow interval around it
    p = IntPoly([-77, 56, -11, 8])
    lo, hi, eps = Fraction(-185, 8), Fraction(71, 8), Fraction(1, 10**6)
    alg = AlgebraicNumber(p, lo, hi).refine(eps)
    want = _fraction_bisection(p, lo, hi, eps)
    assert want[:2] == ("hit", Fraction(11, 8))
    assert (alg.lo, alg.hi) == _bracket(*want[1:], eps)


def test_isolation_refuses_an_empty_interval_and_a_width_not_positive():
    p = IntPoly([-2, 0, 1])
    with pytest.raises(ValueError, match="need lo < hi"):
        real_roots(p, 2, 1)
    with pytest.raises(ValueError, match="eps must be positive"):
        isolate_root(p, 1, 2, 0)


def test_deep_refinement_takes_few_evaluations(monkeypatch):
    # bisection from 1e-12 to 1e-40 takes 93 signs per point; the jump to
    # bisection's cell takes a handful of secant steps
    points = u_set(40)
    calls = []
    value = IntPoly.value_at_ratio
    monkeypatch.setattr(IntPoly, "value_at_ratio", lambda p, a, b: calls.append(1) or value(p, a, b))
    fine = [x.refine(Fraction(1, 10**40)) for x in points]
    assert all(f.width <= Fraction(1, 10**40) and x.lo <= f.lo < f.hi <= x.hi for x, f in zip(points, fine))
    assert len(calls) <= 24 * len(points)


def test_refine_evaluates_nothing_beyond_bisect(monkeypatch):
    # the cell's end signs are the two _bisect certified it by: refine adds
    # no evaluation of its own, and builds the cell without the constructor
    eps = Fraction(1, 10**40)
    points = u_set(40)
    calls, checks = [], []
    value, check = IntPoly.value_at_ratio, AlgebraicNumber._check
    monkeypatch.setattr(IntPoly, "value_at_ratio", lambda p, a, b: calls.append(1) or value(p, a, b))
    monkeypatch.setattr(AlgebraicNumber, "_check", lambda x: checks.append(1) or check(x))
    for x in points:
        del calls[:]
        exact._bisect(x.defining, x.lo, x.hi, eps)
        own = len(calls)
        del calls[:]
        x.refine(eps)
        assert len(calls) == own
    assert checks == []


def test_refine_checks_a_grid_roots_bracket_in_the_constructor(monkeypatch):
    # 3/8 is on the dyadic grid of (0, 1): the narrow interval around it is
    # built by _grid_root, not certified by _bisect's two end values, so
    # the constructor re-checks its sign change
    x = AlgebraicNumber(IntPoly([-3, 8]), Fraction(0), Fraction(1))
    checked = []
    check = AlgebraicNumber._check
    monkeypatch.setattr(AlgebraicNumber, "_check", lambda x: checked.append(x) or check(x))
    fine = x.refine(Fraction(1, 10**9))
    assert checked == [fine] and fine.lo < Fraction(3, 8) < fine.hi


SMALL_ENDS = st.fractions(min_value=-8, max_value=8, max_denominator=16)
SMALL_WIDTHS = st.fractions(min_value=Fraction(1, 16), max_value=8, max_denominator=16)


@contextlib.contextmanager
def _recorded_values(most):
    """The points ``IntPoly.value_at_ratio`` is called at inside the block.

    Past ``most`` calls it raises ``RuntimeError``, so a bisection that
    cannot narrow fails instead of running on.
    """
    points = []
    value = IntPoly.value_at_ratio

    def recording(p, a, b):
        points.append(Fraction(a, b))
        if len(points) > most:
            raise RuntimeError(f"more than {most} evaluations")
        return value(p, a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntPoly, "value_at_ratio", recording)
        yield points


@pytest.mark.parametrize("p,lo,hi,match", [
    (IntPoly([1, 0, 1]), 0, 1, "one sign"),  # x**2 + 1: no root
    (IntPoly([-1, 0, 4]), -1, 1, "one sign"),  # 4x**2 - 1: two roots inside
    (IntPoly([0, 1]), 0, 1, "at an end"),  # x: its root at lo
], ids=["no_root", "two_roots", "root_at_lo"])
def test_bisect_refuses_ends_without_a_strict_sign_change(p, lo, hi, match):
    # the two end values _bisect narrows from are its premise: it refuses
    # them before any step, having evaluated nothing else
    lo, hi = Fraction(lo), Fraction(hi)
    with _recorded_values(most=2) as points, pytest.raises(NoSignChange, match=match):
        exact._bisect(p, lo, hi, Fraction(1, 10**6))
    assert points == [lo, hi]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=7), SMALL_ENDS, SMALL_WIDTHS,
       st.fractions(min_value=Fraction(1, 10**12), max_value=4, max_denominator=10**12))
@example([-3, 8], Fraction(0), Fraction(1), Fraction(1, 10**9))  # a root on the grid
@example([0, 0, 1], Fraction(-1), Fraction(13, 12), Fraction(1, 10**6))  # a double root
def test_bisect_refuses_or_returns_a_certified_cell(coeffs, lo, width, eps):
    # on any interval _bisect either refuses with NoSignChange or returns a
    # cell inside it, as narrow as asked, with strictly opposite end signs
    p, hi = IntPoly(coeffs), lo + width
    try:
        with _recorded_values(most=10_000):
            f = exact._bisect(p, lo, hi, eps)
    except NoSignChange:
        assert p.sign_at(lo) * p.sign_at(hi) >= 0 or len(real_roots(p, lo, hi)) > 1
        return
    assert lo <= f.lo < f.hi <= hi and f.width <= eps
    assert p.sign_at(f.lo) * p.sign_at(f.hi) == -1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=9), SMALL_ENDS, SMALL_WIDTHS)
@example([0, 0, 1], Fraction(-1), Fraction(13, 12))  # x**2 on (-1, 1/12): a double root
@example([-6, 11, -6, 1], Fraction(0), Fraction(4))  # three roots inside
def test_variations_match_the_fraction_transform(coeffs, lo, width):
    # the integer transform and the term-by-term Fraction expansion of
    # (1 + y)**d p((lo + hi y)/(1 + y)) have the same sign variations
    p = IntPoly(coeffs)
    assert exact._variations(p, lo, lo + width) == mobius_variations(p, lo, lo + width)


INNER = st.fractions(min_value=0, max_value=1, max_denominator=24).filter(lambda t: 0 < t < 1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=9),
             min_size=1, max_size=7, unique=True),
    st.data(),
    INNER,
    INNER,
    st.sampled_from([1, -1, 6]),
)
def test_distinct_linear_factors_always_isolate(roots, data, t_lo, t_hi, scale):
    # a product of distinct rational linear factors has only real, simple
    # roots, so an interval around one of them that holds no other, and
    # none at an end, counts exactly 1 and is never refused
    roots.sort()
    i = data.draw(st.integers(0, len(roots) - 1))
    r = roots[i]
    below = roots[i - 1] if i else r - 5
    above = roots[i + 1] if i + 1 < len(roots) else r + 5
    lo, hi = r - t_lo * (r - below), r + t_hi * (above - r)
    p = IntPoly([scale])
    for x in roots:
        p = p * IntPoly([-x.numerator, x.denominator])
    alg = isolate_root(p, lo, hi, Fraction(1, 10**9))
    assert alg.defining == p.primitive() and alg.compare_rational(r) == 0
    assert lo <= alg.lo < alg.hi <= hi
