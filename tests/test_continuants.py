import math
import random
from fractions import Fraction

import pytest

from forbiddenq.continuants import (
    MAX_G_DEGREE,
    _u_brackets,
    g_poly,
    g_roots,
    prefix_pairs,
    ratio_in_q,
    u_point,
    u_set,
)
from forbiddenq import exact
from forbiddenq.exact import IntPoly
from forbiddenq.loops import STATUS_PATH, evaluate_path
from oracles import CutoffExceeded, eval_g_float, f_explicit, f_poly, ratio_by_prefix_pairs


def test_f_poly_examples():
    assert f_poly(()) == IntPoly([1])
    assert f_poly((1, -1)) == IntPoly([1, 0, -1])
    assert f_poly((2, 3)) == IntPoly([1, 0, 6])


def test_f_explicit_examples():
    assert f_explicit(()) == IntPoly([1])
    assert f_explicit((1, -1)) == IntPoly([1, 0, -1])
    assert f_explicit((1, -1, 1)) == f_poly((1, -1, 1)) == IntPoly([0, 2, 0, -1])


def test_f_explicit_cutoff():
    with pytest.raises(CutoffExceeded):
        f_explicit((1,) * 13)
    assert f_explicit((1,) * 13, cutoff=13) == f_poly((1,) * 13)


def test_f_poly_equals_f_explicit_random():
    rng = random.Random(7)
    for _ in range(250):
        m = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 8)))
        assert f_poly(m) == f_explicit(m), m


def test_degree_and_leading_coefficient():
    rng = random.Random(8)
    for _ in range(100):
        m = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 8)))
        p = f_poly(m)
        assert p.degree == len(m)
        lead = 1
        for x in m:
            lead *= x
        assert p.leading == lead


def test_g_poly_examples():
    assert g_poly(0) == IntPoly([1])
    assert g_poly(4) == IntPoly([1, 0, -3, 0, 1])
    assert g_poly(5) == IntPoly([0, 3, 0, -4, 0, 1])


def test_g_poly_equals_f_poly_of_the_alternating_sequence():
    for n in [*range(300), 1000]:
        assert g_poly(n) == f_poly(tuple((-1) ** i for i in range(n))), n


def test_g_poly_binomial_coefficients():
    # +-sum over l of (-1)**l C(n-l, n-2l) x**(n-2l), sign fixed by the lead
    for n in range(1, 21):
        g = g_poly(n)
        expect = [0] * (n + 1)
        for ell in range(n // 2 + 1):
            expect[n - 2 * ell] = (-1) ** ell * math.comb(n - ell, n - 2 * ell)
        sign = 1 if g.leading > 0 else -1
        assert list(g.coeffs) == [sign * c for c in expect]


def _g_identity_holds(n: int) -> bool:
    g = g_poly(n)
    return g * g + g_poly(n + 1) * g_poly(n - 1) == IntPoly([1])


def test_g_identity_small_cases_by_hand():
    # n=1: x**2 + (1 - x**2) * 1 = 1 ; n=2: (1-x**2)**2 + (2x - x**3) x = 1
    assert _g_identity_holds(1)
    assert _g_identity_holds(2)


def test_g_identity_up_to_40():
    assert all(_g_identity_holds(n) for n in range(1, 41))


def test_g_poly_cache_keeps_a_few_orders():
    # ratio_in_q(n) reads g_poly(n + 1) and g_poly(n): walking n upwards, as
    # the certificate families do, builds each member once
    g_poly.cache_clear()
    for n in range(14, 25):
        ratio_in_q(n)
        ratio_in_q(n)
    assert g_poly.cache_info().misses == 12
    for n in range(1, 65):
        g_poly(n)
    info = g_poly.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_g_roots_examples():
    assert g_roots(1) == pytest.approx([0.0], abs=1e-12)
    assert g_roots(2) == pytest.approx([1.0, -1.0])
    r4 = g_roots(4)
    phi = (1 + math.sqrt(5)) / 2
    assert r4 == pytest.approx([phi, phi - 1, 1 - phi, -phi])
    squares = sorted({round(x * x, 9) for x in r4})
    assert squares == pytest.approx([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])


def test_g_roots_residuals_up_to_30():
    for n in range(1, 31):
        for r in g_roots(n):
            assert abs(eval_g_float(n, r)) < 1e-6
    # spot-check that the recurrence evaluator agrees with the exact polynomial
    for n in range(1, 12):
        for x in (0.3, -1.7, 1.1):
            want = float(g_poly(n).eval(Fraction(x)))
            assert eval_g_float(n, x) == pytest.approx(want, abs=1e-9)


def test_g_roots_are_decreasing():
    for n in range(1, 15):
        r = g_roots(n)
        assert all(a > b for a, b in zip(r, r[1:]))


def test_ratio_in_q_examples():
    assert ratio_in_q(1) == (IntPoly([1, -1]), IntPoly([0, 1]))
    assert ratio_in_q(2) == (IntPoly([2, -1]), IntPoly([1, -1]))
    assert ratio_in_q(4) == (IntPoly([3, -4, 1]), IntPoly([1, -3, 1]))


@pytest.mark.parametrize("n", [*range(1, 61), 100, 200])
def test_ratio_in_q_equals_parity_split_oracle(n):
    assert ratio_in_q(n) == ratio_by_prefix_pairs(n)


def test_ratio_in_q_needs_no_strip():
    # the facts ratio_in_q's docstring relies on: num(0) != 0, so no power of q
    # divides both; both leads are +-1, so the content is 1; and den has one
    # root in q per point j = 1..ceil(n/2)
    for n in range(1, 301):
        num, den = ratio_in_q(n)
        assert num.coeffs[0] != 0, n
        assert abs(num.leading) == abs(den.leading) == 1, n
        assert den.degree == (n + 1) // 2, n


def test_prefix_pairs_over_intpoly_match_integer_pairs():
    # N_j, D_j are homogeneous of degree j in (qn, qd), so the integer pair at
    # q = a/b is b**j times the polynomial pair evaluated at a/b
    rng = random.Random(23)
    x, one = IntPoly([0, 1]), IntPoly([1])
    for _ in range(200):
        m = [rng.randint(-3, 3) for _ in range(rng.randint(1, 9))]
        a, b = rng.randint(1, 50), rng.randint(1, 20)
        q = Fraction(a, b)
        pairs = zip(prefix_pairs(m, x, one), prefix_pairs(m, a, b))
        for j, ((pn, pd), (n, d)) in enumerate(pairs):
            pn, pd = (p if isinstance(p, IntPoly) else IntPoly([p]) for p in (pn, pd))
            assert b**j * pn.eval(q) == n and b**j * pd.eval(q) == d
            if d != 0:
                assert pn.eval(q) / pd.eval(q) == Fraction(n, d)


def test_prefix_pairs_reduce_nothing():
    assert list(prefix_pairs((1, -1, 1, -1, -2), 5, 2)) == [
        (1, 1), (-3, 5), (-5, -15), (-5, -25), (0, -25)]
    assert list(prefix_pairs((0, 3, 1), 5, 2)) == [(0, 1), (2, 0), (10, 10)]


def test_ratio_matches_path_evaluation():
    # appending m_n to the alternating prefix lands at m_n - (-1)**n plus the
    # ratio, so with m_n = 0 the ratio is the final prefix value plus (-1)**n
    rng = random.Random(9)
    for n in range(1, 9):
        num, den = ratio_in_q(n)
        checked = 0
        while checked < 50:
            q = Fraction(rng.randint(1, 120), rng.randint(1, 40))
            if q >= 4 or den.eval(q) == 0:
                continue
            m = tuple((-1) ** i for i in range(n)) + (0,)
            ev = evaluate_path(q, m)
            if ev.status != STATUS_PATH:
                continue
            ratio = num.eval(q) / den.eval(q)
            assert ratio == ev.prefix_c[-1] + (-1) ** n
            checked += 1


def test_u_set_examples():
    u1 = u_set(1)
    assert len(u1) == 1 and abs(u1[0].approx) < 1e-12
    assert u1[0].defining == IntPoly([0, 1])

    u2 = u_set(2)
    assert len(u2) == 1 and u2[0].compare_rational(1) == 0

    u4 = u_set(4)
    assert [a.approx for a in u4] == pytest.approx(
        [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
    )
    assert all(a.defining == IntPoly([1, -3, 1]) for a in u4)


def test_u_set_matches_coprime_root_squares():
    for n in range(1, 11):
        expected = sorted(
            {
                round(4 * math.cos(math.pi * j / (n + 1)) ** 2, 9)
                for j in range(1, n + 1)
                if math.gcd(j, n + 1) == 1
            }
        )
        got = [a.approx for a in u_set(n)]
        assert got == pytest.approx(expected, abs=1e-9)


def test_u_sets_pairwise_disjoint():
    all_vals = []
    for n in range(1, 11):
        all_vals.extend((a.approx, n) for a in u_set(n))
    all_vals.sort()
    for (v1, n1), (v2, n2) in zip(all_vals, all_vals[1:]):
        assert abs(v1 - v2) > 1e-9, (n1, n2)


def test_u_set_certificates_reevaluate():
    for n in range(1, 11):
        for a in u_set(n):
            lo, hi = a.defining.eval(a.lo), a.defining.eval(a.hi)
            assert lo != 0 and hi != 0 and (lo > 0) != (hi > 0)


@pytest.mark.parametrize("n", range(1, 30))
def test_u_point_is_the_u_set_point(n):
    points = u_set(n)
    for i, t0 in enumerate(points):
        j, got = u_point(n, i)
        assert got == t0 and math.gcd(j, n + 1) == 1
        assert t0.lo < 4 * math.cos(math.pi * j / (n + 1)) ** 2 < t0.hi
    with pytest.raises(ValueError, match=f"u_index {len(points)} out of range"):
        u_point(n, len(points))
    with pytest.raises(ValueError, match="out of range"):
        u_point(n, -1)


def test_u_point_takes_no_denominator_or_brackets_of_the_caller():
    # x - 1 has its root 1 in the one bracket of n = 7, where u_set(7)[0] is
    # 4cos^2(3pi/8) ~ 0.586; a point is certified only on its own denominator
    with pytest.raises(TypeError):
        u_point(7, 0, den=IntPoly([-1, 1]))
    with pytest.raises(TypeError):
        u_point(7, 0, IntPoly([-1, 1]), [])
    assert u_point(7, 0)[1] == u_set(7)[0]


def test_u_set_makes_one_sturm_count_per_point(monkeypatch):
    # isolate_root certifies each point of u_set by one Descartes count on
    # its half-angle bracket, of the denominator itself, and every bracket
    # counts exactly 1: den has only real, simple roots, one per bracket
    calls = []
    variations = exact._variations

    def recording(p, lo, hi):
        calls.append((p, lo, hi, variations(p, lo, hi)))
        return calls[-1][-1]

    monkeypatch.setattr(exact, "_variations", recording)
    for n in range(1, 101):
        calls.clear()
        u_set(n)
        _, den = ratio_in_q(n)
        assert calls == [(den, lo, hi, 1) for _, lo, hi in _u_brackets(n)], n


@pytest.mark.parametrize("call", [
    lambda: g_poly(-1), lambda: g_roots(0),
    lambda: ratio_in_q(0), lambda: u_set(0), lambda: u_point(0, 0),
])
def test_orders_below_the_least_are_refused(call):
    with pytest.raises(ValueError, match="must be >= "):
        call()


def test_g_poly_and_g_roots_stop_at_the_guard():
    # g_poly(n) holds n + 1 integers and g_roots(n) n floats; ratio_in_q(n)
    # builds g_poly(n + 1), so its n stays below the guard
    assert len(g_roots(MAX_G_DEGREE)) == MAX_G_DEGREE
    assert g_poly(MAX_G_DEGREE).degree == MAX_G_DEGREE
    for build in (g_poly, g_roots):
        with pytest.raises(ValueError, match=f"n={MAX_G_DEGREE + 1} exceeds the guard"):
            build(MAX_G_DEGREE + 1)
    assert ratio_in_q(MAX_G_DEGREE - 1)[1].degree == MAX_G_DEGREE // 2
    with pytest.raises(ValueError, match=f"exceeds the guard {MAX_G_DEGREE - 1}"):
        ratio_in_q(MAX_G_DEGREE)
