"""Property tests: every search witness survives a JSON round trip and still
verifies; brute enumeration marks exactly its non-unit loops as verified;
the search's gcd product G gives every path's telescoped weight; the
lemma's squared weight is below 1 at every q > 0; the integer-division
floats of a midpoint and of the lemma's weight are the floats of the
fractions, and the JSON reader takes no other float for a midpoint;
``refine`` returns the cell the constructor gives, with strictly opposite
end signs, which survives a JSON round trip; tampered algebraic Darboux
certificates are refused, not raised on; and the halved prefix sign walk
answers as two unreduced walks side by side."""

import json
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from forbiddenq import cli
from forbiddenq.continuants import _prefix_signs_agree, _u_brackets
from forbiddenq.exact import AlgebraicNumber, IntPoly, NoSignChange, midpoint_float, ratio_float
from forbiddenq.families import darboux_witnesses
from forbiddenq.loops import (
    STATUS_BROKEN,
    FormulaWeight,
    SearchConfig,
    evaluate_path,
    lemma_weight_approx,
    lemma_weight_squared,
    search_nonunit_loop,
    shifted_alternating_loop,
    verify_witness,
    weight_squared,
)
from oracles import brute_enumerate_loops, prefix_signs_by_two_walks


@st.composite
def q_in_0_4(draw, max_den=30):
    b = draw(st.integers(1, max_den))
    return Fraction(draw(st.integers(1, 4 * b - 1)), b)


@settings(max_examples=60, deadline=None)
@given(q=q_in_0_4(), depth=st.integers(1, 5), window=st.integers(1, 3),
       budget=st.integers(1, 5_000))
def test_search_witness_verifies_after_json_round_trip(q, depth, window, budget):
    res = search_nonunit_loop(
        q, SearchConfig(max_depth=depth, window=window, node_budget=budget)
    )
    if res.witness is None:
        return
    assert res.witness.verified
    text = json.dumps(cli.witness_to_dict(res.witness))
    back = cli.witness_from_dict(json.loads(text))
    assert back == res.witness
    assert verify_witness(back)


@settings(max_examples=40, deadline=None)
@given(q=q_in_0_4(max_den=12), depth=st.integers(0, 4), bound=st.integers(0, 3))
def test_brute_enumeration_verifies_exactly_non_unit_loops(q, depth, bound):
    for w in brute_enumerate_loops(q, depth, bound):
        assert w.weight_squared == weight_squared(q, w.loop)
        assert w.verified == (w.weight_squared != 1)


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 80), d=st.integers(1, 20),
       m=st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=8))
def test_gcd_product_gives_the_telescoped_weight(p, d, m):
    # the search's step: reduce (m a + b, a) with a = qn cn > 0, b = qd cd, and
    # carry G, the product of the gcds divided out, instead of the weight
    q = Fraction(p, d)
    ev = evaluate_path(q, m)
    if ev.status == STATUS_BROKEN:
        return
    qn, qd = q.numerator, q.denominator
    cn, cd, G = m[0], 1, 1
    for mj in m[1:]:
        a, b = qn * cn, qd * cd
        if a < 0:
            a, b = -a, -b
        g = math.gcd(a, b)
        a, b, G = a // g, b // g, G * g
        cn, cd = mj * a + b, a
    k = len(m) - 1
    assert math.gcd(cn, cd) == 1 and Fraction(cn, cd) == ev.prefix_c[-1]
    assert Fraction((cd * G) ** 2, (qn * qd) ** k) == ev.weight_squared


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 60), c=st.integers(-50, 50),
       q=st.fractions(min_value=0, max_denominator=10**9).filter(lambda q: q > 0))
def test_lemma_weight_is_below_one(n, c, q):
    # c and c + (-1)**n are consecutive non-zero integers, so their product
    # is at least 2: this is why verify_witness needs no weight enclosure
    assume(c not in (0, -(-1) ** n))
    assert lemma_weight_squared(n, c, q) < 1


@st.composite
def wide_ints(draw, min_value=None, bits=4000):
    """Integers of any bit length up to ``bits``, at least ``min_value``."""
    size = draw(st.integers(0, bits))
    lo = -(2**size) if min_value is None else max(min_value, -(2**size))
    return draw(st.integers(lo, max(lo, 2**size)))


@st.composite
def wide_rational_pairs(draw, positive=False):
    """Rationals lo < hi whose numerators and denominators run to thousands of bits."""
    lo, hi = (Fraction(draw(wide_ints(1 if positive else None)), draw(wide_ints(1)))
              for _ in range(2))
    assume(lo != hi)
    return min(lo, hi), max(lo, hi)


@settings(max_examples=300, deadline=None)
@given(ends=wide_rational_pairs(), scale=wide_ints(1, bits=200))
def test_integer_midpoint_float_is_the_fraction_float(ends, scale):
    lo, hi = ends
    mid = (lo + hi) / 2
    x = AlgebraicNumber(IntPoly([-mid.numerator, mid.denominator]), lo, hi)
    try:
        want = float(mid)
    except OverflowError:
        # beyond the float range: refused with ValueError when read, by the
        # root of x - mid and by the JSON reader, not raised as an overflow
        for read in (lambda: midpoint_float(lo, hi), lambda: float(x), lambda: x.approx,
                     lambda: cli.q_from_dict(_algebraic_dict(x, 1e308))):
            with pytest.raises(ValueError, match="too large for a float"):
                read()
        return
    assert midpoint_float(lo, hi) == want
    assert ratio_float(scale * mid.numerator, scale * mid.denominator) == want
    assert x.approx == float(x) == want
    assert cli.q_from_dict(_algebraic_dict(x, want)) == x
    for approx in (math.nextafter(want, math.inf), math.nextafter(want, -math.inf),
                   math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="approx is not the float of the interval midpoint"):
            cli.q_from_dict(_algebraic_dict(x, approx))


def _algebraic_dict(x, approx):
    """The JSON form of ``x``, with ``approx`` as given."""
    return {"type": "algebraic", "poly": list(x.defining.coeffs),
            "interval": [cli.frac_str(x.lo), cli.frac_str(x.hi)], "approx": approx}


@settings(max_examples=300, deadline=None)
@given(ends=wide_rational_pairs(positive=True), n=st.integers(1, 60),
       c=st.integers(-10**6, 10**6))
def test_integer_weight_float_is_the_fraction_float(ends, n, c):
    lo, hi = ends
    assume(c not in (0, -(-1) ** n))
    assert lemma_weight_approx(n, c, lo, hi) == float(lemma_weight_squared(n, c, (lo + hi) / 2))


@st.composite
def one_root_intervals(draw):
    """(p, lo, hi): p has one simple root in (lo, hi) and none at the ends.

    Either an irrational root of x**2 - d, or a rational root a/b of
    (b x - a)(x**2 + 1) in (0, 1), dyadic (on bisection's grid) or not.
    """
    kind = draw(st.sampled_from(["irrational", "dyadic", "rational"]))
    if kind == "irrational":
        d = draw(st.integers(2, 10**12))
        r = math.isqrt(d)
        assume(r * r != d)
        return IntPoly([-d, 0, 1]), Fraction(r), Fraction(r + 1)
    if kind == "dyadic":
        m = draw(st.integers(1, 60))
        a, b = 2 * draw(st.integers(0, 2 ** (m - 1) - 1)) + 1, 2**m
    else:
        b = draw(st.integers(2, 10**9))
        a = draw(st.integers(1, b - 1))
    return IntPoly([-a, b]) * IntPoly([1, 0, 1]), Fraction(0), Fraction(1)


@settings(max_examples=300, deadline=None)
@given(case=one_root_intervals(), eps_num=st.integers(1, 1000), eps_exp=st.integers(0, 60))
def test_refine_returns_the_constructors_cell(case, eps_num, eps_exp):
    p, lo, hi = case
    eps = Fraction(eps_num, 10**eps_exp)
    f = AlgebraicNumber(p, lo, hi).refine(eps)
    assert f.width <= eps and lo <= f.lo < f.hi <= hi
    assert p.sign_at(f.lo) * p.sign_at(f.hi) == -1
    assert f == AlgebraicNumber(p, f.lo, f.hi)
    d = cli.q_to_dict(f)
    assert d["approx"] == float((f.lo + f.hi) / 2) and cli.q_from_dict(d) == f
    with pytest.raises(ValueError, match="approx is not the float of the interval midpoint"):
        cli.q_from_dict({**d, "approx": math.nextafter(d["approx"], math.inf)})


@st.composite
def algebraic_darboux(draw):
    n = draw(st.integers(2, 12))  # n = 1 gives rational q only
    u_index = draw(st.integers(0, len(_u_brackets(n)) - 1))
    dw = darboux_witnesses(n, u_index, 1, min_c=draw(st.integers(1, 10**4)))[0]
    assume(isinstance(dw.q, AlgebraicNumber))
    return dw


def _posed(w, q, c):
    """``w`` at ``q`` with shift ``c``, the weight's approx at q's midpoint."""
    n = len(w.loop) - 1
    try:
        approx = float(lemma_weight_squared(n, c, (q.lo + q.hi) / 2))
    except ValueError:  # a unit-weight shift
        approx = 1.0
    return w._replace(q=q, loop=shifted_alternating_loop(n, c),
                      weight_squared=FormulaWeight(approx), verified=False)


@settings(max_examples=60, deadline=None)
@given(dw=algebraic_darboux(), tamper=st.sampled_from(["coefficient", "shift", "lo"]),
       data=st.data())
def test_tampered_algebraic_certificates_are_refused(dw, tamper, data):
    w = dw.witness
    n = len(w.loop) - 1
    p, c = w.q.defining, w.loop[-1] - (-1) ** n
    assert verify_witness(w)
    if tamper == "coefficient":
        # p is the primitive level polynomial, and its same-degree divisors
        # are its constant multiples: moving one non-leading coefficient
        # leaves none of them.  Posed where p itself verifies, on an interval
        # from t0.hi to halfway to t1, the next obstruction's float (which
        # may lie just past it), wherever the moved one changes sign there
        lo, hi = dw.t0.hi, (w.q.hi + Fraction(dw.t1_approx)) / 2
        assert verify_witness(_posed(w, AlgebraicNumber(p, lo, hi), c))
        coeffs = list(p.coeffs)
        coeffs[data.draw(st.integers(0, p.degree - 1))] += data.draw(
            st.sampled_from([-3, -2, -1, 1, 2, 3]))
        try:
            q = AlgebraicNumber(IntPoly(coeffs), lo, hi)
        except NoSignChange:
            return
        tampered = _posed(w, q, c)
    elif tamper == "shift":
        # p divides num + c den, so if it divided num + (c +- 1) den it would
        # divide den and then num, which are coprime; a shift that lands on a
        # unit-weight case is refused by the lemma
        tampered = _posed(w, w.q, c + data.draw(st.sampled_from([-1, 1])))
    else:
        # down to t0.lo the interval holds the pole t0, where N_{n-1} changes
        # sign, so the prefix signs differ at its ends
        tampered = _posed(w, AlgebraicNumber(p, dw.t0.lo, w.q.hi), c)
    assert verify_witness(tampered) is False


@settings(max_examples=300, deadline=None)
@given(m=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
       lo=st.tuples(st.integers(1, 50), st.integers(1, 1000)),
       hi=st.tuples(st.integers(1, 1000), st.integers(1, 50)),
       across=st.booleans(), upper=st.booleans(), steps=st.integers(0, 60))
def test_prefix_sign_walk_matches_two_walks(m, lo, hi, across, upper, steps):
    # from a wide interval, bisect, keeping a half across a root of some N_j
    # (at least one half is, when the whole is) or a half inside one sign
    # cell, as drawn, the upper half first when both are; an exact zero at
    # an end counts as a sign of its own
    lo, hi = Fraction(*lo), Fraction(*hi)
    assume(lo < hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        parts = [(mid, hi), (lo, mid)] if upper else [(lo, mid), (mid, hi)]
        kept = [part for part in parts if prefix_signs_by_two_walks(m, *part) != across]
        lo, hi = (kept or parts)[0]
    assert _prefix_signs_agree(m, lo, hi) == prefix_signs_by_two_walks(m, lo, hi)
