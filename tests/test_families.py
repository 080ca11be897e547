import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction

import pytest

from forbiddenq.cli import witness_to_dict
from forbiddenq import exact, families
from forbiddenq.continuants import _u_brackets, prefix_pairs, ratio_in_q, u_set
from forbiddenq.exact import AlgebraicNumber, IntPoly, isolate_root
from forbiddenq.families import (
    ALG_INTERVAL_WIDTH,
    DarbouxWitness,
    _root_in_interval,
    _t1_approx,
    cos2_family,
    darboux_witnesses,
    golden_targets,
    norm_form,
    pell_witnesses,
)
from forbiddenq.loops import (
    STATUS_LOOP,
    evaluate_path,
    lemma_weight_squared,
    verify_witness,
    weight_squared,
)
from oracles import norm_unit_pairs, real_roots


def test_norm_scan_confirms_fibonacci_parametrization():
    # the Pell walk emits every unit pair of the norm form but the two with
    # b = 1 (q = 2 and 3), whose loops have weight 1/b**4 = 1
    pairs = [(w.a, w.b) for w in pell_witnesses(12)]
    assert [(w.b, w.a) for w in pell_witnesses(12, reciprocal=True)] == pairs
    assert pairs[-1][0] > 200
    assert {p for p in pairs if p[0] <= 200} | {(2, 1), (3, 1)} == set(norm_unit_pairs(200))


def test_pell_first_witnesses():
    ws = pell_witnesses(3)
    assert [(w.a, w.b) for w in ws] == [(5, 2), (8, 3), (13, 5)]
    assert ws[0].q == Fraction(5, 2)
    assert ws[0].witness.loop == (1, -1, 1, -1, -2)
    assert ws[0].witness.weight_squared == Fraction(1, 16)
    assert ws[1].witness.loop == (1, -1, 1, -1, 6)
    assert ws[1].witness.weight_squared == Fraction(1, 81)
    assert ws[2].witness.loop == (1, -1, 1, -1, -15)
    assert ws[2].witness.weight_squared == Fraction(1, 625)


def test_pell_reciprocal_first_witness():
    ws = pell_witnesses(2, reciprocal=True)
    assert (ws[0].a, ws[0].b) == (2, 5)
    assert ws[0].q == Fraction(2, 5)
    assert ws[0].witness.loop == (1, -1, 1, -1, 40)
    assert ws[0].witness.weight_squared == Fraction(1, 625)


@pytest.mark.parametrize("reciprocal", [False, True])
def test_pell_witnesses_reverify(reciprocal):
    for pw in pell_witnesses(15, reciprocal=reciprocal):
        assert norm_form(pw.a, pw.b) in (-1, 1)
        assert pw.b * pw.b > 1 and pw.q not in (1, 2)
        assert math.gcd(pw.a, pw.b) == 1
        ev = evaluate_path(pw.q, pw.witness.loop)
        assert ev.status == STATUS_LOOP
        assert weight_squared(pw.q, pw.witness.loop) == Fraction(1, pw.b**4)
        assert pw.witness.verified and verify_witness(pw.witness)
        shift = pw.witness.loop[-1] - 1
        assert lemma_weight_squared(4, shift, pw.q) == pw.witness.weight_squared


def _gap_bounds(q: Fraction, target: AlgebraicNumber) -> tuple[Fraction, Fraction]:
    if q >= target.hi:
        return q - target.hi, q - target.lo
    if q <= target.lo:
        return target.lo - q, target.hi - q
    raise AssertionError("enclosure too wide for this comparison")


@pytest.mark.parametrize("reciprocal", [False, True])
def test_pell_accumulation_strictly_decreasing(reciprocal):
    lo_t, hi_t = golden_targets()
    target = lo_t if reciprocal else hi_t
    qs = [w.q for w in pell_witnesses(15, reciprocal=reciprocal)]
    gaps = [_gap_bounds(q, target) for q in qs]
    for (lo1, hi1), (lo2, hi2) in zip(gaps, gaps[1:]):
        assert hi2 < lo1  # exact interval comparison: strictly closer


def test_golden_targets_enclose():
    lo_t, hi_t = golden_targets()
    assert abs(lo_t.approx - (3 - math.sqrt(5)) / 2) < 1e-15
    assert abs(hi_t.approx - (3 + math.sqrt(5)) / 2) < 1e-15


def test_darboux_n1_rational():
    ws = darboux_witnesses(1, 0, 1)
    dw = ws[0]
    assert dw.c_k == 3 and dw.epsilon == 1
    assert dw.q == Fraction(1, 4)
    assert dw.witness.loop == (1, -4)
    assert dw.witness.weight_squared == Fraction(1, 4)
    assert dw.witness.verified


def test_darboux_n2_rational():
    dw = darboux_witnesses(2, 0, 1)[0]
    assert dw.c_k == 3 and dw.epsilon == -1
    assert dw.q == Fraction(5, 4)
    assert dw.witness.loop == (1, -1, 4)
    assert dw.witness.weight_squared == Fraction(1, 16)


def test_darboux_n4_algebraic_and_rational_crossing():
    ws = darboux_witnesses(4, 1, 3)
    by_ck = {w.c_k: w for w in ws}
    assert sorted(by_ck) == [3, 4, 5]

    w4 = by_ck[4]
    assert isinstance(w4.q, AlgebraicNumber)
    assert abs(w4.q.approx - (8 + math.sqrt(29)) / 5) < 1e-10
    assert w4.q.defining == IntPoly([7, -16, 5])
    assert w4.witness.loop == (1, -1, 1, -1, 5)
    assert w4.witness.verified and verify_witness(w4.witness)

    w5 = by_ck[5]
    assert w5.q == Fraction(8, 3)
    assert w5.witness.loop == (1, -1, 1, -1, 6)
    pell = pell_witnesses(2)[1]
    assert (w5.q, w5.witness.loop, w5.witness.weight_squared) == (
        pell.q, pell.witness.loop, pell.witness.weight_squared
    )


def test_darboux_t0_and_interval():
    ws = darboux_witnesses(4, 1, 2)
    for dw in ws:
        assert abs(dw.t0.approx - (3 + math.sqrt(5)) / 2) < 1e-10
        assert dw.t1_approx == pytest.approx(3.0)
        qf = float(dw.q) if isinstance(dw.q, AlgebraicNumber) else float(dw.q)
        assert dw.t0.approx < qf < dw.t1_approx
        if isinstance(dw.q, Fraction):
            assert dw.t0.compare_rational(dw.q) < 0


def test_darboux_levels_march_toward_t0():
    for n, u_index in [(1, 0), (2, 0), (4, 1)]:
        ws = darboux_witnesses(n, u_index, 4)
        t0f = ws[0].t0.approx
        gaps = [float(w.q) - t0f for w in ws]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_darboux_lemma_consistency_rational():
    for n, u_index in [(1, 0), (2, 0), (4, 1)]:
        for dw in darboux_witnesses(n, u_index, 4):
            if isinstance(dw.q, Fraction):
                shift = -dw.epsilon * dw.c_k
                assert weight_squared(dw.q, dw.witness.loop) == lemma_weight_squared(
                    n, shift, dw.q
                )


def test_darboux_min_c_exploration():
    # levels below 3 are outside the existence argument but may still verify
    ws = darboux_witnesses(2, 0, 2, min_c=1)
    assert all(w.witness.verified for w in ws)
    assert ws[0].c_k < 3


@pytest.mark.parametrize("n, u_index, min_c", [(10, 0, 10**4), (4, 0, 10**5), (348, 58, 10844)])
def test_darboux_high_levels_verify(n, u_index, min_c):
    # at these levels the loop's final value at the midpoint of the 1e-20
    # interval exceeds 1e-12, which a midpoint tolerance once refused;
    # divisibility and the prefix signs do not depend on the width
    dw = darboux_witnesses(n, u_index, 1, min_c=min_c)[0]
    assert isinstance(dw.q, AlgebraicNumber) and dw.witness.verified
    if n == 348:
        assert dw.q.compare_rational(Fraction("1.009413")) > 0
        assert dw.q.compare_rational(Fraction("1.010413")) < 0


def test_darboux_bad_index():
    with pytest.raises(ValueError):
        darboux_witnesses(4, 5, 1)


@pytest.mark.parametrize("call", [
    lambda: pell_witnesses(0),
    lambda: darboux_witnesses(0, 0, 1), lambda: darboux_witnesses(5, 0, 0),
])
def test_family_inputs_below_the_least_are_refused(call):
    with pytest.raises(ValueError, match="must be >= 1"):
        call()


def test_family_guards_bound_the_count(monkeypatch):
    # each guard admits its bound and refuses one more; cos2 lists at most
    # max_k (max_k + 1) (max_n - 1) terms: 12 at (2, 3), 18 at (2, 4), 14 at (1, 8)
    monkeypatch.setattr(families, "MAX_PELL_COUNT", 3)
    monkeypatch.setattr(families, "MAX_DARBOUX_COUNT", 2)
    monkeypatch.setattr(families, "MAX_COS2_TERMS", 12)
    assert len(pell_witnesses(3)) == 3
    assert len(darboux_witnesses(4, 1, 2)) == 2
    assert len(cos2_family(2, 3)) > 0
    for call in (lambda: pell_witnesses(4), lambda: darboux_witnesses(4, 1, 3),
                 lambda: cos2_family(2, 4), lambda: cos2_family(1, 8)):
        with pytest.raises(ValueError, match="exceeds the guard|than the guard"):
            call()


def test_darboux_count_guard_shrinks_with_n(monkeypatch):
    # up to n = 40 the guard is MAX_DARBOUX_COUNT; beyond, it falls as the
    # measured memory of a level rises, and it is checked before any work
    class Started(Exception):
        pass

    def started(n):
        raise Started

    monkeypatch.setattr(families, "ratio_in_q", started)
    most = [families._most_levels(n) for n in range(1, 4096)]
    assert most[:40] == [families.MAX_DARBOUX_COUNT] * 40
    assert all(a >= b for a, b in zip(most, most[1:]))
    assert (most[199], most[999], most[4094]) == (1148, 128, 11)
    for n in (4, 24, 40, 41, 200, 1000, 4095):
        with pytest.raises(Started):
            darboux_witnesses(n, 0, families._most_levels(n))
        with pytest.raises(ValueError, match="exceeds the guard"):
            darboux_witnesses(n, 0, families._most_levels(n) + 1)
    assert families._most_levels(10**6) == 1


@pytest.mark.parametrize("call", [lambda: pell_witnesses(3), lambda: darboux_witnesses(4, 1, 2)])
def test_families_raise_only_when_verify_witness_refuses(call, monkeypatch):
    call()
    monkeypatch.setattr(families, "verify_witness", lambda w: False)
    with pytest.raises(ArithmeticError, match="witness verification failed"):
        call()


def test_root_in_interval_returns_an_exact_root_above_t0():
    # target's only root in [t0.lo, t1] is the midpoint, which the first
    # bisection hits exactly
    t0 = isolate_root(IntPoly([-2, 0, 1]), 1, 2)
    t1 = Fraction(2)
    mid = (t0.lo + t1) / 2
    target = IntPoly([-mid.numerator, mid.denominator]) * IntPoly([1, 0, 1])
    assert target.eval(mid) == 0 and len(real_roots(target, t0.lo, t1)) == 1
    got = _root_in_interval(target, t0, t1)
    assert type(got) is Fraction and got == mid


def test_root_in_interval_refuses_a_sign_change_below_t0():
    # t0 = sqrt(2) on the wide interval (1, 2); the one root, 5/4, is below it
    t0 = AlgebraicNumber(IntPoly([-2, 0, 1]), Fraction(1), Fraction(2))
    with pytest.raises(ArithmeticError):
        _root_in_interval(IntPoly([-5, 4]), t0, Fraction(2))


def _root_width(target: IntPoly) -> Fraction:
    """The width _root_in_interval narrows to: min(certificate, 1/(2L))."""
    return min(ALG_INTERVAL_WIDTH, Fraction(1, 2 * abs(target.primitive().leading)))


@pytest.mark.parametrize("min_c", [1, 3])
def test_root_in_interval_on_every_level_polynomial(min_c):
    # one root, above t0, at most the narrower of the two widths wide
    for n in range(1, 25):
        num, den = ratio_in_q(n)
        for i in range(len(_u_brackets(n))):
            for dw in darboux_witnesses(n, i, 3, min_c):
                target = num - (dw.epsilon * dw.c_k) * den
                got = _root_in_interval(target, dw.t0, Fraction(dw.t1_approx))
                assert got == dw.q, (n, i, dw.c_k)
                if isinstance(got, Fraction):
                    assert target.eval(got) == 0 and dw.t0.compare_rational(got) < 0
                    continue
                assert dw.t0.compare_rational(got.lo) <= 0, (n, i, dw.c_k)
                assert got.width <= _root_width(target), (n, i, dw.c_k)
                assert len(real_roots(target, got.lo, got.hi)) == 1, (n, i, dw.c_k)


def test_root_in_interval_finds_a_rational_root_finer_than_the_certificate_width():
    # L > 10**21: an interval of width ALG_INTERVAL_WIDTH holds several
    # multiples of 1/L, and the smallest above its end is not the root
    t0 = isolate_root(IntPoly([-2, 0, 1]), 1, 2)
    lead = 3 * 10**21 + 1
    a = 3 * lead // 2 + 1
    got = _root_in_interval(IntPoly([-a, lead]), t0, Fraction(2))
    assert type(got) is Fraction and got == Fraction(a, lead)


def test_root_in_interval_places_a_root_closer_to_t0_than_the_width():
    # sqrt(2 + 1/k) is about 0.35/k above t0 = sqrt(2), and the interval of
    # width 1/(2k) around it still holds t0, so it is halved past t0
    t0 = isolate_root(IntPoly([-2, 0, 1]), 1, 2)
    k, t1 = 16 * 10**21, Fraction(2)
    target = IntPoly([-(2 * k + 1), 0, k])
    wide = AlgebraicNumber(target, t0.lo, t1).refine(_root_width(target))
    assert t0.compare_rational(wide.lo) > 0 > t0.compare_rational(wide.hi)
    got = _root_in_interval(target, t0, t1)
    assert isinstance(got, AlgebraicNumber) and t0.compare_rational(got.lo) <= 0
    assert got.width <= _root_width(target)
    assert len(real_roots(target, got.lo, got.hi)) == 1


def test_cos2_family_examples():
    vals = cos2_family(1, 2)
    assert vals == pytest.approx([0.5])  # both l=1 and l=2 give 1/2, deduplicated
    vals = cos2_family(6, 8)
    assert all(0 < v < 2 for v in vals)
    assert len(cos2_family(8, 10)) > len(vals)
    assert vals == sorted(vals)


def test_cos2_family_guards():
    with pytest.raises(ValueError):
        cos2_family(0, 5)
    with pytest.raises(ValueError):
        cos2_family(3, 1)


def _strictly_inside(r, lo: Fraction, hi: Fraction) -> bool:
    """Whether a root from ``real_roots`` lies in the open (lo, hi), exactly."""
    if isinstance(r, Fraction):
        return lo < r < hi
    return r.compare_rational(lo) > 0 > r.compare_rational(hi)


def test_u_brackets_hold_the_root_of_their_index():
    # den has one root per j = 1..ceil(n/2), and each half-angle bracket holds
    # exactly one of them, the one of its own index
    for n in range(1, 151):
        _, den = ratio_in_q(n)
        assert den.degree == (n + 1) // 2, n
        roots = real_roots(den, -1, 4)
        assert len(roots) == den.degree, n
        for j, lo, hi in _u_brackets(n):
            # roots increase as j falls; sorted, so only the neighbours can enter
            k = den.degree - j
            near = [i for i in (k - 1, k, k + 1) if 0 <= i < len(roots)]
            assert [i for i in near if _strictly_inside(roots[i], lo, hi)] == [k], (n, j)
            t0f = 4 * math.cos(math.pi * j / (n + 1)) ** 2
            assert _strictly_inside(roots[k], Fraction(t0f - 1e-9), Fraction(t0f + 1e-9)), (n, j)


# sha256 of every isolating interval and algebraic certificate below, taken
# from isolate_root on the half-angle brackets of _u_brackets; any moved
# interval shows here
U_SET_SHA256 = "417aa0b8547d27abf35bc2905706afc1397fa7b1848918faf381c83e959e5969"
DARBOUX_SHA256 = "51a46b24b0f687178755387cfa05c302b031741239670d8b776cd954b246a7be"


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_algebraic_certificates_golden():
    points = {n: u_set(n) for n in range(1, 41)}
    assert _sha256([[[list(r.defining.coeffs), str(r.lo), str(r.hi)] for r in points[n]]
                    for n in range(1, 41)]) == U_SET_SHA256
    docs = []
    for n in range(1, 21):
        for i, t0 in enumerate(points[n]):
            got = darboux_witnesses(n, i, 3)
            for dw in got:
                assert (dw.t0.defining, dw.t0.lo, dw.t0.hi) == (t0.defining, t0.lo, t0.hi)
            docs.append([witness_to_dict(dw.witness) for dw in got])
    assert _sha256(docs) == DARBOUX_SHA256


def _sign_above(num: IntPoly, den: IntPoly, t0: AlgebraicNumber) -> int:
    """Sign of num/den just above t0, a simple root of den, by refinement.

    t0's interval is refined until it holds no root of num (num and den are
    coprime, so num(t0) != 0); num*den then keeps one sign on (t0, t0.hi].
    """
    while real_roots(num, t0.lo, t0.hi):
        t0 = t0.refine(t0.width / 2)
    return num.sign_at(t0.hi) * den.sign_at(t0.hi)


def test_sign_above_t0_is_the_lemma_sign():
    # x_j = (-1)**(j-1) c_{j-1} increases in q, so c_n runs to
    # (-1)**(n+1) * infinity just above every point of u_set(n)
    for n in range(1, 61):
        num, den = ratio_in_q(n)
        for i, t0 in enumerate(u_set(n)):
            assert _sign_above(num, den, t0) == (-1) ** (n + 1), (n, i)
            if n <= 12:
                assert darboux_witnesses(n, i, 1)[0].epsilon == (-1) ** (n + 1)


def _t1_approx_two_lists(n: int, t0f: float) -> float:
    """The obstruction minimum gathered from the orders and den's roots apart."""
    def coprime_square_floats(k):
        return [4.0 * math.cos(math.pi * j / (k + 1)) ** 2
                for j in range(1, k + 1) if math.gcd(j, k + 1) == 1]

    cands = [4.0]
    for k in itertools.chain(range(1, n), (n + 1,)):
        cands.extend(v for v in coprime_square_floats(k) if v > t0f + 1e-9)
    cands.extend(
        v
        for j in range(1, (n + 1) // 2 + 1)
        if (v := 4.0 * math.cos(math.pi * j / (n + 1)) ** 2) > t0f + 1e-9
    )
    return min(cands)


def test_t1_approx_matches_the_two_list_enumeration():
    for n in range(1, 61):
        for (j0, _, _), t0 in zip(_u_brackets(n), u_set(n)):
            assert _t1_approx(n, j0) == _t1_approx_two_lists(n, t0.approx), (n, t0)


def _roots_above(target: IntPoly, t0: AlgebraicNumber, t1: Fraction) -> int:
    """Roots of ``target`` in (t0, t1), counted by ``real_roots`` as reference."""
    assert real_roots(target, t0.lo, t0.hi) == []
    return sum(1 for r in real_roots(target, t0.hi, t1) if r != t1)


def test_lemma_premise_and_first_level_criterion():
    # den has no root in [t0.hi, t1], and level c crosses once in (t0, t1)
    # exactly when c >= first, the first level darboux_witnesses emits
    for n in range(1, 25):
        num, den = ratio_in_q(n)
        eps = (-1) ** (n + 1)
        for i, (_, _, cut) in enumerate(_u_brackets(n)):
            dw = darboux_witnesses(n, i, 1, min_c=1)[0]
            t0, t1 = dw.t0, Fraction(dw.t1_approx)
            # t1 lies inside t0's bracket, so the bracket gives the premise
            assert t1 < cut, (n, i)
            assert real_roots(den, t0.hi, t1) == [], (n, i)
            for c in range(1, dw.c_k + 2):
                want = 1 if c >= dw.c_k else 0
                assert _roots_above(num - (eps * c) * den, t0, t1) == want, (n, i, c)


def test_first_level_at_min_c_1_is_the_floor_of_c_n_at_t1():
    # with min_c = 1 the first level is max(1, floor(eps * c_n(t1)) + 1), so
    # the floor term shows; c_n(t1) comes from an integer walk of the path
    for n in range(1, 41):
        eps = (-1) ** (n + 1)
        for i in range(len(_u_brackets(n))):
            dw = darboux_witnesses(n, i, 1, min_c=1)[0]
            t1 = Fraction(dw.t1_approx)
            *_, (cn, cd) = prefix_pairs([(-1) ** j for j in range(n + 1)],
                                        t1.numerator, t1.denominator)
            assert dw.c_k == max(1, math.floor(eps * Fraction(cn, cd)) + 1), (n, i)


@pytest.mark.parametrize("n, u_index", [(4, 1), (16, 6), (60, 3)])
def test_darboux_builds_sturm_sequences_of_den_only(monkeypatch, n, u_index):
    # each level root is the one sign change the lemma gives, so no level
    # polynomial gets a root count: only den does, for t0
    variations = exact._variations
    seen = []

    def recording(p, lo, hi):
        seen.append(p)
        return variations(p, lo, hi)

    monkeypatch.setattr(exact, "_variations", recording)
    darboux_witnesses(n, u_index, 3)
    _, den = ratio_in_q(n)
    assert seen and all(p == den for p in seen)


@pytest.mark.parametrize("n, u_index, count", [(4, 1, 3), (7, 1, 3), (12, 2, 3), (20, 3, 3)])
def test_darboux_evaluates_each_level_once_at_each_end(monkeypatch, n, u_index, count):
    # _bisect certifies [t0.lo, t1] by the two end values it narrows from,
    # so no level polynomial is evaluated twice at either end
    value = IntPoly.value_at_ratio
    seen = []

    def recording(p, a, b):
        seen.append((p, Fraction(a, b)))
        return value(p, a, b)

    monkeypatch.setattr(IntPoly, "value_at_ratio", recording)
    ws = darboux_witnesses(n, u_index, count)
    num, den = ratio_in_q(n)
    for dw in ws:
        level = (num - (dw.epsilon * dw.c_k) * den).primitive()
        at = [x for p, x in seen if p == level]
        assert (at.count(dw.t0.lo), at.count(Fraction(dw.t1_approx))) == (1, 1), dw.c_k


@pytest.mark.parametrize("n, u_index, count", [(4, 1, 3), (7, 1, 3), (12, 2, 3)])
def test_darboux_refines_t0_once_in_isolate_root(monkeypatch, n, u_index, count):
    # t0 never moves: each level root is placed against it by exact
    # comparison, and its sign above t0 needs no refinement, so its
    # polynomial is narrowed by one bisection, the one isolate_root runs
    bisect, refine = exact._bisect, AlgebraicNumber.refine
    bisected, refined = [], []

    def counting_bisect(p, lo, hi, eps):
        bisected.append((p, sys._getframe(1).f_code.co_name))
        return bisect(p, lo, hi, eps)

    def counting_refine(self, eps):
        refined.append(self.defining)
        return refine(self, eps)

    monkeypatch.setattr(exact, "_bisect", counting_bisect)
    monkeypatch.setattr(families, "_bisect", counting_bisect)
    monkeypatch.setattr(AlgebraicNumber, "refine", counting_refine)
    ws = darboux_witnesses(n, u_index, count)
    assert len(ws) == count
    t0_poly = ws[0].t0.defining
    assert [name for poly, name in bisected if poly == t0_poly] == ["isolate_root"]
    assert t0_poly not in refined
