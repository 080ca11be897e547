"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import io
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from forbiddenq import cli
from forbiddenq.continuants import g_poly, g_roots
from forbiddenq.exact import AlgebraicNumber, IntPoly
from forbiddenq.families import darboux_witnesses, golden_targets, pell_witnesses
from forbiddenq.loops import (
    STATUS_LOOP,
    SearchConfig,
    chain_length,
    evaluate_path,
    lemma_weight_squared,
    search_nonunit_loop,
    weight_squared,
)
from oracles import (
    brute_enumerate_loops,
    check_chain_proposition,
    closed_form_c5,
    eval_g_float,
    f_explicit,
    f_poly,
)


def _passed(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_identity_suite():
    t0 = time.perf_counter()
    assert all(g_poly(n) * g_poly(n) + g_poly(n + 1) * g_poly(n - 1) == IntPoly([1])
               for n in range(1, 41))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(1, f"g_n^2 + g_(n+1) g_(n-1) = 1 exactly for n = 1..40 in {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    rng = random.Random(20260810)
    mismatches = 0
    for _ in range(220):
        m = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 8)))
        if f_poly(m) != f_explicit(m):
            mismatches += 1
    assert mismatches == 0
    _passed(2, "recurrence and subset-enumeration continuants agree on 220 random sequences")


def test_criterion_03_root_formula():
    worst = 0.0
    for n in range(1, 31):
        for r in g_roots(n):
            worst = max(worst, abs(eval_g_float(n, r)))
    assert worst < 1e-6
    _passed(3, f"|g_n(2cos(pi j/(n+1)))| < 1e-6 in float for n = 1..30 (worst {worst:.2e})")


def test_criterion_04_loop_calculus_fixture():
    q = Fraction(5, 2)
    m = (1, -1, 1, -1, -2)
    ev = evaluate_path(q, m)
    assert ev.status == STATUS_LOOP
    assert ev.prefix_c == (1, Fraction(-3, 5), Fraction(1, 3), Fraction(1, 5), 0)
    assert weight_squared(q, m) == Fraction(1, 16)
    assert closed_form_c5(q, m) == 0
    _passed(4, "q=5/2 fixture: prefixes (1,-3/5,1/3,1/5,0), w2 = 1/16, closed form agrees")


def test_criterion_05_pell_family():
    t0 = time.perf_counter()
    lo_t, hi_t = golden_targets()
    for reciprocal, target in ((False, hi_t), (True, lo_t)):
        ws = pell_witnesses(15, reciprocal=reciprocal)
        assert len(ws) == 15
        prev_gap = None
        for pw in ws:
            nf = pw.b * pw.b - 3 * pw.a * pw.b + pw.a * pw.a
            assert nf in (-1, 1)
            assert evaluate_path(pw.q, pw.witness.loop).status == STATUS_LOOP
            assert weight_squared(pw.q, pw.witness.loop) == Fraction(1, pw.b**4)
            if pw.q >= target.hi:
                gap = (pw.q - target.hi, pw.q - target.lo)
            else:
                assert pw.q <= target.lo
                gap = (target.lo - pw.q, target.hi - pw.q)
            if prev_gap is not None:
                assert gap[1] < prev_gap[0]
            prev_gap = gap
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(5, f"15 + 15 reciprocal norm-form witnesses verify and strictly "
               f"approach (3 +- sqrt(5))/2 in {elapsed:.2f}s")


def test_criterion_06_darboux_family():
    w1 = darboux_witnesses(1, 0, 1)[0]
    assert (w1.q, w1.witness.weight_squared) == (Fraction(1, 4), Fraction(1, 4))

    w2 = darboux_witnesses(2, 0, 1)[0]
    assert (w2.q, w2.witness.weight_squared) == (Fraction(5, 4), Fraction(1, 16))

    ws = darboux_witnesses(4, 1, 3)
    by_ck = {w.c_k: w for w in ws}

    w5 = by_ck[5]
    pell4 = pell_witnesses(2)[1]
    assert w5.q == Fraction(8, 3) == pell4.q
    assert w5.witness.loop == pell4.witness.loop

    w4 = by_ck[4]
    assert isinstance(w4.q, AlgebraicNumber)
    assert abs(w4.q.approx - 2.677033) < 1e-5
    alg = w4.q.refine(Fraction(1, 10**20))
    assert alg.width <= Fraction(1, 10**20)
    mid = (alg.lo + alg.hi) / 2
    final_c = evaluate_path(mid, w4.witness.loop).prefix_c[-1]
    assert abs(final_c) < Fraction(1, 10**12)
    loop = w4.witness.loop
    n = len(loop) - 1
    c = loop[-1] - (-1) ** n
    lo_b, hi_b = sorted((lemma_weight_squared(n, c, alg.lo),
                         lemma_weight_squared(n, c, alg.hi)))
    approx = Fraction(w4.witness.weight_squared.approx)
    assert lo_b - Fraction(1, 10**9) <= approx <= hi_b + Fraction(1, 10**9)
    assert abs(w4.witness.weight_squared.approx - 0.018337) < 5e-6
    _passed(6, "level crossings: q = 1/4, 5/4, 8/3 exact (8/3 equals the norm-form "
               "witness) and q = (8+sqrt(29))/5 certified at width 1e-20")


def test_criterion_07_chain_bound():
    t0 = time.perf_counter()
    assert chain_length(3) == 4
    assert chain_length(Fraction(5, 2)) == 2
    for q in (Fraction(5, 2), Fraction(3), Fraction(7, 2)):
        ws = brute_enumerate_loops(q, 6, 4)
        assert check_chain_proposition(q, ws)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(7, f"chain bounds C(3)=4, C(5/2)=2; alternating-chain condition holds on "
               f"exhaustive enumerations at 5/2, 3, 7/2 in {elapsed:.2f}s")


def test_criterion_08_search_sanity():
    for qs in ("5/2", "8/3", "5/4", "1/4", "2/5"):
        q = Fraction(qs)
        t0 = time.perf_counter()
        res = search_nonunit_loop(q, SearchConfig(max_depth=5, window=4))
        elapsed = time.perf_counter() - t0
        assert res.witness is not None and res.witness.verified, qs
        assert elapsed < 1.0, qs
    for q in (Fraction(1), Fraction(4), Fraction(5)):
        ws = brute_enumerate_loops(q, 6, 4)
        assert all(w.weight_squared == 1 for w in ws), q
    _passed(8, "search certifies 5/2, 8/3, 5/4, 1/4, 2/5 in under 1s each; "
               "exhaustive enumeration at 1, 4, 5 sees only unit weights")


def test_criterion_09_lemma_formula_equivalence():
    checked = 0
    for reciprocal in (False, True):
        for pw in pell_witnesses(15, reciprocal=reciprocal):
            shift = pw.witness.loop[-1] - 1
            assert lemma_weight_squared(4, shift, pw.q) == pw.witness.weight_squared
            checked += 1
    for n, u_index in ((1, 0), (2, 0), (3, 0), (4, 0), (4, 1)):
        for dw in darboux_witnesses(n, u_index, 3):
            if isinstance(dw.q, Fraction):
                shift = -dw.epsilon * dw.c_k
                assert lemma_weight_squared(n, shift, dw.q) == dw.witness.weight_squared
                checked += 1
    _passed(9, f"closed weight formula matches the exact prefix-product weight on "
               f"all {checked} rational family witnesses")


def test_criterion_10_scan_determinism():
    # the published table counts (16271, 3865, 293) depend on unpublished
    # search parameters and are not reproduction targets; the substitute is
    # exact witness verification (criteria 5-9) plus byte-identical scans
    args = ["scan", "--range", "2,3", "--max-den", "20", "--depth", "5",
            "--window", "3", "--budget", "4000"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(args))
        assert code == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    found = sum(1 for line in outs[0].splitlines()[1:] if ",true," in line)
    assert found > 0
    _passed(10, f"two scans of (2,3) at max denominator 20 are byte-identical "
                f"({found} certified values); published table counts are not a target")
