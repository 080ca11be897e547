import gc
import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from forbiddenq import loops
from forbiddenq.cli import witness_from_dict, witness_to_dict
from forbiddenq.continuants import MAX_G_DEGREE, g_poly, ratio_in_q
from forbiddenq.exact import AlgebraicNumber, IntPoly, isolate_root
from forbiddenq.families import ALG_INTERVAL_WIDTH, darboux_witnesses, pell_witnesses
from forbiddenq.loops import (
    MAX_CHAIN_LENGTH,
    MAX_NODE_BUDGET,
    MAX_SEARCH_DEPTH,
    MAX_SEARCH_WINDOW,
    STATUS_BROKEN,
    STATUS_LOOP,
    STATUS_PATH,
    BrokenPath,
    BudgetExceeded,
    DegenerateC,
    FormulaWeight,
    LoopWitness,
    NonPositiveQ,
    OutOfRange,
    SearchConfig,
    chain_length,
    evaluate_path,
    lemma_weight_approx,
    lemma_weight_squared,
    search_nonunit_loop,
    shifted_alternating_loop,
    verify_witness,
    weight_squared,
)
from oracles import (
    ZeroDenominator,
    brute_enumerate_loops,
    check_chain_proposition,
    closed_form_c5,
    parity_split,
    reference_search,
)

Q52 = Fraction(5, 2)
LOOP52 = (1, -1, 1, -1, -2)


def test_evaluate_path_loop_example():
    ev = evaluate_path(Q52, LOOP52)
    assert ev.prefix_c == (1, Fraction(-3, 5), Fraction(1, 3), Fraction(1, 5), 0)
    assert ev.status == STATUS_LOOP


def test_evaluate_path_singleton_and_broken():
    ev = evaluate_path(Fraction(7, 3), (5,))
    assert ev.prefix_c == (5,) and ev.status == STATUS_PATH

    ev = evaluate_path(1, (1, -1, 9))
    assert ev.status == STATUS_BROKEN and ev.broken_at == 2
    assert ev.prefix_c == (1, 0)


def test_evaluate_path_guards():
    with pytest.raises(NonPositiveQ):
        evaluate_path(-1, (1,))
    with pytest.raises(NonPositiveQ):
        evaluate_path(0, (1,))
    with pytest.raises(ValueError):
        evaluate_path(1, ())
    for bad in ((1, -1, 4.5), (1, -1, Fraction(9, 2)), (1.0,), ("1",)):
        with pytest.raises(ValueError):
            evaluate_path(Fraction(5, 4), bad)


def test_weight_squared_examples():
    for q in (Fraction(1, 3), Fraction(7, 2), Fraction(9)):
        assert weight_squared(q, (0,)) == 1
    assert weight_squared(Q52, LOOP52) == Fraction(1, 16)
    assert weight_squared(1, (1, -1)) == 1
    with pytest.raises(BrokenPath):
        weight_squared(1, (1, -1, 9))


def test_closed_form_c5_examples():
    assert closed_form_c5(Q52, LOOP52) == 0
    assert closed_form_c5(Fraction(8, 3), (1, -1, 1, -1, 6)) == 0
    assert closed_form_c5(Fraction(2, 5), (1, -1, 1, -1, 40)) == 0


def test_closed_form_c5_matches_evaluate_path():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        q = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        m = tuple(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(4))
        m = m + (rng.randint(-6, 6),)
        ev = evaluate_path(q, m)
        if ev.status == STATUS_BROKEN:
            continue
        try:
            val = closed_form_c5(q, m)
        except ZeroDenominator:
            continue
        assert val == ev.prefix_c[-1]
        checked += 1


def test_closed_form_c5_zero_denominator():
    # b**2 - 5ab + 4a**2 factors as (b - a)(b - 4a); both roots are rational
    with pytest.raises(ZeroDenominator):
        closed_form_c5(Fraction(1), (1, -2, 2, -1, 5))
    with pytest.raises(ZeroDenominator):
        closed_form_c5(Fraction(1, 4), (1, -2, 2, -1, 5))


def test_closed_form_c5_guards():
    with pytest.raises(ValueError):
        closed_form_c5(Q52, (1, -1, 1, -1))
    with pytest.raises(ValueError):
        closed_form_c5(Q52, (1, 0, 1, -1, 2))
    with pytest.raises(ValueError):
        closed_form_c5(Q52, (1, -1, 1, -1, -2.5))
    with pytest.raises(ValueError):
        closed_form_c5(Q52, (1.0, -1, 1, -1, -2))


def test_lemma_weight_squared_examples():
    assert lemma_weight_squared(1, -3, Fraction(1, 4)) == Fraction(1, 4)
    assert lemma_weight_squared(4, -3, Q52) == Fraction(1, 16)
    assert lemma_weight_squared(2, 3, Fraction(5, 4)) == Fraction(1, 16)


def test_lemma_weight_squared_degenerate():
    with pytest.raises(DegenerateC):
        lemma_weight_squared(3, 0, Q52)
    with pytest.raises(DegenerateC):
        lemma_weight_squared(3, 1, Q52)  # (-1)**(n+1) for odd n
    with pytest.raises(DegenerateC):
        lemma_weight_squared(4, -1, Q52)


@pytest.mark.parametrize("n,c", [(4.0, 2), (Fraction(4), 2), (4, 4.5), (4, Fraction(9, 2))],
                         ids=["n=4.0", "n=4/1", "c=4.5", "c=9/2"])
def test_order_and_shift_must_be_integers(n, c):
    with pytest.raises(ValueError):
        lemma_weight_squared(n, c, Q52)
    with pytest.raises(ValueError):
        shifted_alternating_loop(n, c)


def test_lemma_matches_weight_on_known_loops():
    cases = [
        (1, -3, Fraction(1, 4)),
        (2, 3, Fraction(5, 4)),
        (4, -3, Q52),
        (4, 5, Fraction(8, 3)),
    ]
    for n, c, q in cases:
        loop = shifted_alternating_loop(n, c)
        assert evaluate_path(q, loop).status == STATUS_LOOP
        assert weight_squared(q, loop) == lemma_weight_squared(n, c, q)


def test_chain_length_examples():
    assert chain_length(3) == 4
    assert chain_length(Q52) == 2
    # frozen regression constant from the exact iteration
    assert chain_length(Fraction(39, 10)) == 17


def test_chain_length_limit_caps_the_walk():
    rng = random.Random(5)
    for _ in range(300):
        q = Fraction(rng.randint(1, 399), rng.randint(1, 100))
        if q >= 4:
            continue
        full = chain_length(q)
        for limit in (0, 1, full - 1, full, full + 1, 300):
            assert chain_length(q, limit) == min(full, max(limit, 0))
    # C(3.9999999) = 19867, but the capped walk stops after 9 steps
    assert chain_length(Fraction("3.9999999"), 9) == 9


def test_chain_length_without_a_limit_stops_at_the_guard(monkeypatch):
    # C(q) grows like pi/sqrt(4 - q) (C(3.999999999999) is about 3 million):
    # the walk is refused once it passes MAX_CHAIN_LENGTH, in a few seconds
    # on integers that grow at each step, while a capped walk still answers
    q = Fraction("3.999999999999")
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"exceeds the guard {MAX_CHAIN_LENGTH}"):
        chain_length(q)
    assert time.perf_counter() - t0 < 20
    assert chain_length(q, 300) == 300
    assert chain_length(Fraction("3.9999999"), MAX_CHAIN_LENGTH + 1) == MAX_CHAIN_LENGTH + 1
    # C(3) = 4: answered at a guard of 4, refused at a guard of 3
    monkeypatch.setattr(loops, "MAX_CHAIN_LENGTH", 4)
    assert chain_length(3) == 4
    monkeypatch.setattr(loops, "MAX_CHAIN_LENGTH", 3)
    with pytest.raises(BudgetExceeded, match="exceeds the guard 3"):
        chain_length(3)
    assert chain_length(3, 5) == 4


def test_search_near_four_stops_at_the_root_cut():
    # every root is cut, since C(q) is huge; the search asks for C(q) only up
    # to its depth, so it answers at once instead of walking the whole chain
    proc = subprocess.run(
        [sys.executable, "-m", "forbiddenq.cli", "search", "--q", "3.999999999999",
         "--depth", "5"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0
    assert '"nodes": 4' in proc.stdout


def _sweep_digest() -> str:
    rng = random.Random(2024)
    lines = []
    for _ in range(3000):
        q = Fraction(rng.randint(1, 60), rng.randint(1, 25))
        m = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 8)))
        ev = evaluate_path(q, m)
        try:
            w2 = str(weight_squared(q, m))
        except BrokenPath:
            w2 = "broken"
        prefix = ",".join(map(str, ev.prefix_c))
        lines.append(f"{q} {m} {prefix} {ev.status} {ev.broken_at} {w2}")
    for _ in range(500):
        q = Fraction(rng.randint(1, 399), rng.randint(1, 100))
        lines.append(f"{q} {chain_length(q) if q < 4 else '-'}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_evaluation_sweep_matches_pinned_values():
    # prefix values, statuses, weights and C(q) of a seeded sweep, pinned
    assert _sweep_digest() == "551874dc8ecef80860b7d9a13c5a5b66d4d112091cc23f697c3d7e1c82e20e35"


def test_evaluate_path_weight_matches_weight_squared():
    rng = random.Random(41)
    for _ in range(500):
        q = Fraction(rng.randint(1, 60), rng.randint(1, 25))
        m = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 8)))
        ev = evaluate_path(q, m)
        if ev.status == STATUS_BROKEN:
            assert ev.weight_squared is None
        else:
            assert ev.weight_squared == weight_squared(q, m)


def test_weight_squared_is_the_prefix_product():
    # the telescoped D_k**2 / (qn qd)**k against the definition q**k prod c_j**2
    rng = random.Random(31)
    checked = 0
    while checked < 500:
        q = Fraction(rng.randint(1, 60), rng.randint(1, 25))
        m = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 8)))
        ev = evaluate_path(q, m)
        if ev.status == STATUS_BROKEN:
            continue
        product = q ** (len(m) - 1)
        for c in ev.prefix_c[:-1]:
            product *= c * c
        assert weight_squared(q, m) == product
        checked += 1


def test_chain_length_out_of_range():
    for q in (0, -1, 4, Fraction(9, 2)):
        with pytest.raises(OutOfRange):
            chain_length(q)


def test_brute_enumerate_zero_loop_only():
    for q in (Fraction(3, 7), Fraction(4)):
        ws = brute_enumerate_loops(q, 1, 0)
        assert [w.loop for w in ws] == [(0,)]
        assert ws[0].weight_squared == 1


def test_brute_enumerate_small():
    ws = brute_enumerate_loops(1, 2, 1)
    loops_found = {w.loop for w in ws}
    assert (1, -1) in loops_found and (-1, 1) in loops_found
    by_loop = {w.loop: w for w in ws}
    assert by_loop[(1, -1)].weight_squared == 1
    assert not by_loop[(1, -1)].verified


def test_brute_enumerate_finds_known_witness():
    ws = brute_enumerate_loops(Q52, 5, 4)
    by_loop = {w.loop: w for w in ws}
    assert LOOP52 in by_loop
    w = by_loop[LOOP52]
    assert w.weight_squared == Fraction(1, 16) and w.verified
    neg = tuple(-x for x in LOOP52)
    assert by_loop[neg].weight_squared == Fraction(1, 16)


def test_brute_enumerate_guard():
    with pytest.raises(BudgetExceeded):
        brute_enumerate_loops(1, 9, 2)
    with pytest.raises(BudgetExceeded):
        brute_enumerate_loops(1, 3, 7)


def test_check_chain_proposition_example():
    ws = brute_enumerate_loops(Q52, 5, 4)
    target = [w for w in ws if w.loop == LOOP52]
    assert check_chain_proposition(Q52, target)
    assert chain_length(Q52) == 2  # l = 0, k = 4 >= 0 + 2


def test_check_chain_proposition_batch():
    ws = brute_enumerate_loops(3, 5, 3)
    assert check_chain_proposition(3, ws)


def test_check_chain_proposition_rejects_non_loops():
    from forbiddenq.loops import LoopWitness

    fake = LoopWitness(q=Q52, loop=(1, 2, 3), weight_squared=Fraction(1),
                       provenance="search", verified=False)
    with pytest.raises(ValueError):
        check_chain_proposition(Q52, [fake])
    with pytest.raises(OutOfRange):
        check_chain_proposition(Fraction(1, 2), [])


def test_check_chain_proposition_walks_the_pairs_without_a_weight(monkeypatch):
    import oracles
    from forbiddenq.loops import LoopWitness

    ws = brute_enumerate_loops(3, 5, 3)

    def refuse(*args):
        raise AssertionError("check_chain_proposition computed a weight")

    # the globals check_chain_proposition resolves; oracles imports no
    # evaluate_path, so that name is set, not replaced
    monkeypatch.setattr(oracles, "_weight", refuse)
    monkeypatch.setattr(oracles, "evaluate_path", refuse, raising=False)
    assert check_chain_proposition(3, ws)
    # c_4 = 0 before the last entry: the pair after it has den == 0
    broken = LoopWitness(q=Q52, loop=LOOP52 + (1,), weight_squared=Fraction(1),
                         provenance="search", verified=False)
    with pytest.raises(ValueError, match="is not a loop"):
        check_chain_proposition(Q52, [broken])


def test_check_chain_proposition_rejects_a_zero_entry():
    zero = LoopWitness(q=Q52, loop=(1, 0, 1), weight_squared=Fraction(1),
                       provenance="search", verified=False)
    with pytest.raises(ValueError, match="is not a proper loop"):
        check_chain_proposition(Q52, [zero])


def test_search_examples():
    res = search_nonunit_loop(Q52, SearchConfig(max_depth=5, window=3))
    assert res.witness is not None and res.witness.weight_squared != 1
    assert res.witness.verified and verify_witness(res.witness)

    res = search_nonunit_loop(Fraction(5, 4), SearchConfig(max_depth=4, window=4))
    assert res.witness is not None
    assert res.witness.loop == (1, -1, 4)
    assert res.witness.weight_squared == Fraction(1, 16)

    res = search_nonunit_loop(4, SearchConfig(max_depth=6, window=4, node_budget=500_000))
    assert res.witness is None and not res.budget_exhausted


def test_search_guards():
    with pytest.raises(NonPositiveQ):
        search_nonunit_loop(0)
    with pytest.raises(ValueError):
        SearchConfig(max_depth=0)


def test_search_budget_flag():
    res = search_nonunit_loop(4, SearchConfig(max_depth=6, window=4, node_budget=50))
    assert res.witness is None and res.budget_exhausted and res.nodes == 51


def test_search_depth_guard():
    import tracemalloc

    def traced(q, cfg):
        tracemalloc.start()
        try:
            res = search_nonunit_loop(q, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return res, peak

    assert SearchConfig(max_depth=MAX_SEARCH_DEPTH).max_depth == MAX_SEARCH_DEPTH
    with pytest.raises(ValueError, match="guard"):
        SearchConfig(max_depth=MAX_SEARCH_DEPTH + 1)
    # the deepest allowed walk stays well inside the interpreter stack, and its
    # table does not grow with the depth: a state's path is a linked cell, not
    # a copy of its parent's entries (a copy took 9.4 and 17.2 MiB here)
    cfg = SearchConfig(max_depth=MAX_SEARCH_DEPTH, window=1, node_budget=20_000)
    res, peak = traced(Fraction(9, 2), cfg)
    assert res.witness is None and res.budget_exhausted
    assert peak < 4 * 2**20
    # C(3999/1000) = 196: every state from length 59 on is chain-cut
    res, peak = traced(Fraction(3999, 1000), cfg)
    assert res.witness is None and res.budget_exhausted
    assert peak < 8 * 2**20


def test_search_budget_guard():
    assert SearchConfig(node_budget=MAX_NODE_BUDGET).node_budget == MAX_NODE_BUDGET
    with pytest.raises(ValueError, match="guard"):
        SearchConfig(node_budget=MAX_NODE_BUDGET + 1)


def test_search_window_guard():
    assert SearchConfig(window=MAX_SEARCH_WINDOW).window == MAX_SEARCH_WINDOW
    with pytest.raises(ValueError, match=f"window={MAX_SEARCH_WINDOW + 1} exceeds the guard"):
        SearchConfig(window=MAX_SEARCH_WINDOW + 1)


def test_search_default_config():
    q = Fraction(5, 4)
    assert search_nonunit_loop(q) == search_nonunit_loop(q, SearchConfig())


# (q, max_depth, window, node_budget) -> (nodes, budget_exhausted, provenance,
# loop), pinned from the search before children were settled in the parent:
# node accounting and the walk order must not move
GOLDEN_SEARCHES = [
    # (1,2): budget exhausted, duplicate-c and loop finds at depth 6
    (("9/7", 6, 4, 20_000), (20_001, True, None, None)),
    (("7/5", 6, 4, 5_000),
     (2_853, False, "duplicate-c", (1, -1, 2, 2, -1, -3))),
    (("11/9", 6, 4, 50_000),
     (5_384, False, "duplicate-c", (1, -1, 5, -2, 2, 3))),
    (("13/8", 6, 4, 20_000), (816, False, "search", (1, -1, 1, 1, 24))),
    (("1", 5, 3, 10_000), (2_649, False, None, None)),
    # (2,3): finds and exhaustion under chain pruning
    (("7/3", 5, 4, 200_000),
     (415, False, "duplicate-c", (1, -1, 1, -2, 2))),
    (("19/7", 9, 3, 30_000),
     (7, False, "search", (1, -1, 1, -1, 3, 2, 14))),
    (("29/11", 9, 3, 30_000), (30_001, True, None, None)),
    # (3,4): every first entry chain-cut at the root; C(79/20) = 26
    (("79/20", 6, 4, 50_000), (4, False, None, None)),
    (("7/2", 6, 4, 50_000), (4, False, None, None)),
    (("10/3", 10, 3, 200_000), (2_983, False, "duplicate-c", (1, -1))),
    # loops closed by a child at the maximal length
    (("5/4", 3, 4, 200_000), (3, False, "search", (1, -1, 4))),
    (("1/4", 2, 4, 1_000), (2, False, "search", (1, -4))),
    # max_depth 1: only the first entries, each a leaf
    (("5/4", 1, 4, 100), (4, False, None, None)),
    (("3", 1, 2, 100), (2, False, None, None)),
    # q > 4: no pruning, the window runs dry
    (("9/2", 5, 2, 2_000), (1_167, False, None, None)),
    # each branch of the `seen` table: a duplicate-c pair whose first path
    # was a leaf; two leaves meeting; a leaf meeting a value first seen at an
    # interior state; two interior states meeting; an exhausted walk that
    # skips repeated states and re-expands a value after a leaf entry and at
    # a shorter length; and a pair whose first path stays stored when its
    # value is re-expanded at a shorter length
    (("5/2", 4, 3, 5_000), (21, False, "duplicate-c", (1, -1, 1, -2))),
    (("5/3", 4, 3, 5_000), (144, False, "duplicate-c", (1, -1, 1, 1))),
    (("11/16", 6, 4, 50_000), (56, False, "duplicate-c", (1, -1))),
    (("12/17", 9, 3, 30_000), (6, False, "duplicate-c", (1, -1))),
    (("1", 4, 3, 5_000), (682, False, None, None)),
    (("13/22", 5, 4, 10_000), (2_558, False, "duplicate-c", (1, -2, 6, 0, -1))),
    # chain-cut siblings at offsets |off| >= 2, counted in one step: the
    # budget runs out among them; the skipped entry 0 falls among them; both;
    # and window 1, where offsets 0 and +-1 are all the offsets there are
    (("7/3", 6, 4, 2_000), (2_001, True, None, None)),
    (("7/2", 9, 3, 3_000), (783, False, None, None)),
    (("3", 8, 2, 500), (501, True, None, None)),
    (("33/70", 9, 1, 901), (30, False, "duplicate-c", (1, -2, -18))),
    # a leaf's path is rebuilt from the record its parent shares with its leaf
    # children: a pair whose first path is a leaf, met by another leaf and by
    # an interior state; and a leaf-registered value re-expanded at a shorter
    # length before its pair, so the record carries the parent's b along
    (("11/4", 6, 4, 50_000), (355, False, "duplicate-c", (1, -1, 1, -1, 2, 1))),
    (("7/3", 6, 4, 50_000), (2_536, False, "duplicate-c", (1, -1, 2, -1, 1, -2))),
    (("25/14", 6, 2, 5_000), (2_725, False, "duplicate-c", (1, -1, 0, 1, 1, 0))),
    # leaf classes (q outside (2,4), a >= 3): a new class meeting a value first
    # stored at an interior state; the budget running out inside a class; an
    # interior state landing in an earlier class, its first path rebuilt from
    # the class record's b; an existing class met with another G, the first
    # path of its centre child read from `seen`, and the same search with the
    # budget running out at that centre child; and a parent whose leaves
    # cross the budget meeting an existing class
    (("20/11", 6, 4, 50_000), (188, False, "duplicate-c", (1, -1))),
    (("4", 5, 3, 3_000), (3_001, True, None, None)),
    (("17/20", 6, 2, 5_000), (160, False, "duplicate-c", (1, -1, -7, 5, -1, 6))),
    (("12/7", 6, 2, 5_000), (63, False, "duplicate-c", (1, -1))),
    (("12/7", 6, 2, 62), (63, True, None, None)),
    (("5/3", 4, 2, 100), (99, False, "duplicate-c", (1, -1, 1, 1))),
    # max_depth 1, counted in one step: the budget stop at its edge
    (("5/4", 1, 4, 3), (4, True, None, None)),
    (("5/4", 1, 4, 4), (4, False, None, None)),
    # leaf parents of an unpruned walk: a pair whose first path is a leaf
    # parent's, rebuilt from the record its parent shares with its children;
    # the budget running out on a leaf parent's own node, and on the count of
    # its leaves
    (("25/18", 5, 3, 5_000), (2_449, False, "duplicate-c", (1, 0, 2, 0))),
    (("13/11", 6, 4, 997), (998, True, None, None)),
    (("13/11", 6, 4, 998), (999, True, None, None)),
    # chain-cut counts that follow a parent's last kept child: two finds made
    # before the counts of their ancestors' cut children are taken, and a
    # budget stop on those counts
    (("8/3", 6, 3, 30_000), (5, False, "search", (1, -1, 1, -1, 6))),
    (("13/4", 9, 3, 30_000), (44, False, "search", (1, -1, 1, -1, 1, -1, 36))),
    (("42/17", 9, 3, 10), (11, True, None, None)),
]

# the second path of a duplicate-c row above, where it is pinned
GOLDEN_OTHER_LOOPS = {
    ("11/4", 6, 4, 50_000): (2, -2, 1, -1, 1, -1),
    ("7/3", 6, 4, 50_000): (2, -3, 2, -1),
    ("25/14", 6, 2, 5_000): (2, -1, 1, -2, -1, -7),
    ("20/11", 6, 4, 50_000): (1, -1, 1, 3, -1, -12),
    ("17/20", 6, 2, 5_000): (1, -1, -8, 1),
    ("12/7", 6, 2, 5_000): (1, -1, 1, 2, -1, -8),
    ("5/3", 4, 2, 100): (1, -3, 1, -1),
    ("25/18", 5, 3, 5_000): (2, -1, 1, 6),
}


@pytest.mark.parametrize("case,expected", GOLDEN_SEARCHES)
def test_search_golden_table(case, expected):
    q, depth, window, budget = case
    res = search_nonunit_loop(
        Fraction(q), SearchConfig(max_depth=depth, window=window, node_budget=budget)
    )
    w = res.witness
    got = (res.nodes, res.budget_exhausted, w and w.provenance, w and w.loop)
    assert got == expected
    if case in GOLDEN_OTHER_LOOPS:
        assert w.other_loop == GOLDEN_OTHER_LOOPS[case]
    if w is not None:
        assert w.verified and verify_witness(w)


def test_interior_state_meets_the_leaf_class_of_its_parent():
    # an interior state new to `seen` is compared with the leaf class its
    # parent found: here that class's first path, the leaf (1, -1, 0, 1, -3, 0),
    # is the pair's first path.  Without the class lookup the interior state
    # is stored as a path of its own and the pair reports (1, 0, -3, 0)
    res = search_nonunit_loop(Fraction(29, 21), SearchConfig(6, 4, 50_000))
    w = res.witness
    assert (res.nodes, res.budget_exhausted, w.provenance) == (19_391, False, "duplicate-c")
    assert (w.loop, w.other_loop) == ((1, -1, 0, 1, -3, 0), (1, -3, -2, 1, -1, -14))
    assert (w.weight_squared, w.other_weight_squared) == (
        Fraction(116, 21), Fraction(3132, 16807))
    assert w.c_value == Fraction(-21, 58)
    assert w.verified


def _search_grid_digest() -> str:
    qs = sorted({Fraction(p, d) for d in range(1, 12) for p in range(1, 4 * d + 3)})
    configs = [(3, 1, 50), (5, 1, 300), (9, 1, 901), (4, 2, 100), (8, 2, 500),
               (6, 3, 400), (9, 3, 3_000), (6, 4, 1_000), (7, 4, 150),
               (12, 2, 2_000), (10, 4, 700)]
    h = hashlib.sha256()
    for q in qs:
        for depth, window, budget in configs:
            cfg = SearchConfig(max_depth=depth, window=window, node_budget=budget)
            h.update(repr(search_nonunit_loop(q, cfg)).encode() + b"\n")
    return h.hexdigest()


def test_search_grid_matches_pinned_results():
    # every SearchResult, witness included, for q = p/d with d <= 11 up to
    # 4 + 2/d, at windows 1-4 and budgets that run out in about a quarter of
    # the searches; pinned from the search that tested each child in turn
    assert _search_grid_digest() == (
        "4326ed02e147e8847ec0476a0192bafd09d24b0c1352bf76da4fa768af184469")


def _pruned_budget_sweep_digest() -> str:
    # every q = p/d in (2, 4) with d <= 6, and 37/10, of C(q) 2 to 9; each
    # search is rerun at budgets 1, 2, ... until one does not run out
    qs = {Fraction(p, d) for d in range(1, 7) for p in range(2 * d + 1, 4 * d)}
    qs = sorted(q for q in qs | {Fraction(37, 10)} if chain_length(q) <= 9)
    h = hashlib.sha256()
    for q in qs:
        for depth in (4, 6, 9, 10):
            for window in (1, 2, 3):
                for budget in range(1, 200):
                    cfg = SearchConfig(max_depth=depth, window=window, node_budget=budget)
                    res = search_nonunit_loop(q, cfg)
                    h.update(repr(res).encode() + b"\n")
                    if not res.budget_exhausted:
                        break
    return h.hexdigest()


def test_pruned_search_budget_sweep_matches_pinned_results():
    # chain-cut parents keep two children and count the rest in offset order.
    # The sweep holds cut parents with a = 1, with a centre of -1, 0 or 1
    # (entry 0 among offsets 0 and +-1), with r0 of each sign, and budgets that
    # stop on the cut child -1 counted between the centre and the side +1;
    # pinned from the search that tested offsets 0, -1 and +1 in turn
    assert _pruned_budget_sweep_digest() == (
        "d0a9b9337a8fe0397e54a9add7a04e4c455c1cbfa54bb420d650c5972da83bd0")


def _unpruned_budget_sweep_digest() -> str:
    # every q = p/d in (0, 2) with d <= 7; each search is rerun at budgets
    # 1, 2, ... until one does not run out (23,618 searches)
    qs = sorted({Fraction(p, d) for d in range(1, 8) for p in range(1, 2 * d)})
    h = hashlib.sha256()
    for q in qs:
        for depth in (3, 4, 5, 6):
            for window in (1, 2, 3, 4):
                for budget in range(1, 200):
                    cfg = SearchConfig(max_depth=depth, window=window, node_budget=budget)
                    res = search_nonunit_loop(q, cfg)
                    h.update(repr(res).encode() + b"\n")
                    if not res.budget_exhausted:
                        break
    return h.hexdigest()


def test_unpruned_search_budget_sweep_matches_pinned_results():
    # leaf parents count a whole leaf class in one step, or register its
    # leaves in turn; a mismatch on the class's centre child is found only
    # while a node is left, and a = 2 rounds its centre half to even.  Every
    # budget stop and found-or-exhausted edge is pinned from the search that
    # marked the classes to register leaf by leaf by their key (a, r0)
    assert _unpruned_budget_sweep_digest() == (
        "c74c5dc8d0656dee1fc6b72ff021c91c17842028e04a647d9baf3d95a18039f4")


def _shallow_budget_sweep_digest() -> str:
    # every q = p/d in (0, 2) and in (4, 6) with d <= 9, at depths 2 and 3,
    # where the roots or their children are leaf parents; each search is rerun
    # at budgets 1, 2, ... until one does not run out (53,962 searches)
    qs = sorted({Fraction(p, d) for d in range(1, 10) for p in range(1, 6 * d)
                 if not 2 * d <= p <= 4 * d})
    h = hashlib.sha256()
    for q in qs:
        for depth in (2, 3):
            for window in (1, 2, 3, 4):
                for budget in itertools.count(1):
                    cfg = SearchConfig(max_depth=depth, window=window, node_budget=budget)
                    res = search_nonunit_loop(q, cfg)
                    h.update(repr(res).encode() + b"\n")
                    if not res.budget_exhausted:
                        break
    return h.hexdigest()


def test_shallow_unpruned_search_budget_sweep_matches_pinned_results():
    # roots that are leaf parents (depth 2) and roots whose children are
    # (depth 3): every budget stop and found-or-exhausted edge is pinned from
    # the search that visited each leaf parent in a call of its own
    assert _shallow_budget_sweep_digest() == (
        "4d32d6f0106c5a446f3206876fa48d1fd38039706ee2e070727625468b546abc")


def _reference_pool() -> list[tuple[Fraction, SearchConfig]]:
    # every q = p/d < 6 with d <= 5, pruned or not, at depths 1-7 and windows
    # 1-4, at budget 1 and at the edges of its node count n: budgets n - 1
    # (exhausted) and n, or only 1,000 where that budget runs out; then every
    # golden row and the 29/21 row that the interior class lookup decides
    pool = []
    for q in sorted({Fraction(p, d) for d in range(1, 6) for p in range(1, 6 * d)}):
        for depth in range(1, 8):
            for window in range(1, 5):
                nodes = search_nonunit_loop(q, SearchConfig(depth, window, 1_000)).nodes
                for budget in sorted({1, nodes - 1, nodes} - {0, 1_001}):
                    pool.append((q, SearchConfig(depth, window, budget)))
    for (q, depth, window, budget), _ in GOLDEN_SEARCHES + [(("29/21", 6, 4, 50_000), None)]:
        pool.append((Fraction(q), SearchConfig(depth, window, budget)))
    return pool


def test_reference_search_gives_the_same_results():
    # the plain search of the docstring, each child counted and settled in
    # turn with one table of weights, and the fast search agree on every
    # SearchResult: node count, budget stop and witness
    for q, cfg in _reference_pool():
        assert repr(search_nonunit_loop(q, cfg)) == repr(reference_search(q, cfg)), (q, cfg)


def test_negation_symmetry():
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        q = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        m = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 7)))
        neg = tuple(-x for x in m)
        ev1, ev2 = evaluate_path(q, m), evaluate_path(q, neg)
        assert ev1.status == ev2.status
        assert tuple(-c for c in ev1.prefix_c) == ev2.prefix_c
        if ev1.status != STATUS_BROKEN:
            assert weight_squared(q, m) == weight_squared(q, neg)
            checked += 1


def test_search_monotone_in_bounds():
    base = SearchConfig(max_depth=5, window=3, node_budget=100_000)
    for q in (Fraction(5, 4), Fraction(8, 3), Fraction(1, 4)):
        assert search_nonunit_loop(q, base).witness is not None
        for depth, window in [(6, 3), (5, 4), (7, 5)]:
            cfg = SearchConfig(max_depth=depth, window=window, node_budget=500_000)
            assert search_nonunit_loop(q, cfg).witness is not None, (q, depth, window)


def test_search_deterministic():
    cfg = SearchConfig(max_depth=5, window=4)
    a = search_nonunit_loop(Fraction(7, 3), cfg)
    b = search_nonunit_loop(Fraction(7, 3), cfg)
    assert a.witness == b.witness and a.nodes == b.nodes


def test_alternating_weight_matches_parity_parts():
    # for a fully alternating path the squared weight collapses to a single
    # parity part of the continuant: E(q)**2 for even k, q*O(q)**2 for odd k
    rng = random.Random(17)
    for k in range(1, 13):
        even, odd = parity_split(g_poly(k))
        checked = 0
        while checked < 50:
            q = Fraction(rng.randint(1, 90), rng.randint(1, 30))
            m = tuple((-1) ** i for i in range(k + 1))
            ev = evaluate_path(q, m)
            if ev.status == STATUS_BROKEN:
                continue
            w2 = weight_squared(q, m)
            if k % 2 == 0:
                assert w2 == even.eval(q) ** 2
            else:
                assert w2 == q * odd.eval(q) ** 2
            checked += 1


def test_duplicate_c_witness_verifies():
    # force the duplicate detector by exploring q = 5/2 without the loop
    # shortcut: at depth 5 a loop is found first, so dig where none exists
    found = None
    for q in (Fraction(7, 5), Fraction(9, 5), Fraction(11, 7)):
        res = search_nonunit_loop(q, SearchConfig(max_depth=6, window=4))
        if res.witness is not None and res.witness.provenance == "duplicate-c":
            found = res.witness
            break
    if found is not None:
        assert verify_witness(found)
        assert found.weight_squared != found.other_weight_squared


def test_verify_witness_rejects_tampering():
    res = search_nonunit_loop(Fraction(5, 4), SearchConfig(max_depth=4, window=4))
    w = res.witness
    assert verify_witness(w)
    assert not verify_witness(w._replace(weight_squared=Fraction(1, 17)))
    assert not verify_witness(w._replace(loop=(1, -1, 5)))


def _bump_last(seq):
    return seq[:-1] + (seq[-1] + 1,)


def _fractional_last(seq):
    # int() truncates x +- 1/2 back to x, so only a type check can tell them apart
    return seq[:-1] + (seq[-1] + (0.5 if seq[-1] > 0 else -0.5),)


def _rational_witness():
    return search_nonunit_loop(Fraction(5, 4), SearchConfig(max_depth=4)).witness


def _duplicate_c_witness():
    # golden table: 7/3 at depth 5, window 4 ends on a duplicate-c pair
    w = search_nonunit_loop(Fraction(7, 3), SearchConfig(max_depth=5, window=4)).witness
    assert w.provenance == "duplicate-c"
    return w


def _algebraic_darboux_witness():
    w = darboux_witnesses(4, 1, 2)[1].witness
    assert isinstance(w.weight_squared, FormulaWeight)
    return w


def _order_ten_darboux_witness():
    w = darboux_witnesses(10, 3, 1, min_c=1)[0].witness
    assert isinstance(w.q, AlgebraicNumber) and w.q.hi < 3
    return w


def _past_an_inner_prefix_zero(w):
    # N_4 of the alternating path vanishes at q = 3 = 4 cos(pi/6)**2, the
    # obstruction that t1 of this order-10 witness approximates (its Farey
    # denominator 6 is at most n).  Widened to just past 3, the interval
    # keeps its sign change, which the constructor in _posed accepts, its
    # polynomial and its weight: only the prefix-sign walk refuses it, at j = 4
    hi = Fraction(3) + Fraction(1, 10**30)
    assert AlgebraicNumber(w.q.defining, w.q.lo, hi)
    return _posed(w, w.q.defining, w.q.lo, hi)


TAMPERINGS = {
    "duplicate-c wrong c_value": (
        _duplicate_c_witness, lambda w: w._replace(c_value=w.c_value + 1)),
    "duplicate-c edited other_loop": (
        _duplicate_c_witness, lambda w: w._replace(other_loop=_bump_last(w.other_loop))),
    "duplicate-c equal weights": (
        _duplicate_c_witness,
        lambda w: w._replace(other_weight_squared=w.weight_squared)),
    "duplicate-c missing other_loop": (
        _duplicate_c_witness, lambda w: w._replace(other_loop=None)),
    "darboux edited last entry": (
        _algebraic_darboux_witness, lambda w: w._replace(loop=_bump_last(w.loop))),
    "darboux interval past an inner prefix zero": (
        _order_ten_darboux_witness, _past_an_inner_prefix_zero),
    # the witness has n = 4 and c = 4: a last entry of 5.5 gives the shift 4.5
    "darboux non-integer last entry": (
        _algebraic_darboux_witness, lambda w: w._replace(loop=_fractional_last(w.loop))),
    "darboux edited inner entry": (
        _algebraic_darboux_witness, lambda w: w._replace(loop=(1, 1) + w.loop[2:])),
    # 1.0 == 1, so only a type check refuses it
    "darboux non-integer inner entry": (
        _algebraic_darboux_witness, lambda w: w._replace(loop=(1.0,) + w.loop[1:])),
    "darboux loop of one entry": (
        _algebraic_darboux_witness, lambda w: w._replace(loop=w.loop[-1:])),
    "darboux empty loop": (_algebraic_darboux_witness, lambda w: w._replace(loop=())),
    "darboux as duplicate-c": (
        _algebraic_darboux_witness, lambda w: w._replace(provenance="duplicate-c")),
    "darboux exact weight": (
        _algebraic_darboux_witness, lambda w: w._replace(weight_squared=Fraction(1, 2))),
    "rational formula weight": (
        _rational_witness, lambda w: w._replace(weight_squared=FormulaWeight(0.5))),
    "rational non-integer entry": (
        _rational_witness, lambda w: w._replace(loop=_fractional_last(w.loop))),
    "duplicate-c non-integer entry": (
        _duplicate_c_witness,
        lambda w: w._replace(other_loop=_fractional_last(w.other_loop))),
    "rational unit weight": (
        _rational_witness, lambda w: w._replace(weight_squared=Fraction(1))),
    # two loops (c = 0) of different weights are not a duplicate-c pair of paths
    "duplicate-c pair of loops": (
        _rational_witness,
        lambda w: w._replace(provenance="duplicate-c", other_loop=(0,),
                             other_weight_squared=Fraction(1), c_value=Fraction(0))),
}


@pytest.mark.parametrize("name", sorted(TAMPERINGS))
def test_verify_witness_rejects_tampered_branches(name):
    make, tamper = TAMPERINGS[name]
    w = make()
    assert w.verified and verify_witness(w)
    assert not verify_witness(tamper(w))


def test_verify_witness_refuses_an_algebraic_q_not_above_zero():
    # the root -1 of q + 1 on (-3/2, 2): q + 1 is the level polynomial
    # num + 2 den of the loop (1, 1), whose one proper prefix N_0 = 1 has one
    # sign everywhere, so only the test q > 0 refuses it
    loop = shifted_alternating_loop(1, 2)
    assert loop == (1, 1)
    num, den = ratio_in_q(1)
    assert num + 2 * den == IntPoly([1, 1])
    q = AlgebraicNumber(IntPoly([1, 1]), Fraction(-3, 2), Fraction(2))
    fw = FormulaWeight(float(lemma_weight_squared(1, 2, Fraction(1, 4))))
    assert not verify_witness(LoopWitness(q, loop, fw, "darboux", False))


def _posed(w, defining, lo, hi):
    """``w`` at the root of ``defining`` in (lo, hi), its weight's approx at the midpoint."""
    mid = (lo + hi) / 2
    n = len(w.loop) - 1
    approx = float(lemma_weight_squared(n, w.loop[-1] - (-1) ** n, mid))
    return w._replace(q=AlgebraicNumber(defining, lo, hi), verified=False,
                      weight_squared=FormulaWeight(approx))


def test_verify_witness_refuses_the_forged_algebraic_certificate():
    # x = mid + 1e-15, posed as the root of b x - a on an interval of width
    # 2e-25: the loop's final value at x is below 1e-12, which a midpoint
    # tolerance once accepted, but x closes no loop: b x - a does not divide
    # the level polynomial
    w = darboux_witnesses(6, 0, 2)[1].witness
    x = (w.q.lo + w.q.hi) / 2 + Fraction(1, 10**15)
    r = Fraction(1, 10**25)
    forged = _posed(w, IntPoly([-x.numerator, x.denominator]), x - r, x + r)
    assert 0 < abs(evaluate_path(x, forged.loop).prefix_c[-1]) < Fraction(1, 10**12)
    assert not verify_witness(forged)
    back = witness_from_dict(json.loads(json.dumps(witness_to_dict(forged))))
    assert back == forged
    assert not verify_witness(back)


@pytest.mark.parametrize("n", [6, 14, 20])
def test_verify_witness_refuses_an_interval_holding_the_pole(n):
    # down to t0.lo the interval still holds the one root of the level
    # polynomial, which divides itself, but N_{n-1} changes sign at the pole
    # t0: only the prefix signs refuse it.  Widened only down to t0.hi, the
    # same root verifies
    dw = darboux_witnesses(n, 0, 1)[0]
    w = dw.witness
    assert isinstance(w.q, AlgebraicNumber)
    assert verify_witness(_posed(w, w.q.defining, dw.t0.hi, w.q.hi))
    assert not verify_witness(_posed(w, w.q.defining, dw.t0.lo, w.q.hi))


def test_order_below_one_is_refused():
    with pytest.raises(ValueError, match="n must be >= 1"):
        lemma_weight_squared(0, 2, Q52)
    with pytest.raises(ValueError, match="n must be >= 1"):
        shifted_alternating_loop(0, 2)


def test_verify_witness_refuses_a_unit_weight_algebraic_loop():
    # the unshifted alternating loop closes at every root of ratio_in_q(5)'s
    # numerator 1 - 6q + 5q**2 - q**3, with weight 1: refused, not raised on
    num, _ = ratio_in_q(5)
    assert num == IntPoly([1, -6, 5, -1])
    q = isolate_root(num, 0, 1)
    loop = shifted_alternating_loop(5, 0)
    alg = q.refine(ALG_INTERVAL_WIDTH)
    assert abs(evaluate_path((alg.lo + alg.hi) / 2, loop).prefix_c[-1]) < Fraction(1, 10**12)
    assert not verify_witness(LoopWitness(q, loop, FormulaWeight(1.0), "darboux", False))


def test_verify_witness_refuses_an_order_beyond_the_guard_before_the_prefix_walks(monkeypatch):
    # a read-back certificate of order MAX_G_DEGREE with the weight of its
    # shift: ratio_in_q refuses to build g_poly(n + 1), so neither the
    # division nor the prefix walks, quadratic in n, start
    w = _algebraic_darboux_witness()
    n, c = MAX_G_DEGREE, w.loop[-1] - 1  # the witness has even order 4
    long = w._replace(loop=shifted_alternating_loop(n, c), verified=False,
                      weight_squared=FormulaWeight(lemma_weight_approx(n, c, w.q.lo, w.q.hi)))

    def never(*args):
        raise AssertionError("called past the guard")

    monkeypatch.setattr("forbiddenq.loops._exact_div", never)
    monkeypatch.setattr("forbiddenq.loops.prefix_pairs", never)
    assert verify_witness(long) is False


def test_huge_window_allocates_within_budget():
    import tracemalloc

    q = Fraction(5, 2)
    expected = search_nonunit_loop(q, SearchConfig(max_depth=3, window=10, node_budget=10))
    assert expected.budget_exhausted and expected.nodes == 11
    tracemalloc.start()
    try:
        res = search_nonunit_loop(q, SearchConfig(max_depth=3, window=10**6, node_budget=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == expected
    assert peak < 2**20


def test_length_one_search_allocates_no_window_of_offsets():
    # a length-1 search expands no parent: a window of 10**6 under a budget
    # of 10**6 used to build two million offsets for nothing
    import tracemalloc

    q = Fraction(9, 7)
    tracemalloc.start()
    try:
        res = search_nonunit_loop(q, SearchConfig(max_depth=1, window=10**6, node_budget=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.witness, res.nodes, res.budget_exhausted) == (None, 10**6, False)
    assert peak < 2**20


def test_records_pickle_to_equal_values_and_stay_read_only():
    # the --jobs pool pickles results; an IntPoly's slot state used to be
    # refused on the way back by its own __setattr__
    import pickle

    found = search_nonunit_loop(Fraction(7, 3), SearchConfig(max_depth=5, window=4))
    assert found.witness.provenance == "duplicate-c"
    darboux = darboux_witnesses(4, 1, 2)[1]
    read_back = witness_from_dict(witness_to_dict(darboux.witness))
    cell = isolate_root(IntPoly([-2, 0, 1]), 1, 2, Fraction(1, 2)).refine(Fraction(1, 10**30))
    assert isinstance(read_back.q, AlgebraicNumber)
    records = [found, found.witness, SearchConfig(max_depth=5, window=4),
               evaluate_path(Q52, LOOP52), cell, read_back.q, read_back, darboux,
               darboux.witness.weight_squared, pell_witnesses(1)[0]]
    for r in records:
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is type(r) and back == r
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], None)
    assert pickle.loads(pickle.dumps(IntPoly([1, 2, 3]))) == IntPoly([1, 2, 3])
    # a replaced field goes through the constructor's checks
    with pytest.raises(ValueError, match="empty isolating interval"):
        cell._replace(lo=cell.hi)
    with pytest.raises(ValueError, match="must be >= 1"):
        SearchConfig()._replace(window=0)


@pytest.fixture
def collector_off():
    """The cyclic collector disabled and emptied, then the caller's state back."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# (q, max_depth, window, node_budget) -> (budget_exhausted, provenance)
ACYCLIC_SEARCHES = [
    (("9/7", 6, 4, 20_000), (True, None)),            # budget exhausted in (1,2)
    (("5/2", 5, 3, 200_000), (False, "search")),      # a loop found
    (("5/2", 4, 3, 5_000), (False, "duplicate-c")),   # a duplicate-c pair
    (("7/2", 9, 3, 3_000), (False, None)),            # chain-cut siblings in (3,4)
    (("8/3", 6, 3, 30_000), (False, "search")),       # a loop found inside a chain
    (("42/17", 9, 3, 10), (True, None)),              # a budget stop inside a chain
]


@pytest.mark.parametrize("case,expected", ACYCLIC_SEARCHES)
def test_search_leaves_nothing_for_the_collector(collector_off, case, expected):
    # the table is freed by reference counting on return, whatever the outcome
    q, depth, window, budget = case
    res = search_nonunit_loop(
        Fraction(q), SearchConfig(max_depth=depth, window=window, node_budget=budget)
    )
    assert (res.budget_exhausted, res.witness and res.witness.provenance) == expected
    assert gc.collect() == 0


def test_search_leaves_nothing_for_the_collector_after_an_error(collector_off, monkeypatch):
    # an error that leaves the walk through its `finally` frees the table too:
    # a find at the root's depth, one inside a chain, and an unpruned one
    def fail(w):
        raise ArithmeticError("verification failed")

    monkeypatch.setattr(loops, "verify_witness", fail)
    for q, depth, window, budget in (("5/2", 5, 3, 200_000), ("8/3", 6, 3, 30_000),
                                     ("7/5", 6, 4, 5_000)):
        cfg = SearchConfig(max_depth=depth, window=window, node_budget=budget)
        with pytest.raises(ArithmeticError):
            search_nonunit_loop(Fraction(q), cfg)
        assert gc.collect() == 0


def test_brute_enumeration_leaves_nothing_for_the_collector(collector_off):
    assert any(w.verified for w in brute_enumerate_loops(Q52, 4, 3))
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_search_restores_the_callers_collector_state(monkeypatch, enabled):
    import forbiddenq.loops as loops_mod

    caller = gc.isenabled()
    paused = []

    def refuse(w):
        paused.append(not gc.isenabled())
        return False

    try:
        (gc.enable if enabled else gc.disable)()
        search_nonunit_loop(Q52, SearchConfig(max_depth=5, window=3))
        assert gc.isenabled() is enabled
        search_nonunit_loop(4, SearchConfig(max_depth=6, window=4, node_budget=50))
        assert gc.isenabled() is enabled
        # a witness that fails verification raises, and still restores it
        monkeypatch.setattr(loops_mod, "verify_witness", refuse)
        with pytest.raises(ArithmeticError):
            search_nonunit_loop(Q52, SearchConfig(max_depth=5, window=3))
        assert gc.isenabled() is enabled
        assert paused == [True]
    finally:
        (gc.enable if caller else gc.disable)()
