"""Independent test oracles for the runtime in ``src/forbiddenq``.

Each one recomputes something the package computes another way: Horner in
``Fraction`` for :meth:`IntPoly.eval`, the root list ``real_roots`` (a Sturm
sequence of integer pseudo-remainders, counted at the ends and midpoints of
a bisection over the whole interval, itself checked against sympy in
``test_real_roots.py``) for the one-root intervals ``isolate_root``
certifies by a single Descartes count and for the level roots of
``darboux_witnesses``, the term-by-term ``Fraction`` expansion
``mobius_variations`` for that count's integer transform, the
``prefix_pairs`` walk over ``IntPoly`` for ``ratio_in_q`` (which reads the
parity split of ``g_poly``), the three-term recurrence ``f_poly`` for the
closed form of ``g_poly``, and subset enumeration for ``f_poly`` itself,
the float recurrence for the roots of ``g_poly``, a brute scan of the norm
form for the Fibonacci pairs behind ``pell_witnesses``, the length-5 closed
form ``closed_form_c5`` for ``evaluate_path``, exhaustive
``brute_enumerate_loops`` (an unreduced copy of the ``prefix_pairs`` step)
and the plain ``reference_search`` for the search, and
``check_chain_proposition`` for the soundness of its alternating-chain cut.
None of them is on a path that produces a certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from forbiddenq.continuants import prefix_pairs
from forbiddenq.exact import (
    AlgebraicNumber,
    IntPoly,
    RationalLike,
    _exact_div,
)
from forbiddenq.families import norm_form
from forbiddenq.loops import (
    BudgetExceeded,
    LoopWitness,
    OutOfRange,
    SearchConfig,
    SearchResult,
    _checked,
    _positive,
    _weight,
    chain_length,
    verify_witness,
)

EXPLICIT_CUTOFF = 12


class CutoffExceeded(ValueError):
    """Subset enumeration refused: the sequence is longer than the cutoff."""


class ZeroDenominator(ValueError):
    """The closed-form denominator vanishes at this q."""


def horner_eval(p: IntPoly, x: RationalLike) -> Fraction:
    """Exact Horner evaluation of ``p`` at a rational point, in Fractions."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def parity_split(p: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Split ``p(x) = even(x**2) + x * odd(x**2)`` into its parity parts."""
    return IntPoly(p.coeffs[0::2]), IntPoly(p.coeffs[1::2])


def _derivative(p: IntPoly) -> IntPoly:
    """The derivative ``p'``."""
    return IntPoly([i * c for i, c in enumerate(p.coeffs)][1:])


def _pseudo_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """The remainder of ``a`` divided by ``b`` times a positive integer.

    Each step scales by ``|lead(b)|`` instead of ``lead(b)``, so the result
    keeps the sign of the true remainder, which a Sturm sequence needs.
    """
    r = list(a.coeffs)
    d = b.degree
    scale, sign = abs(b.leading), (1 if b.leading > 0 else -1)
    while len(r) > d:
        top, shift = r[-1] * sign, len(r) - 1 - d
        r = [c * scale for c in r]
        for i, c in enumerate(b.coeffs):
            r[shift + i] -= top * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return IntPoly(r)


def _sturm_sequence(p: IntPoly) -> list[IntPoly]:
    """p, p', then negated primitive pseudo-remainders down to degree <= 0.

    This is Euclid's remainder sequence of ``p`` and ``p'`` up to signs, so
    for ``deg p >= 1`` it ends in a non-zero constant exactly when ``p`` is
    square-free, and in the zero polynomial when ``p`` has a repeated root.
    """
    seq = [p, _derivative(p)]
    while seq[-1].degree > 0:
        seq.append(-_pseudo_remainder(seq[-2], seq[-1]).primitive())
    return seq


def _square_free(p: IntPoly, seq: list[IntPoly]) -> IntPoly:
    """Primitive quotient of ``p`` by gcd(p, p'), given ``seq = _sturm_sequence(p)``.

    The Sturm sequence is the remainder sequence of ``p`` and ``p'`` up to
    signs and positive factors, so gcd(p, p') is its last non-zero entry: the
    entry before a terminal zero, or a constant when ``p`` is square-free
    (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*).
    """
    g = (seq[-2] if seq[-1].is_zero else seq[-1]).primitive()
    return _exact_div(p, -g if g.leading < 0 else g).primitive()


def _sturm_point(seq: list[IntPoly], x: Fraction) -> tuple[int, int]:
    """(sign of ``seq[0]`` at x, sign variations of the sequence at x)."""
    signs = [q.sign_at(x) for q in seq]
    nonzero = [s for s in signs if s]
    return signs[0], sum(s != t for s, t in zip(nonzero, nonzero[1:]))


def real_roots(
    p: IntPoly, lo: RationalLike, hi: RationalLike
) -> list[Union[Fraction, AlgebraicNumber]]:
    """Every real root of ``p`` in the closed interval ``[lo, hi]``, increasing.

    Works on the square-free part of ``p``.  The Sturm sequence of
    ``p.primitive()`` is built directly; only when it ends in the zero
    polynomial (``p`` has a repeated root) is the square-free part taken, with
    gcd(p, p') read off that same sequence, and the Sturm sequence rebuilt from
    it.  For square-free ``p`` the two polynomials are equal.  By Sturm's
    theorem the number of roots in ``(a, b]`` is ``V(a) - V(b)``, where ``V``
    counts sign variations of the Sturm sequence; intervals are bisected until
    each holds exactly one root and has no root at either end.  A root that is
    an endpoint or a bisection midpoint is returned exactly as a ``Fraction``;
    every other root is an :class:`AlgebraicNumber` whose open interval lies
    inside ``(lo, hi)`` and holds no other root.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if p.is_zero:
        raise ValueError("the zero polynomial has no isolated roots")
    ps = p.primitive()
    seq = _sturm_sequence(ps)
    if seq[-1].is_zero:
        ps = _square_free(ps, seq)
        seq = _sturm_sequence(ps)
    at_lo = _sturm_point(seq, lo)
    out: list[Union[Fraction, AlgebraicNumber]] = [lo] if at_lo[0] == 0 else []
    todo = [(lo, at_lo, hi, _sturm_point(seq, hi))]
    while todo:
        a, at_a, b, at_b = todo.pop()
        count = at_a[1] - at_b[1] - (at_b[0] == 0)  # roots in the open (a, b)
        if count == 0 or (count == 1 and at_a[0] and at_b[0]):
            if count:
                out.append(AlgebraicNumber(ps, a, b))
            if at_b[0] == 0:
                out.append(b)
            continue
        mid = (a + b) / 2
        at_mid = _sturm_point(seq, mid)
        todo.append((mid, at_mid, b, at_b))
        todo.append((a, at_a, mid, at_mid))
    return out


def mobius_variations(p: IntPoly, lo: RationalLike, hi: RationalLike) -> int:
    """Sign variations of the coefficients of ``(1 + y)**d p((lo + hi y)/(1 + y))``.

    Expanded term by term in ``Fraction``, as the sum of
    ``c_i (lo + hi y)**i (1 + y)**(d - i)``, to check the integer transform
    of ``exact._variations``, which maps ``y`` to ``1/y`` and so lists the
    same coefficients in reverse order, scaled by ``D**d > 0``.
    """
    lo, hi, d = Fraction(lo), Fraction(hi), p.degree

    def times(u: list, v: list) -> list:
        out = [Fraction(0)] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                out[i + j] += a * b
        return out

    total = [Fraction(0)] * (d + 1)
    for i, c in enumerate(p.coeffs):
        term = [Fraction(c)]
        for _ in range(i):
            term = times(term, [lo, hi])
        for _ in range(d - i):
            term = times(term, [Fraction(1), Fraction(1)])
        total = [s + t for s, t in zip(total, term)]
    signs = [c > 0 for c in total if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def ratio_by_prefix_pairs(n: int) -> tuple[IntPoly, IntPoly]:
    """Numerator and denominator in q of the alternating path's last prefix value.

    Walks :func:`prefix_pairs` over IntPoly along (1, -1, ..., (-1)**n) with
    qn = q, qd = 1, then divides out the common power of q and the common
    integer content.
    """
    *_, pair = prefix_pairs([(-1) ** i for i in range(n + 1)], IntPoly([0, 1]), IntPoly([1]))
    low = min(next(i for i, c in enumerate(p.coeffs) if c) for p in pair)
    g = math.gcd(*(p.content() for p in pair))
    return tuple(IntPoly([c // g for c in p.coeffs[low:]]) for p in pair)


def f_poly(m: Sequence[int]) -> IntPoly:
    """Continuant polynomial of ``m`` via the recurrence.

    f_0 = 1, f_1 = m_0 * x, and f_{j+1} = m_j * x * f_j + f_{j-1}.  The
    result has degree len(m) with leading coefficient prod(m) whenever all
    entries are non-zero.
    """
    prev = IntPoly([1])
    if len(m) == 0:
        return prev
    x = IntPoly([0, 1])
    cur = IntPoly([0, m[0]])
    for mj in m[1:]:
        prev, cur = cur, int(mj) * (x * cur) + prev
    return cur


def f_explicit(m: Sequence[int], cutoff: int = EXPLICIT_CUTOFF) -> IntPoly:
    """Independent oracle for ``f_poly`` by direct subset enumeration.

    Sums prod(m_i for i in I) into the coefficient of x**|I| over every
    subset I of [0, len(m)) such that each i in I has i == |I \\cap [0, i)|
    (mod 2), keeping only |I| == len(m) (mod 2).  Exponential bookkeeping,
    so refuses sequences longer than ``cutoff``.
    """
    n = len(m)
    if n > cutoff:
        raise CutoffExceeded(f"sequence length {n} exceeds enumeration cutoff {cutoff}")
    coeffs = [0] * (n + 1)

    def walk(i: int, size: int, prod: int) -> None:
        if i == n:
            if size % 2 == n % 2:
                coeffs[size] += prod
            return
        walk(i + 1, size, prod)
        if i % 2 == size % 2:
            walk(i + 1, size + 1, prod * m[i])

    walk(0, 0, 1)
    return IntPoly(coeffs)


def eval_g_float(n: int, x: float) -> float:
    """Float value of ``g_poly(n)`` at ``x`` via the recurrence.

    Numerically backward-stable where monomial Horner on the stored
    coefficients loses precision (observed up to ~4e-6 residual at the
    extreme degree-30 roots, versus ~4e-13 for this scheme).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prev, cur = 1.0, x
    if n == 0:
        return prev
    for i in range(1, n):
        prev, cur = cur, ((-1) ** i) * x * cur + prev
    return cur


def norm_unit_pairs(limit: int) -> list[tuple[int, int]]:
    """All pairs 1 <= b < a <= limit with norm_form(a, b) = +-1, by brute scan.

    Independent confirmation that the solutions are exactly the Fibonacci
    pairs (F_{k+2}, F_k).
    """
    out = []
    for a in range(2, limit + 1):
        for b in range(1, a):
            if norm_form(a, b) in (-1, 1):
                out.append((a, b))
    return sorted(out)


def closed_form_c5(q: RationalLike, m: Sequence[int]) -> Fraction:
    """Closed-form final value of a length-5 sequence with m_0..m_3 non-zero.

    With q = a/b in lowest terms,

        c = m_4 + ((m_0 + m_2) b**2 + m_0 m_1 m_2 a b)
                / (b**2 + (m_0 m_1 + m_0 m_3 + m_2 m_3) a b + m_0 m_1 m_2 m_3 a**2).

    Both displayed polynomials are homogeneous of degree two in (a, b), so
    the value depends on q only.
    """
    q = _positive(q)
    m = tuple(m)
    if len(m) != 5:
        raise ValueError("closed form is specific to length-5 sequences")
    if not all(isinstance(x, int) for x in m):
        raise ValueError(f"entries must be integers, got {m}")
    m0, m1, m2, m3, m4 = m
    if 0 in (m0, m1, m2, m3):
        raise ValueError("m_0..m_3 must be non-zero")
    a, b = q.numerator, q.denominator
    den = b * b + (m0 * m1 + m0 * m3 + m2 * m3) * a * b + m0 * m1 * m2 * m3 * a * a
    if den == 0:
        raise ZeroDenominator(f"closed-form denominator vanishes at q={q}")
    num = (m0 + m2) * b * b + m0 * m1 * m2 * a * b
    return m4 + Fraction(num, den)


def brute_enumerate_loops(
    q: RationalLike, max_depth: int, coeff_bound: int
) -> list[LoopWitness]:
    """Every proper loop with length <= max_depth + 1 and |m_j| <= coeff_bound.

    Proper means all entries non-zero, plus the single zero loop (0).  Only
    sequences starting positive are walked; the rest follow by negating every
    entry, which negates all prefix values and preserves the weight.
    Exhaustive within bounds, so guarded hard: max_depth <= 8,
    coeff_bound <= 6.
    """
    q = _positive(q)
    if not 0 <= max_depth <= 8 or not 0 <= coeff_bound <= 6:
        raise BudgetExceeded(
            f"bounds (max_depth={max_depth}, coeff_bound={coeff_bound}) exceed "
            "the guard (8, 6)"
        )
    qn, qd = q.numerator, q.denominator
    max_len = max_depth + 1
    entries = [e for e in range(-coeff_bound, coeff_bound + 1) if e != 0]
    hits: list[tuple[tuple[int, ...], Fraction]] = [((0,), Fraction(1))]
    path: list[int] = []

    def dfs(cn: int, cd: int) -> None:
        # c = cn/cd is the last prefix value, unreduced as in prefix_pairs
        length = len(path)
        a = qn * cn
        b = qd * cd
        extend = length + 1 < max_len
        for mj in entries:
            num = mj * a + b
            if num == 0:
                hits.append((tuple(path) + (mj,), _weight(qn, qd, a, length)))
            elif extend:
                path.append(mj)
                dfs(num, a)
                path.pop()

    try:
        for m0 in range(1, coeff_bound + 1):
            path[:] = [m0]
            dfs(m0, 1)
    finally:
        # `dfs` calls itself through its closure cell; without this the cycle
        # keeps it, `hits` and `path` alive until a collection
        dfs = None

    out: list[tuple[tuple[int, ...], Fraction]] = []
    for loop, w2 in hits:
        out.append((loop, w2))
        if loop != (0,):
            out.append((tuple(-x for x in loop), w2))
    out.sort(key=lambda t: (len(t[0]), t[0]))

    witnesses = []
    for loop, w2 in out:
        w = LoopWitness(q=q, loop=loop, weight_squared=w2, provenance="search",
                        verified=False)
        witnesses.append(w._replace(verified=verify_witness(w)))
    return witnesses


class _Stop(Exception):
    """Ends :func:`reference_search`: ``witness`` is None for a budget stop."""

    def __init__(self, witness: Union[LoopWitness, None] = None):
        self.witness = witness


def reference_search(q: RationalLike, cfg: SearchConfig) -> SearchResult:
    """What ``search_nonunit_loop``'s docstring describes, the plain way.

    Every child is counted against the budget and settled in offset order
    (0, -1, +1, -2, ...) around round(-1/(q c)), halves to even, and an
    interior child is descended into at once, depth first.  A closing child
    with squared weight != 1 is a "search" witness.  In a pruned search
    (2 < q < 4) entry 0 is never offered, a root is cut when
    ``(m0 > 1) + C(q) > max_depth - 1``, and a child with |c| > 1 is cut once
    its parent's length reaches ``max_depth - 1 - C(q)``.  Every other child
    meets the one table ``seen``: each value's first path, its weight (the
    ``Fraction`` D**2 / (qn qd)**k of its unreduced ``prefix_pairs`` pair)
    and the shortest length it was expanded at, ``max_depth`` for a leaf.
    Another weight at the same value is a "duplicate-c" witness; a value
    already expanded at a length no greater than the child's is not
    expanded again.  No class table, gcd product, bulk count or linked cell:
    the fast search must give the same ``SearchResult`` by those means.
    """
    q = _positive(q)
    qn, qd = q.numerator, q.denominator
    prune = 2 < q < 4
    max_len, budget = cfg.max_depth, cfg.node_budget
    cq = chain_length(q, max_len) if prune else 0
    cut_from = max_len - 1 - cq if prune else max_len
    offsets = [0] + [s * d for d in range(1, min(cfg.window, budget) + 1) for s in (-1, 1)]
    seen: dict = {}
    nodes = 0

    def count() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _Stop

    def visit(path: tuple, num: int, den: int) -> None:
        # path has value c = num/den, its unreduced prefix_pairs pair
        c, w = Fraction(num, den), Fraction(den * den, (qn * qd) ** (len(path) - 1))
        prev = seen.get(c)
        if prev is None:
            seen[c] = [path, w, len(path)]
        elif prev[1] != w:
            raise _Stop(LoopWitness(
                q=q, loop=prev[0], weight_squared=prev[1], provenance="duplicate-c",
                verified=False, other_loop=path, other_weight_squared=w, c_value=c))
        elif prev[2] <= len(path):
            return
        else:
            prev[2] = len(path)
        if len(path) == max_len:
            return
        center = round(Fraction(-qd * den, qn * num))
        for off in offsets:
            mj = center + off
            if prune and mj == 0:
                continue
            count()
            child = (mj * qn * num + qd * den, qn * num)
            if child[0] == 0:
                w = Fraction(child[1] ** 2, (qn * qd) ** len(path))
                if w != 1:
                    raise _Stop(LoopWitness(q=q, loop=path + (mj,), weight_squared=w,
                                            provenance="search", verified=False))
            elif not (len(path) >= cut_from and abs(child[0]) > abs(child[1])):
                visit(path + (mj,), *child)

    witness, exhausted = None, False
    try:
        for m0 in range(1, cfg.window + 1):
            count()
            if not (prune and (m0 > 1) + cq > max_len - 1):
                visit((m0,), m0, 1)
    except _Stop as stop:
        witness, exhausted = stop.witness, stop.witness is None
    finally:
        # `visit` calls itself through its closure cell, as `dfs` above does
        visit = None
    if witness is not None:
        witness = witness._replace(verified=verify_witness(witness))
    return SearchResult(witness=witness, nodes=nodes, budget_exhausted=exhausted)


def check_chain_proposition(q: RationalLike, witnesses: Sequence[LoopWitness]) -> bool:
    """Check the alternating-chain necessary condition on a batch of loops.

    For each non-zero proper loop m = (m_0..m_k) at q in (2, 4), with l the
    smallest index such that |c_j| <= 1 for all l <= j <= k, require
    k >= l + C(q) and m_j = (-1)**j * eps on l <= j <= l + C(q) - 1 for some
    eps = +-1.  The zero loop (0) is outside the hypothesis and skipped.
    Inputs that are not proper loops at q are rejected.
    """
    q = Fraction(q)
    if not 2 < q < 4:
        raise OutOfRange(f"chain condition applies for 2 < q < 4, got {q}")
    cq = chain_length(q)
    for w in witnesses:
        loop = w.loop
        if loop == (0,):
            continue
        if 0 in loop:
            raise ValueError(f"{loop} is not a proper loop")
        _, loop = _checked(q, loop)
        last_violation = -1
        for j, (num, den) in enumerate(prefix_pairs(loop, q.numerator, q.denominator)):
            if den == 0:
                break
            if abs(num) > abs(den):  # |c_j| > 1
                last_violation = j
        if den == 0 or num != 0:
            raise ValueError(f"{loop} is not a loop at q={q}")
        k = len(loop) - 1
        ell = last_violation + 1
        if k < ell + cq:
            return False
        eps = loop[ell]
        if abs(eps) != 1:
            return False
        for j in range(ell, ell + cq):
            if loop[j] != eps * (-1) ** (j - ell):
                return False
    return True
