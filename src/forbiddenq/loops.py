"""Path evaluation, exact loop weights, and the bounded non-unit-weight search.

An integer sequence m = (m_0, ..., m_k) is evaluated against a rational
q > 0 by the prefix recurrence c_0 = m_0, c_j = m_j + 1/(q * c_{j-1}).  The
sequence is a *path* while no proper prefix value hits zero, and a *loop*
when the final value is exactly zero.  The squared weight of a path,

    w2(q, m) = q**k * prod_{j<k} c_j**2,

is rational for rational q, and a loop with w2 != 1 certifies that q is
forbidden (q cannot be the conductor of a degree-two function).  Everything
here is exact; floats appear only in reported approximations.  The recurrence
itself is :func:`forbiddenq.continuants.prefix_pairs`; the search inlines
a reduced copy of its step.
"""

from __future__ import annotations

import gc
import itertools
import math
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Sequence, Union

from .continuants import prefix_pairs, ratio_in_q
from .exact import AlgebraicNumber, RationalLike, _exact_div, _midpoint, ratio_float

STATUS_PATH = "path"
STATUS_LOOP = "loop"
STATUS_BROKEN = "broken"

# hard guard on SearchConfig.max_depth: the search recurses at most once per
# level, and not at all along a chain-cut state's one-child chain
MAX_SEARCH_DEPTH = 256

# hard guard on SearchConfig.node_budget: the search's table grows with the
# nodes it counts, by records of a size that does not grow with depth
MAX_NODE_BUDGET = 10**7

# hard guard on SearchConfig.window: the search builds 2*min(window, budget)+1
# offsets, and the first entries run up to the window
MAX_SEARCH_WINDOW = 10**6

# hard guard on the chain length `chain_length` walks to without a limit: the
# walk takes about pi/sqrt(4 - q) steps on integers that grow at each step
MAX_CHAIN_LENGTH = 2**14


class NonPositiveQ(ValueError):
    """q must be a positive rational."""


class BrokenPath(ValueError):
    """Weight requested for a sequence that is not a path at q."""


class DegenerateC(ValueError):
    """Shift values 0 and (-1)**(n+1) always give unit weight; refused."""


class OutOfRange(ValueError):
    """q is outside the interval where this operation is defined."""


class BudgetExceeded(RuntimeError):
    """Enumeration bounds exceed the hard explosion guard."""


class PathEval(NamedTuple):
    """Prefix values and classification of a sequence at a fixed q.

    ``prefix_c[j]`` is c(q, (m_0..m_j)) for every index that is defined.
    ``status`` is "path", "loop", or "broken"; in the broken case
    ``broken_at`` is the first length j whose evaluation divides by zero,
    i.e. ``prefix_c[j-1] == 0``.  ``weight_squared`` is the squared weight of
    a path or loop, taken from the final pair of the same walk, and None when
    the sequence is broken.
    """

    prefix_c: tuple[Fraction, ...]
    status: str
    broken_at: Optional[int] = None
    weight_squared: Optional[Fraction] = None


class FormulaWeight(NamedTuple):
    """Squared weight of a shifted alternating loop at an irrational q.

    Represents 1/|1 + c*q*(c + (-1)**n)|, which is irrational for algebraic
    q and therefore kept in formula form with a float approximation.  The
    order n and shift c are read off the loop it weighs, whose last entry is
    (-1)**n + c.  For every shift :func:`lemma_weight_squared` accepts it is
    below 1 at every q > 0, so only the loop and q > 0 need checking, not the
    weight.
    """

    approx: float


class LoopWitness(NamedTuple):
    """A certificate that some q is forbidden (or a candidate for one).

    For provenance "search", "pell" and "darboux" the certificate is a loop
    with non-unit squared weight.  Every producer builds its witness with
    ``verified = False`` and takes the flag from :func:`verify_witness`
    alone, which re-checks the loop and the weight from scratch, exactly:
    for algebraic q it also proves that the interval holds one root.  Loops
    of unit weight keep ``verified = False``: they are valid loops but
    certify nothing.

    Provenance "duplicate-c" certifies instead by exhibiting two paths with
    equal final value and different weights; the second path and its weight
    live in ``other_loop`` / ``other_weight_squared`` and the shared value
    in ``c_value``.
    """

    q: Union[Fraction, AlgebraicNumber]
    loop: tuple[int, ...]
    weight_squared: Union[Fraction, FormulaWeight]
    provenance: str
    verified: bool
    other_loop: Optional[tuple[int, ...]] = None
    other_weight_squared: Optional[Fraction] = None
    c_value: Optional[Fraction] = None


class _SearchBounds(NamedTuple):
    max_depth: int = 5
    window: int = 4
    node_budget: int = 200_000


class SearchConfig(_SearchBounds):
    """Bounds for :func:`search_nonunit_loop`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through here, so a replaced field is checked too
        return cls(*iterable)

    def _check(self):
        if self.max_depth < 1 or self.window < 1 or self.node_budget < 1:
            raise ValueError("max_depth, window and node_budget must be >= 1")
        if self.max_depth > MAX_SEARCH_DEPTH:
            raise ValueError(
                f"max_depth={self.max_depth} exceeds the guard {MAX_SEARCH_DEPTH}"
            )
        if self.node_budget > MAX_NODE_BUDGET:
            raise ValueError(
                f"node_budget={self.node_budget} exceeds the guard {MAX_NODE_BUDGET}"
            )
        if self.window > MAX_SEARCH_WINDOW:
            raise ValueError(f"window={self.window} exceeds the guard {MAX_SEARCH_WINDOW}")


class SearchResult(NamedTuple):
    witness: Optional[LoopWitness]
    nodes: int
    budget_exhausted: bool


def _positive(q: RationalLike) -> Fraction:
    """``q`` as a Fraction; NonPositiveQ unless it is positive."""
    q = Fraction(q)
    if q <= 0:
        raise NonPositiveQ(f"q must be positive, got {q}")
    return q


def _checked(q: RationalLike, m: Sequence[int]) -> tuple[Fraction, tuple[int, ...]]:
    """``q`` as a positive Fraction and ``m`` as a non-empty tuple of integers."""
    q = _positive(q)
    m = tuple(m)
    if not m or not all(isinstance(x, int) for x in m):
        raise ValueError(f"sequence must be non-empty and of integers, got {m}")
    return q, m


def evaluate_path(q: RationalLike, m: Sequence[int]) -> PathEval:
    """Exact prefix values, classification and weight of ``m`` at q, in one walk."""
    q, m = _checked(q, m)
    qn, qd = q.numerator, q.denominator
    prefix = []
    for j, (num, den) in enumerate(prefix_pairs(m, qn, qd)):
        if den == 0:
            return PathEval(tuple(prefix), STATUS_BROKEN, broken_at=j)
        prefix.append(Fraction(num, den))
    return PathEval(tuple(prefix), STATUS_LOOP if num == 0 else STATUS_PATH,
                    weight_squared=_weight(qn, qd, den, len(m) - 1))


def _final_pair(q: Fraction, m: Sequence[int]) -> Optional[tuple[int, int]]:
    """The last pair (N_k, D_k) of ``m`` at q, or None when ``m`` is broken."""
    for num, den in prefix_pairs(m, q.numerator, q.denominator):
        if den == 0:
            return None
    return num, den


def weight_squared(q: RationalLike, m: Sequence[int]) -> Fraction:
    """Exact squared weight q**k * prod_{j<k} c_j**2 of a path or loop."""
    q, m = _checked(q, m)
    pair = _final_pair(q, m)
    if pair is None:
        raise BrokenPath(f"{m} is not a path at q={q}")
    return _weight(q.numerator, q.denominator, pair[1], len(m) - 1)


def _weight(qn: int, qd: int, den: int, k: int) -> Fraction:
    """Squared weight D_k**2 / (qn*qd)**k of a length-(k+1) path at qn/qd."""
    return Fraction(den * den, (qn * qd) ** k)


def _check_order_and_shift(n: int, c: int) -> None:
    """Refuse an order ``n`` or shift ``c`` that is not an int, or ``n < 1``."""
    if not isinstance(n, int) or not isinstance(c, int):
        raise ValueError(f"n and c must be integers, got n={n!r}, c={c!r}")
    if n < 1:
        raise ValueError("n must be >= 1")


def lemma_weight_squared(n: int, c: int, q: RationalLike) -> Fraction:
    """Squared weight 1/|1 + c q (c + (-1)**n)| of a shifted alternating loop.

    Applies to loops (1, -1, ..., (-1)**(n-1), (-1)**n + c).  The shifts
    c = 0 and c = (-1)**(n+1) are refused: those loops always have unit
    weight.  For every other integer shift, c and c + (-1)**n are
    consecutive non-zero integers, so c*(c + (-1)**n) >= 2 and the value is
    < 1 at every q > 0.  A non-integer ``n`` or ``c`` is refused, not
    truncated.  With q = a/b the value is b / (b + c (c + (-1)**n) a), whose
    denominator is at least b + 2a > 0.
    """
    _check_order_and_shift(n, c)
    q = _positive(q)
    a, b = q.numerator, q.denominator
    return Fraction(b, b + _shift_product(n, c) * a)


def lemma_weight_approx(n: int, c: int, lo: RationalLike, hi: RationalLike) -> float:
    """``float(lemma_weight_squared(n, c, (lo + hi) / 2))``, in one integer division.

    With the midpoint unreduced, a/b over ``2 lo.den hi.den``, the weight
    b / (b + c (c + (-1)**n) a) is the lemma's value with both terms scaled
    by gcd(a, b), so its correctly rounded float
    (:func:`forbiddenq.exact.ratio_float`) is the same, with no fraction
    formed or reduced.  The same order, shift and positivity are refused.
    """
    _check_order_and_shift(n, c)
    a, b = _midpoint(lo, hi)
    if a <= 0:
        raise NonPositiveQ(f"q must be positive, got {Fraction(a, b)}")
    return ratio_float(b, b + _shift_product(n, c) * a)


def _shift_product(n: int, c: int) -> int:
    """c (c + (-1)**n), at least 2; DegenerateC for the unit-weight shifts 0, (-1)**(n+1)."""
    sign = (-1) ** n
    if c == 0 or c == -sign:
        raise DegenerateC(f"shift c={c} is a unit-weight case for n={n}")
    return c * (c + sign)


def shifted_alternating_loop(n: int, c: int) -> tuple[int, ...]:
    """The sequence (1, -1, ..., (-1)**(n-1), (-1)**n + c)."""
    _check_order_and_shift(n, c)
    return tuple((-1) ** i for i in range(n)) + ((-1) ** n + c,)


def chain_length(q: RationalLike, limit: Optional[int] = None) -> int:
    """Largest n with x_n >= 1/q for x_1 = 1, x_{j+1} = 1 - 1/(q x_j).

    Defined for 0 < q < 4, where the map has no positive fixed point and the
    sequence reaches 0 in finitely many steps.  While x_1..x_j >= 1/q, the
    prefix values of the alternating path (1, -1, 1, ...) are
    c_j = (-1)**j x_{j+1}, so the walk stops at the first pair with
    |N| qn < |D| qd.  Non-zero proper loops at q in (2, 4) must carry this
    many consecutive alternating +-1 entries.  With ``limit`` the walk stops
    there: the result is min(n, limit).  Without it, a walk that passes
    ``MAX_CHAIN_LENGTH`` raises :class:`BudgetExceeded` (n grows without
    bound as q nears 4).
    """
    q = Fraction(q)
    if q <= 0 or q >= 4:
        raise OutOfRange(f"chain length is defined for 0 < q < 4, got {q}")
    qn, qd = q.numerator, q.denominator
    for j, (num, den) in enumerate(prefix_pairs(itertools.cycle((1, -1)), qn, qd)):
        if j == limit or abs(num) * qn < abs(den) * qd:
            return j
        if limit is None and j == MAX_CHAIN_LENGTH:
            raise BudgetExceeded(f"chain length exceeds the guard {MAX_CHAIN_LENGTH}")


class _BudgetHit(Exception):
    pass


class _Found(Exception):
    def __init__(self, witness: LoopWitness):
        self.witness = witness


def _entries(cell: tuple) -> tuple[int, ...]:
    """The entries, root first, of a search path held as cells (parent, entry)."""
    out = []
    while cell:
        cell, m = cell
        out.append(m)
    out.reverse()
    return tuple(out)


def search_nonunit_loop(q: RationalLike, cfg: Optional[SearchConfig] = None) -> SearchResult:
    """Bounded depth-first search for a certificate that q is forbidden.

    States are exact prefix values c; edges append an integer m taken from a
    window of half-width ``cfg.window`` around round(-1/(q c)), the choice
    that steers the next value toward zero.  Two certificates can surface:

    * a loop (final value 0) with squared weight != 1, provenance "search";
    * two paths meeting at one c-value with different squared weights,
      provenance "duplicate-c" (unit weight on all loops would force the
      weight to be a function of the final value, so this also certifies).

    First entries are searched positive only; negating a sequence preserves
    weights.  For 2 < q < 4 the walk is always restricted to non-zero
    entries and branches too shallow to fit the required alternating chain
    of length chain_length(q) are cut; this is sound for proper loops, which
    the alternating-chain condition covers.  The window heuristic is
    incomplete: an empty result is not a proof that every loop at q has unit
    weight.  Every surfaced witness is re-verified from scratch by
    :func:`verify_witness` before being returned.

    A node is a child (or a first entry) counted against ``cfg.node_budget``.
    The parent settles each counted child itself: a closing loop is tested,
    a chain cut drops the child, and a child at the maximal length only has
    its value looked up among the c-values seen so far.  Only the remaining
    interior children are descended into.  A parent reduces its step once,
    after which every child's value is in lowest terms, and only the centre
    child can close a loop.  Under a chain cut a parent keeps two children,
    known from the centre child's numerator r0 alone: the centre and the side
    child toward zero, or for a = 1 both sides of the closing centre.  It
    settles them directly and counts the others, all with |c| > 1, in offset
    order without forming them.

    One closure, ``walk``, expands every state in one loop: the ``seen``
    step, the reduced step and the closing test exist once, and the state
    then branches on its length.  An interior state (length < cut_from)
    walks each kept child by a call, or hands its children to ``settle``,
    and returns.  A chain-cut state (length >= cut_from, pruned searches
    only) keeps at most two children, nearly always one: the last kept child
    continues in the loop, and the first of two is walked by a call of its
    own, so the calls nest at most once per level.  The counts that follow
    the last kept child's subtree (the cut children, and the -1 child when
    the side child is 0) have nothing but returns after them, so they wait
    in a running total that is added, with the same budget stop, when the
    chain ends at a leaf parent or a skipped repeat: node counts, budget
    stops and the nodes a certificate reports are those of counting each
    child in turn.

    No weight is reduced: a path of k + 1 entries to the reduced value cn/cd
    has the prefix_pairs pair +-G (cn, cd), G the product of the gcds its
    steps divided out, so its squared weight is (cd G)**2 / P**k with
    P = qn qd; two paths to one value, k1 <= k2, have one weight iff
    G2 = G1 sqrt(P**(k2 - k1)).  One table ``seen`` maps each c-value to its
    first path, its G and k, and its shortest expanded length (the maximal
    length for a leaf): a different weight ends the walk as a duplicate-c
    pair, so the weight is fixed by c, and a state is skipped when its c was
    expanded at a length no greater than its own.  The leaf children
    of a parent share one record, and so do the leaf parents of one parent in
    an unpruned search: (G, k, the parent's path, expanded length, the
    parent's reduced b).  A child with value num/a has the entry
    (num - b) // a, and its own path is rebuilt only for a certificate.
    A path is held as a linked cell (parent's cell, last entry), () for the
    empty path, so a state extends its parent's path and a record holds it
    at a cost that does not grow with the length; the tuple of entries is
    built only for a certificate, a closing loop or both paths of a
    duplicate-c pair.

    Outside (2, 4) a leaf parent's record is stored once per leaf class, not
    once per leaf.  A leaf parent with a >= 3 has the leaves (r0 + t a)/a for
    |t| <= reach, where r0 = center a + b is the centred residue of b mod a,
    unique and non-zero since gcd(a, b) = 1; so (a, r0) fixes the set, and a
    second table ``classes`` maps it to the record of its first leaf parent.
    A value is looked up in ``seen`` first, then in its class.  Each child of
    an interior parent has cd = a and the centred residue r0, so the parent
    looks its class up once for all of them: on a hit a child new to ``seen``
    compares weights with the class record and is stored with its G, k, path
    and b, as a registered leaf would be; a miss puts a in the set ``mixed``.
    A leaf parent is not expanded by ``walk``: ``settle`` settles it in its
    parent's child loop, for the children of a parent at length max_k - 1 and
    for the roots when max_depth = 2 (the children of the empty path, with
    a = 1 and b = 0).  It takes one ``seen`` step against the shared record
    (or the class record its parent found), its own reduced step and one
    ``classes.setdefault``.  Every leaf has k = max_k and a class's values
    share one weight, so a leaf parent meeting an existing class compares one
    G: a mismatch ends the walk at the centre child, whose first path is its
    own in ``seen`` or else the class's.  Otherwise (a new class, or the same
    G) its leaves are counted in one step, as chain-cut children are, the
    budget stop included.  ``leaves`` registers them one by one instead for
    a <= 2, where the centre child can close a loop (a = 1) or a value lies in
    two classes (a = 2, r0 = +-1), and for a new class (a, r0) with a in
    ``mixed``; in pruned searches every leaf parent is chain-cut, and
    ``walk`` looks its two kept children up as the chain ends, so it expands
    no leaf parent as an interior state.  A value of a new class in ``seen``
    has the denominator a and entered as the child of an interior parent
    that found the class missing, so every such class is among them.
    A class that first appears in an earlier sibling's subtree thus has its
    leaves registered one by one, and a later sibling meets its value in
    ``seen`` with the comparison the class would give.  A parent none of whose
    children is new marks a for nothing, which only sends some classes the
    slow way: node counts, budget stops and the pair a certificate reports
    are those of registering each leaf in turn.

    ``walk`` calls itself through its closure cell, so it forms a reference
    cycle with its closure and cell; ``settle``, ``leaves``, ``meet`` and
    ``duplicate`` call no closure that refers back to them, and form none.
    The ``finally`` block breaks that cycle on every exit (a return, a
    budget stop, a certificate or an error) and clears the tables, which
    are bounded by ``cfg.node_budget`` (at most ``MAX_NODE_BUDGET``), so
    nothing is left for the cyclic garbage collector.  The walk runs with
    that collector paused; the caller's collector state is restored on
    every exit.
    """
    q = _positive(q)
    if cfg is None:
        cfg = SearchConfig()
    if cfg.max_depth < 2:
        # every root m0 >= 1 is a new c-value of weight 1: nothing closes or meets
        nodes = min(cfg.window, cfg.node_budget + 1)
        return SearchResult(witness=None, nodes=nodes, budget_exhausted=nodes > cfg.node_budget)
    qn, qd = q.numerator, q.denominator
    prune = 2 < q < 4
    max_len = cfg.max_depth
    max_k = max_len - 1
    # every test below is `x + cq > max_k` with x >= 0, so cq capped at max_len
    # decides each as the exact C(q) would
    cq = chain_length(q, max_len) if prune else 0
    # a parent at length >= cut_from, where length + 1 + cq > max_k, is chain-cut
    cut_from = max_k - cq if prune else max_len
    budget = cfg.node_budget

    # a parent counts at most `budget` children, so a wider window adds none
    offsets = [0]
    for d in range(1, min(cfg.window, budget) + 1):
        offsets.append(-d)
        offsets.append(d)
    # the number of offsets beyond 0 and +-1, and the reach of them all
    far, reach = len(offsets) - 3, len(offsets) // 2
    width = len(offsets)
    # entry 0, at offset -center, has 2 <= |off| <= reach iff center**2 is here
    zero_far = range(4, reach * reach + 1)

    # c-value -> (G, k, path cell, expanded length, b): by the prefix_pairs
    # telescoping the path's weight is (cd G)**2 / P**k; b is None for a path of
    # its own, and the parent's reduced b in the record it shares with its leaf
    # children, whose path cell is the parent's
    seen: dict[tuple[int, int], tuple[int, int, tuple, int, Optional[int]]] = {}
    # leaf class (a, r0) -> the record its first parent shares with its leaf
    # children (unpruned searches only); and the a of every interior parent
    # that found its class (a, r0) missing, whose children `seen` may hold
    classes: dict[tuple[int, int], tuple[int, int, tuple, int, Optional[int]]] = {}
    mixed: set[int] = set()
    seen_at = seen.setdefault
    class_at = classes.setdefault
    # the sign-normalised step takes -qn and -qd for a negative value
    nqn, nqd = -qn, -qd
    nodes = 0
    # rt[d] = sqrt(P**d) where that is an integer, else 0, up to the largest k < budget
    P = qn * qd
    rt = [1, math.isqrt(P) if math.isqrt(P) ** 2 == P else 0]
    while len(rt) < min(max_len, budget):
        rt.append(rt[-2] * P)

    def duplicate(prev, second: tuple, cn, cd, G, k) -> _Found:
        # second is the other path's cell; a child's own entry, in a shared record,
        # is (num - b) // a, exactly: its key is (m a + b, a)
        first = prev[2] if prev[4] is None else (prev[2], (cn - prev[4]) // cd)
        return _Found(LoopWitness(
            q=q, loop=_entries(first), weight_squared=Fraction((cd * prev[0]) ** 2, P ** prev[1]),
            provenance="duplicate-c", verified=False, other_loop=_entries(second),
            other_weight_squared=Fraction((cd * G) ** 2, P ** k), c_value=Fraction(cn, cd)))

    def meet(here: tuple, mj: int, num: int, a: int, G: int, k: int) -> None:
        # the leaf (here, mj), of value num/a, meets a value `seen` holds, at a k
        # no greater than its own: a different weight ends the walk.  A leaf
        # looks itself up inline and calls this only on a hit, as a call per
        # leaf costs measurable time
        prev = seen[num, a]
        if prev[0] * rt[k - prev[1]] != G:
            raise duplicate(prev, (here, mj), num, a, G, k)

    def walk(here: tuple, cn: int, cd: int, G: int, length: int,
             cls: Optional[tuple]) -> None:
        # an expanded state, whose path cell here holds length <= max_k entries, and
        # in a pruned search the chain below it: a chain-cut state's last kept child
        # continues in the loop, and the counts that follow it wait in `pending`
        # until the chain ends.  cls is the record of the leaf class an interior
        # parent found, or None: a value new to `seen` enters as that record and
        # is met as the class holds it
        nonlocal nodes
        pending = 0
        while True:
            rec = (G, length - 1, here, length, None)
            prev = seen_at((cn, cd), cls or rec)
            if prev is not rec:
                d = length - 1 - prev[1]
                if prev[0] * rt[d] != G if d >= 0 else G * rt[-d] != prev[0]:
                    raise duplicate(prev, here, cn, cd, G, length - 1)
                if prev[3] <= length:
                    break
                seen[cn, cd] = (prev[0], prev[1], prev[2], length, prev[4])
            # the step of continuants.prefix_pairs, inlined; verify_witness re-checks
            # every witness.  The child value is (m a + b)/a with a = qn cn, b = qd cd,
            # signed so that a > 0 and reduced once: gcd(m a + b, a) = gcd(b, a) = 1,
            # so every child's value is already in lowest terms, and its G is G g
            if cn < 0:
                a, b = nqn * cn, nqd * cd
            else:
                a, b = qn * cn, qd * cd
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
                G *= g
            # round(-b/a), halves to even: the floor rounds a half up, and -b/a is a
            # half only if a divides 2b but not b, so a = 2 since gcd(a, b) = 1.  The
            # centre child's numerator r0 = center a + b has |r0| <= a/2, and it is 0
            # only for a = 1: a child at offset off has |num| >= (|off| - 1/2) a, so
            # only the centre can close, and every child with |off| >= 2 has |c| > 1
            center = (a - 2 * b) // (2 * a)
            if a > 2:
                r0 = center * a + b
            elif a == 2:
                if center & 1:
                    center -= 1
                r0 = 2 * center + b
            else:
                # r0 = 0: the centre child, whose entry -b is not 0, closes a loop
                r0 = 0
                nodes += 1
                if nodes > budget:
                    raise _BudgetHit
                if G != rt[length]:
                    raise _Found(LoopWitness(
                        q=q, loop=_entries((here, center)), provenance="search",
                        verified=False, weight_squared=Fraction(G ** 2, P ** length)))
            if length < cut_from:
                # an interior state: every child but a closing centre is kept, and
                # walked by a call.  Its children (r0 + t a)/a lie in the leaf class
                # (a, r0) when a > 2; a class still missing marks a for the leaf
                # parents that may create it later
                if prune or a < 3:
                    cls = None
                else:
                    cls = classes.get((a, r0))
                    if cls is None:
                        mixed.add(a)
                offs = offsets[1:] if a == 1 else offsets
                if length == max_k - 1:
                    # only unpruned: a pruned parent at this length is chain-cut
                    settle(here, a, b, G, center, offs, cls)
                    return
                for off in offs:
                    mj = center + off
                    if mj == 0 and prune:
                        continue
                    nodes += 1
                    if nodes > budget:
                        raise _BudgetHit
                    walk((here, mj), mj * a + b, a, G, length + 1, cls)
                return
            # a chain-cut state: a child with |c| > 1 moves the last violation to
            # index `length`, and the chain cut drops it.  Two children are kept: for
            # a = 1 the sides -1 and +1, with c = -+1; otherwise the centre and, since
            # |r0 - a| <= a iff r0 > 0, the side toward zero.  The other side is
            # counted in offset order: -1 between the two, +1 with the far children
            if r0 > 0:
                mj, side, between = center, center - 1, False
                cut = far + (center != -1)
            elif r0:
                mj, side, between = center, center + 1, center != 1
                cut = far
            else:
                mj, side, between = center - 1, center + 1, False
                cut = far
            # the chain-cut children at |off| >= 2, and at +1 when r0 > 0, counted in
            # one step; the skipped entry 0 is among them when 2 <= |center| <= reach
            pending += cut - (center * center in zero_far)
            if length < max_k:
                if side:
                    if mj:
                        nodes += 1
                        if nodes > budget:
                            raise _BudgetHit
                        walk((here, mj), mj * a + b, a, G, length + 1, None)
                    if between:
                        nodes += 1
                        if nodes > budget:
                            raise _BudgetHit
                    mj = side
                elif between:
                    pending += 1
                nodes += 1
                if nodes > budget:
                    raise _BudgetHit
                here = (here, mj)
                cn, cd = mj * a + b, a
                length += 1
                continue
            # a leaf parent: its kept children are only looked up, in one record
            # they share, and the chain ends
            rec = (G, length, here, max_len, b)
            if mj:
                nodes += 1
                if nodes > budget:
                    raise _BudgetHit
                num = mj * a + b
                if seen_at((num, a), rec) is not rec:
                    meet(here, mj, num, a, G, length)
            if between:
                nodes += 1
                if nodes > budget:
                    raise _BudgetHit
            if side:
                nodes += 1
                if nodes > budget:
                    raise _BudgetHit
                num = side * a + b
                if seen_at((num, a), rec) is not rec:
                    meet(here, side, num, a, G, length)
            break
        nodes += pending
        if nodes > budget:
            nodes = budget + 1
            raise _BudgetHit

    def settle(here: tuple, a: int, b: int, G: int, center: int,
               offs: Sequence[int], cls: Optional[tuple]) -> None:
        # the children (center + off)/a of an unpruned parent, of path cell here at
        # length max_k - 1, or the roots for here = () and max_k = 1, are leaf
        # parents, settled in this loop without a `walk` each.  New to `seen`, a
        # child enters as cls or as one record shared by all of them, the form of a
        # leaf record: a child of value num/a has the entry (num - b) // a.  cls is
        # None unless q = 1/d: for a prime p of qn, of exponent e, v_p(1/(q c)) =
        # -e - v_p(c), so v_p(c_j) < 0 exactly at odd j, and p divides the
        # denominator a of these children (index max_k - 1) or that of a leaf
        # (index max_k), never both, so no leaf class (a, r0) can hold them
        nonlocal nodes
        k = max_k - 1
        shared = (G, k, here, max_k, b)
        entry = cls or shared
        qda = qd * a
        nqda = nqd * a
        for off in offs:
            mj = center + off
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            num = mj * a + b
            prev = seen_at((num, a), entry)
            if prev is not shared:
                d = k - prev[1]
                if prev[0] * rt[d] != G if d >= 0 else G * rt[-d] != prev[0]:
                    raise duplicate(prev, (here, mj), num, a, G, k)
                if prev[3] <= max_k:
                    continue
                seen[num, a] = (prev[0], prev[1], prev[2], max_k, prev[4])
            # the child's step, as in walk: its children are the leaves
            # (ca mj' + cb)/ca, of weight (ca cG)**2 / P**max_k
            if num < 0:
                ca, cb = nqn * num, nqda
            else:
                ca, cb = qn * num, qda
            g = gcd(ca, cb)
            if g == 1:
                cG = G
            else:
                ca //= g
                cb //= g
                cG = G * g
            path = (here, mj)
            rec = (cG, max_k, path, max_len, cb)
            if ca > 2:
                # the leaves are the values (r0 + t ca)/ca, |t| <= reach, none zero:
                # r0 is cb's centred residue, unique for ca > 2, as gcd(ca, cb) = 1
                # rules out r0 = +-ca/2; so r0 = cc ca + cb for the centre entry cc
                h = ca >> 1
                r0 = (cb + h) % ca - h
                prev = class_at((ca, r0), rec)
                if prev is not rec:
                    if prev[0] != cG and nodes < budget:
                        # every value of an existing class has its weight, and every
                        # leaf has k = max_k: only the centre leaf can be a mismatch
                        nodes += 1
                        raise duplicate(seen.get((r0, ca)) or prev,
                                        (path, (r0 - cb) // ca), r0, ca, cG, max_k)
                elif ca in mixed:
                    # a new class whose values `seen` may hold
                    leaves(path, ca, cb, cG, (r0 - cb) // ca, rec)
                    continue
                nodes += width
                if nodes > budget:
                    nodes = budget + 1
                    raise _BudgetHit
                continue
            # round(-cb/ca), halves to even, as in walk
            cc = (ca - 2 * cb) // (2 * ca)
            if ca == 2 and cc & 1:
                cc -= 1
            leaves(path, ca, cb, cG, cc, rec)

    def leaves(here: tuple, a: int, b: int, G: int, center: int, rec: tuple) -> None:
        # the leaves (center + off)/a of the unpruned leaf parent of path cell
        # here, registered one by one: for a = 1, whose centre closes a loop,
        # a = 2, where a value lies in two classes, and a new class (a, r0) with
        # a in `mixed`
        nonlocal nodes
        if a == 1:
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            if G != rt[max_k]:
                raise _Found(LoopWitness(
                    q=q, loop=_entries((here, center)), provenance="search",
                    verified=False, weight_squared=Fraction(G ** 2, P ** max_k)))
        for off in offsets[1:] if a == 1 else offsets:
            mj = center + off
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            num = mj * a + b
            if seen_at((num, a), rec) is not rec:
                meet(here, mj, num, a, G, max_k)

    witness = None
    exhausted = False
    # the walk allocates only objects that reference counting frees, so the
    # cyclic collector, which would scan the growing table again and again,
    # is paused for it
    collecting = gc.isenabled()
    gc.disable()
    try:
        if max_k == 1 and not prune:
            # the roots m0/1 are leaf parents, the children of () with a = 1, b = 0
            settle((), 1, 0, 1, 0, range(1, cfg.window + 1), None)
        else:
            for m0 in range(1, cfg.window + 1):
                nodes += 1
                if nodes > budget:
                    raise _BudgetHit
                # a root with |m0| > 1 is a chain violation at index 0
                if prune and (m0 > 1) + cq > max_k:
                    continue
                walk(((), m0), m0, 1, 1, 1, None)
    except _BudgetHit:
        exhausted = True
    except _Found as hit:
        witness = hit.witness._replace(verified=verify_witness(hit.witness))
    finally:
        # `walk` calls itself through its closure cell, a cycle that would keep it
        # and the tables alive until a collection (the other closures form none):
        # free the tables and break the cycle before the collector may run again
        seen.clear()
        classes.clear()
        mixed.clear()
        walk = None
        if collecting:
            gc.enable()
    if witness is not None and not witness.verified:
        raise ArithmeticError(
            f"internal verification failure for {witness.loop} at q={q}"
        )
    return SearchResult(witness=witness, nodes=nodes, budget_exhausted=exhausted)


def verify_witness(w: LoopWitness) -> bool:
    """Re-verify a witness from scratch; the only source of ``verified``.

    Rational q: the loop must evaluate to status loop with exactly the stored
    squared weight, different from 1; a duplicate-c pair instead needs two
    paths ending at the stored non-zero ``c_value`` with exactly their stored,
    different weights.  Each path is evaluated once.

    Algebraic q, a root of ``defining`` in (lo, hi): the loop must be a
    shifted alternating loop of integers, of order n = len(loop) - 1 >= 1
    and shift c = loop[-1] - (-1)**n, and lo must be positive.  Two exact
    checks, at any interval width, and the lemma then prove that (lo, hi)
    holds one root of ``defining`` and that the loop closes there.

    * Closing: ``defining.primitive()`` divides num + c*den, with
      (num, den) = :func:`forbiddenq.continuants.ratio_in_q` (n), the level
      polynomial :func:`forbiddenq.families.darboux_witnesses` solves.  The
      alternating path's final value is c_n = num/den, so the loop's is
      c_n + c, and num + c*den = den (c_n + c).
    * No proper prefix vanishes: the integer :func:`prefix_pairs` walks of
      the loop less its last entry, at lo and at hi, give each N_j the same
      sign at both ends.  The two walks run side by side in one loop, which
      stops at the first N_j whose signs differ.  By the monotonicity lemma
      in ``darboux_witnesses`` each prefix value c_j with j >= 1 is strictly
      monotone wherever it is defined, and N_j has the sign of c_0 ... c_j.
      N_0 = 1; while N_0 .. N_{j-1} have no zero on [lo, hi], c_j is
      continuous and strictly monotone there, so it cannot vanish at both
      ends, and a sign it has at both ends it has throughout.  So no N_j
      vanishes on [lo, hi].
    * One root, by the lemma rather than a root count: c_n is then finite,
      continuous and strictly monotone on [lo, hi], so den, coprime to num,
      does not vanish there, and num + c*den, and with it its divisor
      ``defining``, has at most one root there, where the loop closes.  The
      sign change the :class:`AlgebraicNumber` constructor checks makes it
      exactly one.

    The weight's ``approx`` must equal exactly the float of the weight at
    the interval midpoint (:func:`lemma_weight_approx`); a NaN or infinite
    ``approx`` is refused, not raised on.  It is checked first, then the
    divisibility, and the prefix walks, quadratic in n, run last: an n
    beyond the guard on :func:`forbiddenq.continuants.g_poly` is refused
    before them.  The weight needs no enclosure: by
    :func:`lemma_weight_squared` it is below 1 at every q > 0 for every
    shift the lemma accepts.
    """
    if isinstance(w.q, Fraction):
        if w.provenance == "duplicate-c":
            # `not w.c_value`: a missing or zero value, so two loops, not paths
            if (w.other_loop is None or not w.c_value
                    or w.weight_squared == w.other_weight_squared):
                return False
            checks = ((w.loop, w.weight_squared, w.c_value),
                      (w.other_loop, w.other_weight_squared, w.c_value))
        else:
            if w.weight_squared == 1:
                return False
            checks = ((w.loop, w.weight_squared, 0),)
        for path, w2, end in checks:
            if not isinstance(w2, Fraction):
                return False
            try:
                q, path = _checked(w.q, path)
            except ValueError:
                return False
            pair = _final_pair(q, path)
            if (pair is None or pair[0] * end.denominator != end.numerator * pair[1]
                    or _weight(q.numerator, q.denominator, pair[1], len(path) - 1) != w2):
                return False
        return True

    if w.provenance == "duplicate-c" or not isinstance(w.weight_squared, FormulaWeight):
        return False
    alg, loop = w.q, w.loop
    n = len(loop) - 1
    if alg.lo <= 0 or n < 1 or not all(isinstance(x, int) for x in loop):
        return False
    c = loop[-1] - (-1) ** n
    if loop != shifted_alternating_loop(n, c):
        return False
    lo, hi = alg.lo, alg.hi
    try:
        # ValueError: a unit-weight shift, an n beyond the guard on g_poly,
        # or ``defining`` not dividing the level polynomial
        if w.weight_squared.approx != lemma_weight_approx(n, c, lo, hi):
            return False
        num, den = ratio_in_q(n)
        _exact_div(num + c * den, alg.defining.primitive())
    except ValueError:
        return False
    walks = zip(prefix_pairs(loop[:-1], lo.numerator, lo.denominator),
                prefix_pairs(loop[:-1], hi.numerator, hi.denominator))
    for (x, _), (y, _) in walks:
        if (x > 0) - (x < 0) != (y > 0) - (y < 0):
            return False
    return True
