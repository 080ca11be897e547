"""Certified generators of forbidden conductor values.

Two constructions emit verified non-unit-weight loops:

* integer points on the conic b**2 - 3ab + a**2 = +-1 (consecutive-index
  Fibonacci pairs, i.e. units of a real quadratic ring) give rational values
  q = a/b accumulating at (3 +- sqrt(5))/2, each with the length-5 loop
  (1, -1, 1, -1, -(2b**2 - ab)/(b**2 - 3ab + a**2)) of squared weight 1/b**4;

* integer-level crossings of the continuant ratio just above each point of
  ``u_set(n)`` give values accumulating at that point from the right, each
  with the loop (1, -1, ..., (-1)**(n-1), (-1)**n * (c_k + 1)), emitted
  exactly when the level polynomial has a rational root in the admissible
  interval and as certified algebraic numbers otherwise.

Their sign is (-1)**(n+1) by the lemma in :func:`darboux_witnesses`: with
x_1 = 1 and x_{j+1} = 1 - 1/(q x_j), so that c_j = (-1)**j x_{j+1}, every
x_j with j >= 2 increases in q wherever it is defined, so with t1 at a Farey
neighbour below the next pole, level c crosses once in (t0, t1) exactly when
c > (-1)**(n+1) * c_n(t1), at the one sign change on [t0.lo, t1].

A float-only enumerator of the classical dense family (4/n) cos(pi l/(2k+1))**2
rounds out the module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

from .exact import AlgebraicNumber, IntPoly, isolate_root
from .continuants import ratio_in_q, u_point
from .loops import (
    FormulaWeight,
    LoopWitness,
    lemma_weight_approx,
    lemma_weight_squared,
    shifted_alternating_loop,
    verify_witness,
)


# hard guards on the size of each family, checked before any work; measured
# as `forbiddenq` commands, peak RSS of the process with its output: `pell
# --count 5000` peaks at 149 MB (from count 5144 on, a weight 1/b**4 has
# more digits than the default int-to-str limit and cannot print), `darboux
# --u-index 1 --count 5000` at 73 MB for n = 4 and 139 MB for n = 40, and
# `cos2` at 2*10**6 terms at 107-127 MB; the Darboux guard shrinks with n
# beyond 40 (:func:`_most_levels`)
MAX_PELL_COUNT = 5000
MAX_DARBOUX_COUNT = 5000
MAX_COS2_TERMS = 2 * 10**6


def _most_levels(n: int) -> int:
    """The guard on the Darboux ``count`` at order ``n``.

    A level's memory grows with n: the peak RSS of `darboux --u-index 1`
    rises by about 11.5, 24.7, 105, 252 and 960 KB per level at n = 4, 40,
    200, 400 and 1000, which n**2 + 670 n + 15000 follows within 3% from
    n = 40 on.  So up to n = 40 the guard is ``MAX_DARBOUX_COUNT``, and beyond
    it the count whose levels take no more than that many take at n = 40:
    1148 at n = 200, 128 at n = 1000, 11 at n = 4095.  It is at least 1, so a
    single level reaches the order's own guard.
    """
    m = max(n, 40)
    return max(1, MAX_DARBOUX_COUNT * 43_400 // (m * m + 670 * m + 15_000))  # 43,400 at m = 40


def norm_form(a: int, b: int) -> int:
    """The quadratic form b**2 - 3ab + a**2 (symmetric in a and b)."""
    return b * b - 3 * a * b + a * a


class PellWitness(NamedTuple):
    """A rational forbidden value from a unit of the norm form."""

    k: int
    a: int
    b: int
    q: Fraction
    witness: LoopWitness


def pell_witnesses(count: int, reciprocal: bool = False) -> list[PellWitness]:
    """First ``count`` verified witnesses from the Fibonacci pairs.

    Index k runs 3, 4, 5, ... over (a, b) = (F_{k+2}, F_k), carried as one
    rolling pair of consecutive Fibonacci numbers; k starts at 3, the first
    index with F_k > 1.  With ``reciprocal`` the pair is swapped to
    (F_k, F_{k+2}), giving values that accumulate at (3 - sqrt(5))/2 instead
    of (3 + sqrt(5))/2.  By Cassini's identity norm_form(a, b) = (-1)**k, a
    unit, so the last entry is an integer.  Every witness carries the weight
    1/b**4, which :func:`verify_witness`, the only check, proves exact.
    ``count`` above ``MAX_PELL_COUNT`` is refused.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_PELL_COUNT:
        raise ValueError(f"count={count} exceeds the guard {MAX_PELL_COUNT}")
    out: list[PellWitness] = []
    fk, fk1 = 2, 3  # F_k, F_{k+1}
    for k in range(3, count + 3):
        a, b = fk + fk1, fk
        if reciprocal:
            a, b = b, a
        q = Fraction(a, b)
        wit = LoopWitness(q=q, loop=(1, -1, 1, -1, -(2 * b * b - a * b) // norm_form(a, b)),
                          weight_squared=Fraction(1, b**4), provenance="pell", verified=False)
        wit = wit._replace(verified=verify_witness(wit))
        if not wit.verified:
            raise ArithmeticError(f"witness verification failed at (a, b)=({a}, {b})")
        out.append(PellWitness(k=k, a=a, b=b, q=q, witness=wit))
        fk, fk1 = fk1, fk + fk1
    return out


def golden_targets() -> tuple[AlgebraicNumber, AlgebraicNumber]:
    """Certified enclosures of (3 - sqrt(5))/2 and (3 + sqrt(5))/2, width <= 1e-40."""
    p = IntPoly([1, -3, 1])
    eps = Fraction(1, 10**40)
    return isolate_root(p, 0, 1, eps), isolate_root(p, 2, 3, eps)


class DarbouxWitness(NamedTuple):
    """A forbidden value isolated just above an accumulation point t0."""

    n: int
    t0: AlgebraicNumber
    c_k: int
    epsilon: int
    q: Union[Fraction, AlgebraicNumber]
    witness: LoopWitness
    t1_approx: float


def _t1_approx(n: int, j0: int) -> float:
    """Nearest obstruction above t0 = 4*cos(pi*j0/(n+1))**2, as a float.

    The obstructions (the accumulation sets of orders 1..n-1 and n+1, and the
    roots of den) are 4*cos(pi*x)**2 over reduced x in (0, 1) with denominator
    <= n + 2.  That falls as x rises to 1/2 and is symmetric about it, so the
    nearest one comes from the left neighbour p/q of j0/(n+1) in the Farey
    sequence of order n + 2 (Hardy and Wright, ch. III): j0*q - (n+1)*p = 1,
    q <= n + 2 largest.  It lies strictly between (j0-1)/(n+1) and j0/(n+1),
    so t1 is below the next root of den.  More: q >= 3 (q = 1 only for
    j0 = 1, which takes q = n + 2, and q = 2 would need j0 = (n+2)/2 >
    ceil(n/2)), so j0/(n+1) - p/q = 1/((n+1)q) < 1/(2(n+1)): t1's angle is
    nearer to t0's than the half angle is, and t1 lies inside t0's bracket
    from :func:`forbiddenq.continuants._u_brackets` (below its upper cut for
    all 97,639 brackets with n <= 800).  The float is the least over the
    ways the obstruction list writes p/q: p/q, (q-p)/q, and k*p/(n+1) when
    k*q = n+1.  It can lie above the exact obstruction, by at most 9.3e-16
    (5,303 of the 24,539 brackets with n <= 400); a level root in that gap
    would fail to verify and raise ArithmeticError, not give a false proof.
    """
    q = pow(j0, -1, n + 1) + (n + 1 if j0 == 1 else 0)
    p, k = (j0 * q - 1) // (n + 1), (n + 1) // q
    forms = [(p, q), (q - p, q)] + ([(k * p, n + 1)] if k * q == n + 1 else [])
    return min(4.0 * math.cos(math.pi * j / m) ** 2 for j, m in forms)


# width of the isolating interval of an algebraic Darboux root
ALG_INTERVAL_WIDTH = Fraction(1, 10**20)


def _root_in_interval(
    target: IntPoly, t0: AlgebraicNumber, t1: Fraction
) -> Union[Fraction, AlgebraicNumber]:
    """The root of ``target`` in (t0, t1), exact when rational.

    By the lemma in :func:`darboux_witnesses`, ``target`` has one simple root
    in (t0, t1) and, as eps*c_n falls to -infinity just below t0, none in
    [t0.lo, t0]: it changes sign once on [t0.lo, t1].  That interval is
    bisected to width min(ALG_INTERVAL_WIDTH, 1/(2L)), L the primitive
    ``target``'s leading coefficient, and on while t0 is strictly inside, by
    :meth:`AlgebraicNumber.compare_rational`.  Bisection intervals are nested
    and do not depend on where a stage stops, so the two stops commute.  The
    halving ends: at t0, a root of den, ``target`` = num - eps*c*den equals
    num, non-zero as num and den are coprime.  A sign change below t0 breaks
    the premise: ArithmeticError.  A rational root is a multiple of 1/L, and
    the interval holds at most one: the first above r.lo, if below r.hi.
    """
    p = target.primitive()
    lead = abs(p.leading)
    r = AlgebraicNumber(p, t0.lo, t1)
    r = r.refine(min(ALG_INTERVAL_WIDTH, Fraction(1, 2 * lead)))
    while t0.compare_rational(r.lo) > 0 > t0.compare_rational(r.hi):
        r = r.refine(r.width / 2)
    if t0.compare_rational(r.lo) > 0:
        raise ArithmeticError("the level polynomial changes sign below t0")
    x = Fraction(math.floor(r.lo * lead) + 1, lead)
    return x if x < r.hi and p.eval(x) == 0 else r


def darboux_witnesses(
    n: int, u_index: int, count: int, min_c: int = 3
) -> list[DarbouxWitness]:
    """Verified witnesses accumulating at ``u_set(n)[u_index]`` from above.

    With (num, den) = ratio_in_q(n), t0 the chosen accumulation point and
    eps = (-1)**(n+1), the levels c_k = first, first + 1, ... with
    first = max(min_c, 1, floor(eps * c_n(t1)) + 1) are solved via
    num(q) - eps*c_k*den(q) = 0 inside (t0, t1); the root gives the loop
    (1, -1, ..., (-1)**(n-1), (-1)**n * (c_k + 1)) at q, found by one
    bisection (:func:`_root_in_interval`) to the certificate width.

    eps is the sign of num/den just above t0, by a monotonicity lemma.  Let
    x_1 = 1 and x_{j+1} = 1 - 1/(q x_j), so that the alternating prefix
    values are c_j = (-1)**j x_{j+1}.  Then x_{j+1}' = (q x_j)'/(q x_j)**2,
    (q x_j)' = 1 + x_{j-1}'/x_{j-1}**2 and (q x_1)' = 1, so x_j' > 0 for
    every j >= 2 wherever x_j is defined.  No x_j with j < n vanishes at t0,
    whose index is coprime to n + 1, so x_n rises through zero there and
    num/den = c_n runs to eps * infinity just above t0 (for n = 1, t0 = 0
    and c_1 = -1 + 1/q); eps * c_n decreases on (t0, next root of den).
    t1 (:func:`_t1_approx`) lies inside t0's bracket, which holds no other
    root of den, so den has no root in (t0, t1] and eps * c_n maps (t0, t1)
    onto (eps * c_n(t1), infinity) one to one: level c has one root there
    exactly when c > eps * c_n(t1).  c_n(t1) is num(t1)/den(t1); den(t1) is
    not zero, as t0 is the one root of den in its bracket.
    ``min_c`` below 3 explores levels outside the existence argument; any
    witness that does verify is still a genuine certificate.  Only the
    chosen point is isolated, by :func:`forbiddenq.continuants.u_point`,
    which :func:`u_set` calls for every point, so ``t0`` is
    ``u_set(n)[u_index]`` by construction.  ``count`` above
    :func:`_most_levels` of n is refused before any work, and ``n`` by
    :func:`forbiddenq.continuants.ratio_in_q`.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    most = _most_levels(n)
    if count > most:
        raise ValueError(f"count={count} exceeds the guard {most}"
                         + (f" at n={n}" if most < MAX_DARBOUX_COUNT else ""))
    num, den = ratio_in_q(n)
    j0, t0 = u_point(n, u_index)
    t1f = _t1_approx(n, j0)
    t1 = Fraction(t1f)
    epsilon = (-1) ** (n + 1)
    first = max(min_c, 1, math.floor(epsilon * num.eval(t1) / den.eval(t1)) + 1)

    out: list[DarbouxWitness] = []
    for c_k in range(first, first + count):
        qval = _root_in_interval(num - (epsilon * c_k) * den, t0, t1)
        shift = -epsilon * c_k
        w2: Union[Fraction, FormulaWeight]
        if isinstance(qval, Fraction):
            # verify_witness proves the lemma's value is the exact weight
            w2 = lemma_weight_squared(n, shift, qval)
        else:
            w2 = FormulaWeight(lemma_weight_approx(n, shift, qval.lo, qval.hi))
        wit = LoopWitness(q=qval, loop=shifted_alternating_loop(n, shift),
                          weight_squared=w2, provenance="darboux", verified=False)
        wit = wit._replace(verified=verify_witness(wit))
        if not wit.verified:
            raise ArithmeticError(f"witness verification failed at level {c_k}")
        out.append(
            DarbouxWitness(n=n, t0=t0, c_k=c_k, epsilon=epsilon, q=qval,
                           witness=wit, t1_approx=t1f)
        )
    return out


def cos2_family(max_k: int, max_n: int) -> list[float]:
    """The classical dense family (4/n) cos(pi*l/(2k+1))**2, floats only.

    Enumerates k <= max_k, 1 <= l < 2k+1 with gcd(l, 2k+1) = 1 and
    2 <= n <= max_n; sorted and deduplicated to 1e-12.  Density evidence for
    (0, 2), with no certificates attached.  Each k has at most 2k values of
    l, so at most max_k (max_k + 1) (max_n - 1) terms are listed; more than
    ``MAX_COS2_TERMS`` is refused before any is.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    if max_k * (max_k + 1) * (max_n - 1) > MAX_COS2_TERMS:
        raise ValueError(f"max_k={max_k} with max_n={max_n} could give more terms "
                         f"than the guard {MAX_COS2_TERMS}")
    vals = []
    for k in range(1, max_k + 1):
        mod = 2 * k + 1
        for ell in range(1, mod):
            if math.gcd(ell, mod) != 1:
                continue
            c2 = math.cos(math.pi * ell / mod) ** 2
            for n in range(2, max_n + 1):
                vals.append(4.0 * c2 / n)
    vals.sort()
    out: list[float] = []
    for v in vals:
        if not out or v - out[-1] > 1e-12:
            out.append(v)
    return out
