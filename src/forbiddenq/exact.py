"""Exact arithmetic building blocks: integer polynomials and certified real roots.

Scalars are `fractions.Fraction` throughout.  Nothing in this module rounds
unless a float approximation is explicitly requested.  One isolator,
:func:`isolate_root`, certifies that an interval holds exactly one real
root: Descartes' rule of signs, on the polynomial that a Möbius map of the
interval onto the positive reals turns ``p`` into, counts one sign
variation in its integer coefficients (:func:`_variations`).  So the count
certifies that the root is unique in its interval and simple, and the sign
change at the ends, re-checkable by anyone, that it is there.  A count of 2
or more is refused, not searched; for a polynomial with only real roots,
such as every one the package isolates, the count is the number of roots
inside.  Narrowing an isolated root
(:meth:`AlgebraicNumber.refine`) returns the cell plain bisection would end
on: a cell of one dyadic grid of the interval, the only one there with a
sign change when the interval holds one root.  It is reached by quadratic
interval refinement, secant guesses on ever finer grids, each certified by
two integer signs, in integers over one power-of-two multiple of a common
denominator.  Each fact is computed once: the cell's end signs come from
that search and are not evaluated again, and the :class:`AlgebraicNumber`
constructor re-checks only intervals that come from elsewhere.  An algebraic
number is its polynomial and its interval, nothing else: no float is
computed to build one.  Its float, ``approx``, is derived when it is read:
the float of the interval midpoint by :func:`ratio_float`, one correctly
rounded true division of two integers, the value ``float(Fraction(num,
den))`` has, with no fraction formed or reduced.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

RationalLike = Union[Fraction, int]


class NoSignChange(ArithmeticError):
    """An interval does not hold exactly one root, or lost its sign change."""


class IntPoly:
    """Dense univariate polynomial with arbitrary-precision integer coefficients.

    ``coeffs[i]`` is the coefficient of ``x**i``.  The representation is
    canonical: no trailing zero coefficient is stored, and the zero polynomial
    is the empty tuple.  Instances are immutable and hashable.  Each
    coefficient must be an integer (``operator.index``): a float, string or
    ``Fraction`` raises ``TypeError`` rather than being truncated.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(map(operator.index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        return IntPoly, (self.coeffs,)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def __rmul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def eval(self, x: RationalLike) -> Fraction:
        """Exact value at a rational ``x = a/b``: ``b**-d`` times :meth:`value_at_ratio`.

        The one evaluator is the integer homogeneous Horner loop; a single
        Fraction is formed at the end.  The zero polynomial is 0 everywhere.
        """
        if self.is_zero:
            return Fraction(0)
        b = x.denominator
        return Fraction(self.value_at_ratio(x.numerator, b), b**self.degree)

    def sign_at(self, x: RationalLike) -> int:
        """Sign (-1, 0 or 1) of the value at ``x = a/b``.

        Computed as the sign of the integer ``b**d * p(a/b)``
        (:meth:`value_at_ratio`), which has the sign of ``p(a/b)`` since
        ``b > 0``, so no fraction is ever formed or reduced.
        """
        v = self.value_at_ratio(x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def value_at_ratio(self, a: int, b: int) -> int:
        """The integer ``b**d * p(a/b)``, ``d = len(coeffs) - 1``.

        Horner's rule in the homogeneous form ``sum c_i a**i b**(d-i)``: no
        fraction is formed.  Scaling ``a`` and ``b`` by ``m`` scales the
        value by ``m**d``.
        """
        acc, scale = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * scale
            scale *= b
        return acc

    def content(self) -> int:
        return math.gcd(*self.coeffs)

    def primitive(self) -> "IntPoly":
        """Divide out the integer content (sign is preserved)."""
        g = self.content()
        if g <= 1:
            return self
        return IntPoly([c // g for c in self.coeffs])


def _exact_div(p: IntPoly, d: IntPoly) -> IntPoly:
    """Quotient ``p / d`` for a primitive divisor ``d`` of ``p``.

    By Gauss's lemma the quotient has integer coefficients, so long division
    stays in the integers; a remainder anywhere means ``d`` does not divide.
    """
    r, quot = list(p.coeffs), []
    while len(r) >= len(d.coeffs):
        f, rem = divmod(r[-1], d.leading)
        if rem:
            raise ValueError("inexact polynomial division")
        shift = len(r) - len(d.coeffs)
        for i, c in enumerate(d.coeffs):
            r[shift + i] -= f * c
        r.pop()
        quot.append(f)
    if any(r):
        raise ValueError("inexact polynomial division")
    return IntPoly(reversed(quot))


def _variations(p: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Sign variations of the coefficients of ``(1 + y)**d p((hi + lo y)/(1 + y))``.

    The Möbius map ``y -> (hi + lo y)/(1 + y)`` takes ``(0, oo)`` onto
    ``(lo, hi)``, so by Descartes' rule of signs the count bounds the
    roots of ``p`` in ``(lo, hi)``, counted with multiplicity, and has
    their parity; a count of 1 proves one simple root there (Collins and
    Akritas, 1976).  With ``lo = A/D`` and ``hi = (A + W)/D`` over one
    denominator, Horner's rule on the linear map gives the coefficients
    of ``D**d p((A + W x)/D)``; reversed, they are ``x**d`` times its value
    at ``1/x``, and the shift ``x -> 1 + y`` ends the transform.  All in
    integers, in O(d**2) additions and small multiples.
    """
    d = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    w = hi.numerator * (d // hi.denominator) - a
    cs, scale = [], 1
    for c in reversed(p.coeffs):
        # cs <- cs (a + w x) + c scale, low coefficients first
        cs = [a * u + w * v for u, v in zip(cs + [0], [0] + cs)]
        cs[0] += c * scale
        scale *= d
    cs.reverse()
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += cs[j + 1]
    signs = [c > 0 for c in cs if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def ratio_float(num: int, den: int) -> float:
    """The float nearest ``num / den`` for integers ``num`` and ``den > 0``.

    One true division of two integers, which CPython rounds correctly, so
    the result is ``float(Fraction(num, den))`` however the pair is scaled,
    with no fraction formed or reduced.  A ratio too large for a float, here
    always an interval midpoint, is refused with ``ValueError``.
    """
    try:
        return num / den
    except OverflowError:
        raise ValueError("the interval midpoint is too large for a float") from None


def _midpoint(lo: RationalLike, hi: RationalLike) -> tuple[int, int]:
    """``(lo + hi) / 2`` as an unreduced pair of integers over ``2 lo.den hi.den``."""
    return (lo.numerator * hi.denominator + hi.numerator * lo.denominator,
            2 * lo.denominator * hi.denominator)


def midpoint_float(lo: RationalLike, hi: RationalLike) -> float:
    """``float((lo + hi) / 2)``, by :func:`ratio_float` of the unreduced midpoint."""
    return ratio_float(*_midpoint(lo, hi))


class _AlgebraicFields(NamedTuple):
    defining: IntPoly
    lo: Fraction
    hi: Fraction


class AlgebraicNumber(_AlgebraicFields):
    """A real algebraic number: a root of ``defining`` in the open ``(lo, hi)``.

    Intervals built by :func:`isolate_root` and :meth:`refine` hold exactly
    one root of ``defining``, a simple one, certified by a Descartes count (a
    Darboux level's by the families' lemma), and have no root at either
    end.  The constructor re-checks only the sign change at the endpoints,
    which proves an odd number of roots inside, so a value read back from
    outside (a JSON certificate) is a root, known to be the only one once
    :func:`forbiddenq.loops.verify_witness` accepts its certificate.  The
    interval :func:`isolate_root` certifies and the cells :meth:`refine`
    returns skip that check: their strictly opposite end signs are the ones
    the Descartes count or :func:`_bisect` has just established.  So the
    constructor checks two exact facts, ``lo < hi`` and the sign change.
    ``approx`` (and ``float()``) is not stored but derived: the float of
    ``(lo + hi) / 2``, which :func:`midpoint_float` computes in one integer
    division.  A midpoint too large for a float is refused with
    ``ValueError`` when it is read, not when the number is built.
    """

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
        if not self.lo < self.hi:
            raise ValueError("empty isolating interval")
        if self.defining.sign_at(self.lo) * self.defining.sign_at(self.hi) >= 0:
            raise NoSignChange("isolating interval lost its sign-change certificate")

    @classmethod
    def _cell(cls, defining: IntPoly, lo: Fraction, hi: Fraction) -> "AlgebraicNumber":
        """The interval ``(lo, hi)`` whose strictly opposite end signs the
        caller has just computed, built without evaluating them again."""
        return tuple.__new__(cls, (defining, lo, hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def approx(self) -> float:
        """``float((lo + hi) / 2)``; ``ValueError`` if too large for a float."""
        return midpoint_float(self.lo, self.hi)

    def __float__(self) -> float:
        return self.approx

    def refine(self, eps: RationalLike) -> "AlgebraicNumber":
        """Shrink the isolating interval to width <= eps, as bisection would.

        The result is the interval that plain bisection of ``(lo, hi)`` ends
        on, found by :func:`_bisect` in a few signs rather than one per
        halving.  Its end signs are the two :func:`_bisect` certified the
        cell by, so the constructor does not evaluate ``defining`` there
        again; only the narrow interval around a root on the grid
        (:func:`_grid_root`) goes through it.  ``eps`` must be positive.
        """
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if self.width <= eps:
            return self
        return _bisect(self.defining, self.lo, self.hi, eps)

    def compare_rational(self, r: RationalLike) -> int:
        """-1, 0 or 1 as this value is below, equal to, or above ``r``.

        Exact for an interval that holds one simple root, as every interval
        built here does: inside it, ``defining`` has the sign it has at ``lo``
        below the root and the opposite sign above it, so one sign at ``r``
        decides.  An interval read back from outside holds one root once
        :func:`forbiddenq.loops.verify_witness` accepts its certificate;
        before that it is only known to hold an odd number, and is not compared.
        """
        r = Fraction(r)
        if r <= self.lo:
            return 1
        if r >= self.hi:
            return -1
        return self.defining.sign_at(r) * self.defining.sign_at(self.lo)


def _bisect(p: IntPoly, lo: Fraction, hi: Fraction, eps: Fraction) -> AlgebraicNumber:
    """The interval plain bisection of a one-root interval ends on, in few signs.

    With ``lo = A/D`` and ``hi = (A + W)/D`` over one denominator, the grid
    of level ``l`` is the points ``(A 2**l + g W) / (D 2**l)``,
    ``0 <= g <= 2**l``.  Bisection to width <= eps ends on a cell of level
    ``s``, the least ``s`` with ``W / (D 2**s) <= eps``.  An interval that
    holds one root has exactly one cell at that level whose ends have
    strictly opposite signs, so a cell certified by its two end signs is
    bisection's cell, however it was found.

    It is found by quadratic interval refinement (J. Abbott, "Quadratic
    interval refinement for real roots", 2006).  The state is a certified
    cell of level ``l`` and the integer values of ``p`` at its ends over
    the cell's denominator (:meth:`IntPoly.value_at_ratio`).  A step splits
    the cell into ``2**t`` subcells, ``t <= s - l``, rounds the secant root
    of the two end values to the nearest inner grid point and takes its
    sign, then the sign of the neighbour on the side where that sign puts
    the root.  A sign change between the two is the new cell, and ``t``
    doubles; otherwise ``t`` halves.  At ``t = 1`` the step is one
    bisection step and always succeeds, so the loop ends.  An end value
    that is kept moves to the finer grid by ``<< deg*t``.

    A grid point where ``p`` vanishes is the root.  Its own level is the
    step's level less the trailing zeros of its index, and bisection meets
    it as the midpoint of the cell one level up, returning a narrow interval
    around it, whose sign change the :class:`AlgebraicNumber` constructor
    re-checks; the same interval is returned here.  Any other cell is
    returned as certified by its two end values, with no further
    evaluation.
    """
    en, ed = eps.numerator, eps.denominator
    d = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    w = hi.numerator * (d // hi.denominator) - a
    s = (-(-w * ed // (en * d)) - 1).bit_length()  # least s with 2**s >= W eps.den / (D eps.num)
    deg, value = p.degree, p.value_at_ratio
    fa, fb = value(a, d), value(a + w, d)
    level, k, t = 0, 0, 1
    while level < s:
        t = min(t, s - level)
        n, base, fine = 1 << t, k << t, level + t
        start, den = (a << fine) + base * w, d << fine
        # the secant root, at fa / (fa - fb) of the cell, rounded to an inner grid point
        j = min(max(((fa << (t + 1)) + fa - fb) // ((fa - fb) << 1), 1), n - 1)
        vj = value(start + j * w, den)
        if vj == 0:
            return _grid_root(p, a, w, d, base + j, fine, eps)
        m = j + 1 if (vj > 0) == (fa > 0) else j - 1
        if m == 0 or m == n:  # an end of the cell, moved to the finer grid
            vm = (fa if m == 0 else fb) << (deg * t)
        else:
            vm = value(start + m * w, den)
        if vm == 0:
            return _grid_root(p, a, w, d, base + m, fine, eps)
        if (vm > 0) == (vj > 0):
            t //= 2
            continue
        k, fa, fb = (base + j, vj, vm) if m > j else (base + m, vm, vj)
        level, t = fine, 2 * t
    x, den = (a << level) + k * w, d << level
    return AlgebraicNumber._cell(p, Fraction(x, den), Fraction(x + w, den))


def _grid_root(p: IntPoly, a: int, w: int, d: int, g: int, level: int,
               eps: Fraction) -> AlgebraicNumber:
    """Bisection's interval for a root of ``p`` at grid point ``g`` of ``level`` in :func:`_bisect`.

    Stripping the trailing zeros of ``g`` gives the point's own level and its
    odd index there; bisection meets the point as the midpoint of the cell
    one level up, which reaches ``w / (d 2**level)`` to either side.  The
    interval returned is centred on the root, of half-width
    ``min(eps, w / (d 2**level)) / 2``: width <= eps, strictly inside that
    cell.  The constructor checks its sign change.
    """
    zeros = (g & -g).bit_length() - 1
    level -= zeros
    num, den = (a << level) + (g >> zeros) * w, d << level
    r, half = Fraction(num, den), min(eps, Fraction(w, den)) / 2
    return AlgebraicNumber(p, r - half, r + half)


def isolate_root(
    p: IntPoly,
    lo: RationalLike,
    hi: RationalLike,
    eps: RationalLike = Fraction(1, 10**12),
) -> AlgebraicNumber:
    """The one root of ``p`` in the open ``(lo, hi)``, to width <= eps.

    One Descartes count certifies the interval: :func:`_variations` of
    ``p.primitive()`` on ``(lo, hi)`` must be exactly 1, which proves one
    simple root inside, and neither end may be a root; otherwise
    :class:`NoSignChange` is raised.  A root at an end, or a count of 2 or
    more, is refused, not searched around.  The count is 1 whenever the
    union of the two discs circumscribing the equilateral triangles on
    ``(lo, hi)`` holds one root of ``p``, a simple one, and no other, real
    or complex (the two-circle theorem; Krandick and Mehlhorn, 2006).  For
    a polynomial whose roots are all real it is the number of roots
    inside, so an interval around one simple root of such a polynomial,
    as every one this package isolates, is never refused.  The result's
    defining polynomial is ``p.primitive()``, whose end signs a count of 1
    makes strictly opposite; :meth:`AlgebraicNumber.refine` narrows the
    interval without evaluating them again, and refuses an ``eps`` that is
    not positive with ``ValueError``.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if p.is_zero:
        raise ValueError("the zero polynomial has no isolated roots")
    ps = p.primitive()
    if not ps.sign_at(lo) or not ps.sign_at(hi):
        raise NoSignChange(f"p has a root at an end of ({lo}, {hi})")
    count = _variations(ps, lo, hi)
    if count != 1:
        raise NoSignChange(f"{count} sign variations for p on ({lo}, {hi}), need exactly one")
    return AlgebraicNumber._cell(ps, lo, hi).refine(eps)
