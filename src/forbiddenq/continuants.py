"""Continuants: the one prefix recurrence, and polynomial families built on it.

``prefix_pairs`` is the continued-fraction recurrence c -> m + 1/(q c) of
:mod:`forbiddenq.loops`, carried as unreduced numerator/denominator pairs;
every exact loop evaluation in the package runs through it except the
search's step, inlined and reduced in two copies (``walk`` and ``settle``
in :func:`forbiddenq.loops.search_nonunit_loop`), ``ratio_in_q``, read off
``g_poly``, and ``_prefix_signs_agree``, the sign walk of
:func:`forbiddenq.loops.verify_witness` at both ends of an interval, on the
numerators with the powers of q's numerator divided out.

The alternating-sign specialization ``g_poly(n)`` is a rescaled Chebyshev
polynomial of the second kind, built from its binomial coefficients: its
roots are 2*cos(pi*j/(n+1)), consecutive members satisfy
g_n**2 + g_{n+1} g_{n-1} = 1, and the squares of the roots with index
coprime to n+1 form the accumulation sets returned by ``u_set``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .exact import AlgebraicNumber, IntPoly, isolate_root

U_SET_WIDTH = Fraction(1, 10**12)  # width of every isolating interval of u_set

# hard guard on n in g_poly and g_roots, and so on the n of ratio_in_q, u_set
# and the Darboux families, which build g_poly(n + 1): g_poly(n) holds n + 1
# integers of up to 0.7 n bits, and g_roots(n) a list of n floats
MAX_G_DEGREE = 2**12


def prefix_pairs(m: Iterable[int], qn, qd) -> Iterator[tuple]:
    """Pairs (N_j, D_j) with c_j = N_j / D_j, the prefix values of ``m`` at q = qn/qd.

    Starts from (m_0, 1) and applies the continuant matrix step
    (N, D) <- (m_j * (qn * N) + qd * D, qn * N), reducing nothing.  So
    D_{j+1} = qn * N_j, a zero N_j breaks the sequence at j + 1 (D_{j+1} = 0;
    the caller stops there), and the prefix product telescopes: the squared
    weight q**k * prod_{j<k} c_j**2 of (m_0..m_k) is D_k**2 / (qn*qd)**k.
    Only the tests run it over :class:`IntPoly` (qn = x, qd = IntPoly([1])).
    ``m`` may be any iterable, infinite ones included.
    """
    it = iter(m)
    num, den = next(it), 1
    yield num, den
    for mj in it:
        step = qn * num
        num, den = mj * step + qd * den, step
        yield num, den


def _prefix_signs_agree(m: Sequence[int], lo: Fraction, hi: Fraction) -> bool:
    """Whether each N_j of :func:`prefix_pairs` over ``m`` has one sign at ``lo`` and at ``hi``.

    Both ends must be positive.  With q = qn/qd the recurrence reads
    N_{j+1} = qn (m_{j+1} N_j + qd N_{j-1}), N_{-1} = 1/qn, so
    N_j = qn**(j//2) R_j with R_{-1} = 1, R_0 = m_0 and
    R_{j+1} = m_{j+1} qn R_j + qd R_{j-1} for even j, m_{j+1} R_j + qd R_{j-1}
    for odd j: R_j has the sign of N_j, on integers about half as long.  The
    two ends are walked in one loop, which stops at the first index whose
    signs differ.  ``m`` must be non-empty.
    """
    an, ad, bn, bd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    x = y = m[0]
    xp = yp = 1
    for j in range(1, len(m)):
        mj = m[j]
        if j & 1:
            x, xp = mj * an * x + ad * xp, x
            y, yp = mj * bn * y + bd * yp, y
        else:
            x, xp = mj * x + ad * xp, x
            y, yp = mj * y + bd * yp, y
        if (x > 0) - (x < 0) != (y > 0) - (y < 0):
            return False
    return True


@lru_cache(maxsize=3)
def g_poly(n: int) -> IntPoly:
    """Continuant of the alternating sequence (1, -1, ..., (-1)**(n-1)).

    Built from its closed form, (-1)**(n//2) U_n(x/2) with U_n the Chebyshev
    polynomial of the second kind: the coefficient of x**(n-2k) is
    (-1)**(n//2 + k) * C(n-k, k), each binomial taken from the one before by
    C(n-k, k) = C(n-k+1, k-1) (n-2k+2)(n-2k+1) / (k (n-k+1)).  Equal to the
    three-term recurrence f_{j+1} = m_j x f_j + f_{j-1} (f_0 = 1,
    f_1 = m_0 x) over the alternating sequence, in O(n) big-integer steps.
    Only the last three orders asked for are cached: :func:`ratio_in_q`
    reads two consecutive members, and a cache of every order would keep
    141 MB after n = 1..2048.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_G_DEGREE:
        raise ValueError(f"n={n} exceeds the guard {MAX_G_DEGREE}")
    coeffs = [0] * (n + 1)
    c = coeffs[n] = (-1) ** (n // 2)
    for k in range(1, n // 2 + 1):
        c = -c * (n - 2 * k + 2) * (n - 2 * k + 1) // (k * (n - k + 1))
        coeffs[n - 2 * k] = c
    return IntPoly(coeffs)


def g_roots(n: int) -> list[float]:
    """The n roots of ``g_poly(n)``, 2*cos(pi*j/(n+1)), in decreasing order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_G_DEGREE:
        raise ValueError(f"n={n} exceeds the guard {MAX_G_DEGREE}")
    return [2.0 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1)]


def _check_ratio_order(n: int) -> None:
    """Refuse an order ``n`` outside 1 <= n < MAX_G_DEGREE, before any work."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= MAX_G_DEGREE:
        raise ValueError(f"n={n} exceeds the guard {MAX_G_DEGREE - 1}: "
                         f"the ratio builds g_poly(n + 1)")


def ratio_in_q(n: int) -> tuple[IntPoly, IntPoly]:
    """Numerator and denominator in q of g_{n+1}(x) / (x g_n(x)) with q = x**2.

    This is the final prefix value of the alternating path
    (1, -1, ..., (-1)**n) as a function of q: the parts of g_{n+1} and x g_n
    of the parity of n + 1, read off the cached :func:`g_poly`.  Nothing
    needs dividing out: both leads are +-1, and num's constant term is
    +-C(n+1-k, k) with k = floor((n+1)/2), not zero.  As it builds
    g_poly(n + 1), n must be below ``MAX_G_DEGREE``.
    """
    _check_ratio_order(n)
    r = (n + 1) % 2
    return IntPoly(g_poly(n + 1).coeffs[r::2]), IntPoly(((0,) + g_poly(n).coeffs)[r::2])


def _u_brackets(n: int) -> list[tuple[int, Fraction, Fraction]]:
    """Triples ``(j, cuts[i], cuts[i+1])`` for the points of ``u_set(n)``, increasing.

    The roots of the denominator from :func:`ratio_in_q` are
    4*cos(pi*j/(n+1))**2 for j = ceil(n/2), ..., 1, increasing, and the cut
    between the roots of index j+1 and j is the half-angle point
    4*cos(pi*(j+1/2)/(n+1))**2, rounded to the nearest multiple of
    1/(16*(n+1)**2); -1 and 4 close the ends.  So the roots and the cuts
    interlace and the bracket of index j holds that root alone: an interior
    half-angle point is at least 9.37/(n+1)**2 from both neighbouring roots
    (least at n = 3, tending to pi**2/(n+1)**2; checked in floats for
    n <= 5000), and the rounding moves it by at most 1/(32*(n+1)**2).  No
    root is isolated here; :func:`isolate_root` certifies the one root of
    the bracket it is given by one Descartes count, which is exact since
    every root of the denominator is real and simple.  ``n`` is checked as
    :func:`ratio_in_q` checks it, before the O(n) cuts are listed.
    """
    _check_ratio_order(n)
    half, grid = (n + 1) // 2, 16 * (n + 1) ** 2
    cuts = ([Fraction(-1)]
            + [Fraction(round(grid * 4 * math.cos(math.pi * (j + 0.5) / (n + 1)) ** 2), grid)
               for j in range(half - 1, 0, -1)]
            + [Fraction(4)])
    return [(half - i, cuts[i], cuts[i + 1])
            for i in range(half) if math.gcd(half - i, n + 1) == 1]


def u_point(n: int, u_index: int) -> tuple[int, AlgebraicNumber]:
    """The index j and the certified value of the point ``u_set(n)[u_index]``.

    The value is 4*cos(pi*j/(n+1))**2, isolated by :func:`isolate_root` on
    its half-angle bracket from :func:`_u_brackets`: one Descartes count on
    the bracket certifies that it holds that root of the denominator from
    :func:`ratio_in_q` alone, two signs that none is at either end (no cut
    is a root), and the bracket is narrowed to width <= 1e-12
    (``U_SET_WIDTH``).
    This is the one place a point of ``u_set`` is bracketed and certified,
    and it builds the denominator and the brackets itself, so no caller can
    hand it others.
    """
    brackets = _u_brackets(n)
    if not 0 <= u_index < len(brackets):
        raise ValueError(f"u_index {u_index} out of range for {len(brackets)} points")
    j, lo, hi = brackets[u_index]
    return j, isolate_root(ratio_in_q(n)[1], lo, hi, U_SET_WIDTH)


def u_set(n: int) -> list[AlgebraicNumber]:
    """Certified squared roots of ``g_poly(n)`` with index coprime to n+1.

    Each element is 4*cos(pi*j/(n+1))**2 for some 1 <= j <= n with
    gcd(j, n+1) = 1, returned as an :class:`AlgebraicNumber` whose defining
    polynomial is the denominator from :func:`ratio_in_q` (the parity part of
    g_n rewritten in q).  That polynomial has one simple root in [0, 4) for
    each j = 1..ceil(n/2), decreasing in j; each kept root is certified by
    :func:`u_point`, which rebuilds the brackets (O(n) floats) and reads the
    cached denominator per point.  Sorted increasing.
    """
    return [u_point(n, i)[1] for i in range(len(_u_brackets(n)))]
