"""Independent test oracles for the runtime in ``src/forbiddenq``.

Each one recomputes something the package computes another way: Horner in
``Fraction`` for :meth:`IntPoly.eval`, the ``prefix_pairs`` walk over
``IntPoly`` for ``ratio_in_q`` (which reads the parity split of ``g_poly``),
subset enumeration for ``f_poly``, the float recurrence for the roots of
``g_poly``, and a brute scan of the norm form for the Fibonacci pairs behind
``pell_witnesses``.  None of them is on a path that produces a certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from forbiddenq.continuants import prefix_pairs
from forbiddenq.exact import IntPoly, RationalLike
from forbiddenq.families import norm_form

EXPLICIT_CUTOFF = 12


class CutoffExceeded(ValueError):
    """Subset enumeration refused: the sequence is longer than the cutoff."""


def horner_eval(p: IntPoly, x: RationalLike) -> Fraction:
    """Exact Horner evaluation of ``p`` at a rational point, in Fractions."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def parity_split(p: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Split ``p(x) = even(x**2) + x * odd(x**2)`` into its parity parts."""
    return IntPoly(p.coeffs[0::2]), IntPoly(p.coeffs[1::2])


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
