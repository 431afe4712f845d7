"""Fibonacci numbers and exact arithmetic in the golden ring Z[phi].

Every quantity downstream that involves phi = (1 + sqrt(5))/2 (sequence
parameters, densities) is kept as an integer pair a + b*phi, so equality
and order are decided by integer arithmetic alone.  No float ever sits in
a contract position.

F(n) for n <= T = 1024 sits in a tuple built at import (0.08 MB), read by
`fib` and `fib_pair` alone.  Above T a value comes from doubling Lucas
numbers L(n) = F(n-1) + F(n+1) from (L(0), L(1)) down every bit of n, two
squarings per bit, so nothing is kept between calls and the memory of a
call is bounded by the size of its answer.  Callers that need consecutive
Fibonacci numbers take them from one call to `fib_pair` or walk the weights
upward themselves; a density F(K) * phi**-L comes from `fib_times_phi_pow`,
which takes that doubling at every K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_T = 1024


def _table() -> tuple[int, ...]:
    """F(0..T)."""
    f = [0, 1]
    while len(f) <= _T:
        f.append(f[-1] + f[-2])
    return tuple(f)


_F = _table()


def _lucas_pair(n: int) -> tuple[int, int]:
    """(L(n), L(n+1)) for n >= 0, doubling from (L(0), L(1)) = (2, 1) down
    every bit of n; fibcore's one check of a negative index.

    From (L(h), L(h+1)) one level gives L(2h) = L(h)**2 - 2(-1)**h and
    L(2h+2) = L(h+1)**2 + 2(-1)**h, and L(2h+1) is their difference.
    """
    if n < 0:
        raise ValueError(f"Fibonacci index must be non-negative, got {n}")
    a, b, h = 2, 1, 0
    for i in range(n.bit_length() - 1, -1, -1):
        s = -2 if h & 1 else 2
        a, b = a * a - s, b * b + s
        h = n >> i
        if h & 1:
            a = b - a  # (L(2h+1), L(2h+2))
        else:
            b -= a  # (L(2h), L(2h+1))
    return a, b


def fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) for n >= 0: two lookups below T, else one Lucas doubling,
    with 5F(n) = 2L(n+1) - L(n) and 2F(n+1) = L(n) + F(n)."""
    if 0 <= n < _T:
        return _F[n], _F[n + 1]
    a, b = _lucas_pair(n)
    f = (2 * b - a) // 5
    return f, (a + f) // 2


def fib(n: int) -> int:
    """F(n) with F(0) = 0, F(1) = F(2) = 1.  Arbitrary precision."""
    if 0 <= n <= _T:
        return _F[n]
    return fib_pair(n)[0]


def golden_cmp(x: "GoldenNumber", q: int | Fraction) -> int:
    """Sign of (a + b*phi) - q for rational q: -1, 0 or +1, decided exactly.

    2((a + b*phi) - q) = b*sqrt(5) - t with t := 2(q - a) - b, and y -> y|y|
    is strictly increasing, so b*sqrt(5) - t has the sign of 5b|b| - t|t|:
    one rule for every sign of b and t.  With b = 0 it is -sign(t); with
    b != 0 it is never 0, since a tie would make sqrt(5) = |t/b| rational.
    With q and both components integers the test stays in integers, else
    in Fractions.  y|y| is y*y signed as y, so both terms are true squares
    for either sign, never a general product of y and -y.
    """
    b = x.b
    t = 2 * (q - x.a) - b
    bb, tt = b * b * 5, t * t
    d = (bb if b > 0 else -bb) - (tt if t > 0 else -tt)
    return (d > 0) - (d < 0)


@dataclass(frozen=True)
class GoldenNumber:
    """An exact element a + b*phi of Z[phi], closed under + - * by phi^2 = phi + 1."""

    a: int
    b: int

    def __add__(self, other: "GoldenNumber | int") -> "GoldenNumber":
        if isinstance(other, int):
            return GoldenNumber(self.a + other, self.b)
        if isinstance(other, GoldenNumber):
            return GoldenNumber(self.a + other.a, self.b + other.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "GoldenNumber | int") -> "GoldenNumber":
        if isinstance(other, int):
            return GoldenNumber(self.a - other, self.b)
        if isinstance(other, GoldenNumber):
            return GoldenNumber(self.a - other.a, self.b - other.b)
        return NotImplemented

    def __rsub__(self, other: int) -> "GoldenNumber":
        if isinstance(other, int):
            return GoldenNumber(other - self.a, -self.b)
        return NotImplemented

    def __neg__(self) -> "GoldenNumber":
        return GoldenNumber(-self.a, -self.b)

    def __mul__(self, other: "GoldenNumber | int") -> "GoldenNumber":
        if isinstance(other, int):
            return GoldenNumber(self.a * other, self.b * other)
        if not isinstance(other, GoldenNumber):
            return NotImplemented
        # (a + b*phi)(c + d*phi) = ac + bd + (ad + bc + bd)*phi
        a, b, c, d = self.a, self.b, other.a, other.b
        return GoldenNumber(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def _cmp(self, other) -> int | None:
        if isinstance(other, GoldenNumber):
            return golden_cmp(self - other, 0)
        if isinstance(other, (int, Fraction)):
            return golden_cmp(self, other)
        return None

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __float__(self) -> float:
        """Display-only and never used for decisions, but correctly rounded.

        Over a common denominator d of a and b (1 in Z[phi] itself),
        a + b*phi = (s + t*sqrt(5)) / 2d with integers s = (2a + b)d and
        t = bd, summed with a fixed-point sqrt(5), not in floats, where the
        two terms cancel.  With |s|, |t| < 2^L, s^2 - 5t^2 is a nonzero
        integer, so |s + t*sqrt(5)| > 2^-(L+2), and the floor of the
        fixed-point sqrt(5) errs by less than |t|: 66 + 2L fraction bits
        leave a relative error below 2^-64 before the one rounding division.
        """
        d = math.lcm(self.a.denominator, self.b.denominator)
        s, t = int((2 * self.a + self.b) * d), int(self.b * d)
        bits = 66 + 2 * max(s.bit_length(), t.bit_length())
        return ((s << bits) + t * math.isqrt(5 << (2 * bits))) / (d << (bits + 1))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        phi = "phi" if abs(self.b) == 1 else f"{abs(self.b)}*phi"
        if self.a == 0:
            return phi if self.b > 0 else f"-{phi}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {phi}"


PHI = GoldenNumber(0, 1)


def phi_pow(m: int) -> GoldenNumber:
    """phi**m exactly: (F(m-1), F(m)) for m > 0.

    Powers m <= 0 expand by phi**-1 = phi - 1, which gives
    phi**-n = (-1)**n * (F(n+1) - F(n)*phi), so phi**0 = F(1) - F(0)*phi = 1.
    """
    if m > 0:
        return GoldenNumber(*fib_pair(m - 1))
    n = -m
    s = 1 if n % 2 == 0 else -1
    f, f1 = fib_pair(n)
    return GoldenNumber(s * f1, -s * f)


def fib_times_phi_pow(k: int, e: int) -> tuple[int, GoldenNumber]:
    """F(k) and F(k) * phi**e exactly, k >= 0, from one doubling at k.

    By Binet, F(k) * phi**-k = (1 - (-1)**k * phi**-2k) / sqrt(5), which
    expands to (-1)**k * (F(k)F(k+1) - F(k)**2 * phi), with 5F(k)F(k+1) =
    L(2k+1) - (-1)**k and 5F(k)**2 = L(2k) - 2(-1)**k.  One more doubling
    level past (L(k), L(k+1)) gives those, two squarings at the size of the
    answer, and the rest is the power phi**(k+e), small for a density.
    """
    a, b = _lucas_pair(k)
    s = -1 if k & 1 else 1
    even = a * a - 2 * s  # L(2k)
    odd = b * b + 2 * s - even  # L(2k+1)
    scaled = GoldenNumber(s * (odd - s) // 5, -s * (even - 2 * s) // 5)
    return (2 * b - a) // 5, scaled * phi_pow(k + e)
