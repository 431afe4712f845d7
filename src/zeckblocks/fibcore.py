"""Fibonacci numbers and exact arithmetic in the golden ring Z[phi].

Every quantity downstream that involves phi = (1 + sqrt(5))/2 (sequence
parameters, densities) is kept as an integer pair a + b*phi, so equality
and order are decided by integer arithmetic alone.  No float ever sits in
a contract position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

_FIBS = [0, 1, 1]


def fib(n: int) -> int:
    """F(n) with F(0) = 0, F(1) = F(2) = 1.  Arbitrary precision."""
    if n < 0:
        raise ValueError(f"Fibonacci index must be non-negative, got {n}")
    while len(_FIBS) <= n:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[n]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def golden_cmp(x: "GoldenNumber", q: Rational) -> int:
    """Sign of (a + b*phi) - q for rational q: -1, 0 or +1, decided exactly.

    a + b*phi vs q reduces to b*sqrt(5) vs t := 2(q - a) - b.  When the two
    sides have the same sign the comparison is settled by squaring; a tie
    with b != 0 is impossible because sqrt(5) is irrational.
    """
    t = 2 * (Fraction(q) - x.a) - x.b
    b = x.b
    if b == 0:
        return -_sign(t)
    if b > 0:
        if t < 0:
            return 1
    elif t >= 0:
        return -1
    c = _sign(Fraction(5 * b * b) - t * t)
    return c if b > 0 else -c


@dataclass(frozen=True)
class GoldenNumber:
    """An exact element a + b*phi of Z[phi], closed under + - * by phi^2 = phi + 1."""

    a: int
    b: int

    def __add__(self, other: "GoldenNumber | int") -> "GoldenNumber":
        if isinstance(other, int):
            return GoldenNumber(self.a + other, self.b)
        return GoldenNumber(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: "GoldenNumber | int") -> "GoldenNumber":
        if isinstance(other, int):
            return GoldenNumber(self.a - other, self.b)
        return GoldenNumber(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: int) -> "GoldenNumber":
        return GoldenNumber(other - self.a, -self.b)

    def __neg__(self) -> "GoldenNumber":
        return GoldenNumber(-self.a, -self.b)

    def __mul__(self, other: "GoldenNumber | int") -> "GoldenNumber":
        if isinstance(other, int):
            return GoldenNumber(self.a * other, self.b * other)
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
    """phi**m exactly: (F(m-1), F(m)) for m >= 0, with F(-1) taken as 1.

    Negative powers expand by phi**-1 = phi - 1, which gives
    phi**-n = (-1)**n * (F(n+1) - F(n)*phi).
    """
    if m >= 0:
        a = 1 if m == 0 else fib(m - 1)
        return GoldenNumber(a, fib(m))
    n = -m
    s = 1 if n % 2 == 0 else -1
    return GoldenNumber(s * fib(n + 1), -s * fib(n))
