"""The Wythoff sequences A, B and generalized Beatty sequences p*A + q*Id + r."""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from math import isqrt


def wythoff_A(n: int) -> int:
    """A(n) = floor(n*phi), n >= 1, without floating point.

    floor(n*phi) = floor((n + sqrt(5 n^2)) / 2) and sqrt(5 n^2) is never an
    integer for n >= 1, so the integer square root gives the exact floor.
    """
    if n < 1:
        raise ValueError(f"Wythoff sequences are indexed from 1, got {n}")
    return (n + isqrt(5 * n * n)) // 2


def fibonacci_word(a, b, n: int):
    """The first n elements of the Fibonacci word over the letters a and b
    (strings or lists), built by concatenation: S(1) = a, S(2) = ab and
    S(i+1) = S(i) S(i-1).  A letter may be a block of several elements, so
    the word is cut at n elements, not n letters.

    A's steps A(j+1) - A(j), j >= 1, spell it with a as 2 and b as 1 (a
    Sturmian word, Lothaire, Algebraic Combinatorics on Words, ch. 2)."""
    shorter, word = a, a + b
    while len(word) < n:
        shorter, word = word, word + shorter
    return word[:n]


def wythoff_B(n: int) -> int:
    """B(n) = floor(n*phi^2) = A(n) + n = floor((3n + sqrt(5 n^2)) / 2), n >= 1."""
    if n < 1:
        raise ValueError(f"Wythoff sequences are indexed from 1, got {n}")
    return (3 * n + isqrt(5 * n * n)) // 2


# GBS.__str__ writes a coefficient of 1 or -1 as its sign alone: 3A+Id-5, -A-1.
_UNIT_SIGN = {1: "+", -1: "-"}


# _runs builds a step word of more than _TYPED terms from machine-word
# arrays: concatenating them copies memory, with no reference count per
# element.  Below it lists win, as array("q") costs more to make and to read
# back; timeit puts the break-even at 100 to 200 terms.
_TYPED = 256


def _runs(v: GBS, width: int, count: int) -> list[int]:
    """The first `count` terms of the runs [V(n), V(n) + width), n >= 1:
    V(1) and the running sums of their steps.  V steps by 2p+q where A
    steps by 2 and by p+q where it steps by 1, so the runs step by the
    Fibonacci word of A's steps with each letter a whole run, width-1 ones
    and then the gap to the next run's start.  A count within the first
    run is that run's range, with no step word, so a run wider than count
    is never built.

    The letters are array("q") when count is above _TYPED and both gaps
    fit a signed 64-bit word, and lists otherwise; accumulate sums either
    into ints.
    """
    if count < 0:
        raise ValueError(f"number of terms must be non-negative, got {count}")
    first = v(1)
    if count <= width:
        return list(range(first, first + count))
    a, b = 2 * v.p + v.q - width + 1, v.p + v.q - width + 1
    if count > _TYPED and -1 << 63 <= min(a, b) and max(a, b) < 1 << 63:
        ones = array("q", [1]) * (width - 1)
        a, b = ones + array("q", [a]), ones + array("q", [b])
    else:
        ones = [1] * (width - 1)
        a, b = ones + [a], ones + [b]
    return list(itertools.accumulate(fibonacci_word(a, b, count - 1), initial=first))


class OverlapError(RuntimeError):
    """Two branches of a supposedly disjoint union produced the same value."""


@dataclass(frozen=True)
class GBS:
    """The generalized Beatty sequence n -> p*A(n) + q*n + r for n >= 1."""

    p: int
    q: int
    r: int

    def __call__(self, n: int) -> int:
        return self.p * wythoff_A(n) + self.q * n + self.r

    def compose_A(self) -> "GBS":
        """Parameters of V∘A, i.e. n -> V(A(n))."""
        return GBS(self.p + self.q, self.p, self.r - self.p)

    def compose_B(self) -> "GBS":
        """Parameters of V∘B, i.e. n -> V(B(n))."""
        return GBS(2 * self.p + self.q, self.p + self.q, self.r)

    @property
    def step(self) -> int:
        """The smallest difference of consecutive terms: A steps by 1 or 2,
        so V steps by p+q or 2p+q."""
        return min(self.p + self.q, 2 * self.p + self.q)

    def terms(self, count: int) -> list[int]:
        """V(1), ..., V(count): the runs of width 1, whose letters are V's
        bare steps 2p+q and p+q."""
        return _runs(self, 1, count)

    def __str__(self) -> str:
        p, q, r = self.p, self.q, self.r
        text = (_UNIT_SIGN.get(p) or f"{p:+d}") + "A" if p else ""
        if q:
            text += (_UNIT_SIGN.get(q) or f"{q:+d}") + "Id"
        if r or not text:
            text += f"{r:+d}"
        return text.lstrip("+")


@dataclass(frozen=True)
class OccurrenceSet:
    """The union of `count` GBS branches that share (p, q) and have the
    consecutive offsets r, r+1, ..., r+count-1.

    Branch t takes the value V(n) + t, where V = gbs.  Consecutive values of
    V differ by at least gbs.step, so when count is at most that step the
    branches are pairwise disjoint and their union is the runs
    [V(n), V(n) + count), already in increasing order of n.  The step
    condition is checked once, here: a union that breaks it would repeat a
    value, which means the construction that produced it is wrong, so it
    raises OverlapError.
    """

    gbs: GBS
    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"occurrence set needs at least one branch, got {self.count}")
        if self.gbs.step <= 0:
            raise ValueError(f"branch {self.gbs} is not strictly increasing")
        if self.count > self.gbs.step:
            raise OverlapError(f"{self.count} branches of {self.gbs} are not disjoint: "
                               f"V steps by as little as {self.gbs.step}")

    @property
    def branches(self) -> tuple[GBS, ...]:
        """The branches one by one, for display."""
        p, q, r = self.gbs.p, self.gbs.q, self.gbs.r
        return tuple(GBS(p, q, r + t) for t in range(self.count))

    def count_below(self, bound: int) -> int:
        """The number of terms of the union that are < bound, in closed form.

        V(n) >= V(1) + (n-1)*gbs.step, so every run start below bound has
        n < hi, and bisecting the increasing V over the integers 1 .. hi-1
        counts those starts, `runs`, in O(log bound) evaluations.  Only the
        last run can reach past bound, since the one after it starts at
        least `count` further on, so it alone is cut.
        """
        first = self.gbs(1)
        if bound <= first:
            return 0
        # V(runs) = last < bound <= V(hi) throughout
        runs, last, hi = 1, first, (bound - first) // self.gbs.step + 2
        while hi - runs > 1:
            mid = (runs + hi) // 2
            if (v := self.gbs(mid)) < bound:
                runs, last = mid, v
            else:
                hi = mid
        return (runs - 1) * self.count + min(self.count, bound - last)

    def terms(self, count: int) -> list[int]:
        """First `count` terms of the increasing union: the runs of width
        self.count, V(1) and the running sums of gbs's step word with each
        letter a whole run."""
        return _runs(self.gbs, self.count, count)

    def terms_below(self, bound: int) -> list[int]:
        """All terms of the union that are < bound, in increasing order."""
        return self.terms(self.count_below(bound))

    def __str__(self) -> str:
        """The one branch, or the shared form with the range of offsets."""
        g = self.gbs
        if self.count == 1:
            return str(g)
        return f"{GBS(g.p, g.q, 0)}+r for r = {g.r}..{g.r + self.count - 1}"
