"""Finite composition words over the Wythoff sequences A and B.

Orientation: letters read left to right are applied last to first, so "AB"
is the sequence n -> A(B(n)).  A word may carry an integer shift applied
after the whole composition; shifts compose on the outside, never inside
the letters, so ("AAA", -1) is the sequence A(A(A(n))) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .beatty import GBS, wythoff_A, wythoff_B, wythoff_map
from .fibcore import fib


@dataclass(frozen=True)
class WythoffWord:
    letters: str = ""
    shift: int = 0

    def __post_init__(self):
        if self.letters.strip("AB"):
            raise ValueError(f"composition letters must be A or B: {self.letters!r}")

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"composition words are evaluated at n >= 1, got {n}")
        x = n
        for c in reversed(self.letters):
            x = wythoff_A(x) if c == "A" else wythoff_B(x)
        return x + self.shift

    def terms(self, count: int) -> list[int]:
        """The word's values at n = 1..count: each letter, last to first,
        mapped over the whole list by beatty.wythoff_map, one fixed-point
        multiply per value."""
        if count < 0:
            raise ValueError(f"number of terms must be non-negative, got {count}")
        values = range(1, count + 1)
        for c in reversed(self.letters):
            values = wythoff_map(c, values)
        shift = self.shift
        return [x + shift for x in values]

    def then(self, letters: str) -> "WythoffWord":
        """Compose on the right: (U + c)∘V = (U V) + c."""
        return WythoffWord(self.letters + letters, self.shift)

    def __str__(self) -> str:
        body = self.letters or "Id"
        if self.shift:
            return f"{body}{self.shift:+d}"
        return body


def csh_reduce(word: WythoffWord) -> GBS:
    """Closed form of a non-empty composition word as a GBS.

    A word with i letters A and j letters B equals
    F(i+2j)*A + F(i+2j-1)*Id - lambda for a constant lambda, and since
    A(1) = 1 a single evaluation at n = 1 pins it:
    lambda = F(i+2j) + F(i+2j-1) - U(1).  A shift on the word simply lands
    in the constant term.
    """
    if not word.letters:
        raise ValueError("the empty composition has no reduced form")
    order = word.letters.count("A") + 2 * word.letters.count("B")
    p, q = fib(order), fib(order - 1)
    return GBS(p, q, word(1) - p - q)


def wythoff_array(n: int, m: int) -> int:
    """Entry (n, m) of the Wythoff array: F(m+1)*A(n) + (n-1)*F(m).

    Row n = 1 is the Fibonacci sequence 1, 2, 3, 5, ...; column m = 0 is A.
    """
    if n < 1:
        raise ValueError(f"row index must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"column index must be >= 0, got {m}")
    return fib(m + 1) * wythoff_A(n) + (n - 1) * fib(m)


@dataclass(frozen=True)
class Identity:
    """One instance of a verified identity between evaluable sequences.

    lhs/rhs are pointwise-equal words; rhs is also the block solver's
    compound word for `block`, and lhs is None when that is the whole claim.
    """

    name: str
    lhs: WythoffWord | None
    rhs: WythoffWord
    block: str


def identity_catalog(m_max: int = 5) -> list[Identity]:
    """The identity families relating shifted A-powers, B-powers and the
    occurrence sequences of blocks 1 0^j, 001 0^j and 101 0^j, instantiated
    for parameters up to m_max.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be non-negative, got {m_max}")
    out: list[Identity] = []
    for m in range(1, m_max + 1):
        out.append(Identity(
            f"(A^{m}-1)A = A^{m + 1}-1",
            WythoffWord("A" * m, -1).then("A"),
            WythoffWord("A" * (m + 1), -1),
            "0" * (m + 1),
        ))
        out.append(Identity(
            f"(A^{2 * m - 1}-1)B = B^{m}A",
            WythoffWord("A" * (2 * m - 1), -1).then("B"),
            WythoffWord("B" * m + "A"),
            "1" + "0" * (2 * m - 1),
        ))
        out.append(Identity(
            f"(A^{2 * m}-1)B = AB^{m}A",
            WythoffWord("A" * (2 * m), -1).then("B"),
            WythoffWord("A" + "B" * m + "A"),
            "1" + "0" * (2 * m),
        ))
    for m in range(0, m_max + 1):
        for prefix, tail_letters in (("1", ""), ("001", "A"), ("101", "B")):
            out.append(Identity(
                f"C({prefix}0^{2 * m + 1}) = B^{m + 1}A{tail_letters}",
                None,
                WythoffWord("B" * (m + 1) + "A" + tail_letters),
                prefix + "0" * (2 * m + 1),
            ))
            out.append(Identity(
                f"C({prefix}0^{2 * m}) = AB^{m}A{tail_letters}",
                None,
                WythoffWord("A" + "B" * m + "A" + tail_letters),
                prefix + "0" * (2 * m),
            ))
    return out
