"""Zeckendorf digit words: encoding, decoding, padded forms, block queries.

Conventions, fixed once to kill the usual reversal bugs:

* Digit words are written most-significant-first, like ordinary numerals:
  11 is "10100".
* Digit *positions* count from the least-significant end.  Position 0 is the
  last character of the word; position i carries weight F(i+2).
* Queries about "the digit at position i" treat the word as if it were
  padded with infinitely many zeros on the left.

Each word is built by one route.  The expansion of a single n comes from the
greedy `encode`; the expansions of 0 .. bound-1 together, and the blocks of
`valid_blocks`, come from the fibbinary enumeration `fibbinary_below`.  The
greedy `encode` is the reference for that enumeration, so it must not be
built on it: the check "codec-routes" of `oracle.certify` compares the two.
"""

from __future__ import annotations

from bisect import bisect_right

from .fibcore import fib, fib_table

# The longest block valid_blocks lists: F(22) = 17711 blocks at this length.
MAX_TREE_DEPTH = 20


def validate_block(word: str, allow_empty: bool = False) -> str:
    """Check a digit block (0/1 word, no "11"); returns it unchanged."""
    if not word:
        if allow_empty:
            return word
        raise ValueError("digit block must be non-empty")
    if set(word) - {"0", "1"}:
        raise ValueError(f"digit block must consist of 0s and 1s: {word!r}")
    if "11" in word:
        raise ValueError(f"not a Zeckendorf word (contains '11'): {word!r}")
    return word


def encode(n: int) -> str:
    """Greedy Zeckendorf expansion of n, MSB first; "0" for zero.

    A number with F(k) <= n < F(k+1) gets exactly k-1 digits, and the greedy
    choice never produces adjacent ones because the remainder after taking
    F(i) is below F(i-1).
    """
    if n < 0:
        raise ValueError(f"cannot encode a negative number: {n}")
    if n == 0:
        return "0"
    fibs = fib_table(n)
    k = bisect_right(fibs, n) - 1
    digits = ["1"]
    rem = n - fibs[k]
    for i in range(k - 1, 1, -1):
        if fibs[i] <= rem:
            digits.append("1")
            rem -= fibs[i]
        else:
            digits.append("0")
    return "".join(digits)


def fibbinary_below(bound: int) -> list[int]:
    """The Zeckendorf expansions of 0, 1, ..., bound-1 as integers whose
    bit i is the digit at position i (OEIS A003714: no two adjacent 1 bits).

    Level by level: the words of at most j+1 digits are the words of at most
    j digits followed by 2**j | x for each word x of at most j-1 digits,
    which keeps the list in increasing order of the number it encodes.
    """
    words, shorter, top = [0, 1], 1, 2
    while len(words) < bound:
        have = len(words)
        words += [top | x for x in words[:min(shorter, bound - have)]]
        shorter, top = have, top << 1
    return words[:bound]


def decode(word: str) -> int:
    """Value of a digit word: sum of F(i+2) over positions i holding a 1.

    Leading zeros are fine; the empty word decodes to 0.  Words containing
    "11" are rejected.
    """
    validate_block(word, allow_empty=True)
    total = 0
    for i, c in enumerate(reversed(word)):
        if c == "1":
            total += fib(i + 2)
    return total


def encode_padded(n: int, range_index: int) -> str:
    """The zero-padded form of n within [0, F(range_index)): exactly
    range_index - 2 digits.  For range_index = 2 the empty word stands for 0.
    """
    if n not in psi_range(range_index):
        raise ValueError(f"{n} is outside [0, F({range_index})) = [0, {fib(range_index)})")
    word = "" if n == 0 else encode(n)
    return word.rjust(range_index - 2, "0")


def window_of(word: str, k: int, m: int) -> str:
    """Digits k+m-1 .. k of an MSB-first word, zero-padded past its left end."""
    if k < 0 or m < 0:
        raise ValueError("position and width must be non-negative")
    end = len(word) - k
    if end <= 0:
        return "0" * m
    start = end - m
    if start < 0:
        return "0" * -start + word[:end]
    return word[start:end]


def block_at(n: int, w: str, k: int = 0) -> bool:
    """True when the expansion of n carries the block w at position k,
    i.e. digits k+m-1 .. k spell w (the empty block occurs everywhere).

    k = 0 is the "expansion ends with w" predicate, with small n read in
    their zero-padded form.
    """
    validate_block(w, allow_empty=True)
    return window_of(encode(n), k, len(w)) == w


def lambda_range(n: int) -> range:
    """The interval [F(n), F(n+1)): the naturals with exactly n-1 digits."""
    if n < 2:
        raise ValueError(f"range index must be at least 2, got {n}")
    return range(fib(n), fib(n + 1))


def psi_range(n: int) -> range:
    """The interval [0, F(n)): the naturals with at most n-2 digits."""
    if n < 2:
        raise ValueError(f"range index must be at least 2, got {n}")
    return range(fib(n))


def valid_blocks(m: int) -> list[str]:
    """All F(m+2) digit blocks of length m, in increasing order of value,
    for 0 <= m <= MAX_TREE_DEPTH.

    Block number v is the padded expansion of v: the v-th fibbinary number
    written with m digits, so valid_blocks(0) is the lone empty block.
    """
    if not 0 <= m <= MAX_TREE_DEPTH:
        raise ValueError(f"block length must be between 0 and {MAX_TREE_DEPTH}, got {m}")
    return [format(x | 1 << m, "b")[1:] for x in fibbinary_below(fib(m + 2))]
