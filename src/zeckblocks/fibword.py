"""The Fibonacci morphism a -> ab, b -> a and the finite words it generates.

The iterates are built by beatty.fibonacci_word, the concatenation
S(i+1) = S(i) S(i-1) that also lists a GBS's steps.  Their reference, the
substitution applied letter by letter, lives in the tests; the check
"fibword-coding" compares them with the occurrence coding, which reads
each number's expansion once, as the integer codec.zeck_bits, and reads
both its low digits and the digit above them from that integer.
"""

from __future__ import annotations

from .beatty import fibonacci_word
from .codec import validate_block, validate_length, zeck_bits
from .fibcore import fib

# The largest iterate morphism_iterate builds, F(32) = 2,178,309 letters (a
# few ms), and the largest index m + n of the range occurrence_coding scans,
# F(30) = 832,040 numbers (0.2-0.5 s in-process, CPython 3.11.7 on a 2-CPU
# Intel Xeon; most for w = "00", which has the most hits); each level adds a
# factor of phi.
MAX_LEVEL = 30


def morphism_iterate(n: int) -> str:
    """The n-th iterate of the morphism on 'a': "a", "ab", "aba", "abaab", ...

    Each iterate is a prefix of the next: the n-th is the first F(n+2)
    letters of the Fibonacci word over "a" and "b"; n is at most MAX_LEVEL.
    """
    if not 0 <= n <= MAX_LEVEL:
        raise ValueError(f"iteration count must be between 0 and {MAX_LEVEL}, got {n}")
    return fibonacci_word("a", "b", fib(n + 2))


def occurrence_coding(w: str, n: int) -> str:
    """Scan 0 <= N < F(m+n) for expansions ending in 0w (coded 'a') or 1w
    (coded 'b'), in increasing order of N; w must start with 0 and have
    length m >= 2, so both extensions are legal blocks.  The scan reads
    about phi**m numbers per letter of the answer, so m is capped at
    MAX_TREE_DEPTH, the cap of the other per-length queries, and m + n at
    MAX_LEVEL.

    The suffix test compares the low m bits of zeck_bits(N), the expansion
    as an integer, with w read in binary: small N read in zero-padded form,
    which is what makes N = 0 an occurrence of 0w.  The letter of each hit
    is bit m of the same integer, the digit above w.
    """
    validate_block(w)
    if w[0] != "0":
        raise ValueError(f"block must start with 0 to extend both ways: {w!r}")
    if len(w) < 2:
        raise ValueError("block must have length at least 2")
    validate_length(len(w))
    if n < 3:
        raise ValueError(f"level must be at least 3, got {n}")
    m = len(w)
    if m + n > MAX_LEVEL:
        raise ValueError(f"block length plus level must be at most {MAX_LEVEL}, got {m} + {n}")
    target, mask = int(w, 2), (1 << m) - 1
    return "".join("ab"[x >> m & 1]
                   for x in map(zeck_bits, range(fib(m + n))) if x & mask == target)


def positions_of(letter: str, word: str) -> list[int]:
    """1-based positions of a letter in a word."""
    return [i + 1 for i, c in enumerate(word) if c == letter]
