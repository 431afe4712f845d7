"""Zeckendorf digit words: encoding, decoding, digit windows, block queries.

Conventions, fixed once to kill the usual reversal bugs:

* Digit words are written most-significant-first, like ordinary numerals:
  11 is "10100".
* Digit *positions* count from the least-significant end.  Position 0 is the
  last character of the word; position i carries weight F(i+2).
* A digit window reads the word as if padded with zeros on the left: as the
  integer zeck_bits(n) >> k inside (block_at), and as a string only at the
  edge, where the m-digit padded word of n is window_of(encode(n), 0, m).

Each word is built by one route.  The expansion of a single n is read by
`zeck_bits` from two chunk tables, which are built once, at import, by the
greedy step: v in [F(k), F(k+1)) is a 1 at position k-2 over the expansion
of v - F(k).  It takes n's digits top down, one S-digit chunk a step, each
found by one division and one comparison against the shift law below.
`encode` writes that integer in binary.  The expansions of 0 .. bound-1
together, and the blocks of `valid_blocks`, come from the fibbinary
enumeration `fibbinary_below`.  The tables must not be built on that
enumeration: the check "codec-routes" of `oracle.certify` compares the two
routes, each `zeck_bits(n)` with the n-th enumerated integer.  The
digit-by-digit greedy loop survives as the reference `_greedy` in the tests.

`decode` reads a word by the same S-digit chunks on the same weights: by
the shift law (Fraenkel, "Systems of numeration", 1985), it carries the pair
(val(x), val(x·0^S)) of the digits x read so far, one chunk a step looked up
in _INDEX, the inverse of _LOW, and it joins halves above a leaf width.  The
one-digit walk of the weights survives as the reference `_walk` in the tests.
"""

from __future__ import annotations

from .fibcore import fib, fib_pair

# The longest block valid_blocks lists: F(22) = 17711 blocks at this length.
MAX_TREE_DEPTH = 20


def validate_block(word: str, allow_empty: bool = False) -> str:
    """Check a digit block (0/1 word, no "11"); returns it unchanged."""
    if not word:
        if allow_empty:
            return word
        raise ValueError("digit block must be non-empty")
    if not word.isascii() or word.encode().translate(None, b"01"):
        raise ValueError(f"digit block must consist of 0s and 1s: {word!r}")
    if "11" in word:
        raise ValueError(f"not a Zeckendorf word (contains '11'): {word!r}")
    return word


# Chunk width S of zeck_bits: the low S digits of every expansion come from
# one table, _LOW, and the next S digits from the index of their run in _HIGH.
_S = 18


def _chunk_tables() -> tuple[list[int], list[int]]:
    """_LOW[v], the expansion bits of each v < F(S+2), and _HIGH[v], the
    value of those bits shifted up by S positions; _HIGH is increasing and
    ends with the sentinel F(2S+2), above every two-chunk number: the value
    of chunk F(S+2) shifted up, which an estimate one past the last chunk
    reads.

    Both are built by the greedy step: v in [F(k), F(k+1)) is a 1 at
    position k-2 over the expansion of v - F(k), and that 1, shifted up by
    S positions, weighs F(k+S).
    """
    low, high = [0], [0]
    for k in range(2, _S + 2):
        top, top_high, base = 1 << (k - 2), fib(k + _S), fib(k)
        for v in range(base, fib(k + 1)):
            low.append(top | low[v - base])
            high.append(top_high + high[v - base])
    return low, high + [fib(2 * _S + 2)]


_LOW, _HIGH = _chunk_tables()
_INDEX = {bits: v for v, bits in enumerate(_LOW)}  # the inverse of _LOW
_ONE_CHUNK, _TWO_CHUNKS = fib(_S + 2), fib(2 * _S + 2)
# The weights of a step: F(S-1), F(S) and the Lucas number L(S) = F(S-1) +
# F(S+1), which sqrt(5)*F(S) and phi^S each miss by less than 10^-3.
_F_S1, _F_S = fib_pair(_S - 1)
_L_S = 2 * _F_S1 + _F_S
# decode reads words of up to _LEAF digits chunk by chunk, longer ones by halves.
_LEAF = 64 * _S


def _weights(s: int) -> tuple[int, int]:
    """(w(s-S), w(s)) for s a positive multiple of S, where w(s) = F(s)/F(S)
    (F(S) divides F(s)), from one fib_pair call, as F(s-S) = F(S-1)*F(s) -
    F(S)*F(s-1).  By the shift law and d'Ocagne's identity, every word u has
    val(u·0^s) = w(s)*val(u·0^S) - w(s-S)*val(u)."""
    f, w = fib_pair(s - 1)
    w //= _F_S
    return _F_S1 * w - f, w


def _shifted(p: int, q: int, s: int) -> tuple[int, int]:
    """(val(u·0^s), val(u·0^(s+S))) from (p, q) = (val(u), val(u·0^S)), for
    s a positive multiple of S; w(s+S) = L(S)*w(s) - w(s-S), as F(m+S) +
    F(m-S) = L(S)*F(m) for even S."""
    w0, w1 = _weights(s)
    w2 = _L_S * w1 - w0
    return w1 * q - w0 * p, w2 * q - w1 * p


def zeck_bits(n: int) -> int:
    """The Zeckendorf expansion of n as a fibbinary integer: bit i holds the
    digit at position i (OEIS A003714).

    Below F(S+2) it is one lookup in _LOW.  Above it the digits come top
    down, one S-digit chunk a step: at shift s the chunk is the largest
    x < F(S+2) with val(Z(x)·0^s) <= n, its digits are _LOW[x], and n less
    that value goes to the next shift down.  Shifts are multiples of S, and
    with the weights w of _weights, val(Z(x)·0^s) = w(s)*_HIGH[x] -
    w(s-S)*x.  At s = S that is _HIGH[x], the two-chunk step.  Above it
    the weights walk down by w(s-2S) = L(S)*w(s-S) - w(s), as F(m+S) +
    F(m-S) = L(S)*F(m) for even S, from _weights at the top shift.

    By Binet, val(Z(x)·0^s) = phi^s*(x + (1/phi - frac((x+1)*phi))/sqrt(5)),
    so n/phi^s lies in (x - 0.18, x + 1.28).  L(S)*w(s) is phi^s within a
    factor 1 + 10^-7, so the estimate (n // w(s) + F(S)) // L(S), near
    n/phi^s + 1/sqrt(5), is x or x+1, and one comparison settles it.
    """
    if n < 0:
        raise ValueError(f"cannot encode a negative number: {n}")
    if n < _ONE_CHUNK:
        return _LOW[n]
    bits = 0
    if n >= _TWO_CHUNKS:
        # F(k) > n for k = 3 + (bit length)*1441 // 1000, as log2(phi) > 1/1.441,
        # and top is the least multiple of S with top + S + 2 >= k
        top = n.bit_length() * 1441 // 1000 // _S * _S
        w_next, w = _weights(top)
        for s in range(top, _S, -_S):
            x = (n // w + _F_S) // _L_S
            v = w * _HIGH[x] - w_next * x
            if v > n:
                x -= 1
                v = w * _HIGH[x] - w_next * x
            n -= v
            bits |= _LOW[x] << s
            w, w_next = w_next, _L_S * w_next - w
    x = (n + _F_S) // _L_S
    if _HIGH[x] > n:
        x -= 1
    return bits | _LOW[x] << _S | _LOW[n - _HIGH[x]]


def encode(n: int) -> str:
    """Zeckendorf expansion of n, MSB first; "0" for zero.

    A number with F(k) <= n < F(k+1) gets exactly k-1 digits, none of them
    adjacent ones.
    """
    return format(zeck_bits(n), "b")


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


def _value_pair(bits: int, n: int) -> tuple[int, int]:
    """(val(x), val(x·0^S)) of the n-digit word x whose bit i is its digit at
    position i.  Up to _LEAF digits, x is read one S-digit chunk y at a time,
    top down: with v = val(y) = _INDEX[y], the pair (p, q) of the digits
    above y becomes (q + v, L(S)*q - p + _HIGH[v]), as val(u·0^(j+2S)) =
    L(S)*val(u·0^(j+S)) - val(u·0^j) for every word u.  Above _LEAF, x is
    its high part shifted past its low half, rounded down to a multiple of
    S, plus that half.
    """
    if n > _LEAF:
        s = n // (2 * _S) * _S
        p, q = _shifted(*_value_pair(bits >> s, n - s), s)
        v, v0 = _value_pair(bits & (1 << s) - 1, s)
        return p + v, q + v0
    shift = (n - 1) // _S * _S
    p = _INDEX[bits >> shift]
    q, mask = _HIGH[p], (1 << _S) - 1
    for shift in range(shift - _S, -1, -_S):
        v = _INDEX[bits >> shift & mask]
        p, q = q + v, _L_S * q - p + _HIGH[v]
    return p, q


def decode(word: str) -> int:
    """Value of a digit word: sum of F(i+2) over positions i holding a 1.

    Leading zeros are fine; a word with no 1, the empty word too, is 0 at
    once.  Words containing "11" are rejected.  A word of at most S digits
    is one lookup in _INDEX.  In a longer one, z = t*S + r trailing zeros
    are cut, r of them go back on the body, _value_pair reads the body as
    (p, q) = (val(body), val(body·0^S)), and the t*S zeros are one _shifted
    step.
    """
    validate_block(word, allow_empty=True)
    if len(word) <= _S:
        return _INDEX[int(word or "0", 2)]
    body = word.rstrip("0")
    if not body:
        return 0
    t, r = divmod(len(word) - len(body), _S)
    bits = int(body, 2) << r
    p, q = _value_pair(bits, bits.bit_length())
    return _shifted(p, q, t * _S)[0] if t else p


def window_of(word: str, k: int, m: int) -> str:
    """Digits k+m-1 .. k of an MSB-first word, zero-padded past its left end;
    it never pads more than m digits, so a far k costs nothing."""
    if k < 0 or m < 0:
        raise ValueError("position and width must be non-negative")
    end = len(word) - k
    if end < m:  # the window reaches past the left end
        return word[:max(end, 0)].rjust(m, "0")
    return word[end - m:end]


def block_at(n: int, w: str, k: int = 0) -> bool:
    """True when the expansion of n carries the block w at position k,
    i.e. digits k+m-1 .. k spell w (the empty block occurs everywhere).

    It reads the m-bit integer window zeck_bits(n) >> k: small n are
    zero-padded, a far k costs nothing, and k = 0 is "n ends with w".
    """
    validate_block(w, allow_empty=True)
    return zeck_bits(n) >> k & (1 << len(w)) - 1 == int("0" + w, 2)


def validate_length(m: int) -> int:
    """Check a block length against the cap of the per-length queries,
    0 <= m <= MAX_TREE_DEPTH; returns it unchanged."""
    if not 0 <= m <= MAX_TREE_DEPTH:
        raise ValueError(f"block length must be between 0 and {MAX_TREE_DEPTH}, got {m}")
    return m


def valid_blocks(m: int) -> list[str]:
    """All F(m+2) digit blocks of length m, in increasing order of value,
    for 0 <= m <= MAX_TREE_DEPTH.

    Block number v is the padded expansion of v: the v-th fibbinary number
    written with m digits, so valid_blocks(0) is the lone empty block.
    """
    validate_length(m)
    return [format(x | 1 << m, "b")[1:] for x in fibbinary_below(fib(m + 2))]
