import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zeckblocks.codec
from zeckblocks.codec import (
    _HIGH,
    _LEAF,
    _S,
    block_at,
    decode,
    encode,
    valid_blocks,
    validate_block,
    window_of,
    zeck_bits,
)
from zeckblocks.fibcore import fib


def _greedy(n: int) -> str:
    """The reference expansion: the greedy choice, one digit at a time, from
    the largest F(k) <= n down to F(2), over weights walked by additions."""
    weights = [1, 2]  # weights[i] = F(i+2)
    while weights[-1] <= n:
        weights.append(weights[-1] + weights[-2])
    digits = []
    for weight in reversed(weights[:-1]):
        if weight <= n:
            digits.append("1")
            n -= weight
        else:
            digits.append("0")
    return "".join(digits)


def _walk(word: str) -> int:
    """The reference value of a digit word: the weights F(i+2) walked upward
    from position 0, one digit at a time."""
    total, weight, above = 0, 1, 2
    for c in reversed(word):
        if c == "1":
            total += weight
        weight, above = above, weight + above
    return total


def _random_word(rng: random.Random, m: int) -> str:
    """A random digit word of m digits with no "11", leading zeros allowed."""
    digits = []
    while len(digits) < m:
        digits.append("0" if digits and digits[-1] == "1" else rng.choice("01"))
    return "".join(digits)


def test_encode_known_values():
    assert encode(11) == "10100"
    assert encode(0) == "0"
    assert encode(4) == "101"
    assert [encode(n) for n in range(5)] == ["0", "1", "10", "100", "101"]


def test_encode_rejects_negative():
    with pytest.raises(ValueError):
        encode(-1)
    with pytest.raises(ValueError):
        zeck_bits(-1)


def test_decode_known_values():
    assert decode("10100") == 11
    assert decode("000") == 0
    assert decode("010") == 2
    assert decode("") == 0
    assert decode("0") == 0


def test_decode_of_a_long_word_is_quick():
    # the shift law reads 18-digit chunks, one large product each, and
    # joins halves above the leaf width, so a long word costs no walk per digit
    rng = random.Random(20000)
    digits = ["1"]
    while len(digits) < 20000:
        digits.append("0" if digits[-1] == "1" else rng.choice("01"))
    word = "".join(digits)
    start = time.perf_counter()
    n = decode(word)
    assert time.perf_counter() - start < 1
    assert encode(n) == word
    assert decode("1" + "0" * 19999) == fib(20001)


def test_decode_skips_the_trailing_zeros():
    # the digits above the lowest 1 are read first, and the trailing zeros
    # are one shift by the weights of one doubling
    start = time.perf_counter()
    n = decode("1" + "0" * 200_000)
    assert time.perf_counter() - start < 0.1
    assert n == fib(200_002)
    assert decode("0" * 7) == 0


def test_decode_of_a_word_of_zeros_needs_no_weights(monkeypatch):
    # a word with no 1 is 0 at once: no Fibonacci number is computed for it
    def no_weights(k):
        raise AssertionError(f"fib_pair({k}) called")

    monkeypatch.setattr(zeckblocks.codec, "fib_pair", no_weights)
    assert decode("0" * 5000) == 0
    assert decode("") == 0


_BOUNDARY_LENGTHS = sorted({0, 1, 70_000, *(width + d for d in (-1, 0, 1) for width in
                                             (12, 24, 36, _S, 2 * _S, _LEAF, 2 * _LEAF))})
# t*S + r trailing zeros: r of them go back on the body, t*S are one shift
_TRAILING_ZEROS = sorted({t * _S + r for t in (0, 1, 2, 64, 65) for r in (_S - 1, 0, 1)})


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(_BOUNDARY_LENGTHS), st.integers(0, 3 * _LEAF),
                 st.integers(0, 70_000)),
       st.integers(0, 2**32), st.integers(0, 40),
       st.one_of(st.integers(0, 40), st.sampled_from(_TRAILING_ZEROS)))
def test_decode_is_the_digit_walk(m, seed, lead, trail):
    # words up to 70,000 digits, at and around the chunk and leaf widths,
    # with leading and trailing zeros, the empty word included
    word = "0" * lead + _random_word(random.Random(seed), m) + "0" * trail
    assert decode(word) == _walk(word)


def test_decode_at_the_chunk_step_and_leaf_widths():
    # the greatest word of each length around each width, 1010..., and the
    # least, a lone 1 over zeros, each also under a leading zero and over
    # each count of trailing zeros around a multiple of the chunk width
    for m in _BOUNDARY_LENGTHS[1:-1]:
        for word in (("10" * m)[:m], "1" + "0" * (m - 1)):
            assert decode(word) == decode("0" + word) == _walk(word), m
            for zeros in _TRAILING_ZEROS:
                assert decode(word + "0" * zeros) == _walk(word + "0" * zeros), (m, zeros)


@pytest.mark.parametrize("bad", ["11", "0110", "10011", "2", "1a0", "1\u00e90", "1_0"])
def test_decode_rejects_invalid_words(bad):
    with pytest.raises(ValueError):
        decode(bad)


def test_round_trip_small():
    for n in range(100_000):
        word = encode(n)
        assert "11" not in word
        assert decode(word) == n


@given(st.integers(0, 10**200))
def test_round_trip_arbitrary_precision(n):
    word = encode(n)
    assert "11" not in word
    assert decode(word) == n


@given(st.integers(0, 10**200))
def test_encode_is_the_greedy_expansion(n):
    assert encode(n) == _greedy(n)
    assert zeck_bits(n) == int(encode(n), 2)


@pytest.mark.parametrize("chunks", range(1, 62))
def test_encode_at_the_chunk_edges(chunks):
    # around F(20) one table lookup meets the two-chunk step, around F(38)
    # the top-down steps start, and each F(18j+20) above it adds one step
    edge = fib(18 * chunks + 2)
    for n in range(edge - 50, edge + 51):
        assert encode(n) == _greedy(n)
        assert zeck_bits(n) == int(encode(n), 2)


def test_encode_around_the_end_of_the_fibonacci_table():
    # F(1004) .. F(1044): the top weights of the steps come from the table
    # below F(1024) and from a Lucas doubling above it
    for index in range(1004, 1045):
        edge = fib(index)
        for n in range(edge - 50, edge + 51):
            assert encode(n) == _greedy(n), (index, n - edge)


@settings(max_examples=6, deadline=None)
@given(st.integers(1000, 20_000), st.integers(0, 2**32))
@example(20_000, 0)
def test_encode_of_a_long_number_is_the_greedy_expansion(digits, seed):
    # numbers of 1,000 to 20,000 decimal digits: thousands of steps, each
    # against weights walked down from one Lucas doubling
    n = random.Random(seed).randrange(10**(digits - 1), 10**digits)
    assert encode(n) == _greedy(n)


def test_zeck_bits_at_both_ends_of_every_high_run():
    # in [F(20), F(38)) the expansions with high word v (digits 18 and up)
    # are the run [_HIGH[v], _HIGH[v+1]); the estimate of v is furthest off
    # at its ends, and the last run ends at the sentinel F(38)
    assert _HIGH[1] == fib(20) and _HIGH[fib(20)] == fib(38)
    for v in range(1, fib(20)):
        for n in (_HIGH[v], _HIGH[v + 1] - 1):
            assert zeck_bits(n) == int(_greedy(n), 2), n
    assert [_HIGH[v] for v in range(fib(20))] == \
        [decode(_greedy(v) + "0" * 18) for v in range(fib(20))]


def test_unpadded_form_has_no_leading_zero():
    for n in range(1, 2000):
        assert encode(n)[0] == "1"


def test_padded_encodes_list_the_blocks_of_their_length():
    # the padded words of [0, F(m+2)) are the valid blocks of length m, in
    # order, from the empty block at m = 0 on
    for m in range(16):
        assert [window_of(encode(n), 0, m) for n in range(fib(m + 2))] == valid_blocks(m)


def test_basic_recursion():
    # numbers in [F(n), F(n+1)) decompose as a leading 1 over the padded rest
    for n in range(2, 26):
        for value in range(fib(n), fib(n + 1)):
            assert encode(value) == "1" + window_of(encode(value - fib(n)), 0, n - 2)


def test_digit_count_is_the_fibonacci_interval():
    # the naturals with exactly n-1 digits are [F(n), F(n+1))
    for n in range(2, 21):
        for value in range(fib(n), fib(n + 1)):
            assert len(encode(value)) == n - 1
    for value in range(1, fib(21)):
        n = len(encode(value)) + 1
        assert fib(n) <= value < fib(n + 1)


def test_padded_form_holds_exactly_the_numbers_below_fib_n():
    # [0, F(n)) are the naturals whose padded form of n-2 digits keeps every
    # digit, from [0] with the empty word at n = 2 on
    for n in range(2, 21):
        assert all(decode(window_of(encode(v), 0, n - 2)) == v for v in range(fib(n)))
        assert decode(window_of(encode(fib(n)), 0, n - 2)) != fib(n)


def test_block_at_examples():
    assert not block_at(11, "10", 0)
    assert block_at(11, "00", 0)
    assert block_at(11, "101", 2)
    assert block_at(0, "0000000", 3)
    assert block_at(2, "010", 0)  # padded reading of Z(2) = 10
    assert block_at(5, "", 17)


def test_block_at_beyond_expansion_is_zero_padded():
    for n in range(50):
        assert block_at(n, "0", 40)
        assert not block_at(n, "1", 40)


def test_block_at_validates():
    with pytest.raises(ValueError):
        block_at(5, "11", 0)
    with pytest.raises(ValueError):
        block_at(5, "0", -1)
    with pytest.raises(ValueError):
        block_at(5, "", -1)
    with pytest.raises(ValueError):
        block_at(-1, "")


@given(st.integers(0, 10**6), st.integers(0, 10))
def test_block_at_agrees_with_the_string_window(n, m):
    # the integer window block_at reads is the zero-padded string window of
    # encode(n), for every block w of length m, the empty block included,
    # and k <= 30
    for k in range(31):
        window = window_of(encode(n), k, m)
        for w in valid_blocks(m):
            assert block_at(n, w, k) == (window == w)


def test_window_of_padding():
    assert window_of("10100", 0, 2) == "00"
    assert window_of("10100", 2, 3) == "101"
    assert window_of("10100", 3, 4) == "0010"
    assert window_of("10100", 9, 3) == "000"
    assert window_of(encode(11), 2, 3) == "101"
    # the padded forms of small numbers
    assert window_of(encode(4), 0, 3) == "101"
    assert window_of(encode(1), 0, 3) == "001"
    assert window_of(encode(3), 0, 4) == "0100"
    assert window_of(encode(0), 0, 0) == ""
    assert [window_of(encode(n), 0, 3) for n in range(5)] == ["000", "001", "010", "100", "101"]
    for k, m in ((-1, 2), (0, -1)):
        with pytest.raises(ValueError, match="position and width must be non-negative"):
            window_of("101", k, m)


def test_validate_block():
    assert validate_block("1010") == "1010"
    assert validate_block("", allow_empty=True) == ""
    with pytest.raises(ValueError):
        validate_block("")
    with pytest.raises(ValueError):
        validate_block("0110")
    with pytest.raises(ValueError, match="0s and 1s"):
        validate_block("0201")


def test_valid_blocks():
    assert valid_blocks(0) == [""]
    assert valid_blocks(1) == ["0", "1"]
    assert valid_blocks(2) == ["00", "01", "10"]
    for m in range(1, 10):
        blocks = valid_blocks(m)
        assert len(blocks) == fib(m + 2)
        for value, w in enumerate(blocks):
            assert len(w) == m and "11" not in w
            assert decode(w) == value
