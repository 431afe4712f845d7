import pytest

from zeckblocks import fibword
from zeckblocks.beatty import wythoff_A, wythoff_B
from zeckblocks.codec import MAX_TREE_DEPTH, encode, valid_blocks, window_of
from zeckblocks.fibcore import fib
from zeckblocks.fibword import morphism_iterate, occurrence_coding, positions_of


def test_morphism_iterates():
    assert morphism_iterate(0) == "a"
    assert morphism_iterate(1) == "ab"
    assert morphism_iterate(2) == "aba"
    assert morphism_iterate(3) == "abaab"
    assert morphism_iterate(5) == "abaababaabaab"


def substitute(word: str) -> str:
    """One step of the morphism, letter by letter: the reference for the
    iterates, which are built by concatenation, S(i+1) = S(i) S(i-1)."""
    return "".join("ab" if c == "a" else "a" for c in word)


def test_each_iterate_is_the_substitution_of_the_last():
    for n in range(20):
        assert morphism_iterate(n + 1) == substitute(morphism_iterate(n)), n


def test_iterates_are_prefixes_with_fibonacci_lengths():
    prev = "a"
    for n in range(1, 15):
        word = morphism_iterate(n)
        assert word.startswith(prev)
        assert len(word) == fib(n + 2)
        assert "bb" not in word
        prev = word


def test_morphism_rejects_negative():
    with pytest.raises(ValueError):
        morphism_iterate(-1)


def test_levels_past_the_cap_are_rejected(monkeypatch):
    cap = fibword.MAX_LEVEL
    assert len(morphism_iterate(cap)) == fib(cap + 2)

    def refuse(*args):
        raise AssertionError("the level cap was passed")
    # a missing cap fails here at once instead of building the word or scanning
    monkeypatch.setattr(fibword, "fibonacci_word", refuse)
    monkeypatch.setattr(fibword, "zeck_bits", refuse)
    with pytest.raises(ValueError, match=f"between 0 and {cap}, got {cap + 1}"):
        morphism_iterate(cap + 1)
    for w, n in (("00", cap - 1), ("0" * MAX_TREE_DEPTH, cap - MAX_TREE_DEPTH + 1)):
        with pytest.raises(ValueError, match=f"at most {cap}, got {len(w)} \\+ {n}"):
            occurrence_coding(w, n)


def test_occurrence_coding_examples():
    assert occurrence_coding("00", 3) == "ab"
    assert occurrence_coding("00", 4) == "aba"
    assert occurrence_coding("010", 5) == "abaab"


def test_occurrence_coding_matches_morphism():
    for m in range(2, 6):
        for w in valid_blocks(m):
            if w[0] != "0":
                continue
            for n in range(3, 13):
                assert occurrence_coding(w, n) == morphism_iterate(n - 2), (w, n)


def test_occurrence_coding_is_the_digit_scan():
    # the reference reads the string of each N, the padded window of
    # encode(N) at 0 and the digit above it, where occurrence_coding reads
    # integer windows of zeck_bits(N); level n codes the hits below F(m+n),
    # so one scan serves every level
    for m in range(2, 9):
        for w in valid_blocks(m):
            if w[0] != "0":
                continue
            hits = [(value, "ab"[int(window_of(word, m, 1))])
                    for value, word in enumerate(map(encode, range(fib(m + 14))))
                    if window_of(word, 0, m) == w]
            for n in range(3, 15):
                scanned = "".join(letter for value, letter in hits if value < fib(m + n))
                assert occurrence_coding(w, n) == scanned, (w, n)


def test_occurrence_coding_validation():
    with pytest.raises(ValueError):
        occurrence_coding("10", 3)  # must start with 0
    with pytest.raises(ValueError):
        occurrence_coding("0", 3)  # too short
    with pytest.raises(ValueError):
        occurrence_coding("00", 2)  # level too small


def test_occurrence_coding_caps_the_block_length():
    # the scan reads about phi**m numbers per letter; past the cap it would
    # run for minutes, so the length is rejected before any scan
    assert occurrence_coding("0" * MAX_TREE_DEPTH, 3) == "ab"
    with pytest.raises(ValueError, match=f"between 0 and {MAX_TREE_DEPTH}, got 21"):
        occurrence_coding("0" * 21, 3)


def test_positions_of_examples():
    assert positions_of("a", "abaab") == [1, 3, 4]
    assert positions_of("b", "abaab") == [2, 5]


def test_letter_positions_are_the_wythoff_sequences():
    word = morphism_iterate(10)
    for i, pos in enumerate(positions_of("a", word), start=1):
        assert pos == wythoff_A(i)
    for i, pos in enumerate(positions_of("b", word), start=1):
        assert pos == wythoff_B(i)


def test_A_values_from_the_word_at_scale():
    # independent route to floor(n*phi): letter positions in a long iterate
    word = morphism_iterate(25)
    a_positions = positions_of("a", word)
    assert len(a_positions) >= 100_000
    for i in range(1, 100_001):
        assert a_positions[i - 1] == wythoff_A(i)
