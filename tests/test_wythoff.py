import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zeckblocks import beatty
from zeckblocks.beatty import GBS, wythoff_A, wythoff_B
from zeckblocks.wythoff import (
    WythoffWord,
    csh_reduce,
    identity_catalog,
    wythoff_array,
)


def all_words(length: int):
    for bits in range(1 << length):
        yield "".join("AB"[(bits >> i) & 1] for i in range(length))


def test_direct_eval_orientation():
    # "AB" applies B first: A(B(1)) = A(2) = 3
    assert WythoffWord("AB")(1) == 3
    assert WythoffWord("A")(4) == 6
    assert WythoffWord("BA")(2) == wythoff_B(wythoff_A(2))


def test_empty_word_is_shifted_identity():
    w = WythoffWord("", -1)
    for n in (1, 2, 17, 500):
        assert w(n) == n - 1


def test_word_validation():
    with pytest.raises(ValueError):
        WythoffWord("AC")
    with pytest.raises(ValueError, match="A or B"):
        WythoffWord("ACB")
    with pytest.raises(ValueError):
        WythoffWord("A")(0)


@given(st.text("AB", max_size=8), st.integers(-3, 3), st.integers(0, 300))
@example("", 0, 300)
@example("", -1, 5)
def test_word_terms_are_the_pointwise_values(letters, shift, count):
    word = WythoffWord(letters, shift)
    assert word.terms(count) == [word(n) for n in range(1, count + 1)]


def test_word_terms_share_no_route_with_the_closed_forms(monkeypatch):
    # certify sets word terms against GBS terms, so the word side builds no
    # step word and evaluates no GBS
    def refuse(*args):
        raise AssertionError("a closed-form route was called")

    for owner, name in ((beatty, "fibonacci_word"), (GBS, "terms"), (GBS, "__call__")):
        monkeypatch.setattr(owner, name, refuse)
    word = WythoffWord("ABBA", -1)
    assert word.terms(500) == [wythoff_A(wythoff_B(wythoff_B(wythoff_A(n)))) - 1
                               for n in range(1, 501)]


def test_word_terms_reject_a_negative_count():
    for word in (WythoffWord(), WythoffWord("BA", 2)):
        with pytest.raises(ValueError, match=r"^number of terms must be non-negative, got -1$"):
            word.terms(-1)


def test_csh_reduce_tree_nodes():
    assert csh_reduce(WythoffWord("BA")) == GBS(2, 1, -1)
    assert csh_reduce(WythoffWord("AA")) == GBS(1, 1, -1)
    assert csh_reduce(WythoffWord("AAB")) == GBS(3, 2, -1)
    assert csh_reduce(WythoffWord("A")) == GBS(1, 0, 0)
    with pytest.raises(ValueError):
        csh_reduce(WythoffWord(""))


def test_csh_reduce_folds_shift_into_constant():
    word = WythoffWord("AA", -1)
    closed = csh_reduce(word)
    assert closed == GBS(1, 1, -2)
    for n in range(1, 200):
        assert closed(n) == word(n)


def test_csh_soundness_short_words():
    for length in range(1, 7):
        for letters in all_words(length):
            word = WythoffWord(letters)
            closed = csh_reduce(word)
            for n in range(1, 121):
                assert closed(n) == word(n), (letters, n)


def test_lambda_constant_across_n():
    for letters in ("A", "B", "AB", "BBA", "ABAB", "BABABA"):
        word = WythoffWord(letters)
        closed = csh_reduce(word)
        lams = {closed.p * wythoff_A(n) + closed.q * n - word(n) for n in (1, 2, 50, 1000)}
        assert lams == {-closed.r}


def test_wythoff_array_values():
    assert wythoff_array(1, 0) == 1
    assert wythoff_array(2, 1) == 4
    assert wythoff_array(2, 2) == 7
    # row 1 runs through F(m+1): the columns A, AA, BA, ABA, ... at n = 1
    assert [wythoff_array(1, m) for m in range(7)] == [1, 1, 2, 3, 5, 8, 13]


def test_wythoff_array_column_zero_is_A():
    for n in range(1, 201):
        assert wythoff_array(n, 0) == wythoff_A(n)


def test_wythoff_array_bounds():
    with pytest.raises(ValueError):
        wythoff_array(0, 1)
    with pytest.raises(ValueError):
        wythoff_array(1, -1)


def test_word_str():
    assert str(WythoffWord("AAA", -1)) == "AAA-1"
    assert str(WythoffWord("BA")) == "BA"
    assert str(WythoffWord("", -1)) == "Id-1"


def test_identity_catalog_structure():
    catalog = identity_catalog(5)
    names = [ident.name for ident in catalog]
    assert "(A^1-1)A = A^2-1" in names
    assert "(A^1-1)B = B^1A" in names
    assert "C(10^1) = B^1A" in names
    assert len(names) == len(set(names))
    assert all(ident.block for ident in catalog)
    with pytest.raises(ValueError):
        identity_catalog(-1)


def test_identity_catalog_pointwise_small():
    for ident in identity_catalog(3):
        if ident.lhs is None:
            continue
        for n in range(1, 201):
            assert ident.lhs(n) == ident.rhs(n), (ident.name, n)
