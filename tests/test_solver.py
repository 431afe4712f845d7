import random
from collections import Counter
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeckblocks.beatty import GBS, wythoff_A, wythoff_B
from zeckblocks.codec import MAX_TREE_DEPTH, block_at, valid_blocks
from zeckblocks.fibcore import GoldenNumber, fib, phi_pow
from zeckblocks.oracle import brute_occurrences
from zeckblocks.solver import (
    MAX_POSITION,
    BlockSolution,
    density,
    density_total,
    gamma,
    level_solutions,
    solve_block,
    solve_positional,
    tree,
)
from zeckblocks.wythoff import WythoffWord

TREE_FIGURE = {
    "0": ("A-1", (1, 0, -1)),
    "1": ("AA", (1, 1, -1)),
    "00": ("AA-1", (1, 1, -2)),
    "10": ("BA", (2, 1, -1)),
    "01": ("AA", (1, 1, -1)),
    "000": ("AAA-1", (2, 1, -3)),
    "100": ("ABA", (3, 2, -2)),
    "010": ("BA", (2, 1, -1)),
    "001": ("AAA", (2, 1, -2)),
    "101": ("AAB", (3, 2, -1)),
}


def _gamma_by_digits(w):
    """gamma's sum walked one digit at a time, the reference for gamma."""
    m = len(w)
    total, f, f1 = 1, 1, 1  # f, f1 = F(k), F(k+1), walked upward with k
    for k in range(1, m):
        if w[m - 1 - k] == "0" and w[m - k] == "0":
            total += f
        f, f1 = f1, f + f1
    return -total


def _compound_by_digits(w):
    """Left extension one digit at a time, the reference for the compound word."""
    if "1" not in w:
        return WythoffWord("A" * len(w), -1)
    low = w.rindex("1")
    j = len(w) - 1 - low
    if j == 0:
        word = WythoffWord("AA")
    elif j % 2:
        word = WythoffWord("B" * ((j + 1) // 2) + "A")
    else:
        word = WythoffWord("A" + "B" * (j // 2) + "A")
    for i in range(low - 1, -1, -1):
        if w[i] == "1":
            word = word.then("B")
        elif w[i + 1] == "0":
            word = word.then("A")
    return word


def _words(max_digits):
    """Zeckendorf digit blocks (no "11") of up to max_digits digits."""
    return st.builds(lambda parts, last: ("".join(parts) + last)[:max_digits],
                     st.lists(st.sampled_from(["0", "10"]), max_size=max_digits),
                     st.sampled_from(["", "1"]))


def test_gamma_examples():
    assert gamma("00") == -2
    assert gamma("101") == -1
    assert gamma("0000") == -5
    assert gamma("000") == -3
    assert gamma("0") == -1
    assert gamma("1") == -1


def test_gamma_of_all_zero_blocks():
    for m in range(1, 12):
        assert gamma("0" * m) == -fib(m + 1)


def test_gamma_always_negative():
    for m in range(1, 9):
        for w in valid_blocks(m):
            assert gamma(w) < 0


def test_gamma_matches_the_digit_walk():
    for m in range(17):
        for w in valid_blocks(m):
            assert gamma(w) == _gamma_by_digits(w), w


def test_gamma_of_long_zero_tails():
    # around the end of fib's table (n = 1024) and beyond it, up to the cap
    for w in ("0", "1", "00", "10", "01", "101", "0101", "1001"):
        for k in (1022, 1023, 1024, 1025, 1026, 5000, MAX_POSITION):
            assert gamma(w + "0" * k) == _gamma_by_digits(w + "0" * k), (w, k)


def test_gamma_of_long_mixed_blocks():
    # thousands of runs of one to sixty zeros, with weights far above fib's table
    rng = random.Random(11)
    for m in (999, 1000, 1001, 1002, 2001, 4003, 9000):
        for parts in (["0", "10"], ["00", "000", "10"], ["1" + "0" * i for i in range(1, 60)]):
            w = "".join(rng.choice(parts) for _ in range(m))[:m]
            assert gamma(w) == _gamma_by_digits(w), (m, parts)


@settings(max_examples=150, deadline=None)
@given(_words(300), st.integers(0, 3000))
def test_gamma_matches_the_digit_walk_on_random_words(w, tail):
    w += "0" * tail
    assert gamma(w) == _gamma_by_digits(w)


def test_compound_matches_left_extension():
    for m in range(1, 17):
        for w in valid_blocks(m):
            assert solve_block(w).compound == _compound_by_digits(w), w


@settings(max_examples=150, deadline=None)
@given(_words(400).filter(bool))
def test_compound_matches_left_extension_on_random_words(w):
    assert solve_block(w).compound == _compound_by_digits(w)


def test_long_block_is_solved_in_one_pass():
    w = "1001010000" * 3000  # 30,000 digits, runs of one, two and four zeros
    start = time.perf_counter()
    sol = solve_block(w)
    assert time.perf_counter() - start < 0.5
    assert sol.gbs.r == _gamma_by_digits(w)
    # every period above the lowest adds the same letters, so the reference
    # on the lowest hundred periods fixes the whole word
    low = _compound_by_digits(w[-1000:]).letters
    period = low[len(_compound_by_digits(w[-990:]).letters):]
    assert sol.compound == WythoffWord(low + period * 2900)


def test_positional_offset_at_the_cap_is_cheap():
    start = time.perf_counter()
    occ = solve_positional("0101", MAX_POSITION)
    assert time.perf_counter() - start < 0.05
    assert occ.gbs.r == _gamma_by_digits("0101" + "0" * MAX_POSITION)


def test_solutions_match_the_tree_figure():
    for w, (compound, params) in TREE_FIGURE.items():
        sol = solve_block(w)
        assert str(sol.compound) == compound, w
        assert (sol.gbs.p, sol.gbs.q, sol.gbs.r) == params, w


def test_solve_block_rejects_malformed():
    with pytest.raises(ValueError):
        solve_block("110")
    with pytest.raises(ValueError):
        solve_block("01x")


def test_coefficient_law():
    for m in range(1, 9):
        for w in valid_blocks(m):
            sol = solve_block(w)
            if w[0] == "0":
                assert (sol.gbs.p, sol.gbs.q) == (fib(m), fib(m - 1))
            else:
                assert (sol.gbs.p, sol.gbs.q) == (fib(m + 1), fib(m))
            assert sol.gbs.r < 0


def test_exceptional_flags():
    assert solve_block("1").exceptional
    assert solve_block("000").exceptional
    assert solve_block("").exceptional
    assert not solve_block("10").exceptional
    assert not solve_block("001").exceptional
    # the flag is read from the word, so a node built by left extension
    # carries it exactly where solve_block does
    for node in tree(8).walk():
        w = node.word
        assert node.solution.exceptional == (w == "1" or w == "0" * len(w)), w


def test_block_one_equals_B_minus_1_and_AA():
    sol = solve_block("1")
    for n in range(1, 501):
        value = sol.gbs(n)
        assert value == wythoff_B(n) - 1
        assert value == wythoff_A(wythoff_A(n))
        assert value == sol.compound(n)


def test_all_zero_blocks_are_iterated_A_minus_1():
    for m in range(1, 9):
        sol = solve_block("0" * m)
        assert str(sol.compound) == "A" * m + "-1"
        for n in range(1, 501):
            x = n
            for _ in range(m):
                x = wythoff_A(x)
            assert sol.gbs(n) == x - 1
            assert sol.compound(n) == x - 1


def test_dual_representation():
    for m in range(0, 7):
        for sol in level_solutions(m):
            for n in range(1, 201):
                assert sol.compound(n) == sol.gbs(n), (sol.word, n)


def test_tree_step_law():
    for m in range(1, 8):
        for sol in level_solutions(m):
            if sol.word[0] != "0":
                continue
            assert solve_block("0" + sol.word).gbs == sol.gbs.compose_A()
            assert solve_block("1" + sol.word).gbs == sol.gbs.compose_B()


def test_root_solution_is_shifted_identity():
    root = solve_block("")
    assert root.compound == WythoffWord("", -1)
    assert root.gbs == GBS(0, 1, -1)
    assert root.terms(5) == [0, 1, 2, 3, 4]


def test_tree_shape():
    root = tree(3)
    words = [node.word for node in root.walk()]
    assert words == ["", "0", "00", "000", "100", "10", "010", "1", "01", "001", "101"]
    depth_one = tree(1)
    assert [c.solution.gbs for c in depth_one.children] == [GBS(1, 0, -1), GBS(1, 1, -1)]


def test_tree_level_sizes():
    # level m holds each of the F(m+2) valid blocks once
    by_level: dict[int, list[str]] = {}
    for node in tree(12).walk():
        by_level.setdefault(len(node.word), []).append(node.word)
    assert sorted(by_level) == list(range(13))
    for m, words in by_level.items():
        assert len(words) == fib(m + 2)
        assert set(words) == set(valid_blocks(m))


def test_tree_nodes_equal_solve_block():
    # the tree composes each node from its parent; solve_block starts afresh
    for node in tree(16).walk():
        assert node.solution == solve_block(node.word), node.word


def test_full_depth_tree_node_count():
    assert sum(1 for _ in tree(MAX_TREE_DEPTH).walk()) == fib(MAX_TREE_DEPTH + 4) - 2 == 46366


def test_tree_depth_bounds():
    with pytest.raises(ValueError):
        tree(-1)
    start = time.perf_counter()
    for levels in (tree, level_solutions, valid_blocks):
        with pytest.raises(ValueError, match="between 0 and 20, got 21"):
            levels(21)
    for m in (0, 21):
        with pytest.raises(ValueError, match=f"block length must be between 1 and 20, got {m}"):
            density_total(m)
    assert time.perf_counter() - start < 0.5
    assert len(valid_blocks(20)) == fib(22)
    assert density_total(20) == GoldenNumber(1, 0)


def test_positional_worked_example():
    occ = solve_positional("00", 2)
    assert [(b.p, b.q, b.r) for b in occ.branches] == [(3, 2, -5), (3, 2, -4), (3, 2, -3)]


def test_positional_k0_is_solve_block():
    for w in ("10", "0", "1", "0010"):
        occ = solve_positional(w, 0)
        assert len(occ.branches) == 1
        assert occ.branches[0] == solve_block(w).gbs


def test_positional_single_digit_one_shifted():
    occ = solve_positional("1", 1)
    assert occ.branches == (GBS(2, 1, -1),)
    hits = [n for n in range(1000) if block_at(n, "1", 1)]
    assert occ.terms_below(1000) == hits


def test_positional_terms_within_one_run():
    # up to one run, terms is the first run cut at count: its count-1
    # steps are ones, inside the step word's first letter
    for w, k in (("0101", 4), ("00", 2), ("1", 6), ("10", 5), ("001", 3)):
        occ = solve_positional(w, k)
        chained = [v + t for v in occ.gbs.terms(2) for t in range(occ.count)]
        for count in range(occ.count + 1):
            assert occ.terms(count) == chained[:count], (w, k, count)


def test_positional_branch_count_law():
    for m in range(1, 5):
        for w in valid_blocks(m):
            for k in range(5):
                occ = solve_positional(w, k)
                assert len(occ.branches) == fib(k + 2 - int(w[-1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 20), st.integers(0, 16), st.integers(1, 5000),
       st.data())
def test_positional_runs_match_brute_force(m, index, k, bound, data):
    blocks = valid_blocks(m)
    w = blocks[index % len(blocks)]
    occ = solve_positional(w, k)
    below = occ.terms_below(bound)
    assert below == brute_occurrences(w, k, bound)
    t = data.draw(st.integers(0, len(below)))
    assert occ.terms(t) == below[:t]


def test_positional_huge_position_is_cheap():
    occ = solve_positional("0", 60)
    assert occ.count == fib(62)
    assert occ.terms(5) == [0, 1, 2, 3, 4]
    assert occ.terms_below(10) == list(range(10))  # one run of F(62), cut at 10
    # the text form names the shared GBS and the offset range, not every branch
    start = time.perf_counter()
    assert str(occ) == f"{occ.gbs.p}A+{occ.gbs.q}Id+r for r = -{fib(62)}..-1"
    assert time.perf_counter() - start < 0.1
    assert str(solve_positional("00", 2)) == "3A+2Id+r for r = -5..-3"
    assert str(solve_positional("10", 0)) == "2A+Id-1"


def test_positions_beyond_the_cap_are_rejected():
    assert MAX_POSITION == 50_000
    d = density("0", MAX_POSITION)  # the cap itself is accepted
    assert (d.coefficient, d.exponent) == (fib(50_002), -50_001)
    assert solve_positional("0", MAX_POSITION).terms(3) == [0, 1, 2]
    messages = set()
    for solve in (solve_positional, density):
        with pytest.raises(ValueError) as exc:
            solve("0", MAX_POSITION + 1)
        messages.add(str(exc.value))
        with pytest.raises(ValueError):
            solve("0", -1)
    assert messages == {"position must be between 0 and 50000, got 50001"}


def test_positional_matches_brute_force_small():
    for w in ("0", "1", "00", "10", "010"):
        for k in range(4):
            hits = [n for n in range(3000) if block_at(n, w, k)]
            assert solve_positional(w, k).terms_below(3000) == hits, (w, k)


def test_master_property_all_blocks_to_length_8():
    # first 200 terms of every (w, k) with |w| <= 8, k <= 4 against brute force;
    # 40000 is enough for 200 hits even in the sparsest class (density ~ 0.0097)
    from collections import defaultdict

    from zeckblocks.codec import encode, window_of

    n_terms, bound = 200, 40_000
    expansions = [encode(n) for n in range(bound)]
    for k in range(5):
        for m in range(1, 9):
            groups: dict[str, list[int]] = defaultdict(list)
            for n, s in enumerate(expansions):
                groups[window_of(s, k, m)].append(n)
            for w in valid_blocks(m):
                hits = groups[w]
                assert len(hits) >= n_terms, (w, k)
                assert solve_positional(w, k).terms(n_terms) == hits[:n_terms], (w, k)


def test_density_examples():
    assert density("0", 0).value == phi_pow(-1)
    assert density("1", 0).value == phi_pow(-2)
    d = density("00", 2)
    assert (d.coefficient, d.exponent) == (3, -4)
    assert d.value == 3 * phi_pow(-4)
    assert d.value == GoldenNumber(15, -9)


def test_density_is_a_proper_fraction():
    zero = GoldenNumber(0, 0)
    one = GoldenNumber(1, 0)
    for m in range(1, 6):
        for w in valid_blocks(m):
            for k in range(4):
                value = density(w, k).value
                assert zero < value < one, (w, k)


def test_block_shapes_are_counted_by_a_power_of_phi():
    # the counts of the blocks with (top, last) digits (0, 0), (0, 1),
    # (1, 0), (1, 1): phi**(m-1) = F(m-2) + F(m-1)*phi gives them all, the
    # lone blocks "0" and "1" at m = 1 included
    for m in range(1, MAX_TREE_DEPTH + 1):
        g = phi_pow(m - 1)
        shapes = Counter((w[0], w[-1]) for w in valid_blocks(m))
        assert [shapes[s] for s in (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))] \
            == [g.a + g.b, g.b, g.b, g.a], m


def test_density_total_is_exactly_one():
    one = GoldenNumber(1, 0)
    assert density_total(1, 0) == one
    assert density_total(2, 0) == one
    assert density_total(4, 3) == one
    for m in range(1, 7):
        for k in range(5):
            assert density_total(m, k) == one
    # the split density_total adds: the blocks ending in b carry exactly the
    # numbers whose digit at k is b, whatever the digits above it
    for m in range(1, 9):
        for k in range(6):
            for b in "01":
                ending = [w for w in valid_blocks(m) if w[-1] == b]
                assert sum((density(w, k).value for w in ending), GoldenNumber(0, 0)) \
                    == density(b, k).value, (m, k, b)


@given(st.integers(1, 4), st.integers(0, 10**4))
def test_density_total_is_one_at_far_positions(m, k):
    assert density_total(m, k) == GoldenNumber(1, 0)


def test_density_total_is_bounded_by_its_answer():
    # two one-digit densities, not F(22) block by block
    start = time.perf_counter()
    assert density_total(20, 50_000) == GoldenNumber(1, 0)
    assert time.perf_counter() - start < 1
