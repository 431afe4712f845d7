import tracemalloc
from dataclasses import astuple, replace
from fractions import Fraction
from pathlib import Path

import pytest

import zeckblocks.beatty
import zeckblocks.codec
import zeckblocks.fibcore
import zeckblocks.fibword
import zeckblocks.oracle
import zeckblocks.solver
from zeckblocks.fibcore import GoldenNumber, golden_cmp
from zeckblocks.codec import block_at, fibbinary_below, window_of, zeck_bits
from zeckblocks.beatty import GBS, OccurrenceSet, wythoff_A, wythoff_B
from zeckblocks.wythoff import WythoffWord
from zeckblocks.oracle import (
    MAX_BOUND,
    _CHECKS,
    CheckResult,
    _Budget,
    _first_failure,
    _grouped_by_window,
    _narrowed,
    brute_occurrences,
    certify,
)
from zeckblocks.solver import TreeNode, solve_positional
from test_codec import _greedy


def test_a_far_position_stays_small_in_memory():
    # the window at k = 10^8 is an integer shift, not a 10^8-digit string
    tracemalloc.start()
    try:
        assert block_at(5, "0", 10**8)
        assert brute_occurrences("0", 10**8, 50) == list(range(50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_far_string_window_pads_only_its_width():
    # a window wholly past the word's left end is m zeros, not a 10^8-digit pad
    tracemalloc.start()
    try:
        assert window_of("101", 10**8, 2) == "00"
        assert window_of("10100", 10**8 - 1, 3) == "000"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_brute_digit_zero_class():
    assert brute_occurrences("0", 0, 12) == [0, 2, 3, 5, 7, 8, 10, 11]


def test_brute_digit_one_class():
    assert brute_occurrences("1", 0, 15) == [1, 4, 6, 9, 12, 14]


def test_brute_positional_example():
    assert brute_occurrences("00", 2, 10) == [0, 1, 2, 8, 9]
    assert brute_occurrences("00", 2, 20) == [0, 1, 2, 8, 9, 10, 13, 14, 15]


def test_digit_classes_partition():
    bound = 5000
    zeros = brute_occurrences("0", 0, bound)
    ones = brute_occurrences("1", 0, bound)
    assert sorted(zeros + ones) == list(range(bound))


def test_brute_validates_input():
    with pytest.raises(ValueError):
        brute_occurrences("11", 0, 10)
    with pytest.raises(ValueError):
        brute_occurrences("0", 0, 0)


def test_brute_bound_past_the_cap_is_rejected(monkeypatch):
    def refuse(*args):
        raise AssertionError("the enumeration passed its bound cap")
    # a missing cap fails here at once instead of reading every N below it
    monkeypatch.setattr(zeckblocks.oracle, "zeck_bits", refuse)
    with pytest.raises(ValueError, match=f"1 <= bound <= {MAX_BOUND}, got {MAX_BOUND + 1}"):
        brute_occurrences("0", 0, MAX_BOUND + 1)


def test_brute_density_near_exact():
    bound = 100_000
    for w, exact in (("0", GoldenNumber(-1, 1)), ("1", GoldenNumber(2, -1))):
        emp = Fraction(len(brute_occurrences(w, 0, bound)), bound)
        assert golden_cmp(exact, emp - Fraction(1, 1000)) > 0
        assert golden_cmp(exact, emp + Fraction(1, 1000)) < 0


def test_brute_density_degenerate():
    assert Fraction(len(brute_occurrences("0", 0, 1)), 1) == Fraction(1, 1)


def test_brute_equals_closed_forms():
    bound = 4000
    for w in ("0", "1", "10", "001"):
        for k in (0, 1, 2):
            assert brute_occurrences(w, k, bound) == \
                solve_positional(w, k).terms_below(bound), (w, k)


def test_certify_small_budget_passes():
    report = certify(depth=4, k_max=2, n_terms=60, bound=5000)
    assert report.ok, report.failures[:3]
    assert report.summary().endswith("0 failed")


def test_certify_trivial_depth():
    report = certify(depth=0, k_max=0, n_terms=10, bound=100)
    assert report.ok


def test_certify_rejects_bad_budget(budget_check_only):
    with pytest.raises(ValueError):
        certify(depth=-1)
    with pytest.raises(ValueError):
        certify(bound=5)
    with pytest.raises(ValueError):
        certify(depth=21)
    with pytest.raises(ValueError, match="k_max <= 20.*bound <= 1000000"):
        certify(k_max=21)
    with pytest.raises(ValueError):
        certify(bound=10**6 + 1)
    with pytest.raises(ValueError):
        certify(n_terms=0)
    with pytest.raises(ValueError, match="n_terms <= 10000"):
        certify(n_terms=10_001)


def test_report_is_sorted_and_detailed():
    report = certify(depth=2, k_max=1, n_terms=30, bound=1000)
    keys = [(c.name, c.params) for c in report.checks]
    assert keys == sorted(keys)
    assert all(c.detail == "" for c in report.checks if c.passed)


def test_certify_catches_corrupted_gamma(monkeypatch):
    true_gamma = zeckblocks.solver.gamma

    def corrupted(w: str) -> int:
        value = true_gamma(w)
        return value - 1 if w == "00" else value

    monkeypatch.setattr(zeckblocks.solver, "gamma", corrupted)
    report = certify(depth=3, k_max=1, n_terms=40, bound=2000)
    assert not report.ok
    assert any("w=00" in c.detail for c in report.failures)
    # the counterexample names the offending index and values
    assert any("expected=" in c.detail and "got=" in c.detail for c in report.failures)


def test_certify_default_budget_is_green():
    report = certify()
    assert report.ok, report.failures[:3]
    listed = Path(__file__).parents[1] / "bench" / "certify_checks.tsv"
    want = {tuple(line.split("\t")) for line in listed.read_text().splitlines()}
    want.add(("codec-routes", "n<100000"))
    # the codec-far rows, the same at every budget
    want |= {("codec-far", params) for params in (
        "n=F(38)-1..+1", "digits=11..13", "digits=23..25", "digits=35..37", "digits=1151..1153",
        "n<10^301")}
    assert len(report.checks) == len(want) == 167
    assert {(c.name, c.params) for c in report.checks} == want


def test_check_table_rows_are_the_report():
    budget = _Budget(2, 1, 30, 1000, fibbinary_below(1000))
    rows, owner = [], {}
    for check in _CHECKS:
        for name, params, comparisons in check(budget):
            assert owner.setdefault(name, check) is check, name  # one generator per name
            fail = _first_failure(comparisons)
            rows.append((name, params, fail is None, fail or ""))
    report = certify(depth=2, k_max=1, n_terms=30, bound=1000)
    assert sorted(rows) == [(c.name, c.params, c.passed, c.detail) for c in report.checks]


def _describe(i, e, g):
    return f"i={i} e={e} g={g}"


def test_first_failure_is_none_when_every_comparison_is_equal():
    assert _first_failure([([1, 2], [1, 2], _describe), ("ab", "ab", _describe)]) is None
    assert _first_failure(iter(())) is None


def test_first_failure_never_draws_past_the_failing_comparison():
    def comparisons():
        yield [1, 2], [1, 2], _describe
        yield [1, 2, 3], [1, 5, 3], _describe
        raise AssertionError("a comparison after the failing one was drawn")

    assert _first_failure(comparisons()) == "i=1 e=2 g=5"


@pytest.mark.parametrize("expected, got, detail", [
    ([1, 2, 3], [1, 2], "i=2 e=3 g=None"),
    ([1, 2], [1, 2, 3], "i=2 e=None g=3"),
    ("ab", "", "i=0 e=a g=None"),
])
def test_first_failure_gives_none_for_the_side_that_ended(expected, got, detail):
    assert _first_failure([(expected, got, _describe)]) == detail


def test_narrowed_groups_are_the_direct_ones():
    expansions = fibbinary_below(2000)
    for k in range(4):
        groups = _grouped_by_window(expansions, k, 6)
        for m in range(5, 0, -1):
            groups = _narrowed(groups, m, 0)
            assert groups == _grouped_by_window(expansions, k, m), (k, m)


@pytest.mark.parametrize("k_max, bound, want_passes", [
    # at bound 2000 a window of depth 4 widens by 5 positions, so one pass
    # serves k = 0..5 and a second one k = 6
    (6, 2000, [(0, 9), (6, 4)]),
    # at bound 200 it does not widen: each position gets its own pass
    (3, 200, [(0, 4), (1, 4), (2, 4), (3, 4)]),
])
def test_every_union_check_compares_the_direct_window_groups(monkeypatch, k_max, bound,
                                                             want_passes):
    true_grouped = zeckblocks.oracle._grouped_by_window
    true_comparisons = zeckblocks.oracle._union_comparisons
    passes, compared = [], {}

    def grouped(expansions, k, m):
        passes.append((k, m))
        return true_grouped(expansions, k, m)

    def comparisons(m, k, groups, bound):
        compared[m, k] = groups
        return true_comparisons(m, k, groups, bound)

    monkeypatch.setattr(zeckblocks.oracle, "_grouped_by_window", grouped)
    monkeypatch.setattr(zeckblocks.oracle, "_union_comparisons", comparisons)
    assert certify(depth=4, k_max=k_max, n_terms=20, bound=bound).ok
    assert passes == want_passes
    assert sorted(compared) == [(m, k) for m in range(1, 5) for k in range(k_max + 1)]
    expansions = fibbinary_below(bound)
    for (m, k), groups in compared.items():
        assert groups == true_grouped(expansions, k, m), (m, k)


@pytest.mark.parametrize("w, k, detail", [
    ("010", 6, "w=010 index=1 expected=34 got=35"),  # the second pass
    ("0010", 3, "w=0010 index=1 expected=8 got=9"),  # inside the first pass
])
def test_certify_catches_a_union_off_by_one_in_either_pass(monkeypatch, w, k, detail):
    true_positional = zeckblocks.solver.solve_positional

    def shifted(word: str, at: int = 0):
        occ = true_positional(word, at)
        g = occ.gbs
        return OccurrenceSet(GBS(g.p, g.q, g.r + 1), occ.count) if (word, at) == (w, k) else occ

    monkeypatch.setattr(zeckblocks.solver, "solve_positional", shifted)
    report = certify(depth=4, k_max=6, n_terms=20, bound=2000)
    assert [(c.name, c.params) for c in report.failures] == \
        [("oracle-equivalence", f"m={len(w)} k={k}")]
    # the detail is the one that grouping each position on its own writes
    assert report.failures[0].detail == detail


def test_certify_catches_a_dropped_closed_form_term(monkeypatch):
    true_terms_below = OccurrenceSet.terms_below

    def short(self, bound):
        return true_terms_below(self, bound)[:-1]

    monkeypatch.setattr(OccurrenceSet, "terms_below", short)
    report = certify(depth=3, k_max=1, n_terms=40, bound=2000)
    # the two checks that enumerate closed-form unions fail at every budget point
    assert [(c.name, c.params) for c in report.failures] == \
        [(c.name, c.params) for c in report.checks
         if c.name in ("oracle-equivalence", "partition")]
    for c in report.failures:
        if c.name == "oracle-equivalence":
            assert "expected=" in c.detail and "got=" in c.detail, c.detail
        else:
            assert c.detail.startswith("missing=[") and c.detail.endswith("duplicated=[]")


def test_fibbinary_expansions_are_the_greedy_ones():
    for bound in range(1, 40):
        assert [format(x, "b") for x in fibbinary_below(bound)] == \
            [_greedy(n) for n in range(bound)]


def test_certify_catches_wrong_codec_route(monkeypatch):
    def wrong(n: int) -> int:
        return 0b1001 if n == 7 else zeck_bits(n)

    monkeypatch.setattr(zeckblocks.oracle, "zeck_bits", wrong)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert [(c.name, c.params) for c in report.failures] == [("codec-routes", "n<1000")]
    assert report.failures[0].detail == "n=7 fibbinary=1010 encode=1001"


def test_certify_reads_every_block_back_at_every_position(monkeypatch):
    # window_of, certify's string reference for block_at, misreads every
    # expansion shorter than k + m digits without its zero padding, first 0
    # against the all-zero block
    def unpadded(word: str, k: int, m: int) -> str:
        end = len(word) - k
        return word[end - m:end]

    monkeypatch.setattr(zeckblocks.oracle, "window_of", unpadded)
    report = certify(depth=3, k_max=2, n_terms=20, bound=1000)
    assert [(c.name, c.params, c.detail) for c in report.failures] == \
        [("codec-routes", "n<1000", "w=000 k=0 n=0 block_at=True window_of=0")]


def test_certify_catches_a_block_at_that_ignores_the_position(monkeypatch):
    # read at position 0, the block 001 written at k = 1, n = 2 = "10", is
    # not found, while the string reference reads it
    at_zero = zeckblocks.oracle.block_at
    monkeypatch.setattr(zeckblocks.oracle, "block_at", lambda n, w, k=0: at_zero(n, w))
    report = certify(depth=3, k_max=2, n_terms=20, bound=1000)
    assert [(c.name, c.params, c.detail) for c in report.failures] == \
        [("codec-routes", "n<1000", "w=001 k=1 n=2 block_at=False window_of=001")]


def test_certify_catches_wrong_csh_reduce(monkeypatch):
    true_reduce = zeckblocks.oracle.csh_reduce

    def off_by_one(word):
        g = true_reduce(word)
        return GBS(g.p, g.q, g.r + 1) if word.letters in ("ABABA", "BBAAB") else g

    monkeypatch.setattr(zeckblocks.oracle, "csh_reduce", off_by_one)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert [(c.name, c.params) for c in report.failures] == [("csh-reduction", "len=5")]
    # the first word in scan order (letter i is bit i of the word's index)
    detail = report.failures[0].detail
    assert detail.startswith("word=ABABA n=1 ")
    assert f"expected={WythoffWord('ABABA')(1)} got={WythoffWord('ABABA')(1) + 1}" in detail


def test_certify_catches_a_csh_reduce_wrong_only_at_the_far_point(monkeypatch):
    # every closed form is right at n = 1..500 and off by one at n = 1000
    true_reduce = zeckblocks.oracle.csh_reduce

    class FarOff(GBS):
        def __call__(self, n: int) -> int:
            return super().__call__(n) + (n == 1000)

    def far_off(word):
        g = true_reduce(word)
        return FarOff(g.p, g.q, g.r)

    monkeypatch.setattr(zeckblocks.oracle, "csh_reduce", far_off)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert [(c.name, c.params) for c in report.failures] == \
        [("csh-reduction", f"len={length}") for length in range(1, 9)]
    assert report.failures[0].detail == "word=A n=1000 expected=1618 got=1619"


def _coefficient_plus_one(monkeypatch):
    true_factor = zeckblocks.solver.fib_times_phi_pow

    def off(n: int, e: int):
        coeff, value = true_factor(n, e)
        return coeff + 1, value

    monkeypatch.setattr(zeckblocks.solver, "fib_times_phi_pow", off)


def _exponent_minus_one(monkeypatch):
    true_density = zeckblocks.solver.density

    def off(w: str, k: int = 0):
        d = true_density(w, k)
        return replace(d, exponent=d.exponent - 1)

    monkeypatch.setattr(zeckblocks.solver, "density", off)


@pytest.mark.parametrize("corrupt, detail", [
    (_coefficient_plus_one, "w=0 factor=(2, -1) want=(1, -1)"),
    (_exponent_minus_one, "w=0 factor=(1, -2) want=(1, -1)"),
], ids=["coefficient", "exponent"])
def test_certify_checks_the_printed_density_factor(monkeypatch, corrupt, detail):
    # the value stays right, so only the (coefficient, exponent) that the
    # density command prints is wrong, and density-total never reads it
    corrupt(monkeypatch)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert [(c.name, c.params) for c in report.failures] == [
        ("density-empirical", f"m={m} k={k}") for m in (1, 2) for k in (0, 1)]
    assert report.failures[0].detail == detail


def test_certify_catches_a_wrong_branch_count(monkeypatch):
    true_positional = zeckblocks.solver.solve_positional

    def one_branch(w: str, k: int = 0):
        occ = true_positional(w, k)
        return OccurrenceSet(occ.gbs, 1) if (w, k) == ("0", 1) else occ

    monkeypatch.setattr(zeckblocks.solver, "solve_positional", one_branch)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert [(c.name, c.params) for c in report.failures] == [("oracle-equivalence", "m=1 k=1")]
    assert report.failures[0].detail == "w=0 branches=1 want=2"


def test_certify_counts_no_union_term_below_its_first(monkeypatch):
    # count_below with abs(...) for max(0, ...): below V(1) the cut is
    # negative, and its size is counted
    true_count = OccurrenceSet.count_below

    def absolute(self, bound):
        return true_count(self, bound) or abs(min(self.count, bound - self.gbs(1)))

    monkeypatch.setattr(OccurrenceSet, "count_below", absolute)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert report.failures[0].detail == "w=1 count_below(0)=1 want=0"
    assert {c.name for c in report.failures} == {"oracle-equivalence"}


def test_certify_reads_the_first_run_of_each_union(monkeypatch):
    # a count within the first run, shifted up by one: terms_below never
    # asks for so few terms at these bounds, terms(c) at the run width does
    true_runs = zeckblocks.beatty._runs

    def shifted(v, width, count):
        values = true_runs(v, width, count)
        return [x + 1 for x in values] if count <= width else values

    monkeypatch.setattr(zeckblocks.beatty, "_runs", shifted)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert report.failures[0].detail == "w=0 terms(1) index=1 expected=0 got=1"
    assert {c.name for c in report.failures} == {"oracle-equivalence"}


def test_certify_catches_an_identity_whose_sides_differ(monkeypatch):
    true_catalog = zeckblocks.oracle.identity_catalog

    def wrong_first(m_max: int = 5):
        first, *rest = true_catalog(m_max)
        return [replace(first, lhs=WythoffWord("A", -2).then("A")), *rest]

    monkeypatch.setattr(zeckblocks.oracle, "identity_catalog", wrong_first)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    name = true_catalog(1)[0].name
    assert [(c.name, c.params) for c in report.failures] == [("identity-catalog", name)]
    assert report.failures[0].detail == "n=1 lhs=-1 rhs=0"


def test_certify_checks_the_tree_it_prints(monkeypatch):
    # the tree handed to certify carries 101's solution under the word 001,
    # a node whose compound and GBS still agree with each other
    true_tree = zeckblocks.solver.tree
    wrong = replace(zeckblocks.solver.solve_block("101"), word="001")

    def rebuilt(node):
        sol = wrong if node.word == "001" else node.solution
        return TreeNode(sol, tuple(map(rebuilt, node.children)))

    monkeypatch.setattr(zeckblocks.solver, "tree", lambda depth: rebuilt(true_tree(depth)))
    report = certify(depth=3, k_max=1, n_terms=40, bound=2000)
    assert [(c.name, c.params) for c in report.failures] == [("tree-step", "m=2")]
    assert "w=001" in report.failures[0].detail


def test_certify_catches_a_tree_that_drops_a_subtree(monkeypatch):
    # tree(6) without the subtree under 0101: 47 of its 53 nodes, each of
    # them right, so only a level compared with every block of its length
    # sees the ones that are gone
    true_tree = zeckblocks.solver.tree

    def pruned(node):
        return TreeNode(node.solution,
                        tuple(pruned(kid) for kid in node.children if kid.word != "0101"))

    monkeypatch.setattr(zeckblocks.solver, "tree", lambda depth: pruned(true_tree(depth)))
    assert sum(1 for _ in zeckblocks.solver.tree(6).walk()) == 47
    report = certify(depth=6, k_max=1, n_terms=40, bound=2000)
    assert [(c.name, c.params) for c in report.failures] == \
        [("tree-step", f"m={m}") for m in range(3, 6)]
    sol = zeckblocks.solver.solve_block("0101")
    assert report.failures[0].detail == \
        f"w=0101 tree=None solve_block={sol.compound} {sol.gbs}"


def test_certify_catches_a_node_whose_gbs_is_off_by_one(monkeypatch):
    true_tree = zeckblocks.solver.tree
    sol = zeckblocks.solver.solve_block("01")
    g = sol.gbs
    wrong = replace(sol, gbs=GBS(g.p, g.q, g.r + 1))

    def rebuilt(node):
        return TreeNode(wrong if node.word == "01" else node.solution,
                        tuple(map(rebuilt, node.children)))

    monkeypatch.setattr(zeckblocks.solver, "tree", lambda depth: rebuilt(true_tree(depth)))
    report = certify(depth=3, k_max=1, n_terms=40, bound=2000)
    assert [(c.name, c.params) for c in report.failures] == \
        [("dual-representation", "m=2"), ("tree-step", "m=1")]
    assert report.failures[0].detail == f"w=01 n=1 compound={g(1)} gbs={g(1) + 1}"


def test_a_side_that_ends_early_is_a_counterexample(monkeypatch):
    # GBS.terms lists one term too few for 3A + 2Id - 2, node 100's form:
    # each family comparing that list names the point past the side's end,
    # and every row of the budget is still reported
    true_terms = GBS.terms

    def short(self, count: int) -> list[int]:
        values = true_terms(self, count)
        return values[:-1] if (self.p, self.q, self.r) == (3, 2, -2) else values

    monkeypatch.setattr(GBS, "terms", short)
    report = certify(depth=3, k_max=1, n_terms=40, bound=2000)
    assert len(report.checks) == 130
    assert [c for c in report.checks if c.params == "raised"] == []
    assert [(c.name, c.detail) for c in report.failures] == [
        ("csh-reduction", "word=ABA n=40 expected=270 got=None"),
        ("dual-representation", "w=100 n=40 compound=270 gbs=None"),
        ("identity-catalog", "block=100 n=40 solver=None rhs=270"),
        ("identity-catalog", "block=100 n=40 solver=None rhs=270"),
    ]


def test_certify_sees_the_all_zero_spine(monkeypatch):
    # compose_A's r is one too low only on a GBS with r = -(p+q), that is on
    # the all-zero blocks and the root, so only the tree's spine goes wrong
    true_compose_A = GBS.compose_A

    def spine_off(self):
        g = true_compose_A(self)
        return GBS(g.p, g.q, g.r - 1) if self.r == -(self.p + self.q) else g

    monkeypatch.setattr(GBS, "compose_A", spine_off)
    report = certify(depth=4, k_max=0, n_terms=20, bound=1000)
    assert [(c.name, c.params) for c in report.failures] == \
        [("dual-representation", f"m={m}") for m in range(1, 5)] + \
        [("tree-step", f"m={m}") for m in range(1, 4)]
    assert report.failures[0].detail == "w=0 n=1 compound=0 gbs=-1"


def test_certify_catches_a_solver_form_that_breaks_an_identity(monkeypatch):
    # the block 0010 is only solved for its identity at depth 2; its GBS
    # gains A - Id, which is 0 at n = 1, so the first difference is at n = 2
    true_solve = zeckblocks.solver.solve_block

    def wrong_gbs(w: str):
        sol = true_solve(w)
        g = sol.gbs
        return replace(sol, gbs=GBS(g.p + 1, g.q - 1, g.r)) if w == "0010" else sol

    monkeypatch.setattr(zeckblocks.solver, "solve_block", wrong_gbs)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    ident = next(i for i in zeckblocks.oracle.identity_catalog(5) if i.block == "0010")
    assert [(c.name, c.params) for c in report.failures] == [("identity-catalog", ident.name)]
    g = true_solve("0010").gbs
    assert report.failures[0].detail == \
        f"block=0010 n=2 solver={g(2) + wythoff_A(2) - 2} rhs={ident.rhs(2)}"


def test_certify_names_the_compound_word_that_breaks_an_identity(monkeypatch):
    # the solver's compound word for 0010 is its identity's rhs word, raised
    # by 5 at n = 2 only; its GBS stays right
    true_solve = zeckblocks.solver.solve_block

    class OffAtTwo(WythoffWord):
        def terms(self, count: int) -> list[int]:
            values = super().terms(count)
            values[1] += 5
            return values

    def wrong_compound(w: str):
        sol = true_solve(w)
        return replace(sol, compound=OffAtTwo(*astuple(sol.compound))) if w == "0010" else sol

    monkeypatch.setattr(zeckblocks.solver, "solve_block", wrong_compound)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    ident = next(i for i in zeckblocks.oracle.identity_catalog(5) if i.block == "0010")
    assert [(c.name, c.params) for c in report.failures] == [("identity-catalog", ident.name)]
    assert report.failures[0].detail == \
        f"block=0010 n=2 compound={ident.rhs(2) + 5} rhs={ident.rhs(2)}"


def test_certify_names_the_first_wrong_letter_of_a_coding(monkeypatch):
    # the coding of 00 has its letter 31 swapped, so only the iterates of at
    # least 31 letters (n >= 9) differ, past any fixed-length prefix
    true_coding = zeckblocks.fibword.occurrence_coding
    swap = {"a": "b", "b": "a"}

    def wrong_letter(w: str, n: int) -> str:
        got = true_coding(w, n)
        return got[:30] + swap[got[30]] + got[31:] if w == "00" and len(got) > 30 else got

    monkeypatch.setattr(zeckblocks.fibword, "occurrence_coding", wrong_letter)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert [(c.name, c.params) for c in report.failures] == \
        [("fibword-coding", f"n={n}") for n in (10, 11, 12, 9)]
    want = zeckblocks.fibword.morphism_iterate(7)[30]
    assert {c.detail for c in report.failures} == \
        {f"w=00 index=31 got={swap[want]} want={want}"}


def test_certify_names_the_first_wrong_letter_position(monkeypatch):
    true_positions = zeckblocks.fibword.positions_of

    def shifted(letter: str, word: str) -> list[int]:
        got = true_positions(letter, word)
        if letter == "b":
            got[40] += 1
        return got

    monkeypatch.setattr(zeckblocks.fibword, "positions_of", shifted)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert [(c.name, c.params) for c in report.failures] == [("fibword-positions", "len=17711")]
    assert report.failures[0].detail == f"'b' n=41 position={wythoff_B(41) + 1} B={wythoff_B(41)}"


def test_certify_catches_dropped_letter_positions(monkeypatch):
    # the expected positions are the A values up to the word's length, 10946
    # of them, not as many as the checked side lists
    true_positions = zeckblocks.fibword.positions_of
    monkeypatch.setattr(zeckblocks.fibword, "positions_of",
                        lambda letter, word: true_positions(letter, word)[:-5])
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert [(c.name, c.params, c.detail) for c in report.failures] == \
        [("fibword-positions", "len=17711", f"'a' n=10942 position=None A={wythoff_A(10942)}")]


def test_certify_names_the_integer_that_breaks_complementarity(monkeypatch):
    # B(41) = 107 raised to 108, an A value: 107 is missing and 108 doubled
    monkeypatch.setattr(zeckblocks.oracle, "wythoff_B", lambda n: wythoff_B(n) + (n == 41))
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    row = next(c for c in report.failures if c.name == "beatty-complementarity")
    assert (row.params, row.detail) == ("n<=1000", "expected=107 got=108")


def _off_at(n: int):
    """A GBS class whose term lists are one too high at the single point n."""
    class OffAt(GBS):
        def terms(self, count: int) -> list[int]:
            values = super().terms(count)
            if count >= n:
                values[n - 1] += 1
            return values
    return OffAt


def _break_csh_reduction(monkeypatch, n):
    true_reduce = zeckblocks.oracle.csh_reduce
    off = _off_at(n)
    monkeypatch.setattr(zeckblocks.oracle, "csh_reduce",
                        lambda word: off(*astuple(true_reduce(word))))


def _break_identity_catalog(monkeypatch, n):
    # 0010 is an identity's block and no node of the depth-2 tree
    true_solve = zeckblocks.solver.solve_block
    off = _off_at(n)

    def solve(w: str):
        sol = true_solve(w)
        return replace(sol, gbs=off(*astuple(sol.gbs))) if w == "0010" else sol

    monkeypatch.setattr(zeckblocks.solver, "solve_block", solve)


def _break_wythoff_array(monkeypatch, n):
    true_array = zeckblocks.oracle.wythoff_array
    monkeypatch.setattr(zeckblocks.oracle, "wythoff_array",
                        lambda row, m: true_array(row, m) + (row == n and m == 3))


@pytest.mark.parametrize("family, n, breaks", [
    ("csh-reduction", 501, _break_csh_reduction),
    ("identity-catalog", 1001, _break_identity_catalog),
    ("wythoff-array", 201, _break_wythoff_array),
])
def test_every_pointwise_family_compares_at_n_up_to_n_terms(monkeypatch, family, n, breaks):
    # one closed form is off by one only at n: the family passes at
    # n_terms = n - 1 and fails at n_terms = n
    breaks(monkeypatch, n)
    assert certify(depth=2, k_max=1, n_terms=n - 1, bound=1000).ok
    failures = certify(depth=2, k_max=1, n_terms=n, bound=1000).failures
    assert failures and {c.name for c in failures} == {family}
    assert all(f"n={n} " in c.detail for c in failures), failures


def test_wythoff_array_failure_detail_is_pinned(monkeypatch):
    # column m = 3 is 3A + 2(n-1): 3 * A(201) + 400 = 1375, broken to 1376
    _break_wythoff_array(monkeypatch, 201)
    failures = certify(depth=2, k_max=1, n_terms=201, bound=1000).failures
    assert [(c.name, c.params, c.detail) for c in failures] == \
        [("wythoff-array", "m<=8", "m=3 n=201 expected=1375 got=1376")]


def test_a_family_that_raises_ends_with_one_failed_row(monkeypatch):
    true_positional = zeckblocks.solver.solve_positional

    def boom(w: str, k: int = 0):
        if (w, k) == ("0101", 2):
            raise ValueError("boom")
        return true_positional(w, k)

    monkeypatch.setattr(zeckblocks.solver, "solve_positional", boom)
    report = certify(depth=4, k_max=2, n_terms=20, bound=5000)
    # the failed row is named after the row whose comparisons raised
    assert report.failures == (CheckResult("oracle-equivalence", "raised", False,
                                           "m=4 k=2: raised ValueError: boom"),)
    # the rows the family yielded before it raised stay, its later ones are not run
    keys = {(c.name, c.params) for c in report.checks}
    assert ("density-empirical", "m=1 k=1") in keys
    assert ("oracle-equivalence", "m=4 k=2") not in keys


def test_a_family_that_raises_outside_a_row_is_named_after_its_last_row(monkeypatch):
    # a raise between rows names the row before it, "after" its params; a
    # raise before any row names the family's function, hyphenated
    def _one_then_raise(b):
        yield "one-row", "p=1", [([1], [1], None)]
        raise ValueError("boom")

    def _no_rows(b):
        raise ValueError("bang")
        yield

    monkeypatch.setattr(zeckblocks.oracle, "_CHECKS", (_one_then_raise, _no_rows))
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert report.checks == (CheckResult("no-rows", "raised", False, "raised ValueError: bang"),
                             CheckResult("one-row", "p=1", True),
                             CheckResult("one-row", "raised", False,
                                         "after p=1: raised ValueError: boom"))


def test_a_codec_far_row_that_raises_names_its_n(monkeypatch):
    # F(37) = 24157817, the least N of 36 digits, is one of the six N of
    # the group digits=35..37; its encode raises and the row names it
    true_encode = zeckblocks.oracle.encode

    def boom(n: int) -> str:
        if n == 24157817:
            raise IndexError("list index out of range")
        return true_encode(n)

    monkeypatch.setattr(zeckblocks.oracle, "encode", boom)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert report.failures == (CheckResult(
        "codec-far", "raised", False, "digits=35..37: raised RuntimeError: n=24157817: "
        "encode raised IndexError: list index out of range"),)


def test_a_family_interrupted_stops_certify(monkeypatch):
    # only an Exception becomes a failed row: an interrupt still ends the run
    def interrupt(w: str, k: int = 0):
        raise KeyboardInterrupt

    monkeypatch.setattr(zeckblocks.solver, "solve_positional", interrupt)
    with pytest.raises(KeyboardInterrupt):
        certify(depth=4, k_max=2, n_terms=20, bound=5000)


def test_certify_far_positions_pass():
    # the count below the bound may miss density * bound by a run of F(k+2)
    report = certify(depth=4, k_max=11, n_terms=20, bound=20000)
    assert report.ok, report.failures[:3]


@pytest.mark.parametrize("shift", [Fraction(1, 500), Fraction(1, 5000)])
def test_certify_catches_a_shifted_density(monkeypatch, shift):
    # at k <= 3 and the default bound the tolerance is below 1/1000, so a
    # shift of 1/5000 is caught as well
    true_density = zeckblocks.solver.density

    def shifted(w: str, k: int = 0):
        d = true_density(w, k)
        if w != "0100" or k != 2:
            return d
        value = GoldenNumber(d.value.a + shift, d.value.b)
        return zeckblocks.solver.DensityValue(d.coefficient, d.exponent, value)

    monkeypatch.setattr(zeckblocks.solver, "density", shifted)
    report = certify(depth=4, n_terms=20)
    # the density-total check sums the same per-block densities, so it fails too
    assert [(c.name, c.params) for c in report.failures] == \
        [("density-empirical", "m=4 k=2"), ("density-total", "m=4 k=2")]
    assert report.failures[0].detail.startswith("w=0100 empirical=")


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("inside, caught", [(0, True), (1, False)])
def test_density_empirical_bound_is_strict(monkeypatch, side, inside, caught):
    # density * X placed at count + slack or count - slack fails, and one
    # unit inside either edge passes: the count lies strictly within
    w, k, bound = "01", 1, 1000
    count, slack = len(brute_occurrences(w, k, bound)), 2 * zeckblocks.oracle.fib(k + 2)
    value = GoldenNumber(Fraction(count + side * (slack - inside), bound), 0)
    true_density = zeckblocks.solver.density

    def placed(w2: str, k2: int = 0):
        d = true_density(w2, k2)
        if (w2, k2) != (w, k):
            return d
        return zeckblocks.solver.DensityValue(d.coefficient, d.exponent, value)

    monkeypatch.setattr(zeckblocks.solver, "density", placed)
    report = certify(depth=2, k_max=1, n_terms=20, bound=bound)
    # density-total sums the same per-block densities, so it fails either way
    caught_rows = [("density-empirical", "m=2 k=1")] if caught else []
    assert [(c.name, c.params) for c in report.failures] == \
        caught_rows + [("density-total", "m=2 k=1")]


def test_certify_runs_the_lucas_step_of_every_density(monkeypatch):
    # every density, near k or far, doubles from (L(0), L(1)), so a broken
    # doubling step fails the density rows even at a small budget; the far
    # encodes, whose greedy head takes F(k) of k > 1024 from it, fail too
    def broken(n: int) -> tuple[int, int]:
        a, b, h = 2, 1, 0
        for i in range(n.bit_length() - 1, -1, -1):
            s = -2 if h & 1 else 2
            a, b = a * a - s, b * b + s + 1
            h = n >> i
            if h & 1:
                a = b - a
            else:
                b -= a
        return a, b

    monkeypatch.setattr(zeckblocks.fibcore, "_lucas_pair", broken)
    report = certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert {c.name for c in report.failures} == {"codec-far", "density-empirical",
                                                 "density-total"}


def test_traced_certify_records_every_certify_span(monkeypatch):
    # the spans of the benchmark's traced run: entering the Tracer fails on
    # a span that no longer resolves, and every span serving certify-default
    # must record calls at the benchmark's warm-up budget
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import tracer

    import zeckblocks.cli  # noqa: F401  the tracer rebinds cli.main

    with tracer.Tracer() as traced:
        report = zeckblocks.oracle.certify(depth=2, k_max=1, n_terms=20, bound=1000)
    assert report.ok
    idle = [name for name, (*_, serves) in tracer.LAYERS.items()
            if "certify-default" in serves and traced.stats[name][0] == 0]
    assert idle == []


def test_traced_queries_record_every_query_large_span(monkeypatch):
    # the benchmark's query-large ops at their largest sizes: every span
    # serving query-large must record calls, so a layer that stops calling
    # fib, phi_pow, golden_cmp or decode by name shows here first
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import tracer

    import zeckblocks as zb
    import zeckblocks.cli  # noqa: F401  the tracer rebinds cli.main

    n = 10**200 - 7
    with tracer.Tracer() as traced:
        far = zb.density("01", 20_000)
        closer = zb.density("0010", 19_997)
        below = far.value < closer.value
        word = zb.encode(n)
        back = zb.decode(word)
        value = zb.solve_block("0101").gbs(n)
        a = zb.wythoff_A(n)
        terms = zb.solve_positional("010", 16).terms(1000)
    assert (far.coefficient, far.exponent) == (zb.fib(20_001), -20_002)
    assert below == (float(far.value) < float(closer.value))
    assert back == n and len(word) > 900
    assert zb.block_at(value, "0101") and a == n * zb.fib(800) // zb.fib(799)
    assert len(terms) == 1000 and all(zb.block_at(v, "010", 16) for v in terms[:50])
    idle = [name for name, (*_, serves) in tracer.LAYERS.items()
            if "query-large" in serves and traced.stats[name][0] == 0]
    assert idle == []
