from itertools import accumulate, count, islice, product, takewhile
from math import isqrt
from time import perf_counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zeckblocks import beatty
from zeckblocks.beatty import (
    GBS,
    OccurrenceSet,
    OverlapError,
    wythoff_A,
    wythoff_B,
    wythoff_map,
)
from zeckblocks.fibcore import GoldenNumber, fib, golden_cmp
from zeckblocks.solver import density, solve_positional


def floor_n_phi(n: int) -> int:
    """Independent evaluation of floor(n*phi) from two convergents that
    straddle phi; both quotients agree whenever n is far smaller than the
    denominators, which pins the floor."""
    lo = n * fib(88) // fib(87)
    hi = n * fib(87) // fib(86)
    assert lo == hi, f"convergent gap too wide for n={n}"
    return lo


def test_lower_wythoff_prefix():
    assert [wythoff_A(n) for n in range(1, 8)] == [1, 3, 4, 6, 8, 9, 11]


def test_upper_wythoff_prefix():
    assert [wythoff_B(n) for n in range(1, 7)] == [2, 5, 7, 10, 13, 15]


def test_wythoff_A_against_convergent_oracle():
    assert wythoff_A(10**6) == floor_n_phi(10**6)
    for n in range(1, 3000):
        assert wythoff_A(n) == floor_n_phi(n)


@given(st.integers(1, 10**12))
def test_wythoff_A_large(n):
    assert wythoff_A(n) == floor_n_phi(n)


@given(st.integers(1, 10**200))
def test_wythoff_A_is_below_n_phi_by_less_than_one(n):
    # exact comparisons in Z[phi], for n far beyond what floor_n_phi pins
    n_phi = GoldenNumber(0, n)
    a = wythoff_A(n)
    assert golden_cmp(n_phi, a) > 0 and golden_cmp(n_phi, a + 1) < 0


def test_unit_gbs_terms_are_wythoff_A():
    # GBS(1, 0, 0) is A itself, so its step-word sums must be the isqrt values
    n = 200_001
    assert GBS(1, 0, 0).terms(n) == [wythoff_A(j) for j in range(1, n + 1)]


def test_B_is_A_plus_id():
    for n in range(1, 10_001):
        assert wythoff_B(n) == wythoff_A(n) + n


@given(st.integers(1, 10**200))
def test_B_is_A_plus_id_for_big_n(n):
    assert wythoff_B(n) == wythoff_A(n) + n


def test_index_starts_at_one():
    for seq in (wythoff_A, wythoff_B):
        for n in (0, -1):
            message = f"^Wythoff sequences are indexed from 1, got {n}$"
            with pytest.raises(ValueError, match=message):
                seq(n)


# values from 1 to 200 digits, so that a list mixes widths far apart
_VALUES = st.one_of(st.integers(1, 1000), st.integers(1, 10**200))


@given(st.lists(_VALUES), st.booleans())
@example([*range(1, 10_001), 1000], False)  # csh-reduction's list at the --terms cap
@example([10**200, 1, 2, 3], False)
@example([], False)
def test_wythoff_map_is_the_pointwise_route(values, increasing):
    # lists in any order: the fixed point is set by the largest value
    if increasing:
        values = sorted(values)
    assert wythoff_map("A", values) == [wythoff_A(n) for n in values]
    assert wythoff_map("B", values) == [wythoff_B(n) for n in values]


def test_wythoff_map_at_fibonacci_numbers():
    # n*phi comes closest to an integer at n = F(k) (phi's convergents), so
    # there frac(n*phi) is nearest the bound n/2^P, each n as its own list;
    # then all of them as one list
    values = [n for k in range(1, 1401) for n in (fib(k) - 1, fib(k), fib(k) + 1) if n >= 1]
    for n in values:
        assert wythoff_map("A", [n]) == [wythoff_A(n)], n
        assert wythoff_map("B", [n]) == [wythoff_B(n)], n
    assert wythoff_map("A", values) == [wythoff_A(n) for n in values]


def test_wythoff_map_indexes_from_one():
    # the least value is named, wherever it stands in the list
    for values, low in (([0], 0), ([5, -1, 3], -1), ([10**30, 0], 0)):
        for letter in "AB":
            message = f"^Wythoff sequences are indexed from 1, got {low}$"
            with pytest.raises(ValueError, match=message):
                wythoff_map(letter, values)
    with pytest.raises(ValueError, match="^Wythoff letters are A and B, got 'C'$"):
        wythoff_map("C", [1])


def test_beatty_partition():
    n = 10_000
    a_vals = {wythoff_A(i) for i in range(1, n + 1)}
    b_vals = {wythoff_B(i) for i in range(1, n + 1)}
    assert not a_vals & b_vals
    top = wythoff_A(n)
    assert {v for v in a_vals | b_vals if v <= top} == set(range(1, top + 1))


def test_gbs_eval():
    a = GBS(1, 0, 0)
    for n in (1, 5, 999):
        assert a(n) == wythoff_A(n)
    assert GBS(2, 1, -1)(1) == 2
    # A(3) = 4, so 4 + 3 - 2
    assert GBS(1, 1, -2)(3) == 5


def test_compose_formulas():
    assert GBS(1, 0, 0).compose_A() == GBS(1, 1, -1)
    assert GBS(1, 0, 0).compose_B() == GBS(2, 1, 0)
    for n in range(1, 1001):
        assert GBS(2, 1, 0)(n) == wythoff_A(wythoff_B(n))


@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10),
       st.integers(1, 1000))
def test_compose_pointwise(p, q, r, n):
    v = GBS(p, q, r)
    assert v.compose_A()(n) == v(wythoff_A(n))
    assert v.compose_B()(n) == v(wythoff_B(n))


def test_gbs_terms_and_increase():
    v = GBS(3, 2, -5)
    assert v.terms(3) == [0, 8, 13]
    assert v.step == 5
    assert GBS(-1, 3, 0).step == 1
    assert GBS(3, -4, 0).step == -1
    assert GBS(0, 0, 7).step == 0


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-100, 100),
       st.integers(-3, 300))
def test_gbs_terms_are_the_pointwise_values(p, q, r, n):
    # any signs, so also sequences that fall or stand still
    v = GBS(p, q, r)
    if n < 0:
        with pytest.raises(ValueError, match=f"non-negative, got {n}"):
            v.terms(n)
    else:
        assert v.terms(n) == [v(i) for i in range(1, n + 1)]


@pytest.mark.parametrize("v", [
    GBS(fib(20), fib(19), -7),  # steps F(21) and F(22), past one byte
    GBS(1, -1, 4),  # steps 0 and 1
    GBS(3, -4, 0),  # steps -1 and 2
])
def test_gbs_terms_at_fibonacci_counts(v):
    # the step word is built by concatenation up to Fibonacci lengths, so
    # counts next to F(i) start, end or just pass a concatenation
    counts = [0, 1, 2, *(fib(i) + d for i in range(3, 26) for d in (-1, 0, 1, 2))]
    pointwise = [v(n) for n in range(1, max(counts) + 1)]
    for count in counts:
        assert v.terms(count) == pointwise[:count], count


def test_gbs_rendering():
    assert str(GBS(3, 2, -5)) == "3A+2Id-5"
    assert str(GBS(1, 0, -1)) == "A-1"
    assert str(GBS(1, 1, -2)) == "A+Id-2"
    assert str(GBS(0, 1, -1)) == "Id-1"
    assert str(GBS(2, 1, 0)) == "2A+Id"
    assert str(GBS(0, 0, 0)) == "0"
    assert str(GBS(-1, 2, 3)) == "-A+2Id+3"


def _parts_formatter(g: GBS) -> str:
    """The earlier GBS.__str__, kept as the reference: a list of nonzero
    (coefficient, symbol) parts, each written with its sign."""
    parts = [(c, s) for c, s in ((g.p, "A"), (g.q, "Id")) if c]
    if g.r or not parts:
        parts.append((g.r, ""))
    out = []
    for i, (c, sym) in enumerate(parts):
        sign = "-" if c < 0 else ("+" if i else "")
        out.append(sign + (sym if sym and abs(c) == 1 else f"{abs(c)}{sym}"))
    return "".join(out)


def test_gbs_rendering_matches_the_parts_formatter():
    coefficients = range(-4, 5)
    for p, q, r in product(coefficients, repeat=3):
        assert str(GBS(p, q, r)) == _parts_formatter(GBS(p, q, r)), (p, q, r)


def test_union_of_worked_example_branches():
    occ = OccurrenceSet(GBS(3, 2, -5), 3)
    assert occ.terms(9) == [0, 1, 2, 8, 9, 10, 13, 14, 15]
    # one rule for a negative count, the same error for a branch and a union
    with pytest.raises(ValueError, match="non-negative, got -1"):
        GBS(3, 2, -5).terms(-1)
    with pytest.raises(ValueError, match="non-negative, got -1"):
        occ.terms(-1)
    assert occ.terms_below(14) == [0, 1, 2, 8, 9, 10, 13]
    assert occ.branches == (GBS(3, 2, -5), GBS(3, 2, -4), GBS(3, 2, -3))


def test_union_single_branch_is_the_plain_stream():
    v = GBS(2, 1, -1)
    occ = OccurrenceSet(v)
    assert occ.terms(20) == v.terms(20)
    assert occ.branches == (v,)


def test_union_detects_overlap():
    with pytest.raises(OverlapError):
        OccurrenceSet(GBS(1, 0, 0), 2)


def test_union_overlap_boundary():
    # 3A+2Id-5 steps by 5 or 8, so five consecutive offsets still fit
    occ = OccurrenceSet(GBS(3, 2, -5), 5)
    assert occ.terms_below(16) == [0, 1, 2, 3, 4, 8, 9, 10, 11, 12, 13, 14, 15]
    with pytest.raises(OverlapError):
        OccurrenceSet(GBS(3, 2, -5), 6)


def test_union_rejects_non_increasing_branch():
    with pytest.raises(ValueError):
        OccurrenceSet(GBS(3, -4, 0))
    with pytest.raises(ValueError):
        OccurrenceSet(GBS(2, 1, -1), 0)


def _stream(occ: OccurrenceSet):
    """The union's terms one by one, without end: the runs
    [V(n), V(n) + count) for n = 1, 2, ..."""
    for v in map(occ.gbs, count(1)):
        yield from range(v, v + occ.count)


def _takewhile_below(occ: OccurrenceSet, bound: int) -> list[int]:
    return list(takewhile(lambda v: v < bound, _stream(occ)))


def test_an_occurrence_set_is_not_iterable():
    # a union is infinite, so an iterator would make `x in occ` scan
    # forever; `in` and iter must raise at once instead
    assert not hasattr(OccurrenceSet, "__iter__")
    occ = solve_positional("1", 0)
    start = perf_counter()
    with pytest.raises(TypeError):
        5 in occ
    with pytest.raises(TypeError):
        iter(occ)
    assert perf_counter() - start < 0.5


@given(st.integers(-6, 12), st.integers(-12, 12), st.integers(-60, 60),
       st.integers(-3, 8), st.data())
def test_terms_below_is_the_stream_cut_at_bound(p, q, r, runs, data):
    assume(p + q > 0 and 2 * p + q > 0)
    v = GBS(p, q, r)
    count = data.draw(st.integers(1, min(p + q, 2 * p + q)))
    occ = OccurrenceSet(v, count)
    # from below V(1) to several runs out, at any offset inside a run
    bound = v(1) + runs * max(p + q, 2 * p + q) + data.draw(st.integers(0, count))
    assert occ.terms_below(bound) == _takewhile_below(occ, bound)
    assert occ.count_below(bound) == len(_takewhile_below(occ, bound))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["0", "1", "00", "01", "10", "0100", "10101"]), st.sampled_from([0, 3, 60]),
       st.integers(1, 10**60), st.integers(1, 10**50))
def test_count_below_at_far_bounds(w, k, bound, n):
    # plain integer bisection: no OverflowError from a range past sys.maxsize
    occ = solve_positional(w, k)
    v = occ.gbs
    assert occ.count_below(v(1) - 10**40) == 0
    assert occ.count_below(v(n)) == (n - 1) * occ.count
    assert occ.count_below(v(n) + 1) == (n - 1) * occ.count + 1
    # the count misses density * bound by less than two runs of at most
    # F(k+2) terms (the tolerance of oracle._unions_and_densities)
    expected = density(w, k).value * bound
    slack = 2 * fib(k + 2)
    counted = occ.count_below(bound)
    assert golden_cmp(expected, counted - slack) > 0
    assert golden_cmp(expected, counted + slack) < 0


@st.composite
def _union_widths(draw):
    """(p, q, count, t): count disjoint branches of pA+qId+r, listed to t
    terms.  count is 1, a count that cuts a run, a count near sqrt(t), so
    that fewer, as many and more runs than their width are listed, or a
    count far above t."""
    p = draw(st.integers(1, 10**30))
    q = draw(st.integers(1 - p, 10**30))
    t = draw(st.integers(0, 300))
    near_root = st.integers(max(1, isqrt(t) - 1), isqrt(t) + 2).map(lambda c: min(c, p + q))
    count = draw(st.one_of(st.just(1), st.integers(1, min(p + q, 40)), near_root,
                           st.integers(t + 1, p + q) if t < p + q else st.just(1)))
    return p, q, count, t


@given(_union_widths(), st.integers(-10**30, 10**30))
@example((5, 3, 8, 300), -8)  # the unions of "0" at k = 4, 5 and 16
@example((8, 5, 13, 300), -13)
@example((1597, 987, 2584, 3 * 2584 + 100), -2584)
@example((fib(61), fib(60), fib(62), 300), -fib(62))  # "0" at k = 60, one run cut at t
def test_terms_is_the_pointwise_stream(union, r):
    # the runs that the step word sums, each letter a whole run, against
    # the runs [V(n), V(n) + count) listed one by one; count = 1 is the
    # run starts of gbs.terms
    p, q, count, t = union
    occ = OccurrenceSet(GBS(p, q, r), count)
    assert occ.terms(t) == list(islice(_stream(occ), t))


def test_terms_below_at_the_edges():
    occ = OccurrenceSet(GBS(3, 2, -5), 3)  # runs start at 0, 8, 13, 21
    assert occ.terms_below(0) == occ.terms_below(-7) == []
    assert occ.terms_below(8) == [0, 1, 2]  # bound equal to a run start
    assert occ.terms_below(13) == [0, 1, 2, 8, 9, 10]
    assert occ.terms_below(22) == [0, 1, 2, 8, 9, 10, 13, 14, 15, 21]  # inside the last run
    # -A+3Id increases with steps 2 and 1, so its terms outgrow (bound - r) // (p + q)
    occ = OccurrenceSet(GBS(-1, 3, 0))
    assert occ.terms_below(40) == _takewhile_below(occ, 40)
    assert len(occ.terms_below(40)) > 40 // 2


@pytest.mark.parametrize("w, k", [("0", 1), ("00", 3), ("010", 5), ("0", 16)])
def test_terms_within_the_first_run_is_its_range(w, k):
    # up to the width, terms is the first run's range and builds no step
    # word; one term more takes the step word into the second run.  Both
    # equal the step-word fill: V(1) and the sums of letters of width-1
    # ones and a gap, cut at count - 1 steps
    occ = solve_positional(w, k)
    v, width = occ.gbs, occ.count
    ones = [1] * (width - 1)
    a, b = ones + [2 * v.p + v.q - width + 1], ones + [v.p + v.q - width + 1]
    for n in (width - 1, width, width + 1):
        fill = list(accumulate(beatty.fibonacci_word(a, b, n - 1), initial=v(1)))
        assert occ.terms(n) == fill, n
    assert occ.terms(width) == list(range(v(1), v(1) + width))


@pytest.mark.parametrize("w, k", [
    ("0", 0), ("010", 0), ("1", 3), ("0010", 3), ("0", 10), ("10", 10), ("010", 16),
    ("0" * 95, 0),  # p has 65 bits, so its gaps overflow a 64-bit word: the list path
])
def test_terms_on_both_sides_of_the_typed_cut_over(w, k):
    # _runs builds the step word of more than _TYPED terms from array("q")
    # letters when its gaps fit a 64-bit word, and from lists otherwise
    occ = solve_positional(w, k)
    v = occ.gbs
    for count in (beatty._TYPED - 1, beatty._TYPED, beatty._TYPED + 1, 1000):
        assert occ.terms(count) == list(islice(_stream(occ), count)), count
        assert v.terms(count) == [v(n) for n in range(1, count + 1)], count
