"""Brute-force ground truth and the certification suite.

brute_occurrences goes through the digit codec only; it never touches the
closed-form machinery, so agreement between the two routes is meaningful
evidence.  certify() runs every check family of the table _CHECKS at a
configurable budget and reports failures as data, not exceptions: a family
that raises ends with one failed row, "raised".

certify() reads the expansions below its bound as fibbinary integers
(OEIS A003714: no two adjacent 1 bits), bit i holding the digit at position
i, from codec.fibbinary_below, the route codec.valid_blocks is built on too.
The n-th fibbinary number, in binary, is the Zeckendorf expansion of n; the
check "codec-routes" compares each of them, as an integer, with
codec.zeck_bits(n), which reads it from chunk tables built by the greedy
step.  The same row reads every block of length depth back at each position,
by block_at's integer window and by window_of on the string of encode.  The
check "codec-far" takes encode and decode past any bound, to 10^300, with
the same N at every budget, and weighs each expansion by Fibonacci numbers
it walks by additions, never by fibcore.

The checks of a closed form against a composition word (csh-reduction,
identity-catalog, dual-representation, wythoff-array) compare whole term
lists, and each side keeps its own route.  Composition words are evaluated
by beatty.wythoff_map, each letter mapped over the whole list by one
fixed-point multiply per value (WythoffWord.terms); a GBS lists its terms
by GBS.terms, V(1) plus the running sums of its steps, built as a Fibonacci
word of step values.  The pointwise wythoff_A and wythoff_B, by isqrt, serve
beatty-complementarity and each word's value at n = 1 in csh_reduce.

A check family yields each check as comparisons, (expected, got, describe)
triples, and one runner, _first_failure, compares each pair whole.  At the
first pair that differs it writes the counterexample with describe at the
first index where the sides differ, the end of the shorter side when one is
a prefix of the other, giving None for the element of a side that ended.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from random import Random
from time import perf_counter

from . import fibword, solver
from .beatty import wythoff_A, wythoff_B, wythoff_map
from .codec import (_LEAF, MAX_TREE_DEPTH, _S, block_at, decode, encode, fibbinary_below,
                    valid_blocks, validate_block, window_of, zeck_bits)
from .fibcore import GoldenNumber, fib
from .wythoff import WythoffWord, csh_reduce, identity_catalog, wythoff_array


# The largest enumeration bound certify and brute_occurrences accept: certify
# holds every expansion below the bound in memory and passes over them once
# per run of positions (see _unions_and_densities); brute_occurrences reads
# the window of each N below it from zeck_bits (0.31-0.34 s at 10^6
# in-process, CPython 3.11.7 on a 2-CPU Intel Xeon).
MAX_BOUND = 10**6


def brute_occurrences(w: str, k: int, bound: int) -> list[int]:
    """All N in [0, bound) whose expansion carries w at position k, ascending;
    1 <= bound <= MAX_BOUND.  Each N is read as block_at reads it, by the
    integer window zeck_bits(N) >> k, with w checked and parsed once."""
    validate_block(w, allow_empty=True)
    if not 1 <= bound <= MAX_BOUND:
        raise ValueError(f"bound out of range: need 1 <= bound <= {MAX_BOUND}, got {bound}")
    mask, target = (1 << len(w)) - 1, int("0" + w, 2)
    return [n for n, x in enumerate(map(zeck_bits, range(bound))) if x >> k & mask == target]


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; elapsed_s is its wall time in seconds, left out
    of equality and of the text line."""

    name: str
    params: str
    passed: bool
    detail: str = ""
    elapsed_s: float = field(default=0.0, compare=False)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status}  {self.name:<22} {self.params}"
        if self.detail:
            line += f"  [{self.detail}]"
        return line


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        n = len(self.checks)
        bad = len(self.failures)
        return f"{n} checks: {n - bad} passed, {bad} failed"


def _grouped_by_window(expansions: list[int], k: int, m: int) -> dict[int, list[int]]:
    """Bucket every N (index into expansions) by its digit window at k..k+m-1."""
    mask = (1 << m) - 1
    groups: dict[int, list[int]] = defaultdict(list)
    for n, x in enumerate(expansions):
        groups[(x >> k) & mask].append(n)
    return groups


def _narrowed(groups: dict[int, list[int]], m: int, k: int) -> dict[int, list[int]]:
    """Regroup by digits k..k+m-1 of each window: the groups whose windows
    agree there merge, and each merged list is sorted again."""
    mask = (1 << m) - 1
    merged: dict[int, list[int]] = defaultdict(list)
    for window, members in groups.items():
        merged[window >> k & mask] += members
    for members in merged.values():
        members.sort()
    return merged


@dataclass(frozen=True)
class _Budget:
    """A certification budget and the expansions below its bound."""

    depth: int
    k_max: int
    n_terms: int
    bound: int
    expansions: list[int]


def _first_failure(comparisons) -> str | None:
    """The detail of the first comparison whose two sides differ, or None.

    Each comparison is (expected, got, describe): two lists (or strings,
    or tuples) compared whole.  At the first index i where they differ,
    the end of the shorter one when it is a prefix of the other,
    describe(i, e, g) writes the detail, e and g being each side's element
    at i, or None past that side's end.  The comparisons after a failing
    one are never drawn, so describe may read the variables of the loop
    that made it."""
    for expected, got, describe in comparisons:
        if expected != got:
            i = next((i for i, (e, g) in enumerate(zip(expected, got)) if e != g),
                     min(len(expected), len(got)))
            return describe(i, *(side[i] if i < len(side) else None for side in (expected, got)))
    return None


def _codec_routes(b: _Budget):
    """The fibbinary enumeration against zeck_bits, which encode writes in
    binary; then each block w of length depth, at each k <= k_max, read back
    from n = decode(w + "0" * k) by block_at's integer window and by its
    string reference, window_of(encode(n), k, len(w)); a failure prints both."""
    placed = [(w, k, decode(w + "0" * k)) for k in range(b.k_max + 1)
              for w in valid_blocks(b.depth)]
    yield "codec-routes", f"n<{b.bound}", [
        (b.expansions, list(map(zeck_bits, range(b.bound))),
         lambda n, e, g: f"n={n} fibbinary={e if e is None else f'{e:b}'} "
                         f"encode={g if g is None else f'{g:b}'}"),
        ([True] * len(placed),
         [block_at(n, w, k) and window_of(encode(n), k, len(w)) == w for w, k, n in placed],
         lambda i, e, g: next(f"w={w} k={k} n={n} block_at={block_at(n, w, k)} "
                              f"window_of={window_of(encode(n), k, len(w))}"
                              for w, k, n in [placed[i]]))]


def _codec_far(b: _Budget):
    """encode and decode far beyond the enumeration, the same N at every
    budget, one row per group: the first number the top-down steps of
    zeck_bits serve, F(2S+2), and its two neighbours; the least and the
    greatest N of 11-13 and 23-25 digits, inside one chunk and across two,
    and of each digit count on both sides of two chunks and of a leaf; and a
    seeded N of every 20th decimal exponent up to 10^300.
    Each N's expansion, encode(N) = zeck_bits(N) in binary, must have no
    adjacent 1s, its digits weighed by F(i+2), walked here by additions,
    must sum to N, and decode(encode(N)) must be N."""
    rng, top = Random(2020), 10**301
    weights = [1, 2]  # weights[i] = F(i+2), up to the first above top
    while weights[-1] <= top:
        weights.append(weights[-1] + weights[-2])
    groups = [(f"n=F({2 * _S + 2})-1..+1", [weights[2 * _S] + d for d in (-1, 0, 1)])]
    for width in (12, 24, 2 * _S, _LEAF):
        digits = range(width - 1, width + 2)  # F(d+1) <= N < F(d+2) has d digits
        groups.append((f"digits={width - 1}..{width + 1}",
                       [n for d in digits for n in (weights[d - 1], weights[d] - 1)]))
    groups.append(("n<10^301", [rng.randrange(10**e, 10**(e + 1)) for e in range(0, 301, 20)]))
    for params, ns in groups:
        yield "codec-far", params, _far_comparisons(ns, weights)


def _far_comparisons(ns: list[int], weights: list[int]):
    """The comparisons of one codec-far group, drawn lazily, so that an
    encode or a decode that raises is charged to its group's row, re-raised
    as a RuntimeError that names its N."""
    def each(name, f, args):
        for n, arg in zip(ns, args):
            try:
                yield f(arg)
            except Exception as exc:
                raise RuntimeError(f"n={n}: {name} raised {type(exc).__name__}: {exc}") from exc

    words = list(each("encode", encode, ns))
    yield ([True] * len(ns), ["11" not in word for word in words],
           lambda i, e, g: f"n={ns[i]} encode={words[i]} has adjacent 1s")
    yield (ns, [sum(w for w, c in zip(weights, reversed(word)) if c == "1") for word in words],
           lambda i, e, g: f"n={e} encode={words[i]} weighs {g}")
    yield (ns, list(each("decode", decode, words)),
           lambda i, e, g: f"n={e} encode={words[i]} decode={g}")


def _beatty_complementarity(b: _Budget):
    """Complementarity of the A and B sequences (the d0 = 0 / d0 = 1 split):
    their merged values up to top = A(limit) are 1, ..., top, compared
    whole, so a gap or an overlap names the first integer out of place."""
    limit = min(b.bound, 10_000)
    a_vals = [wythoff_A(n) for n in range(1, limit + 1)]
    b_vals = [wythoff_B(n) for n in range(1, limit + 1)]
    top = a_vals[-1]
    yield "beatty-complementarity", f"n<={limit}", [(
        list(range(1, top + 1)), sorted(a_vals + b_vals)[:top],
        lambda i, e, g: f"expected={e} got={g}")]


def _csh_reduction(b: _Budget):
    """Closed GBS form of every composition word.

    A word of length L is its first letter X applied to the word of its
    other L-1 letters, so each length's values are the previous length's
    with wythoff_map of A or B over each word's list, and each word carries
    its letters with its values: the expected side is the compositions of A
    and B by one fixed-point multiply per value, never csh_reduce or GBS.
    The closed side is GBS.terms, the step-word sums, and then, compared on
    its own so that a short term list is never read against it, the one far
    point, where csh_reduce's constant comes from the word's isqrt value at 1.
    """
    level = [("", [*range(1, b.n_terms + 1), 1000])]
    for length in range(1, 9):
        parents, level = level[::-1], []
        while parents:  # each parent's values are dropped once its children are built
            letters, values = parents.pop()
            level += [(c + letters, wythoff_map(c, values)) for c in "AB"]
        yield "csh-reduction", f"len={length}", chain.from_iterable(
            ((values[:-1], closed.terms(b.n_terms),
              lambda i, e, g: f"word={letters} n={i + 1} expected={e} got={g}"),
             (values[-1:], [closed(1000)],
              lambda i, e, g: f"word={letters} n=1000 expected={e} got={g}"))
            for letters, values in level for closed in [csh_reduce(WythoffWord(letters))])


def _identities(b: _Budget):
    """Identity catalog, with solver cross-checks on each identity's block:
    lhs, the solver's compound word and the solver's GBS, in that order,
    each against the rhs word, whole term list against whole term list
    (WythoffWord.terms, by wythoff_map, for words; GBS.terms for the GBS);
    a missing side, or one that is the rhs word itself, is skipped."""
    for ident in identity_catalog(5):
        rhs = ident.rhs.terms(b.n_terms)
        sol = solver.solve_block(ident.block)
        block = f"block={ident.block} "
        sides = (("", "lhs", ident.lhs), (block, "compound", sol.compound),
                 (block, "solver", sol.gbs))
        yield "identity-catalog", ident.name, (
            (rhs, side.terms(b.n_terms), lambda i, e, g: f"{prefix}n={i + 1} {label}={g} rhs={e}")
            for prefix, label, side in sides if side not in (None, ident.rhs))


def _wythoff_columns(b: _Budget):
    """Wythoff array columns against the solver's compound words, whole
    column against whole column: the word's by WythoffWord.terms, the
    array's entry by entry."""
    cols = 8
    columns = (solver.solve_block("1" + "0" * j).compound for j in range(cols))
    yield "wythoff-array", f"m<={cols}", (
        (target.terms(b.n_terms), [wythoff_array(n, m) for n in range(1, b.n_terms + 1)],
         lambda i, e, g: f"m={m} n={i + 1} expected={e} got={g}")
        for m, target in enumerate([WythoffWord("A"), *columns]))


def _fibword_coding(b: _Budget):
    """Occurrence coding of left extensions reproduces the morphism iterates."""
    blocks = [w for m in range(2, 6) for w in valid_blocks(m) if w[0] == "0"]
    for n in range(3, 13):
        want = fibword.morphism_iterate(n - 2)
        yield "fibword-coding", f"n={n}", (
            (want, fibword.occurrence_coding(w, n),
             lambda i, e, g: f"w={w} index={i + 1} got={g} want={e}")
            for w in blocks)


def _fibword_positions(b: _Budget):
    """Letter positions in the morphism iterates are the A and B sequences:
    the values of each that the word's length bounds.  As phi > 3/2 and
    phi^2 > 5/2, A(n) >= (3n - 1)/2 and B(n) >= (5n - 1)/2, so wythoff_map over
    n <= (2*len + 1)/3 and (2*len + 1)/5 lists every such value."""
    word = fibword.morphism_iterate(20)
    top = len(word)
    yield "fibword-positions", f"len={top}", (
        (values[:bisect_right(values, top)], fibword.positions_of(c, word),
         lambda i, e, g: f"'{c}' n={i + 1} position={g} {c.upper()}={e}")
        for c, d in (("a", 3), ("b", 5))
        for values in [wythoff_map(c.upper(), range(1, (2 * top + 1) // d + 1))])


def _shown(sol) -> str | None:
    return sol and f"{sol.compound} {sol.gbs}"


def _tree_levels(b: _Budget):
    """solver.tree level by level, the tree the CLI prints: dual-representation m
    compares each node's compound word at n <= n_terms, by the fixed-point
    compositions of wythoff_map, with its GBS, by the step-word sums of
    GBS.terms; tree-step m compares level m+1, made by left extension, with
    the solve_block solutions of every block of that length, so a missing
    node fails too."""
    levels = [[] for _ in range(b.depth + 1)]
    for node in sorted(solver.tree(b.depth).walk(), key=lambda node: node.word):
        levels[len(node.word)].append(node.solution)
    for m, level in enumerate(levels):
        yield "dual-representation", f"m={m}", (
            (sol.compound.terms(b.n_terms), sol.gbs.terms(b.n_terms),
             lambda i, e, g: f"w={sol.word or 'empty'} n={i + 1} compound={e} gbs={g}")
            for sol in level)
    for m, level in enumerate(levels[2:], 1):
        nodes = {sol.word: sol for sol in level}
        yield "tree-step", f"m={m}", [(
            solver.level_solutions(m + 1), level,
            lambda i, e, g: f"w={(e or g).word} tree={_shown(nodes.get(e.word) if e else g)}"
                            f" solve_block={_shown(e)}")]


def _union_comparisons(m: int, k: int, groups: dict[int, list[int]], bound: int):
    """Per block of length m, its union at k: first the branch-count law, a
    one-element comparison, then the terms below bound against the
    brute-force group, so a wrong count stops before terms_below.  Then
    the edges of the union against the same group: count_below is 0 at 0
    and at the group's first number, and terms(c) is the group's first c
    numbers for c one below, at and one above the run width, where the
    group has that many."""
    for w in valid_blocks(m):
        occ = solver.solve_positional(w, k)
        group = groups.get(int(w, 2), [])
        yield ([fib(k + 2 - int(w[-1]))], [occ.count],
               lambda i, e, g: f"w={w} branches={g} want={e}")
        yield (group, occ.terms_below(bound),
               lambda i, e, g: f"w={w} index={i + 1} expected={e} got={g}")
        lows = [0, *group[:1]]
        yield ([0] * len(lows), [occ.count_below(x) for x in lows],
               lambda i, e, g: f"w={w} count_below({lows[i]})={g} want={e}")
        for c in range(occ.count - 1, min(occ.count + 1, len(group)) + 1):
            yield (group[:c], occ.terms(c),
                   lambda i, e, g: f"w={w} terms({c}) index={i + 1} expected={e} got={g}")


def _unions_and_densities(b: _Budget):
    """The master comparison: closed-form unions against brute enumeration,
    plus the branch-count law, the exact-vs-empirical densities and each
    density's printed factor against (F(k+2-w0), -(k+m+w_top)).

    One pass over the expansions serves a run of positions k0..k0+span: it
    groups them by their wide window at k0..k0+depth+span-1, each position
    k merges those groups by its digits k..k+depth-1 (nothing merges when
    span is 0), and each narrower window merges again.  span is the
    largest with F(depth+span+2) <= bound // 16 values of the wide window,
    about 16 numbers or more a group, or 0.

    The count below the bound X misses density * X by less than two runs,
    so it lies strictly within 2*F(k+2) of density * X (compared exactly,
    in GoldenNumber's order).  The numbers carrying w at k are the runs
    [V(n), V(n) + c), c = F(k+2-w0), of V = p*A + q*Id + r with p >= 1,
    q >= 0 and -(p+q) <= r < 0 (solve_positional; r = gamma < 0,
    V(1) >= 0), and their density is c/s, s = p*phi + q.  As
    A(n) = n*phi - frac(n*phi), V(n) lies in (n*s + r - p, n*s + r), so the
    number R of runs starting below X has X/s - 1 < R < X/s + (2p + q)/s <
    X/s + 2, and only the last of them is cut, by less than c.
    """
    span = 0
    while fib(b.depth + span + 3) <= b.bound // 16:
        span += 1
    for base in range(0, b.k_max + 1, span + 1):
        top = min(base + span, b.k_max)
        wide = _grouped_by_window(b.expansions, base, b.depth + top - base)
        for k in range(base, top + 1):
            groups, offset = wide, k - base
            slack = 2 * fib(k + 2)
            for m in range(b.depth, 0, -1):
                groups, offset = _narrowed(groups, m, offset), 0
                yield "oracle-equivalence", f"m={m} k={k}", \
                    _union_comparisons(m, k, groups, b.bound)
                if m <= 4:
                    blocks = valid_blocks(m)
                    counts = [len(groups.get(int(w, 2), [])) for w in blocks]
                    exact = [solver.density(w, k) for w in blocks]
                    yield "density-empirical", f"m={m} k={k}", [(
                        [True] * len(blocks),
                        [c - slack < d.value * b.bound < c + slack for c, d in zip(counts, exact)],
                        lambda i, e, g: f"w={blocks[i]} empirical={counts[i] / b.bound:.6f} "
                                        f"exact={float(exact[i].value):.6f}"), (
                        [(fib(k + 2 - int(w[-1])), -(k + m + (w[0] == "1"))) for w in blocks],
                        [(d.coefficient, d.exponent) for d in exact],
                        lambda i, e, g: f"w={blocks[i]} factor={g} want={e}")]


def _partition(b: _Budget):
    """Every number has exactly one length-m suffix class."""
    every = list(range(min(b.bound, 10_001)))
    for m in range(1, b.depth + 1):
        values = sorted(chain.from_iterable(solver.solve_positional(w, 0).terms_below(len(every))
                                            for w in valid_blocks(m)))
        yield "partition", f"m={m}", [(every, values, lambda *_: (
            f"missing={sorted(set(every) - set(values))[:3]} "
            f"duplicated={[v for u, v in zip(values, values[1:]) if u == v][:3]}"))]


def _density_total(b: _Budget):
    """Total exact density over each block length is exactly 1, both summed
    here block by block and in solver.density_total."""
    one = GoldenNumber(1, 0)
    for m in range(1, 7):
        for k in range(0, 5):
            total = sum((solver.density(w, k).value for w in valid_blocks(m)), GoldenNumber(0, 0))
            closed = solver.density_total(m, k)
            yield "density-total", f"m={m} k={k}", [(
                (one, one), (total, closed), lambda *_: f"total={total} closed={closed}")]


# Each check family yields (name, params, comparisons) per check: a lazy
# iterable of (expected, got, describe), which _timed hands to
# _first_failure.  The check fails at the first comparison whose sides
# differ, and its detail is describe(i, e, g) at their first differing
# index i, with e or g None past the end of a side that is a prefix.
_CHECKS = (_codec_routes, _codec_far, _beatty_complementarity, _csh_reduction, _identities,
           _wythoff_columns, _fibword_coding, _fibword_positions, _tree_levels,
           _unions_and_densities, _partition, _density_total)

# The most points certify evaluates the closed forms at: _tree_levels
# evaluates every tree node at each of them, csh-reduction its 510 words and
# identity-catalog its identities, so their time grows with n_terms.
MAX_TERMS = 10_000


def _timed(check, b: _Budget):
    """Each row of a check family as a CheckResult: its comparisons run by
    _first_failure, and the seconds from the request for it to their end.
    An Exception raised while the family produces or compares a row ends
    it with one failed row, params "raised", named after the row being
    compared, between rows the last one yielded, else the family's
    function; its detail starts with that row's params, between rows
    "after" them.  The rows it yielded stay."""
    name, where = check.__name__.lstrip("_").replace("_", "-"), ""
    start = perf_counter()
    try:
        for name, params, comparisons in check(b):
            where = f"{params}: "
            fail = _first_failure(comparisons)
            yield CheckResult(name, params, fail is None, fail or "", perf_counter() - start)
            where, start = f"after {params}: ", perf_counter()
    except Exception as exc:
        yield CheckResult(name, "raised", False, f"{where}raised {type(exc).__name__}: {exc}",
                          perf_counter() - start)


def certify(depth: int = 6, k_max: int = 3, n_terms: int = 200,
            bound: int = 100_000) -> VerificationReport:
    """Run the full cross-check suite at the given budget.

    depth   - check all blocks up to this length (tree levels), at most
              MAX_TREE_DEPTH
    k_max   - positions for the positional-union checks, at most
              MAX_TREE_DEPTH
    n_terms - every pointwise family compares at n = 1..n_terms, at most
              MAX_TERMS
    bound   - enumeration range for the brute-force comparisons, at most
              MAX_BOUND

    Each check's elapsed_s is the time its generator took to yield it plus
    the time its comparisons took, so set-up shared by several checks of one
    family (such as the window groups of a position) is charged to the first
    check after it; building the expansions below bound is charged to no
    check.  A family that raises
    an Exception ends with one failed row (see _timed); the budget check and
    the enumeration raise as they are.  The default budget runs in well
    under a minute single-threaded.
    """
    if not (0 <= depth <= MAX_TREE_DEPTH and 0 <= k_max <= MAX_TREE_DEPTH
            and 1 <= n_terms <= MAX_TERMS and 10 <= bound <= MAX_BOUND):
        raise ValueError("certification budget out of range: need 0 <= depth <= "
                         f"{MAX_TREE_DEPTH}, 0 <= k_max <= {MAX_TREE_DEPTH}, "
                         f"1 <= n_terms <= {MAX_TERMS}, 10 <= bound <= {MAX_BOUND}")
    budget = _Budget(depth, k_max, n_terms, bound, fibbinary_below(bound))
    rows = [row for check in _CHECKS for row in _timed(check, budget)]
    return VerificationReport(tuple(sorted(rows, key=lambda c: (c.name, c.params))))
