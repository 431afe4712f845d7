"""Brute-force ground truth and the certification suite.

brute_occurrences and empirical_density go through the digit codec only;
they never touch the closed-form machinery, so agreement between the two
routes is meaningful evidence.  certify() runs every cross-check at a
configurable budget and reports failures as data, not exceptions.

certify() reads the expansions below its bound as fibbinary integers
(OEIS A003714: no two adjacent 1 bits), bit i holding the digit at position
i.  The n-th fibbinary number, in binary, is the Zeckendorf expansion of n;
the check "codec-routes" compares that route with the greedy encode.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from . import fibword, solver
from .beatty import wythoff_A, wythoff_B
from .codec import block_at, encode, valid_blocks, validate_block
from .fibcore import GoldenNumber, fib, golden_cmp
from .wythoff import WythoffWord, csh_reduce, identity_catalog, wythoff_array


def brute_occurrences(w: str, k: int, bound: int) -> list[int]:
    """All N in [0, bound) whose expansion carries w at position k, ascending."""
    validate_block(w, allow_empty=True)
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    return [n for n in range(bound) if block_at(n, w, k)]


def empirical_density(w: str, k: int, bound: int) -> Fraction:
    """Occurrence count below bound over bound, as an exact rational."""
    return Fraction(len(brute_occurrences(w, k, bound)), bound)


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: str
    passed: bool
    detail: str = ""

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


def fibbinary_below(bound: int) -> list[int]:
    """The Zeckendorf expansions of 0, 1, ..., bound-1 as integers whose
    bit i is the digit at position i.

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


def _grouped_by_window(expansions: list[int], k: int, m: int) -> dict[int, list[int]]:
    """Bucket every N (index into expansions) by its digit window at k..k+m-1."""
    mask = (1 << m) - 1
    groups: dict[int, list[int]] = defaultdict(list)
    for n, x in enumerate(expansions):
        groups[(x >> k) & mask].append(n)
    return groups


def _narrowed(groups: dict[int, list[int]], m: int) -> dict[int, list[int]]:
    """Regroup by the low m digits of each window: the groups whose windows
    agree there merge, and each merged list is sorted again."""
    mask = (1 << m) - 1
    merged: dict[int, list[int]] = defaultdict(list)
    for window, members in groups.items():
        merged[window & mask] += members
    for members in merged.values():
        members.sort()
    return merged


def _first_mismatch(expected: list[int], got: list[int]) -> str:
    for i, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            return f"index={i + 1} expected={e} got={g}"
    return f"length expected={len(expected)} got={len(got)}"


def certify(depth: int = 6, k_max: int = 3, n_terms: int = 200,
            bound: int = 100_000) -> VerificationReport:
    """Run the full cross-check suite at the given budget.

    depth   - check all blocks up to this length (tree levels)
    k_max   - positions for the positional-union checks
    n_terms - pointwise range for closed-form identities
    bound   - enumeration range for the brute-force comparisons

    The default budget runs in well under a minute single-threaded.
    """
    if depth < 0 or k_max < 0 or n_terms < 1 or bound < 10:
        raise ValueError("certification budget parameters out of range")
    checks: list[CheckResult] = []

    def record(name: str, params: str, failure: str | None) -> None:
        checks.append(CheckResult(name, params, failure is None, failure or ""))

    expansions = fibbinary_below(bound)

    # The fibbinary route against the greedy encoder.
    fail = None
    for n, x in enumerate(expansions):
        if format(x, "b") != encode(n):
            fail = f"n={n} fibbinary={format(x, 'b')} encode={encode(n)}"
            break
    record("codec-routes", f"n<{bound}", fail)

    # Complementarity of the A and B sequences (the d0 = 0 / d0 = 1 split).
    limit = min(bound, 10_000)
    a_vals = [wythoff_A(n) for n in range(1, limit + 1)]
    b_vals = [wythoff_B(n) for n in range(1, limit + 1)]
    merged = sorted(set(a_vals) | set(b_vals))
    fail = None
    if len(set(a_vals) & set(b_vals)) != 0:
        fail = "A and B overlap"
    elif merged[: a_vals[-1]] != list(range(1, a_vals[-1] + 1)):
        fail = "A u B misses an integer"
    record("beatty-complementarity", f"n<={limit}", fail)

    # Closed GBS form of every composition word.
    span = min(n_terms, 500)
    for length in range(1, 9):
        fail = None
        for bits in range(1 << length):
            letters = "".join("AB"[(bits >> i) & 1] for i in range(length))
            word = WythoffWord(letters)
            closed = csh_reduce(word)
            for n in (*range(1, span + 1), 1000):
                if word(n) != closed(n):
                    fail = f"word={letters} n={n} expected={word(n)} got={closed(n)}"
                    break
            if fail:
                break
        record("csh-reduction", f"len={length}", fail)

    # Identity catalog, with solver cross-checks where a block is attached.
    for ident in identity_catalog(5):
        fail = None
        lhs = ident.lhs
        sol = solver.solve_block(ident.block) if ident.block else None
        for n in range(1, min(n_terms, 1000) + 1):
            rv = ident.rhs(n)
            if lhs is not None and lhs(n) != rv:
                fail = f"n={n} lhs={lhs(n)} rhs={rv}"
                break
            if sol is not None and (sol.compound(n) != rv or sol.gbs(n) != rv):
                fail = f"block={ident.block} n={n} solver={sol.gbs(n)} rhs={rv}"
                break
        record("identity-catalog", ident.name, fail)

    # Wythoff array columns against the solver's compound words.
    cols = 8
    fail = None
    for m in range(0, cols + 1):
        target = WythoffWord("A") if m == 0 else solver.solve_block("1" + "0" * (m - 1)).compound
        for n in range(1, min(n_terms, 200) + 1):
            if wythoff_array(n, m) != target(n):
                fail = f"m={m} n={n} expected={target(n)} got={wythoff_array(n, m)}"
                break
        if fail:
            break
    record("wythoff-array", f"m<={cols}", fail)

    # Occurrence coding of left extensions reproduces the morphism iterates.
    for n in range(3, 13):
        fail = None
        for m in range(2, 6):
            for w in valid_blocks(m):
                if w[0] != "0":
                    continue
                got = fibword.occurrence_coding(w, n)
                want = fibword.morphism_iterate(n - 2)
                if got != want:
                    fail = f"w={w} got={got[:20]}... want={want[:20]}..."
                    break
            if fail:
                break
        record("fibword-coding", f"n={n}", fail)

    # Letter positions in the morphism iterates are the A and B sequences.
    word = fibword.morphism_iterate(20)
    fail = None
    a_pos = fibword.positions_of("a", word)
    b_pos = fibword.positions_of("b", word)
    if any(p != wythoff_A(i + 1) for i, p in enumerate(a_pos)):
        fail = "'a' positions differ from A"
    elif any(p != wythoff_B(i + 1) for i, p in enumerate(b_pos)):
        fail = "'b' positions differ from B"
    record("fibword-positions", f"len={len(word)}", fail)

    # Compound word and GBS representation agree on every tree node.
    for m in range(0, depth + 1):
        fail = None
        for sol in solver.level_solutions(m):
            for n in range(1, n_terms + 1):
                if sol.compound(n) != sol.gbs(n):
                    fail = (f"w={sol.word or 'empty'} n={n} "
                            f"compound={sol.compound(n)} gbs={sol.gbs(n)}")
                    break
            if fail:
                break
        record("dual-representation", f"m={m}", fail)

    # Left extension acts on parameters as composition with A or B.
    for m in range(1, depth):
        fail = None
        for sol in solver.level_solutions(m):
            if sol.word[0] != "0":
                continue
            zero, one = solver.solve_block("0" + sol.word), solver.solve_block("1" + sol.word)
            if zero.gbs != sol.gbs.compose_A():
                fail = f"w={sol.word} 0-extension {zero.gbs} != {sol.gbs.compose_A()}"
                break
            if one.gbs != sol.gbs.compose_B():
                fail = f"w={sol.word} 1-extension {one.gbs} != {sol.gbs.compose_B()}"
                break
        record("tree-step", f"m={m}", fail)

    # The master comparison: closed-form unions against brute enumeration,
    # plus the branch-count law and the exact-vs-empirical densities.
    thousandth = Fraction(1, 1000)
    for k in range(0, k_max + 1):
        # one pass over the expansions per position; narrower windows merge groups
        groups = _grouped_by_window(expansions, k, depth)
        for m in range(depth, 0, -1):
            if m < depth:
                groups = _narrowed(groups, m)
            fail = None
            for w in valid_blocks(m):
                occ = solver.solve_positional(w, k)
                want_branches = fib(k + 2 - int(w[-1]))
                if occ.count != want_branches:
                    fail = f"w={w} branches={occ.count} want={want_branches}"
                    break
                expected = groups.get(int(w, 2), [])
                got = occ.terms_below(bound)
                if expected != got:
                    fail = f"w={w} " + _first_mismatch(expected, got)
                    break
            record("oracle-equivalence", f"m={m} k={k}", fail)

            if m <= 4:
                fail = None
                for w in valid_blocks(m):
                    emp = Fraction(len(groups.get(int(w, 2), [])), bound)
                    exact = solver.density(w, k).value
                    if not (golden_cmp(exact, emp - thousandth) > 0
                            and golden_cmp(exact, emp + thousandth) < 0):
                        fail = f"w={w} empirical={float(emp):.6f} exact={float(exact):.6f}"
                        break
                record("density-empirical", f"m={m} k={k}", fail)

    # Every number has exactly one length-m suffix class.
    part_bound = min(bound, 10_001)
    for m in range(1, depth + 1):
        fail = None
        values: list[int] = []
        for sol in solver.level_solutions(m):
            values.extend(solver.solve_positional(sol.word, 0).terms_below(part_bound))
        values.sort()
        if values != list(range(part_bound)):
            missing = sorted(set(range(part_bound)) - set(values))
            doubled = [values[i] for i in range(1, len(values)) if values[i] == values[i - 1]]
            fail = f"missing={missing[:3]} duplicated={doubled[:3]}"
        record("partition", f"m={m}", fail)

    # Total exact density over each block length is exactly 1.
    one = GoldenNumber(1, 0)
    for m in range(1, 7):
        for k in range(0, 5):
            fail = None
            total = solver.density_total(m, k)
            if total != one:
                fail = f"total={total}"
            record("density-total", f"m={m} k={k}", fail)

    checks.sort(key=lambda c: (c.name, c.params))
    return VerificationReport(tuple(checks))
