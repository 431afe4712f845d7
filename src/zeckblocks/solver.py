"""Closed forms for the numbers whose Zeckendorf expansion carries a given
digit block: compound Wythoff words, GBS parameters, the block tree,
positional unions and exact densities.

The compound word of a block w is built by left extension.  Writing w with
its most significant digit first:

* the one-digit bases are C(0) = A - 1 and C(1) = AA (pointwise B - 1);
* prepending 0 to a block starting with 0 composes with A on the right;
* prepending 1 composes with B on the right;
* prepending 0 to a block starting with 1 changes nothing, because a digit
  above a 1 is forced to be 0 anyway.

Blocks 1 0^j would come out of that recursion as the shifted word
(A^j - 1) B; they are normalized to the shift-free forms B^((j+1)/2) A
(j odd) and A B^(j/2) A (j even), which are pointwise equal.  All-zero
blocks keep their shifted form A^m - 1, which left extension produces
from the empty block's Id - 1: (A^j - 1)∘A = A^(j+1) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .beatty import GBS, OccurrenceSet
from .codec import MAX_TREE_DEPTH, decode, valid_blocks, validate_block, validate_length
from .fibcore import GoldenNumber, fib, fib_pair, fib_times_phi_pow
from .wythoff import WythoffWord

# The cap bounds the answer, about 0.7*k bits per number, and the work is
# bounded by the answer: at k = 50000 solve_positional takes 3.5 ms and
# density 2 ms, with tracemalloc peaks under 0.2 MB (Python 3.11, 2 CPUs).
MAX_POSITION = 50_000


def gamma(w: str) -> int:
    """The constant term of the GBS form of a block's occurrence sequence:
    -(1 + sum of F(k) over the interior positions k where w reads "00").

    The first number ending in w is val(w), and as A(1) = 1 it is
    V(1) = F(L+1) + gamma with L = m + w_top; so gamma = val(w) - F(L+1).
    """
    return decode(w) - fib(len(w) + (w[:1] == "1") + 1)


def _compound(w: str) -> WythoffWord:
    if "1" not in w:
        return WythoffWord("A" * len(w), -1)
    low = w.rindex("1")
    j = len(w) - 1 - low
    base = "B" * ((j + 1) // 2) + "A" if j % 2 else "A" + "B" * (j // 2) + "A"
    # the digits above the lowest 1, read upward: a 0 over a 1 adds nothing
    # (same occurrence set, same word), a 0 over a 0 adds A and a 1 adds B
    upper = w[:low + 1].replace("01", "1")[-2::-1]
    return WythoffWord(base + upper.replace("0", "A").replace("1", "B"))


@dataclass(frozen=True)
class BlockSolution:
    """Both closed forms for the increasing sequence of numbers whose
    expansion ends with `word`; the GBS constant gbs.r is gamma(word).
    """

    word: str
    compound: WythoffWord
    gbs: GBS

    @property
    def exceptional(self) -> bool:
        """True where the sequence is not a plain composition word: the
        all-zero blocks (A^m - 1), the block "1" (stored as AA, pointwise
        equal to B - 1) and the empty block (the shifted identity, an
        extension: every number trivially ends with it)."""
        return "1" not in self.word or self.word == "1"

    def terms(self, count: int) -> list[int]:
        return self.gbs.terms(count)


def _positional_rule(w: str, k: int) -> tuple[int, int]:
    """Validate a non-empty block w and a position k; return L = k+m+w_top and
    K = k+2-w0: w sits at position k in F(K) runs of F(L)*A + F(L-1)*Id + r,
    of density F(K) * phi**-L."""
    validate_block(w)
    if not 0 <= k <= MAX_POSITION:
        raise ValueError(f"position must be between 0 and {MAX_POSITION}, got {k}")
    return k + len(w) + (w[0] == "1"), k + 2 - int(w[-1])


def solve_block(w: str) -> BlockSolution:
    """Closed forms for the numbers whose expansion ends with the block w.

    The GBS coefficients are (F(m), F(m-1)) when w starts with 0 and
    (F(m+1), F(m)) when it starts with 1, the constant being gamma(w).
    The empty block is accepted and yields the shifted identity n -> n - 1,
    whose values run through all of 0, 1, 2, ...
    """
    if not w:
        return BlockSolution("", WythoffWord("", -1), GBS(0, 1, -1))
    length, _ = _positional_rule(w, 0)
    q, p = fib_pair(length - 1)
    return BlockSolution(w, _compound(w), GBS(p, q, gamma(w)))


@dataclass(frozen=True)
class TreeNode:
    solution: BlockSolution
    children: tuple["TreeNode", ...]

    @property
    def word(self) -> str:
        return self.solution.word

    def walk(self):
        """Yield nodes depth-first, 0-extension child before 1-extension."""
        stack = [self]
        while stack:
            yield (node := stack.pop())
            stack += reversed(node.children)


def tree(depth: int) -> TreeNode:
    """The block tree down to the given level: the root is the empty block,
    and a node w has children 0w always and 1w only when w starts with 0,
    so level m holds all F(m+2) valid blocks of length m.  The depth is the
    length of the longest blocks, so codec.validate_length caps it.

    Each child comes from its parent by left extension (the module
    docstring): 0 over a w starting with 1 keeps w's compound and GBS, and
    0 or 1 over a w starting with 0 composes them with A or B.  That rule
    grows the all-zero spine 0^j from the root too; only the root and the
    normalized blocks 1 0^j are solved directly, depth + 1 nodes.
    certify's tree-step check compares every level with solve_block.
    """
    validate_length(depth)

    def build(sol: BlockSolution, level: int) -> TreeNode:
        if level == depth:
            return TreeNode(sol, ())
        w, compound, gbs = sol.word, sol.compound, sol.gbs
        if w[:1] == "1":
            kids = (BlockSolution("0" + w, compound, gbs),)
        else:
            one = (BlockSolution("1" + w, compound.then("B"), gbs.compose_B()) if "1" in w
                   else solve_block("1" + w))
            kids = (BlockSolution("0" + w, compound.then("A"), gbs.compose_A()), one)
        return TreeNode(sol, tuple([build(kid, level + 1) for kid in kids]))

    return build(solve_block(""), 0)


def level_solutions(m: int) -> list[BlockSolution]:
    """The solutions for all blocks of length m, in increasing block value,
    for 0 <= m <= MAX_TREE_DEPTH."""
    return [solve_block(w) for w in valid_blocks(m)]


def solve_positional(w: str, k: int = 0) -> OccurrenceSet:
    """The numbers carrying the block w at digit position k, as a union of
    F(k+2-w0) disjoint GBS branches (w0 = last digit of w).

    All branches share the coefficients (p, q) of the length m+k blocks that
    start like w; their offsets are the consecutive run starting at
    gamma(w 0^k).  The step p+q = F(k+m+1+w_top) is at least the branch
    count, so the union is stored as that one GBS and the count, and its
    terms are the runs [V(n), V(n) + count).  For k = 0 this is the single
    branch of solve_block.
    """
    length, branches = _positional_rule(w, k)
    q, p = fib_pair(length - 1)
    return OccurrenceSet(GBS(p, q, gamma(w + "0" * k)), fib(branches))


@dataclass(frozen=True)
class DensityValue:
    """An exact natural density: coefficient * phi**exponent, expanded in Z[phi]."""

    coefficient: int
    exponent: int
    value: GoldenNumber


def density(w: str, k: int = 0) -> DensityValue:
    """Exact density of the numbers carrying w at position k:
    F(k+2-w0) * phi**-(k+m+w_top).  For k = 0 this is phi**-m when w starts
    with 0 and phi**-(m+1) when it starts with 1.

    One doubling at K = k+2-w0 gives both the coefficient and the value.
    """
    length, branches = _positional_rule(w, k)
    coeff, value = fib_times_phi_pow(branches, -length)
    return DensityValue(coeff, -length, value)


def density_total(m: int, k: int = 0) -> GoldenNumber:
    """Sum of density(w, k) over every block w of length m, 1 <= m <=
    MAX_TREE_DEPTH; identically 1.

    The digits above a block's last digit are free, so the length-m blocks
    ending in b together carry exactly the numbers whose digit at k is b:
    their densities sum to density(b, k) for every m, and the total is
    F(k+2) * phi**-(k+1) + F(k+1) * phi**-(k+2) = 1.  The oracle's
    density-total check sums the blocks one by one.
    """
    if not 1 <= m <= MAX_TREE_DEPTH:
        raise ValueError(f"block length must be between 1 and {MAX_TREE_DEPTH}, got {m}")
    return density("0", k).value + density("1", k).value
