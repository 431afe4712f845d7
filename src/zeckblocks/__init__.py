"""Digit-block structure of Zeckendorf expansions.

Classifies the natural numbers by the digit blocks of their Zeckendorf
expansions, gives every class a closed form (a compound word over the
Wythoff sequences and a generalized Beatty sequence), computes exact
densities in the golden ring, and certifies all of it against brute-force
enumeration.
"""

from .beatty import GBS, OccurrenceSet, OverlapError, wythoff_A, wythoff_B
from .codec import (
    block_at,
    decode,
    encode,
    valid_blocks,
    validate_block,
)
from .fibcore import PHI, GoldenNumber, fib, golden_cmp, phi_pow
from .fibword import morphism_iterate, occurrence_coding, positions_of
from .oracle import (
    CheckResult,
    VerificationReport,
    brute_occurrences,
    certify,
)
from .solver import (
    BlockSolution,
    DensityValue,
    TreeNode,
    density,
    density_total,
    gamma,
    level_solutions,
    solve_block,
    solve_positional,
    tree,
)
from .wythoff import (
    Identity,
    WythoffWord,
    csh_reduce,
    identity_catalog,
    wythoff_array,
)

__version__ = "0.1.0"

__all__ = [
    "GBS",
    "OccurrenceSet",
    "OverlapError",
    "wythoff_A",
    "wythoff_B",
    "block_at",
    "decode",
    "encode",
    "valid_blocks",
    "validate_block",
    "PHI",
    "GoldenNumber",
    "fib",
    "golden_cmp",
    "phi_pow",
    "morphism_iterate",
    "occurrence_coding",
    "positions_of",
    "CheckResult",
    "VerificationReport",
    "brute_occurrences",
    "certify",
    "BlockSolution",
    "DensityValue",
    "TreeNode",
    "density",
    "density_total",
    "gamma",
    "level_solutions",
    "solve_block",
    "solve_positional",
    "tree",
    "Identity",
    "WythoffWord",
    "csh_reduce",
    "identity_catalog",
    "wythoff_array",
    "__version__",
]
