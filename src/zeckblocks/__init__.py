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

# Every public name the imports above bind from the package's own modules,
# in binding order (PHI reads its class's __module__); submodules have none.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and getattr(value, "__module__", "").startswith("zeckblocks.")] + ["__version__"]
