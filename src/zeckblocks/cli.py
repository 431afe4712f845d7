"""Command-line interface.

Digit blocks are entered most-significant-digit first, exactly as they
label the block tree: "100" means the block w2 w1 w0 = 1, 0, 0, i.e. the
numbers whose expansion ends in ...100.
"""

from __future__ import annotations

import argparse
import json
import sys

from .codec import decode, encode, validate_block
from .oracle import certify
from .solver import TreeNode, density, solve_block, solve_positional, tree


def _block(text: str) -> str:
    try:
        return validate_block(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeckblocks",
        description="Digit-block structure of Zeckendorf expansions: closed "
                    "forms, trees, densities, verification.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "tsv", "records"), default="text",
                     help="output style (default: text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", parents=[fmt], help="Zeckendorf digit word of N")
    p.add_argument("n", type=_natural)

    p = sub.add_parser("decode", parents=[fmt], help="value of a digit word")
    p.add_argument("digits", type=_block)

    p = sub.add_parser("block", parents=[fmt],
                       help="closed forms for expansions ending with a block (MSB first)")
    p.add_argument("word", type=_block)
    p.add_argument("--terms", type=_natural, default=10, help="how many terms to list")

    p = sub.add_parser("position", parents=[fmt],
                       help="union of sequences with a block at digit position K")
    p.add_argument("word", type=_block)
    p.add_argument("k", type=_natural)
    p.add_argument("--terms", type=_natural, default=10)

    p = sub.add_parser("density", parents=[fmt],
                       help="exact density of a block at a position")
    p.add_argument("word", type=_block)
    p.add_argument("k", type=_natural, nargs="?", default=0)

    p = sub.add_parser("tree", parents=[fmt],
                       help="the labeled block tree down to a level")
    p.add_argument("depth", type=_natural)

    p = sub.add_parser("verify", parents=[fmt],
                       help="run the brute-force certification suite")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--terms", type=int, default=200)
    p.add_argument("--bound", type=int, default=100_000)

    return parser


def _emit_record(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _term_listing(values: list[int], style: str) -> None:
    if style == "tsv":
        print("n\tR(n)")
        for i, v in enumerate(values, start=1):
            print(f"{i}\t{v}")
    else:
        print("terms: " + ", ".join(str(v) for v in values))


def _run_encode(args) -> int:
    digits = encode(args.n)
    if args.format == "records":
        _emit_record({"n": args.n, "digits": digits})
    elif args.format == "tsv":
        print(f"{args.n}\t{digits}")
    else:
        print(digits)
    return 0


def _run_decode(args) -> int:
    value = decode(args.digits)
    if args.format == "records":
        _emit_record({"digits": args.digits, "n": value})
    elif args.format == "tsv":
        print(f"{args.digits}\t{value}")
    else:
        print(value)
    return 0


def _run_block(args) -> int:
    sol = solve_block(args.word)
    if args.format == "records":
        _emit_record(sol.to_record(args.terms))
        return 0
    if args.format == "tsv":
        _term_listing(sol.terms(args.terms), "tsv")
        return 0
    print(f"block: {sol.word}")
    print(f"compound: {sol.compound}")
    print(f"gbs: {sol.gbs}")
    print(f"exceptional: {'yes' if sol.exceptional else 'no'}")
    _term_listing(sol.terms(args.terms), "text")
    return 0


# F(8), the most branches a union has at k <= 6; larger unions print as one
# GBS with a range of offsets instead of one branch each
MAX_LISTED_BRANCHES = 21


def _run_position(args) -> int:
    occ = solve_positional(args.word, args.k)
    values = occ.terms(args.terms)
    listed = occ.count <= MAX_LISTED_BRANCHES
    g = occ.gbs
    if args.format == "records":
        if listed:
            shape = {"branches": [{"p": b.p, "q": b.q, "r": b.r, "display": str(b)}
                                  for b in occ.branches]}
        else:
            shape = {"count": occ.count, "gbs": {"p": g.p, "q": g.q, "r": g.r}}
        _emit_record({"word": args.word, "k": args.k, **shape, "terms": values})
        return 0
    if args.format == "tsv":
        _term_listing(values, "tsv")
        return 0
    print(f"block: {args.word}")
    print(f"k: {args.k}")
    if listed:
        print("branches: " + ", ".join(str(b) for b in occ.branches))
    else:
        print(f"branches: {occ} ({occ.count} branches)")
    _term_listing(values, "text")
    return 0


def _run_density(args) -> int:
    d = density(args.word, args.k)
    if args.format == "records":
        _emit_record({"word": args.word, "k": args.k, **d.to_record()})
        return 0
    if args.format == "tsv":
        print(f"{args.word}\t{args.k}\t{d.coefficient}\t{d.exponent}"
              f"\t{d.value.a}\t{d.value.b}\t{float(d.value):.10f}")
        return 0
    coeff = "" if d.coefficient == 1 else f"{d.coefficient}*"
    print(f"block: {args.word}")
    print(f"k: {args.k}")
    print(f"exact: {coeff}phi^{d.exponent} = {d.value}")
    print(f"decimal: {float(d.value):.10f}")
    return 0


def render_tree(root: TreeNode) -> list[str]:
    """Indented listing: word, compound form, GBS form, two spaces per level
    (a node's level is the length of its word).

    The root (the empty block) is shown with the symbols of the tree figure;
    its identity-sequence reading stays available through the API.
    """
    lines: list[str] = []
    for node in root.walk():
        sol = node.solution
        if not sol.word:
            lines.append("Λ  ∅  ∅")
        else:
            compound = str(sol.compound)
            if sol.word == "1":
                compound = "B-1=" + compound
            lines.append("  " * len(sol.word) + f"{sol.word}  {compound}  {sol.gbs}")
    return lines


def _run_tree(args) -> int:
    root = tree(args.depth)
    if args.format == "records":
        for node in root.walk():
            _emit_record({"depth": len(node.word), **node.solution.to_record()})
        return 0
    if args.format == "tsv":
        for node in root.walk():
            sol = node.solution
            print(f"{len(sol.word)}\t{sol.word}\t{sol.compound}\t{sol.gbs}")
        return 0
    for line in render_tree(root):
        print(line)
    return 0


def _run_verify(args) -> int:
    report = certify(depth=args.depth, k_max=args.k_max,
                     n_terms=args.terms, bound=args.bound)
    if args.format == "records":
        for c in report.checks:
            _emit_record({"check": c.name, "params": c.params,
                          "status": "pass" if c.passed else "fail",
                          "detail": c.detail, "elapsed_s": c.elapsed_s})
        _emit_record({"summary": report.summary(), "ok": report.ok})
    elif args.format == "tsv":
        for c in report.checks:
            print(f"{c.name}\t{c.params}\t{'pass' if c.passed else 'fail'}\t{c.detail}")
    else:
        for c in report.checks:
            print(c)
        print(report.summary())
    return 0 if report.ok else 1


_HANDLERS = {
    "encode": _run_encode,
    "decode": _run_decode,
    "block": _run_block,
    "position": _run_position,
    "density": _run_density,
    "tree": _run_tree,
    "verify": _run_verify,
}


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
