"""Command-line interface.

Digit blocks are entered most-significant-digit first, exactly as they
label the block tree: "100" means the block w2 w1 w0 = 1, 0, 0, i.e. the
numbers whose expansion ends in ...100.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .codec import MAX_TREE_DEPTH, decode, encode, validate_block
from .oracle import MAX_BOUND, MAX_TERMS, certify
from .solver import BlockSolution, TreeNode, density, solve_block, solve_positional, tree

# json.dumps builds a new encoder per call when given any option
_JSON = json.JSONEncoder(sort_keys=True)


def _block(text: str) -> str:
    try:
        return validate_block(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # Python >= 3.10.7 refuses to read integers longer than this limit;
        # name the limit rather than echo thousands of digits
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < len(text):
            raise argparse.ArgumentTypeError(
                f"too long: {len(text)} characters, over the limit of {limit} digits "
                "for integer text (sys.get_int_max_str_digits())") from None
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text}")
    return value


def _terms(text: str) -> int:
    # the same cap as verify's --terms: 10^4 terms print in 0.1 s at k = 0, and
    # at most 3.8 s and a 127 MB peak at position 1 20000 (42 MB of digits)
    value = _natural(text)
    if value > MAX_TERMS:
        raise argparse.ArgumentTypeError(f"at most {MAX_TERMS} terms, got {value}")
    return value


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its command parsers, by command name."""
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
    p.set_defaults(run=_run_encode)

    p = sub.add_parser("decode", parents=[fmt], help="value of a digit word")
    p.add_argument("digits", type=_block)
    p.set_defaults(run=_run_decode)

    p = sub.add_parser("block", parents=[fmt],
                       help="closed forms for expansions ending with a block (MSB first)")
    p.add_argument("word", type=_block)
    p.add_argument("--terms", type=_terms, default=10, help="how many terms to list")
    p.set_defaults(run=_run_block)

    p = sub.add_parser("position", parents=[fmt],
                       help="union of sequences with a block at digit position K")
    p.add_argument("word", type=_block)
    p.add_argument("k", type=_natural)
    p.add_argument("--terms", type=_terms, default=10)
    p.set_defaults(run=_run_position)

    p = sub.add_parser("density", parents=[fmt],
                       help="exact density of a block at a position")
    p.add_argument("word", type=_block)
    p.add_argument("k", type=_natural, nargs="?", default=0)
    p.set_defaults(run=_run_density)

    p = sub.add_parser("tree", parents=[fmt],
                       help="the labeled block tree down to a level")
    p.add_argument("depth", type=_natural)
    p.set_defaults(run=_run_tree)

    p = sub.add_parser("verify", parents=[fmt],
                       help="run the brute-force certification suite")
    p.add_argument("--depth", type=_natural, default=6,
                   help="check every block up to this length "
                        f"(default: %(default)s, at most {MAX_TREE_DEPTH})")
    p.add_argument("--k-max", type=_natural, default=3,
                   help="check positional unions at digit positions 0..K_MAX "
                        f"(default: %(default)s, at most {MAX_TREE_DEPTH})")
    p.add_argument("--terms", type=_natural, default=200,
                   help="compare the closed forms at n = 1..TERMS "
                        f"(default: %(default)s, at most {MAX_TERMS})")
    p.add_argument("--bound", type=_natural, default=100_000,
                   help="enumerate the expansions of N below BOUND "
                        f"(default: %(default)s, at least 10, at most {MAX_BOUND})")
    p.set_defaults(run=_run_verify)

    return parser, sub.choices


def _term_listing(values: list[int], style: str) -> list[str]:
    if style == "tsv":
        return ["n\tR(n)", *(f"{i}\t{v}" for i, v in enumerate(values, start=1))]
    return ["terms: " + ", ".join(str(v) for v in values)]


def _conversion(fmt: str, given, result, given_key: str, result_key: str):
    if fmt == "records":
        return 0, [{given_key: given, result_key: result}]
    return 0, [f"{given}\t{result}" if fmt == "tsv" else str(result)]


def _run_encode(args):
    return _conversion(args.format, args.n, encode(args.n), "n", "digits")


def _run_decode(args):
    return _conversion(args.format, args.digits, decode(args.digits), "digits", "n")


def _solution_record(sol: BlockSolution) -> dict:
    return {"word": sol.word, "compound": str(sol.compound), "p": sol.gbs.p,
            "q": sol.gbs.q, "r": sol.gbs.r, "exceptional": sol.exceptional}


def _run_block(args):
    sol = solve_block(args.word)
    if args.format == "records":
        rec = _solution_record(sol)
        if args.terms:
            rec["first_terms"] = sol.terms(args.terms)
        return 0, [rec]
    if args.format == "tsv":
        return 0, _term_listing(sol.terms(args.terms), "tsv")
    return 0, [f"block: {sol.word}", f"compound: {sol.compound}", f"gbs: {sol.gbs}",
               f"exceptional: {'yes' if sol.exceptional else 'no'}",
               *_term_listing(sol.terms(args.terms), "text")]


# F(8), the most branches a union has at k <= 6; larger unions print as one
# GBS with a range of offsets instead of one branch each
MAX_LISTED_BRANCHES = 21


def _run_position(args):
    occ = solve_positional(args.word, args.k)
    values = occ.terms(args.terms)
    listed = occ.count <= MAX_LISTED_BRANCHES
    if args.format == "records":
        g = occ.gbs
        if listed:
            shape = {"branches": [{"p": b.p, "q": b.q, "r": b.r, "display": str(b)}
                                  for b in occ.branches]}
        else:
            shape = {"count": occ.count, "gbs": {"p": g.p, "q": g.q, "r": g.r}}
        return 0, [{"word": args.word, "k": args.k, **shape, "terms": values}]
    if args.format == "tsv":
        return 0, _term_listing(values, "tsv")
    branches = (", ".join(str(b) for b in occ.branches) if listed
                else f"{occ} ({occ.count} branches)")
    return 0, [f"block: {args.word}", f"k: {args.k}", f"branches: {branches}",
               *_term_listing(values, "text")]


def _run_density(args):
    d = density(args.word, args.k)
    if args.format == "records":
        return 0, [{"word": args.word, "k": args.k, "coeff": d.coefficient,
                    "exponent": d.exponent, "golden_a": d.value.a, "golden_b": d.value.b,
                    "decimal": float(d.value)}]
    if args.format == "tsv":
        return 0, [f"{args.word}\t{args.k}\t{d.coefficient}\t{d.exponent}"
                   f"\t{d.value.a}\t{d.value.b}\t{float(d.value):.10f}"]
    coeff = "" if d.coefficient == 1 else f"{d.coefficient}*"
    return 0, [f"block: {args.word}", f"k: {args.k}",
               f"exact: {coeff}phi^{d.exponent} = {d.value}",
               f"decimal: {float(d.value):.10f}"]


def _tree_line(node: TreeNode, fmt: str) -> str | dict:
    """One node's line.  Text indents two spaces per level (the length of the
    word) and shows the root, the empty block, as in the tree figure."""
    sol = node.solution
    if fmt == "records":
        return {"depth": len(sol.word), **_solution_record(sol)}
    if fmt == "tsv":
        return f"{len(sol.word)}\t{sol.word}\t{sol.compound}\t{sol.gbs}"
    if not sol.word:
        return "Λ  ∅  ∅"
    compound = ("B-1=" if sol.word == "1" else "") + str(sol.compound)
    return "  " * len(sol.word) + f"{sol.word}  {compound}  {sol.gbs}"


def _run_tree(args):
    return 0, [_tree_line(node, args.format) for node in tree(args.depth).walk()]


def _run_verify(args):
    report = certify(depth=args.depth, k_max=args.k_max,
                     n_terms=args.terms, bound=args.bound)
    if args.format == "records":
        lines = [{"check": c.name, "params": c.params, "status": "pass" if c.passed else "fail",
                  "detail": c.detail, "elapsed_s": c.elapsed_s} for c in report.checks]
        lines.append({"summary": report.summary(), "ok": report.ok})
    elif args.format == "tsv":
        lines = [f"{c.name}\t{c.params}\t{'pass' if c.passed else 'fail'}\t{c.detail}"
                 for c in report.checks]
    else:
        lines = [*map(str, report.checks), report.summary()]
    return (0 if report.ok else 1), lines


_parser, _commands = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; its lines are all built before any is written, so a
    command that fails leaves stdout empty.

    An argv that starts with a command name is parsed once, by that
    command's parser, just as the top-level parser would hand it on.  Any
    other argv, and one that leaves arguments over, is parsed by the
    top-level parser, which writes every usage, help and error text.
    """
    if argv is None:
        argv = sys.argv[1:]
    command = _commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
    if command is None or extra:
        args = _parser.parse_args(argv)
    try:
        status, lines = args.run(args)
        sys.stdout.write("".join((_JSON.encode(line) if isinstance(line, dict)
                                  else line) + "\n" for line in lines))
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed the pipe, as `| head` does
        return 1
    return status


def entry() -> None:
    try:
        status = main()
    except SystemExit as exc:  # argparse exits inside parse_args, as after --help
        status = exc.code
    try:
        sys.stdout.flush()  # what argparse printed is still in the buffer
    except BrokenPipeError:
        status = 1
    # point stdout at devnull so that the flush at exit cannot raise again if
    # the reader has gone
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    entry()
