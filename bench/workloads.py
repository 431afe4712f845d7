"""Workload inputs, the library call behind each op, and its verification.

All inputs come from the seed and are generated before timing starts.  An
op is a plain tuple, so equal ops share one verification.  Ops reach the
library through module attributes looked up at call time, which lets the
traced run rebind them.

Parameters are stratified: the seed draws the blocks, numbers and order,
while the mix of op kinds and the grid of sizes (depths, positions, term
counts, digit lengths) is fixed.  The slowest ops of a list, which set
`latency_p99_ms`, are then the same kind and size for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from math import isqrt
from pathlib import Path

import zeckblocks as zb
from zeckblocks import cli

WORKLOADS = ("certify-default", "query-small", "query-large")

# Every term list is compared with brute enumeration below this value, so a
# term missing from the closed form shows, not just a wrong one.
BRUTE_LIMIT = 3000
SMALL_N = 10**6
LARGE_DIGITS = 956  # every word of this many digits is below F(958) < 10**200
LARGE_K = 20_000
CHECKS_FILE = Path(__file__).with_name("certify_checks.tsv")


def _blocks(m: int) -> list[str]:
    """Every 0/1 word of length m without "11", enumerated here rather than
    by the library under test."""
    words = [""]
    for _ in range(m):
        words = [d + w for w in words for d in "01" if not (d == "1" and w[:1] == "1")]
    return words


BLOCKS = {m: _blocks(m) for m in range(9)}


def _word(rng: random.Random, length: int) -> str:
    """A random Zeckendorf word with exactly `length` digits."""
    digits = ["1"]
    for _ in range(length - 1):
        digits.append("0" if digits[-1] == "1" else rng.choice("01"))
    return "".join(digits)


def _block(rng: random.Random, m: int, last: str | None = None) -> str:
    choices = [w for w in BLOCKS[m] if last is None or w[-1] == last]
    return rng.choice(choices)


def _cli(lib_op: tuple, fmt: str) -> tuple:
    kind, *params = lib_op
    argv = {
        "encode": lambda n: ["encode", str(n)],
        "decode": lambda s: ["decode", s],
        "block": lambda w, t: ["block", w, "--terms", str(t)],
        "position": lambda w, k, t: ["position", w, str(k), "--terms", str(t)],
        "density": lambda w, k: ["density", w, str(k)],
        "tree": lambda d: ["tree", str(d)],
    }[kind](*params)
    return ("cli", tuple(argv + ["--format", fmt]), lib_op)


def _query_small(rng: random.Random) -> list[tuple]:
    """1280 interactive queries: blocks to length 8, positions to 6, at most
    50 terms, N below 10**6; a quarter go through the CLI."""
    ops = []
    for i in range(200):
        m, t = 1 + i % 8, 1 + i * 49 // 199
        ops.append(("block", _block(rng, m), t))
        ops.append(("position", _block(rng, m), i % 7, t))
    for i in range(160):
        ops.append(("density", _block(rng, 1 + i % 8), i % 7))
        ops.append(("encode", rng.randrange(SMALL_N)))
        ops.append(("decode", _word(rng, 1 + i % 28)))  # below F(30) < 10**6
    for i in range(40):
        ops.append(("density_total", 1 + i % 8, i % 7))
        ops.append(("tree", i % 9))
    kinds = ("encode", "decode", "block", "position", "density", "tree")
    for i in range(320):
        kind, fmt = kinds[i % 6], ("text", "tsv", "records")[i // 6 % 3]
        m, t = 1 + i % 8, 1 + i * 49 // 319
        lib_op = {
            "encode": lambda: ("encode", rng.randrange(SMALL_N)),
            "decode": lambda: ("decode", _word(rng, 1 + i % 28)),
            "block": lambda: ("block", _block(rng, m), t),
            "position": lambda: ("position", _block(rng, m), i % 7, t),
            "density": lambda: ("density", _block(rng, m), i % 7),
            "tree": lambda: ("tree", i // 18 % 7),
        }[kind]()
        ops.append(_cli(lib_op, fmt))
    return ops


def _query_large(rng: random.Random) -> list[tuple]:
    """1204 queries on big inputs: numbers to 10**200, densities at positions
    to 20000 and positional unions to k = 16 with up to 1000 terms."""
    ops = []
    for i in range(200):
        e = i % 200  # one draw per decimal exponent 0..199
        ops.append(("encode", rng.randrange(10**e, 10**(e + 1))))
        ops.append(("decode", _word(rng, 1 + i * (LARGE_DIGITS - 1) // 199)))
        # k runs over 0..20000 and ends at exactly LARGE_K, which fixes the
        # size of every cache the library grows for these queries
        ops.append(("density", _block(rng, 1 + i % 8), i * LARGE_K // 199))
    for i in range(160):
        e = 1 + i * 199 // 159
        ops.append(("wythoff_A", rng.randrange(1, 10**e)))
        ops.append(("gbs", _block(rng, 1 + i % 8), rng.randrange(1, 10**e)))
    for i in range(80):
        ops.append(("density_cmp", _block(rng, 1 + i % 8), rng.randrange(LARGE_K + 1),
                    _block(rng, 1 + (i + 3) % 8), rng.randrange(LARGE_K + 1)))
    for i in range(204):
        # twelve ops per position k; the last digit sets the branch count F(k+2-w0)
        k, last = i % 17, "01"[i // 17 % 2]
        ops.append(("position", _block(rng, 1 + i % 8, last), k, (1000, 400, 100)[i // 68]))
    return ops


def generate(workload: str, seed: int) -> list[tuple]:
    if workload == "certify-default":
        return [("certify",)]  # the default budget; the seed changes nothing
    rng = random.Random(f"{workload}:{seed}")
    ops = _query_small(rng) if workload == "query-small" else _query_large(rng)
    rng.shuffle(ops)
    return ops


def warm_up_certify() -> None:
    """certify at a small budget runs every code path of the default one."""
    zb.certify(depth=2, k_max=1, n_terms=20, bound=1000)


def _run_cli(argv: tuple, _lib_op: tuple) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


_RUNNERS = {
    "block": lambda w, t: zb.solve_block(w).terms(t),
    "position": lambda w, k, t: zb.solve_positional(w, k).terms(t),
    "density": lambda w, k: zb.density(w, k),
    "density_total": lambda m, k: zb.density_total(m, k),
    "density_cmp": lambda w1, k1, w2, k2: zb.density(w1, k1).value < zb.density(w2, k2).value,
    "encode": lambda n: zb.encode(n),
    "decode": lambda s: zb.decode(s),
    "wythoff_A": lambda n: zb.wythoff_A(n),
    "gbs": lambda w, n: zb.solve_block(w).gbs(n),
    "tree": lambda d: zb.tree(d),
    "cli": _run_cli,
    "certify": lambda: zb.certify(),
}


def run(op: tuple):
    """The op's library call; its result is what gets verified."""
    return _RUNNERS[op[0]](*op[1:])


# ---- verification, by routes other than the closed form under test ----

def _fib(n: int) -> int:
    """F(n) by fast doubling, independent of the library's cached table."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def _golden_sign(a: int, b: int) -> int:
    """Sign of a + b*phi from a fixed-point sqrt(5), without golden_cmp."""
    if b == 0:
        return (a > 0) - (a < 0)
    bits = 64 + 2 * max(a.bit_length(), b.bit_length())
    while True:
        # v is 2^(bits+1) * (a + b*phi) up to an error below |b|
        v = ((2 * a + b) << bits) + b * isqrt(5 << (2 * bits))
        if abs(v) > abs(b):
            return (v > 0) - (v < 0)
        bits *= 2


def _check_terms(w: str, k: int, terms: list[int], t: int) -> str | None:
    if len(terms) != t:
        return f"{len(terms)} terms, want {t}"
    if any(b <= a for a, b in zip(terms, terms[1:])):
        return "terms are not strictly increasing"
    for v in terms:
        if not zb.block_at(v, w, k):
            return f"{v} does not carry {w} at position {k}"
    cut = min(terms[-1] + 1, BRUTE_LIMIT)
    if [n for n in range(cut) if zb.block_at(n, w, k)] != [v for v in terms if v < cut]:
        return f"a number below {cut} that carries {w} at position {k} is missing"
    return None


def _check_A(n: int, a: int) -> str | None:
    x = zb.GoldenNumber(0, n)  # n*phi
    if zb.golden_cmp(x, a) != 1 or zb.golden_cmp(x, a + 1) != -1:
        return f"A({n}) = {a} is not floor({n}*phi)"
    return None


def _check_density(w: str, k: int, d) -> str | None:
    coeff, n = _fib(k + 2 - int(w[-1])), k + len(w) + (w[0] == "1")
    sign = 1 if n % 2 == 0 else -1  # phi^-n = (-1)^n (F(n+1) - F(n) phi)
    want = zb.GoldenNumber(sign * coeff * _fib(n + 1), -sign * coeff * _fib(n))
    if d.value != want:
        return f"density {d.value} is not F(k+2-w0)*phi^-{n}"
    if zb.density_total(len(w), k) != zb.GoldenNumber(1, 0):
        return f"densities of length {len(w)} at position {k} do not sum to 1"
    return None


def _check_tree(d: int, root) -> str | None:
    nodes = list(root.walk())
    levels: dict[int, list[str]] = {}
    for node in nodes:
        levels.setdefault(len(node.word), []).append(node.word)
    if sorted(levels) != list(range(d + 1)):
        return f"tree levels {sorted(levels)}, want 0..{d}"
    for m, words in levels.items():
        if sorted(words) != sorted(BLOCKS[m]):
            return f"level {m} holds {len(words)} blocks, want {len(BLOCKS[m])}"
    for node in nodes[1:]:
        fail = _check_terms(node.word, 0, node.solution.terms(5), 5)
        if fail:
            return f"node {node.word}: {fail}"
    return None


def _check_certify(report) -> str | None:
    if not report.ok:
        return f"certify failed: {report.failures[0]}"
    want = {tuple(line.split("\t")) for line in CHECKS_FILE.read_text().splitlines()}
    missing = want - {(c.name, c.params) for c in report.checks}
    if missing:
        return f"certify lost {len(missing)} checks, e.g. {sorted(missing)[0]}"
    return None


def _cli_payload(kind: str, fmt: str, text: str):
    """The values a CLI listing carries, in the form _lib_payload gives."""
    lines = text.splitlines()
    if fmt == "records":
        recs = [json.loads(line) for line in lines]
        rec = recs[0]
        return {
            "encode": lambda: rec["digits"],
            "decode": lambda: rec["n"],
            "block": lambda: rec["first_terms"],
            "position": lambda: rec["terms"],
            "density": lambda: str(zb.GoldenNumber(rec["golden_a"], rec["golden_b"])),
            "tree": lambda: [(r["word"], str(zb.GBS(r["p"], r["q"], r["r"]))) for r in recs[1:]],
        }[kind]()
    if fmt == "tsv":
        fields = [line.split("\t") for line in lines]
        return {
            "encode": lambda: fields[0][1],
            "decode": lambda: int(fields[0][1]),
            "block": lambda: [int(f[1]) for f in fields[1:]],
            "position": lambda: [int(f[1]) for f in fields[1:]],
            "density": lambda: str(zb.GoldenNumber(int(fields[0][4]), int(fields[0][5]))),
            "tree": lambda: [(f[1], f[3]) for f in fields[1:]],
        }[kind]()
    terms = next((line[len("terms: "):] for line in lines if line.startswith("terms: ")), "")
    return {
        "encode": lambda: lines[0],
        "decode": lambda: int(lines[0]),
        "block": lambda: [int(v) for v in terms.split(", ")],
        "position": lambda: [int(v) for v in terms.split(", ")],
        "density": lambda: next(line for line in lines if line.startswith("exact: ")).split(" = ")[1],
        "tree": lambda: [(f[0], f[2]) for f in (line.split() for line in lines[1:])],
    }[kind]()


def _lib_payload(lib_op: tuple, value):
    kind = lib_op[0]
    if kind == "density":
        return str(value.value)
    if kind == "tree":
        return [(node.word, str(node.solution.gbs)) for node in value.walk()][1:]
    return value


def _check_cli(argv: tuple, lib_op: tuple, result: tuple[int, str]) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    value = run(lib_op)
    if _cli_payload(lib_op[0], argv[-1], text) != _lib_payload(lib_op, value):
        return "output disagrees with the library call " + repr(lib_op)
    return verify(lib_op, value)


def verify(op: tuple, out) -> str | None:
    """None when the op's output is right, else what is wrong with it."""
    kind, *p = op
    if kind == "block":
        return _check_terms(p[0], 0, out, p[1])
    if kind == "position":
        return _check_terms(p[0], p[1], out, p[2])
    if kind == "density":
        return _check_density(p[0], p[1], out)
    if kind == "density_total":
        return None if out == zb.GoldenNumber(1, 0) else f"total {out} is not 1"
    if kind == "density_cmp":
        d1, d2 = zb.density(p[0], p[1]).value, zb.density(p[2], p[3]).value
        want = _golden_sign(d1.a - d2.a, d1.b - d2.b) < 0
        return None if out == want else f"comparison gave {out}, want {want}"
    if kind == "encode":
        return None if zb.decode(out) == p[0] else f"decode(encode({p[0]})) differs"
    if kind == "decode":
        return None if zb.encode(out) == p[0].lstrip("0") else f"encode(decode({p[0]})) differs"
    if kind == "wythoff_A":
        return _check_A(p[0], out)
    if kind == "gbs":
        w, n = p
        if not zb.block_at(out, w):
            return f"{out} does not end with {w}"
        g = zb.solve_block(w).gbs
        a, rem = divmod(out - g.q * n - g.r, g.p)
        return f"{out} is not {g} at {n}" if rem else _check_A(n, a)
    if kind == "tree":
        return _check_tree(p[0], out)
    if kind == "cli":
        return _check_cli(p[0], p[1], out)
    if kind == "certify":
        return _check_certify(out)
    return f"unknown op {kind}"
