import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zeckblocks.beatty
import zeckblocks.solver
from zeckblocks import cli
from zeckblocks.cli import main
from zeckblocks.codec import MAX_TREE_DEPTH
from zeckblocks.fibcore import fib
from zeckblocks.oracle import MAX_BOUND, MAX_TERMS
from zeckblocks.solver import tree

GOLDEN_TREE = Path(__file__).parent / "data" / "tree3.txt"
# argv (space-joined) -> stdout and exit status of main, every command in all
# three formats; each check's elapsed_s is masked as null
PINNED = json.loads((Path(__file__).parent / "data" / "cli_outputs.json")
                    .read_text(encoding="utf-8"))


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out


def test_encode(capsys):
    status, out = run(capsys, "encode", "11")
    assert status == 0
    assert out == "10100\n"


def test_decode(capsys):
    status, out = run(capsys, "decode", "10100")
    assert status == 0
    assert out == "11\n"


def test_round_trip_through_text_path(capsys):
    for n in range(10_001):
        _, encoded = run(capsys, "encode", str(n))
        status, decoded = run(capsys, "decode", encoded.strip())
        assert status == 0
        assert int(decoded.strip()) == n


def test_block_command(capsys):
    status, out = run(capsys, "block", "100", "--terms", "5")
    assert status == 0
    assert "compound: ABA" in out
    assert "gbs: 3A+2Id-2" in out
    assert "terms: 3, 11, 16, 24, 32" in out


def test_block_records(capsys):
    status, out = run(capsys, "block", "100", "--terms", "3", "--format", "records")
    rec = json.loads(out)
    assert status == 0
    assert rec == {"word": "100", "compound": "ABA", "p": 3, "q": 2, "r": -2,
                   "exceptional": False, "first_terms": [3, 11, 16]}


def test_block_tsv_has_index_column(capsys):
    status, out = run(capsys, "block", "10", "--terms", "3", "--format", "tsv")
    assert status == 0
    assert out.splitlines() == ["n\tR(n)", "1\t2", "2\t7", "3\t10"]


def test_position_command(capsys):
    status, out = run(capsys, "position", "00", "2", "--terms", "6")
    assert status == 0
    assert "branches: 3A+2Id-5, 3A+2Id-4, 3A+2Id-3" in out
    assert "terms: 0, 1, 2, 8, 9, 10" in out


def test_position_lists_branches_up_to_21(capsys):
    # k = 6 gives F(8) = 21 branches, the most that are listed one by one
    status, out = run(capsys, "position", "0", "6", "--terms", "2")
    assert status == 0
    assert out.count("13A+8Id") == 21
    status, out = run(capsys, "position", "0", "6", "--terms", "2", "--format", "records")
    assert len(json.loads(out)["branches"]) == 21


def test_position_many_branches_prints_one_gbs(capsys):
    status, out = run(capsys, "position", "0", "7", "--terms", "3")
    assert status == 0
    assert out.splitlines() == ["block: 0", "k: 7",
                                "branches: 21A+13Id+r for r = -34..-1 (34 branches)",
                                "terms: 0, 1, 2"]
    status, out = run(capsys, "position", "0", "7", "--terms", "3", "--format", "records")
    assert json.loads(out) == {"word": "0", "k": 7, "count": 34,
                               "gbs": {"p": 21, "q": 13, "r": -34}, "terms": [0, 1, 2]}


def test_position_huge_k_is_quick(capsys):
    start = time.perf_counter()
    status, out = run(capsys, "position", "0", "60", "--terms", "3")
    assert time.perf_counter() - start < 0.5
    assert status == 0
    assert f"({fib(62)} branches)" in out
    assert "terms: 0, 1, 2" in out


def test_density_command(capsys):
    status, out = run(capsys, "density", "00", "2")
    assert status == 0
    assert "exact: 3*phi^-4 = 15 - 9*phi" in out
    assert "decimal: 0.4376941" in out


def test_density_default_position(capsys):
    status, out = run(capsys, "density", "0")
    assert status == 0
    assert "exact: phi^-1 = -1 + phi" in out


def test_tree_matches_golden_file(capsys):
    status, out = run(capsys, "tree", "3")
    assert status == 0
    assert out == GOLDEN_TREE.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_output_matches_pinned_bytes(argv, capsys):
    status, out = run(capsys, *argv.split())
    out = re.sub(r'"elapsed_s": [^,}]+', '"elapsed_s": null', out)
    assert {"status": status, "stdout": out} == PINNED[argv]


def test_tree_records(capsys):
    status, out = run(capsys, "tree", "1", "--format", "records")
    records = [json.loads(line) for line in out.splitlines()]
    assert status == 0
    assert [r["word"] for r in records] == ["", "0", "1"]
    assert records[1]["compound"] == "A-1"
    status, out = run(capsys, "tree", "3", "--format", "records")
    records = [json.loads(line) for line in out.splitlines()]
    assert status == 0
    assert all(r["depth"] == len(r["word"]) for r in records)
    assert [r["word"] for r in records] == [node.word for node in tree(3).walk()]


# more digits than the interpreter reads as integer text by default (4300)
_TOO_LONG = "1" + "0" * 4400


@pytest.mark.parametrize("argv", [
    ["encode", "-5"],
    ["decode", "11"],
    ["block", "011"],
    ["block", "2"],
    ["position", "11", "1"],
    ["density", "1x"],
    ["nonsense"],
    ["block", "0", "--terms", "-3"],
    ["position", "0", "2", "--terms", "-3"],
    ["encode", _TOO_LONG],
    ["encode", "12x"],
    ["verify", "--bound", _TOO_LONG],
])
def test_invalid_input_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    if _TOO_LONG in argv:
        assert f"over the limit of {sys.get_int_max_str_digits()} digits" in out.err
        assert len(out.err) < 400  # the text itself is not echoed
    if "12x" in argv:
        assert "not an integer" in out.err


_VALID = [["encode", "123456"], ["decode", "10100"], ["block", "100", "--terms", "4"],
          ["position", "001", "3", "--terms", "5"], ["density", "0101", "4"], ["density", "0"],
          ["tree", "2"], ["verify", "--depth", "2", "--k-max", "1", "--terms", "10",
                          "--bound", "200"]]


@pytest.mark.parametrize("argv", [
    *(argv + fmt for argv in _VALID
      for fmt in ([], ["--format", "text"], ["--format", "tsv"], ["--format", "records"])),
    [], ["-h"], ["--help"], ["verify", "--help"], ["encode", "-h"], ["bogus"], ["bogus", "5"],
    ["--format", "tsv", "encode", "5"], ["encode"], ["encode", "5", "extra"],
    ["density", "0", "1", "2"], ["encode", "--bogus", "5"], ["encode", "5", "--bogus"],
    ["encode", "5", "--form", "tsv"], ["encode", "5", "--format=tsv"],
    ["encode", "5", "--format", "csv"], ["encode", "--", "5"], ["encode", "5", "--"],
    ["block", "10", "--terms", "2", "--terms", "3"], ["block", "10", "--terms=3"],
    ["encode", "5", "--format", "tsv", "--format", "records"],
    ["encode", "-5"], ["encode", "12x"], ["encode", _TOO_LONG], ["block", "10", "--terms", "-1"],
    ["position", "0", "2", "--terms", "10001"], ["block", "011"], ["decode", "12"],
    ["density", "0", "x"], ["tree", "99"], ["verify", "--depth", "99"],
], ids=lambda argv: " ".join(argv)[:40] or "(no arguments)")
def test_command_parser_route_matches_the_full_parser(argv, capsys, monkeypatch):
    # with no command parsers to hand to, main parses every argv with the
    # top-level parser, the route whose text, status and streams are the
    # reference
    def outcome() -> tuple:
        try:
            status = main(list(argv))
        except SystemExit as exc:  # argparse exits after help and errors
            status = exc.code
        out = capsys.readouterr()
        return status, re.sub(r'"elapsed_s": [^,}]+', '"elapsed_s": null', out.out), out.err

    direct = outcome()
    monkeypatch.setattr(cli, "_commands", {})
    assert outcome() == direct


@pytest.mark.parametrize("command", ["density", "position"])
def test_position_beyond_the_cap_is_rejected(command, capsys):
    start = time.perf_counter()
    status = main([command, "0", "400000"])
    assert time.perf_counter() - start < 0.5
    assert status == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "between 0 and 50000" in out.err


def _cli_process(argv: list[str]) -> subprocess.Popen:
    """`python -m zeckblocks.cli ARGV` with both streams piped back."""
    paths = [str(Path(zeckblocks.solver.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered, the default
    return subprocess.Popen([sys.executable, "-m", "zeckblocks.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("argv", [
    ["verify", "--depth", "2", "--k-max", "1", "--bound", "1000", "--format", "records"],
    ["tree", "8"],
    ["encode", "11"],  # short enough to sit in the buffer until the flush
    ["--help"],  # argparse prints the help and exits inside parse_args
    ["verify", "--help"],
])
def test_closed_pipe_ends_quietly(argv):
    proc = _cli_process(argv)
    # the reader leaves before the first write, as `| head` does once it has
    # its lines, so the write meets a closed pipe however short the output
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_on_an_open_pipe_exits_0(argv):
    proc = _cli_process(argv)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert out.startswith(b"usage: zeckblocks")
    assert err == b""


def test_verify_help_gives_each_budget_default_and_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    for option, default, cap in (("--depth DEPTH", 6, MAX_TREE_DEPTH),
                                 ("--k-max K_MAX", 3, MAX_TREE_DEPTH),
                                 ("--terms TERMS", 200, MAX_TERMS),
                                 ("--bound BOUND", 100000, MAX_BOUND)):
        help_line = re.search(re.escape(option) + r" [^-]*\)", text)
        assert help_line, option
        assert f"(default: {default}," in help_line[0] and f"at most {cap})" in help_line[0]


def test_verify_small_budget(capsys):
    status, out = run(capsys, "verify", "--depth", "3", "--k-max", "1",
                      "--terms", "30", "--bound", "2000")
    assert status == 0
    assert "PASS" in out
    assert "0 failed" in out


def test_verify_depth_beyond_the_tree_cap_is_rejected(capsys, budget_check_only):
    start = time.perf_counter()
    status = main(["verify", "--depth", "40"])
    assert time.perf_counter() - start < 0.5
    assert status == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--k-max", "100000"], ["--bound", "1000000000"],
                                  ["--terms", "1000000000"]])
def test_verify_budget_beyond_the_caps_is_rejected(argv, capsys, budget_check_only):
    start = time.perf_counter()
    status = main(["verify", *argv])
    assert time.perf_counter() - start < 0.5
    assert status == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["block", "0", "--terms", "1000000"],
                                  ["position", "0", "2", "--terms", "1000000",
                                   "--format", "tsv"]])
def test_terms_beyond_the_cap_are_rejected(argv, capsys, monkeypatch):
    def listing(self, count: int) -> list[int]:
        raise AssertionError(f"the CLI passed its --terms cap (count={count})")
    # a missing cap fails here at once instead of listing a million terms
    monkeypatch.setattr(zeckblocks.beatty.GBS, "terms", listing)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 0.5
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "at most 10000 terms" in out.err


def test_verify_records_are_json(capsys):
    status, out = run(capsys, "verify", "--depth", "2", "--k-max", "0",
                      "--terms", "20", "--bound", "500", "--format", "records")
    lines = [json.loads(line) for line in out.splitlines()]
    assert status == 0
    assert lines[-1]["ok"] is True
    assert all(rec.get("status") == "pass" for rec in lines[:-1])
    assert all(rec["elapsed_s"] >= 0 for rec in lines[:-1])  # each check's wall time


def test_verify_failure_exits_1(capsys, monkeypatch):
    true_gamma = zeckblocks.solver.gamma

    def corrupted(w: str) -> int:
        value = true_gamma(w)
        return value - 1 if w == "10" else value

    monkeypatch.setattr(zeckblocks.solver, "gamma", corrupted)
    status, out = run(capsys, "verify", "--depth", "2", "--k-max", "0",
                      "--terms", "20", "--bound", "500")
    assert status == 1
    assert "FAIL" in out


def test_verify_reports_a_family_that_raises(capsys, monkeypatch):
    true_positional = zeckblocks.solver.solve_positional

    def boom(w: str, k: int = 0):
        if (w, k) == ("0101", 2):
            raise ValueError("boom")
        return true_positional(w, k)

    monkeypatch.setattr(zeckblocks.solver, "solve_positional", boom)
    status, out = run(capsys, "verify", "--depth", "4", "--k-max", "2",
                      "--terms", "20", "--bound", "5000")
    assert status == 1
    assert "FAIL  oracle-equivalence     raised  [m=4 k=2: raised ValueError: boom]\n" in out
    assert out.endswith(" 1 failed\n")


def test_tree_beyond_the_length_cap_is_rejected(capsys):
    assert main(["tree", str(MAX_TREE_DEPTH + 1)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: block length must be between 0 and 20, got 21\n"
