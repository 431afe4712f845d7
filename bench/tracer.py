"""Per-layer spans for the traced run, recorded from outside the library.

Each traced function is rebound, for the length of a `Tracer` block, in
every `zeckblocks` module that holds it, because the modules import each
other's functions by name (`from .codec import encode`): patching only the
defining module would miss those calls.  Methods are rebound on their
class.

A span counts calls and its self time: its duration minus the time its
child spans cover.  The per-value functions (`wythoff_A`, `GBS.__call__`,
`window_of`, `WythoffWord.__call__`, `wythoff_array`) run millions of times
in one `certify()`, so they only count calls; their time stays in the self
time of the span that called them.
"""

from __future__ import annotations

import sys
from time import perf_counter

CERTIFY = {"certify-default"}
SMALL = {"query-small"}
LARGE = {"query-large"}
QUERIES = SMALL | LARGE

# metric prefix -> (module, attribute, stats reported, workloads it serves).
# A span with a "values" stat also sums the lengths of the lists it returns.
# The coverage check fails a traced run when a span records no calls on a
# workload it serves.
LAYERS = {
    "beatty.OccurrenceSet.terms_below": ("beatty", "OccurrenceSet.terms_below",
                                         ("calls", "self_s", "values"), CERTIFY),
    "beatty.OccurrenceSet.terms": ("beatty", "OccurrenceSet.terms",
                                   ("calls", "self_s", "values"), QUERIES),
    "solver.solve_positional": ("solver", "solve_positional", ("calls", "self_s"), QUERIES),
    "beatty.wythoff_A": ("beatty", "wythoff_A", ("calls",), CERTIFY | LARGE),
    "beatty.GBS.call": ("beatty", "GBS.__call__", ("calls",), CERTIFY | LARGE),
    "oracle.group_windows": ("oracle", "_grouped_by_window", ("calls", "self_s"), CERTIFY),
    "oracle.certify": ("oracle", "certify", ("self_s",), CERTIFY),
    "codec.encode": ("codec", "encode", ("calls", "self_s"), CERTIFY | LARGE),
    # certify() never decodes, so decode serves query-large alone
    "codec.decode": ("codec", "decode", ("calls", "self_s"), LARGE),
    "codec.block_at": ("codec", "block_at", ("calls", "self_s"), CERTIFY),
    "codec.window_of": ("codec", "window_of", ("calls",), CERTIFY),
    "codec.valid_blocks": ("codec", "valid_blocks", ("calls", "self_s"), CERTIFY),
    "fibcore.fib": ("fibcore", "fib", ("calls", "self_s"), LARGE),
    "fibcore.phi_pow": ("fibcore", "phi_pow", ("calls", "self_s"), LARGE),
    "fibcore.golden_cmp": ("fibcore", "golden_cmp", ("calls", "self_s"), LARGE),
    "wythoff.WythoffWord.call": ("wythoff", "WythoffWord.__call__", ("calls",), CERTIFY),
    "wythoff.csh_reduce": ("wythoff", "csh_reduce", ("calls", "self_s"), CERTIFY),
    "wythoff.wythoff_array": ("wythoff", "wythoff_array", ("calls",), CERTIFY),
    "fibword.occurrence_coding": ("fibword", "occurrence_coding", ("calls", "self_s"), CERTIFY),
    "fibword.morphism_iterate": ("fibword", "morphism_iterate", ("calls", "self_s"), CERTIFY),
    "solver.solve_block": ("solver", "solve_block", ("calls", "self_s"), SMALL),
    "solver.density": ("solver", "density", ("calls", "self_s"), SMALL),
    "solver.density_total": ("solver", "density_total", ("calls", "self_s"), SMALL),
    "solver.tree": ("solver", "tree", ("calls", "self_s"), SMALL),
    "cli.main": ("cli", "main", ("calls", "self_s"), SMALL),
}


def _span(stat: list, fn, stack: list, values: bool):
    def traced(*args, **kwargs):
        stat[0] += 1
        stack.append(0.0)  # time covered by child spans
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stat[1] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
        if values:
            stat[2] += len(out)
        return out
    return traced


def _counter(stat: list, fn):
    def counted(*args, **kwargs):
        stat[0] += 1
        return fn(*args, **kwargs)
    return counted


class Tracer:
    """Rebinds every layer in LAYERS on entry and restores it on exit.

    `stats[name]` is [calls, self seconds, values].  A layer that no longer
    resolves raises AttributeError on entry: a renamed or deleted function
    shows as a broken span, not as a silent zero.
    """

    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in LAYERS}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == "zeckblocks" or name.startswith("zeckblocks.")]
        try:
            for name, (module, attr, stats, _) in LAYERS.items():
                owner = sys.modules["zeckblocks." + module]
                *path, leaf = attr.split(".")
                try:
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                except AttributeError:
                    raise AttributeError(f"broken span {name}: zeckblocks.{module} "
                                         f"has no {attr}") from None
                if "self_s" in stats:
                    wrapper = _span(self.stats[name], original, self._stack, "values" in stats)
                else:
                    wrapper = _counter(self.stats[name], original)
                if path:  # a method: one class attribute serves every caller
                    self._rebind(owner, leaf, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)
