"""REP003 — library code must be deterministic and seeded.

Reproduction results die by a thousand unseeded cuts: a stray global
``np.random.*`` call (shared mutable RNG state) or a wall-clock read
that leaks into derived data.  The collection-factors literature (arXiv:2204.04766)
attributes most irreproducible side-channel numbers to exactly these
environmental leaks, so the library (``src/repro``) is held to:

* randomness flows through an explicit ``np.random.default_rng(seed)`` /
  ``Generator`` object — never the global NumPy RNG;
* no wall-clock calls (``time.time``, ``datetime.now``, ...) in library
  code; presentation-layer timing must be suppressed with a
  justification.

Scope: ``src/repro`` only — tests may do what they like.
"""

from __future__ import annotations

import ast
from typing import List

from ..core import FileContext, Finding, Rule, iter_call_name, register_rule

__all__ = ["DeterminismRule"]

#: Global-state np.random functions (module-level RNG).
_GLOBAL_RNG_FNS = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "beta",
        "binomial",
        "poisson",
        "exponential",
        "gamma",
        "laplace",
        "get_state",
        "set_state",
    }
)

#: ``module.attr`` call names that read the wall clock.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.perf_counter",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)


@register_rule
class DeterminismRule(Rule):
    code = "REP003"
    name = "determinism"
    description = (
        "library code must avoid the global np.random RNG and "
        "wall-clock reads"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        if not ctx.in_library or ctx.is_test:
            return []
        findings: List[Finding] = []
        for node in ctx.nodes:
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(ctx, node))
        return findings

    def _check_call(self, ctx: FileContext, node: ast.Call) -> List[Finding]:
        called = iter_call_name(node.func)
        if called is None:
            return []
        parts = called.split(".")
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] in _GLOBAL_RNG_FNS
        ):
            return [
                self.finding(
                    ctx,
                    node,
                    f"global-state {called}() call; thread an explicit "
                    "np.random.default_rng(seed) Generator instead",
                )
            ]
        if called in _CLOCK_CALLS:
            return [
                self.finding(
                    ctx,
                    node,
                    f"wall-clock {called}() in library code; results must "
                    "not depend on when they run",
                )
            ]
        return []
