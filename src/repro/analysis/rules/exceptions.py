"""REP007 — exception hygiene: no bare ``except``, no silent swallows.

The robustness layers (fault injection, quality screening, crash-safe
checkpoints) only work if failures actually propagate to the layer that
handles them.  A bare ``except:`` catches ``KeyboardInterrupt`` and
``SystemExit`` and can turn an interrupted capture into a half-written
artifact; a broad handler whose body is just ``pass`` erases the error
entirely.  Library code must either handle a *specific* exception or
re-raise / record what it caught.

Flagged:

* ``except:`` with no exception type, anywhere in library code;
* ``except Exception:`` / ``except BaseException:`` (bare name or
  tuple member) whose body does nothing but ``pass`` / ``continue`` /
  ``...`` — the silent-swallow shape.

Deliberate best-effort teardown (e.g. terminating an already-broken
worker pool) carries an inline waiver::

    pool.terminate()  # replint: disable=REP007 -- teardown must not mask the original failure
"""

from __future__ import annotations

import ast
from typing import List

from ..core import FileContext, Finding, Rule, register_rule

__all__ = ["ExceptionHygieneRule"]

#: Exception names too broad to swallow silently.
_BROAD_NAMES = {"Exception", "BaseException"}


def _names_in(expr: ast.AST) -> List[str]:
    """Exception class names referenced by an ``except`` clause type."""
    nodes = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    names: List[str] = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _is_silent(body: List[ast.stmt]) -> bool:
    """True when a handler body does nothing observable with the error."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ):
            continue  # docstring or ``...``
        return False
    return True


@register_rule
class ExceptionHygieneRule(Rule):
    code = "REP007"
    name = "exception-hygiene"
    description = (
        "library code must not use bare 'except:' or silently swallow "
        "broad exceptions (Exception/BaseException with a pass-only body)"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        if not ctx.in_library or ctx.is_test:
            return []
        findings: List[Finding] = []
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "bare 'except:' catches KeyboardInterrupt/"
                        "SystemExit; name the exception type",
                    )
                )
                continue
            broad = sorted(
                set(_names_in(node.type)) & _BROAD_NAMES
            )
            if broad and _is_silent(node.body):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"'except {broad[0]}:' silently swallows the "
                        "error; handle it, log it, or re-raise",
                    )
                )
        return findings
