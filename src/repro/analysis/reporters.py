"""Finding reporters: human text and machine JSON.

The JSON document is a stable contract (see
``tests/analysis/test_cli_contract.py``).  Version 3 is the version-1
core (``files_scanned``, ``rules``, ``findings``) plus ``version``;
version 2's ``baselined`` / ``stale_baseline`` / ``cache`` fields left
with the baseline ratchet and the scan cache.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from .core import RULE_REGISTRY
from .runner import ScanResult

__all__ = ["render_json", "render_text"]


def render_text(result: ScanResult) -> str:
    """One ``path:line:col: CODE message`` row per finding plus a summary."""
    lines: List[str] = [f.render() for f in result.findings]
    if result.findings:
        by_code = Counter(f.code for f in result.findings)
        breakdown = ", ".join(
            f"{code} x{count}" for code, count in sorted(by_code.items())
        )
        lines.append(
            f"replint: {len(result.findings)} finding"
            f"{'s' if len(result.findings) != 1 else ''} in "
            f"{len({f.path for f in result.findings})} file(s) "
            f"({breakdown}); {result.n_files} files scanned"
        )
    else:
        lines.append(f"replint: clean ({result.n_files} files scanned)")
    return "\n".join(lines) + "\n"


def render_json(result: ScanResult) -> str:
    """Stable JSON document for CI artifacts and editor integrations."""
    payload = {
        "version": 3,
        "files_scanned": result.n_files,
        "rules": {
            code: cls.description for code, cls in sorted(RULE_REGISTRY.items())
        },
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
            }
            for f in result.findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
