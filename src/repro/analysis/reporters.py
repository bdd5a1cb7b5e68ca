"""The finding reporter: one text row per finding plus a summary."""

from __future__ import annotations

from collections import Counter
from typing import List

from .runner import ScanResult

__all__ = ["render_text"]


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

