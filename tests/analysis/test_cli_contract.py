"""CLI contract tests: exit codes, the JSON report schema (golden
file), and ``--list-rules`` coverage.

The golden file pins the *entire* JSON document for a fixed fixture
tree — schema, field order (keys are sorted), rule descriptions, and
findings.  A diff here is an intentional contract change: regenerate
with ``PYTHONPATH=src python -m tests.analysis.test_cli_contract`` and
review the diff.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

from .test_replint import write

GOLDEN = Path(__file__).parent / "golden" / "replint_report.json"

#: The fixture tree behind the golden report: one REP005 finding.
FIXTURE = {
    "src/repro/ml/messy.py": '__all__ = ["b", "a"]\na = 1\nb = 2\n',
    "src/repro/ml/clean.py": '__all__ = ["alpha"]\nalpha = 1\n',
}


def _seed(tmp_path: Path) -> None:
    for rel, text in FIXTURE.items():
        write(tmp_path, rel, text)


class TestExitCodes:
    def test_zero_on_clean_tree(self, tmp_path, capsys):
        write(tmp_path, "src/repro/ml/clean.py", '__all__ = ["a"]\na = 1\n')
        assert main([str(tmp_path)]) == 0

    def test_one_on_findings(self, tmp_path, capsys):
        _seed(tmp_path)
        assert main([str(tmp_path)]) == 1

    def test_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_two_when_no_roots_exist(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # empty dir: no src/tests/benchmarks
        assert main([]) == 2


class TestJsonGolden:
    def test_report_matches_golden(self, tmp_path, monkeypatch, capsys):
        _seed(tmp_path)
        monkeypatch.chdir(tmp_path)  # relative paths → deterministic doc
        rc = main(["src", "--format", "json"])
        assert rc == 1
        produced = json.loads(capsys.readouterr().out)
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert produced == expected

    def test_golden_schema_fields(self):
        payload = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert sorted(payload) == [
            "files_scanned", "findings", "rules", "version",
        ]
        assert payload["version"] == 3
        for row in payload["findings"]:
            assert sorted(row) == ["code", "col", "line", "message", "path"]


class TestListRules:
    def test_all_rule_codes_listed(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 15):
            if n == 2:  # REP002 (fast/reference parity) is retired
                assert "REP002" not in out
                continue
            assert f"REP{n:03d}" in out
        for name in ("dtype-flow", "parallel-safety", "span-coverage",
                     "knob-liveness", "unused-suppression"):
            assert name in out


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    import os
    import subprocess
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for rel, text in FIXTURE.items():
            path = Path(tmp) / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "--format", "json"],
            cwd=tmp,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[2] / "src")},  # replint: disable=REP001 -- regen helper passes the env through to a subprocess, no knob is read
        )
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(proc.stdout, encoding="utf-8")
    print(f"wrote {GOLDEN}")
