"""CLI contract tests: exit codes and ``--list-rules`` coverage."""

from pathlib import Path

from repro.analysis.cli import main

from .test_replint import write

#: A fixture tree with one finding (REP008: ``print`` in library code).
FIXTURE = {
    "src/repro/ml/messy.py": '__all__ = ["a"]\na = 1\nprint(a)\n',
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


class TestListRules:
    def test_all_rule_codes_listed(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 15):
            if n in (2, 5):  # REP002 and REP005 are retired
                assert f"REP{n:03d}" not in out
                continue
            assert f"REP{n:03d}" in out
        for name in ("dtype-flow", "parallel-safety", "span-coverage",
                     "knob-liveness", "unused-suppression"):
            assert name in out

