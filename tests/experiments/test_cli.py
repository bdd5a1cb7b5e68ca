"""CLI (python -m repro.experiments) tests."""

import pytest

from repro.experiments.__main__ import RUNNERS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in RUNNERS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["nonexistent"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["endtoend", "table2"])
    def test_unknown_scale(self, experiment, capsys, monkeypatch):
        # argparse rejects the preset before any runner starts.
        def boom(*args, **kwargs):
            raise AssertionError("runner started")

        monkeypatch.setitem(RUNNERS, experiment, (boom, "patched"))
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--scale", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "invalid choice" in err and "nope" in err

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        captured = capsys.readouterr()
        assert "Table 2" in captured.out
        # Progress messages go through repro.obs.log to stderr: stdout
        # stays reserved for result tables.
        assert "completed in" in captured.err

    def test_runner_registry_complete(self):
        # every runner entry is callable with a scale (except table2)
        for name, (runner, description) in RUNNERS.items():
            assert callable(runner)
            assert description
