"""The level-gated stderr logger."""

import pytest

from repro.obs import log


class TestLog:
    def test_default_level_is_info(self, capsys):
        log.debug("hidden")
        log.info("shown")
        err = capsys.readouterr().err
        assert "hidden" not in err
        assert "[info] shown" in err

    def test_messages_go_to_stderr_not_stdout(self, capsys):
        log.warning("careful")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[warning] careful" in captured.err

    def test_set_level_filters(self, capsys):
        log.set_level("error")
        log.warning("dropped")
        log.error("kept")
        err = capsys.readouterr().err
        assert "dropped" not in err
        assert "[error] kept" in err

    def test_off_silences_everything(self, capsys):
        log.set_level("off")
        log.error("nothing")
        assert capsys.readouterr().err == ""

    def test_knob_sets_threshold(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_OBS_LOG_LEVEL", "debug")
        log.reset_level()
        log.debug("verbose")
        assert "[debug] verbose" in capsys.readouterr().err

    def test_cannot_log_at_off(self):
        with pytest.raises(ValueError, match="off"):
            log.log("off", "x")

    def test_repeated_messages_all_print(self, capsys):
        log.warning("same text")
        log.warning("same text")
        assert capsys.readouterr().err.count("same text") == 2

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            log.log("loud", "x")
        with pytest.raises(ValueError, match="unknown log level"):
            log.set_level("loud")

