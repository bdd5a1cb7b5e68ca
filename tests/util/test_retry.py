"""Retry knob: quality.RetryPolicy reads its attempt count from the environment."""


class TestQualityMigration:
    def test_from_env_reads_knobs(self, monkeypatch):
        from repro.power.quality import RetryPolicy

        monkeypatch.setenv("REPRO_FAULT_RETRIES", "5")
        assert RetryPolicy.from_env().max_attempts == 5
        monkeypatch.delenv("REPRO_FAULT_RETRIES")
        assert RetryPolicy.from_env() == RetryPolicy(max_attempts=2)
