"""Retry knobs: quality.RetryPolicy reads its schedule from the environment."""


class TestQualityMigration:
    def test_from_env_reads_knobs(self, monkeypatch):
        from repro.power.quality import RetryPolicy

        monkeypatch.setenv("REPRO_FAULT_RETRIES", "5")
        monkeypatch.setenv("REPRO_FAULT_BACKOFF", "0.25")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 5
        assert policy.backoff_base == 0.25
