"""SIGKILL-mid-campaign integration test: resume must be bit-identical.

Launches a real ``python -m repro.experiments.campaign`` subprocess with
per-cell pacing, SIGKILLs it after the first shard checkpoint lands (a
genuine hard kill — no atexit, no finally blocks), then resumes into the
same checkpoint directory and asserts the merged ResultTable matches an
uninterrupted run row for row.  The campaign runs in its own session, and
the kill goes to its whole process group, so its pool workers die with it
instead of outliving the test.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.experiments.campaign import default_grid

_SHARD_SIZE = 4  # smoke grid: 16 cells -> 4 shards


def _campaign_env():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)  # replint: disable=REP001 -- passed through to a subprocess verbatim, no knob is read
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _live_group_members(pgid):
    """Pids in process group ``pgid`` that are still running (not zombies)."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state not in ("Z", "X"):
            alive.append(int(entry))
    return alive


def _kill_group(pgid, deadline_s=30.0):
    """SIGKILL process group ``pgid``; return members still alive after."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return []
    if not os.path.isdir("/proc"):  # pragma: no cover - non-Linux hosts
        return []
    started = time.time()
    while time.time() - started < deadline_s:
        alive = _live_group_members(pgid)
        if not alive:
            return []
        time.sleep(0.05)
    return _live_group_members(pgid)


def _wait_for_first_shard(ckpt_dir, proc, deadline_s=120.0):
    started = time.time()
    while time.time() - started < deadline_s:
        if (ckpt_dir / f"shard-00000.pkl").exists():
            return True
        if proc.poll() is not None:
            return False  # finished (or died) before we could kill it
        time.sleep(0.05)
    return False


@pytest.mark.slow
def test_sigkill_then_resume_is_bit_identical(tmp_path):
    ckpt = tmp_path / "camp"
    cmd = [
        sys.executable, "-m", "repro.experiments.campaign",
        "--scale", "smoke",
        "--shard-size", str(_SHARD_SIZE),
        "--n-jobs", "2",
        "--cell-pause-ms", "250",
        "--checkpoint-dir", str(ckpt),
    ]
    proc = subprocess.Popen(
        cmd,
        env=_campaign_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # the campaign leads its own process group
    )
    survivors = []
    try:
        saw_shard = _wait_for_first_shard(ckpt, proc)
    finally:
        # Kill the campaign and its pool workers together, even when the
        # wait above failed, so no process of the run outlives the test.
        survivors = _kill_group(proc.pid)
        proc.wait(timeout=30)
    assert not survivors, f"killed campaign's processes survived: {survivors}"
    assert saw_shard, "campaign never checkpointed its first shard"
    killed_shards = sorted(p.name for p in ckpt.glob("shard-*.pkl"))
    assert killed_shards, "SIGKILL landed before any checkpoint survived"
    # The kill was mid-campaign: at least the last shard is missing.
    assert len(killed_shards) < 4, "campaign finished before the kill"

    # Resume with the same parameters (pacing removed: it must not —
    # and cannot — affect results) and compare to an uninterrupted run.
    resume_config = CampaignConfig(
        spec=default_grid("smoke"),
        evaluator="synthetic",
        shard_size=_SHARD_SIZE,
        n_jobs=2,
        checkpoint_dir=ckpt,
    )
    resumed = run_campaign(resume_config)
    pristine = run_campaign(
        CampaignConfig(
            spec=default_grid("smoke"),
            evaluator="synthetic",
            shard_size=_SHARD_SIZE,
            n_jobs=2,
        )
    )
    assert resumed.table.rows == pristine.table.rows
    assert resumed.table.columns == pristine.table.columns
    assert resumed.report["coverage"] == pristine.report["coverage"]
    assert resumed.report["pareto_front"] == pristine.report["pareto_front"]
    assert resumed.report["recommended"] == pristine.report["recommended"]
    # And the checkpoints genuinely contributed.
    assert resumed.report["campaign"]["n_shards_resumed"] == len(
        killed_shards
    )


@pytest.mark.slow
def test_cli_stop_after_shards_then_resume_matches(tmp_path):
    """The CI resume drill, in miniature: two CLI invocations."""
    ckpt = tmp_path / "camp"
    table_path = tmp_path / "table.json"
    base = [
        sys.executable, "-m", "repro.experiments.campaign",
        "--scale", "smoke",
        "--shard-size", str(_SHARD_SIZE),
        "--n-jobs", "1",
        "--checkpoint-dir", str(ckpt),
    ]
    first = subprocess.run(
        base + ["--stop-after-shards", "1"],
        env=_campaign_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert first.returncode == 0, first.stderr
    assert len(list(ckpt.glob("shard-*.pkl"))) == 1

    second = subprocess.run(
        base + ["--out", str(table_path)],
        env=_campaign_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert second.returncode == 0, second.stderr

    from repro.experiments.results import ResultTable

    saved = ResultTable.load(table_path)
    pristine = run_campaign(
        CampaignConfig(
            spec=default_grid("smoke"),
            evaluator="synthetic",
            shard_size=_SHARD_SIZE,
            n_jobs=1,
        )
    )
    assert saved.rows == pristine.table.rows
