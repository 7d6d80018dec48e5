"""Tests for the experiment service (:mod:`repro.service`).

Covers the job-store lifecycle (atomic records, race-free claims,
dead-worker recovery), the executor contracts (retry budget, per-job
timeout, graceful shutdown requeueing), the ``repro-service`` CLI, and
the headline crash-tolerance property: a sweep job killed with SIGKILL
mid-run resumes after restart, computing only the not-yet-stored trials,
with final rows byte-identical to an uninterrupted run.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cache import ResultCache
from repro.service.cli import main as service_main
from repro.service.executor import execute_job, run_worker_loop
from repro.service.jobs import JobRecord, JobStore
from repro.sim.sweeps import ScenarioSpec, run_sweep

#: The sweep scenario of the integration tests: heavy enough that a
#: worker can be killed mid-run (~tens of ms per trial), light enough
#: for the suite.
SWEEP_SCENARIO = ScenarioSpec(
    builder="balancing",
    kwargs={"n_validators": 32, "byzantine_fraction": 0.2},
    epochs=2,
    seed="service-test",
)
N_TRIALS = 6


def sweep_spec(n_trials: int = N_TRIALS, chunk_size: int = 1) -> dict:
    return {
        "specs": [SWEEP_SCENARIO.canonical()],
        "n_trials": n_trials,
        "chunk_size": chunk_size,
    }


def service_env() -> dict:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestJobStore:
    def test_submit_get_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit("sweep", sweep_spec(), timeout=5.0)
        loaded = store.get(record.job_id)
        assert loaded.kind == "sweep"
        assert loaded.state == "queued"
        assert loaded.spec == sweep_spec()
        assert loaded.timeout == 5.0
        assert loaded.attempts == 0

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(KeyError):
            JobStore(tmp_path).get("nope")

    def test_invalid_submissions_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(ValueError):
            store.submit("mystery", {})
        with pytest.raises(ValueError):
            store.submit("sweep", sweep_spec(), max_attempts=0)
        record = store.submit("sweep", sweep_spec())
        with pytest.raises(ValueError):
            store.submit("sweep", sweep_spec(), job_id=record.job_id)

    def test_list_jobs_oldest_first_with_state_filter(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.submit("sweep", sweep_spec(), job_id="a")
        second = store.submit("sweep", sweep_spec(), job_id="b")
        second.created_at = first.created_at + 1.0
        store.save(second)
        assert [r.job_id for r in store.list_jobs()] == ["a", "b"]
        claimed = store.claim("a")
        assert claimed is not None
        assert [r.job_id for r in store.list_jobs(states=("queued",))] == ["b"]
        assert [r.job_id for r in store.list_jobs(states=("running",))] == ["a"]

    def test_claim_is_exclusive(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit("sweep", sweep_spec())
        first = store.claim(record.job_id)
        assert first is not None
        assert first.state == "running"
        assert first.attempts == 1
        assert first.worker_pid == os.getpid()
        # Second claimer loses while the lock is held.
        assert store.claim(record.job_id) is None

    def test_claim_of_non_queued_job_returns_none(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit("sweep", sweep_spec())
        claimed = store.claim(record.job_id)
        store.finish(claimed, {"ok": True})
        assert store.claim(record.job_id) is None

    def test_requeue_refunds_the_attempt_on_shutdown(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit("sweep", sweep_spec())
        claimed = store.claim(record.job_id)
        store.requeue(claimed, consume_attempt=False)
        again = store.get(record.job_id)
        assert again.state == "queued"
        assert again.attempts == 0
        # A retryable failure keeps the attempt consumed.
        claimed = store.claim(record.job_id)
        store.requeue(claimed, error="boom", consume_attempt=True)
        again = store.get(record.job_id)
        assert again.attempts == 1
        assert again.error == "boom"

    def test_recover_requeues_dead_workers_only(self, tmp_path):
        store = JobStore(tmp_path)
        dead = store.submit("sweep", sweep_spec(), job_id="dead")
        live = store.submit("sweep", sweep_spec(), job_id="live")
        for job_id in ("dead", "live"):
            assert store.claim(job_id) is not None
        # Forge a dead claimant pid on one record (SIGKILL aftermath).
        crashed = store.get("dead")
        crashed.worker_pid = 2 ** 22 + 12345  # beyond default pid_max
        store.save(crashed)
        recovered = store.recover()
        assert [r.job_id for r in recovered] == ["dead"]
        assert store.get("dead").state == "queued"
        assert store.get("dead").attempts == 1  # the crashed attempt stays consumed
        assert store.get("live").state == "running"
        # The stale lock was reclaimed: the job can be claimed again.
        assert store.claim("dead") is not None

    def test_recover_fails_jobs_out_of_budget(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit("sweep", sweep_spec(), max_attempts=1)
        claimed = store.claim(record.job_id)
        claimed.worker_pid = 2 ** 22 + 12345
        store.save(claimed)
        store.recover()
        final = store.get(record.job_id)
        assert final.state == "failed"
        assert "budget" in final.error

    def test_records_survive_json_round_trip(self):
        record = JobRecord(job_id="x", kind="sweep", spec={"n_trials": 2, "specs": []})
        clone = JobRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone == record


class TestExecutor:
    def test_sweep_job_runs_to_done_with_streamed_progress(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        cache = ResultCache(tmp_path / "cache")
        record = store.submit("sweep", sweep_spec(n_trials=2))
        claimed = store.claim(record.job_id)
        execute_job(claimed, store, cache, jobs=1)
        final = store.get(record.job_id)
        assert final.state == "done"
        assert final.progress == {"total": 2, "done": 2, "cached": 0}
        rows = final.result["trial_rows"]
        plain = run_sweep([SWEEP_SCENARIO], 2, jobs=1)
        assert json.dumps(rows) == json.dumps(plain.rows())

    def test_experiment_job_shares_the_runner_cache_address(self, tmp_path):
        from repro.experiments.runner import run_experiments

        store = JobStore(tmp_path / "svc")
        cache = ResultCache(tmp_path / "cache")
        record = store.submit("experiment", {"experiment": "safety-bound", "options": {}})
        claimed = store.claim(record.job_id)
        execute_job(claimed, store, cache)
        final = store.get(record.job_id)
        assert final.state == "done"
        assert final.progress == {"total": 1, "done": 1, "cached": 0}
        # The CLI runner replays the service job's entry (shared key).
        (report,) = run_experiments(["safety-bound"], cache=cache)
        assert report == final.result["report"]
        assert cache.stats.hits >= 1

    def test_failing_job_retries_then_fails(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        cache = ResultCache(tmp_path / "cache")
        record = store.submit(
            "experiment", {"experiment": "no-such-experiment"}, max_attempts=2
        )
        processed = run_worker_loop(store, cache, idle_exit=True)
        final = store.get(record.job_id)
        assert final.state == "failed"
        assert final.attempts == 2
        assert "no-such-experiment" in final.error
        assert processed == 2  # both attempts went through the loop

    def test_timeout_consumes_attempts_until_failed(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        cache = ResultCache(tmp_path / "cache")
        record = store.submit("sweep", sweep_spec(), max_attempts=2, timeout=0.0)
        run_worker_loop(store, cache, idle_exit=True)
        final = store.get(record.job_id)
        assert final.state == "failed"
        assert "timed out" in final.error

    def test_graceful_shutdown_requeues_and_resume_completes(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        cache = ResultCache(tmp_path / "cache")
        record = store.submit("sweep", sweep_spec())
        claimed = store.claim(record.job_id)
        # "Shutdown" as soon as two trials are persisted.
        execute_job(
            claimed, store, cache, jobs=1, cancel=lambda: cache.stats.stores >= 2
        )
        interrupted = store.get(record.job_id)
        assert interrupted.state == "queued"
        assert interrupted.attempts == 0  # refunded: not the job's fault
        assert cache.stats.stores == 2
        # Restart: only the remaining trials compute.
        resume_cache = ResultCache(tmp_path / "cache")
        run_worker_loop(store, resume_cache, jobs=1, idle_exit=True)
        final = store.get(record.job_id)
        assert final.state == "done"
        assert resume_cache.stats.stores == N_TRIALS - 2
        assert final.progress == {
            "total": N_TRIALS,
            "done": N_TRIALS,
            "cached": 2,
        }

    def test_unknown_job_kind_fails_cleanly(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        cache = ResultCache(tmp_path / "cache")
        record = store.submit("sweep", sweep_spec(), max_attempts=1)
        record.kind = "mystery"
        store.save(record)
        claimed = store.claim(record.job_id)
        execute_job(claimed, store, cache)
        assert store.get(record.job_id).state == "failed"


class TestKillAndResume:
    """The acceptance property: SIGKILL mid-run, restart, resume exactly."""

    def test_sigkill_mid_sweep_resumes_from_stored_trials(self, tmp_path):
        service_dir = tmp_path / "svc"
        store = JobStore(service_dir)
        cache_dir = service_dir / "cache"
        record = store.submit("sweep", sweep_spec())

        worker = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.cli",
                "run-workers",
                "--service-dir",
                str(service_dir),
                "--poll",
                "0.05",
            ],
            env=service_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                stored = (
                    len(list(cache_dir.glob("*.json"))) if cache_dir.exists() else 0
                )
                if stored >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker never stored two trials")
        finally:
            worker.send_signal(signal.SIGKILL)
            worker.wait()

        stored_before = len(list(cache_dir.glob("*.json")))
        assert 0 < stored_before < N_TRIALS, "kill window missed; tune the workload"
        # The record still claims "running" — recovery happens on restart.
        assert store.get(record.job_id).state == "running"

        # Restart the workers in-process with fresh cache stats: only the
        # not-yet-stored trials may compute.
        resume_cache = ResultCache(cache_dir)
        run_worker_loop(store, resume_cache, jobs=1, idle_exit=True)
        final = store.get(record.job_id)
        assert final.state == "done"
        assert resume_cache.stats.stores == N_TRIALS - stored_before

        # Byte-identical to the same job run uninterrupted from scratch.
        reference_store = JobStore(tmp_path / "ref")
        reference = reference_store.submit("sweep", sweep_spec())
        run_worker_loop(
            reference_store, ResultCache(tmp_path / "ref" / "cache"), idle_exit=True
        )
        reference_final = reference_store.get(reference.job_id)
        assert json.dumps(final.result) == json.dumps(reference_final.result)


class TestServiceCLI:
    def run_cli(self, *args, capsys=None):
        code = service_main([str(a) for a in args])
        return code

    def test_submit_prints_exactly_the_job_id(self, tmp_path, capsys):
        code = self.run_cli(
            "submit",
            "--service-dir",
            tmp_path,
            "--builder",
            "honest",
            "--scenario-arg",
            "n_validators=8",
            "--trials",
            "1",
        )
        assert code == 0
        job_id = capsys.readouterr().out.strip()
        assert "\n" not in job_id
        record = JobStore(tmp_path).get(job_id)
        assert record.kind == "sweep"
        assert record.spec["n_trials"] == 1
        assert record.spec["specs"][0]["builder"] == "honest"
        assert record.spec["specs"][0]["kwargs"] == {"n_validators": 8}

    def test_submit_experiment_validates_id_and_options(self, tmp_path):
        with pytest.raises(KeyError):
            self.run_cli(
                "submit", "--service-dir", tmp_path, "--experiment", "no-such"
            )
        with pytest.raises(SystemExit):
            self.run_cli(
                "submit",
                "--service-dir",
                tmp_path,
                "--experiment",
                "safety-bound",
                "--option",
                "bogus_option=1",
            )

    def test_full_cycle_submit_run_status_results(self, tmp_path, capsys):
        self.run_cli(
            "submit",
            "--service-dir",
            tmp_path,
            "--builder",
            "honest",
            "--scenario-arg",
            "n_validators=8",
            "--trials",
            "2",
        )
        job_id = capsys.readouterr().out.strip()
        assert self.run_cli("run-workers", "--service-dir", tmp_path, "--idle-exit") == 0
        capsys.readouterr()
        assert self.run_cli("status", "--service-dir", tmp_path) == 0
        status = capsys.readouterr().out
        assert job_id in status and "done" in status
        assert self.run_cli("watch", "--service-dir", tmp_path, job_id) == 0
        capsys.readouterr()
        assert (
            self.run_cli("results", "--service-dir", tmp_path, job_id, "--json") == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["trial_rows"]) == 2
        assert self.run_cli("results", "--service-dir", tmp_path, job_id) == 0
        assert "sweep" in capsys.readouterr().out.lower()

    def test_results_of_unfinished_job_exits_nonzero(self, tmp_path, capsys):
        self.run_cli(
            "submit",
            "--service-dir",
            tmp_path,
            "--builder",
            "honest",
            "--trials",
            "1",
        )
        job_id = capsys.readouterr().out.strip()
        assert self.run_cli("results", "--service-dir", tmp_path, job_id) == 1

    def test_watch_times_out_on_stuck_jobs(self, tmp_path, capsys):
        self.run_cli(
            "submit",
            "--service-dir",
            tmp_path,
            "--builder",
            "honest",
            "--trials",
            "1",
        )
        job_id = capsys.readouterr().out.strip()
        code = self.run_cli(
            "watch",
            "--service-dir",
            tmp_path,
            job_id,
            "--interval",
            "0.01",
            "--timeout",
            "0.05",
        )
        assert code == 2

    def test_status_of_empty_queue(self, tmp_path, capsys):
        assert self.run_cli("status", "--service-dir", tmp_path) == 0
        assert "no jobs" in capsys.readouterr().out
