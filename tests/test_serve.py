"""The solver service: boundary validation, batching, protocol, CLI.

Two invariants dominate: (1) every error crossing the serve boundary
names the offending job id with the solve API's message bodies, and
(2) every result the service hands back — packed into a block-stacked
batch or solved solo through the plan cache — is bit-identical to the
corresponding solo ``solve_ising`` call.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.serve.service as service_module
from repro.cli import main
from repro.core import BatchDirectEAnnealer, BatchInSituAnnealer, solve_ising
from repro.core.blockstack import compile_lane, run_stacked
from repro.ising import (
    IsingModel,
    MaxCutProblem,
    SparseIsingModel,
    generate_random,
    parse_gset,
    write_gset,
)
from repro.serve import (
    MAX_JOB_ENTRIES,
    MAX_JOB_PROPOSALS,
    MAX_JOB_REPLICAS,
    MAX_JOB_WORK,
    SolverService,
    job_request,
    service_config,
)
from repro.serve.jobs import check_admission
from repro.serve.protocol import (
    MAX_REQUEST_BYTES,
    handle_request,
    request,
    start_server,
)
from repro.serve.service import ServiceOverloadedError
from repro.utils.rng import ensure_rng


def member(n, seed, offset=0.0):
    base = SparseIsingModel.random(n, degree=4.0, seed=seed)
    indptr, indices, data = base.csr_arrays()
    return SparseIsingModel(
        indptr, indices, np.sign(data) * 0.25, None, offset, f"m{n}s{seed}"
    )


class TestJobBoundary:
    def test_replica_cap_names_the_job(self):
        with pytest.raises(ValueError, match="job 'greedy'"):
            job_request("greedy", member(8, 1), replicas=MAX_JOB_REPLICAS + 1)
        try:
            job_request("greedy", member(8, 1), replicas=MAX_JOB_REPLICAS + 1)
        except ValueError as exc:
            assert f"at most {MAX_JOB_REPLICAS}" in str(exc)

    def test_non_pm1_initial_names_the_job(self):
        with pytest.raises(ValueError, match=r"job 'warm'.*must be ±1"):
            job_request("warm", member(8, 1), initial=np.zeros(8))

    def test_initial_shape_checked_against_replicas(self):
        good = np.ones((2, 8))
        job = job_request("ok", member(8, 1), replicas=2, initial=good)
        assert job.initial.shape == (2, 8)
        with pytest.raises(ValueError, match=r"\(2, 8\)"):
            job_request("bad", member(8, 1), replicas=2, initial=np.ones((3, 8)))

    def test_count_and_choice_messages_match_solve_api(self):
        with pytest.raises(ValueError, match="iterations must be"):
            job_request("j", member(8, 1), iterations=0)
        with pytest.raises(ValueError, match="unknown method"):
            job_request("j", member(8, 1), method="mesa")
        with pytest.raises(ValueError, match=r"flips_per_iteration must be in \[1, 8\]"):
            job_request("j", member(8, 1), flips_per_iteration=9)

    def test_sb_rejects_flip_and_initial_knobs(self):
        with pytest.raises(
            ValueError, match="method='sb' with replicas takes no flips_per_iteration"
        ):
            job_request("j", member(8, 1), method="sb", flips_per_iteration=2)
        with pytest.raises(ValueError, match="only applies to methods"):
            job_request("j", member(8, 1), method="sb", initial=np.ones(8))

    def test_object_naming_no_backend_names_the_job(self):
        """A matrix holder without a backend name is refused, not guessed dense."""
        stub = SimpleNamespace(num_spins=8, J=np.zeros((8, 8)), h=np.zeros(8))
        with pytest.raises(
            ValueError,
            match="^job 'x': model must be an IsingModel or SparseIsingModel, got SimpleNamespace$",
        ):
            job_request("x", stub)

    def test_seed_must_be_serializable(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            job_request("j", member(8, 1), seed=np.random.Generator)
        job = job_request("j", member(8, 1), seed=np.int64(5))
        assert job.seed == 5 and isinstance(job.seed, int)

    def test_bool_and_negative_seeds_name_the_job(self):
        """``seed=True`` used to pass as seed 1; ``seed=-1`` passed the
        boundary and failed later on the worker thread, unprefixed."""
        with pytest.raises(
            ValueError, match="job 'b': seed must be an integer, got True"
        ):
            job_request("b", member(8, 1), seed=True)
        with pytest.raises(ValueError, match="job 'n': seed must be >= 0, got -1"):
            job_request("n", member(8, 1), seed=-1)


class TestAdmissionBudget:
    """A job too large for one worker is refused before it is queued."""

    def test_proposal_limit_refuses_packable_jobs(self):
        # 2**25 + 1 proposals at n=8 is far inside the work limit.
        for method in ("insitu", "sa"):
            with pytest.raises(ValueError) as info:
                job_request(
                    "p", member(8, 1), method=method,
                    iterations=MAX_JOB_PROPOSALS + 1,
                )
            message = str(info.value)
            assert message.startswith("job 'p': iterations × replicas × ")
            assert f"= {MAX_JOB_PROPOSALS + 1} exceeds" in message
            assert f"per-job limit {MAX_JOB_PROPOSALS}" in message
            assert "split the job" in message

    def test_job_at_the_proposal_limit_is_admitted(self):
        job = job_request(
            "edge", member(8, 1), iterations=MAX_JOB_PROPOSALS // 8,
            replicas=4, flips_per_iteration=2,
        )
        assert job.iterations * job.replicas * 2 == MAX_JOB_PROPOSALS
        # sb draws no proposal tensor, so only the work limit applies.
        job_request("sb", member(8, 1), method="sb", iterations=MAX_JOB_PROPOSALS + 1)

    def test_work_limit_refuses_every_method(self):
        wide = member(2048, 2)
        with pytest.raises(
            ValueError,
            match=(
                rf"^job 'w': iterations × replicas × n = {MAX_JOB_WORK + 2048} "
                rf"exceeds the per-job limit {MAX_JOB_WORK}; split the job"
            ),
        ):
            job_request("w", wide, iterations=MAX_JOB_WORK // 2048 + 1)
        with pytest.raises(ValueError, match=r"^job 's': iterations × replicas × n"):
            job_request("s", member(8, 1), method="sb", iterations=MAX_JOB_WORK // 8 + 1)

    def test_jobs_at_the_work_limit_are_admitted(self):
        job_request("w", member(2048, 2), iterations=MAX_JOB_WORK // 2048)
        job_request("s", member(8, 1), method="sb", iterations=MAX_JOB_WORK // 8)

    def test_paper_protocol_is_one_job(self):
        # n=3000, R=64, 100k iterations, t=4 (Sec. 4.1).
        model = SparseIsingModel.random(3000, degree=4.0, seed=3)
        job = job_request(
            "paper", model, iterations=100_000, replicas=64,
            flips_per_iteration=4,
        )
        assert job.iterations == 100_000

    def test_oversized_request_gets_one_error_line(self):
        # Past any address space, so even without the budget the worker's
        # first allocation would fail at once rather than page in memory.
        big = {
            "op": "solve", "job_id": "big", "gset": GSET_TEXT,
            "iterations": 10**15, "replicas": 4,
        }
        with _ServerThread() as server:
            replies = _exchange(
                server.port, [_line(big), _line({"op": "ping"})], 2
            )
            stats = request({"op": "stats"}, port=server.port)
        assert {"ok": True} in replies
        (error,) = [r for r in replies if not r["ok"]]
        assert error["job_id"] == "big"
        assert error["error"].startswith("job 'big': iterations × replicas × ")
        assert f"per-job limit {MAX_JOB_PROPOSALS}" in error["error"]
        assert stats["stats"]["jobs"] == 0


class TestService:
    def test_results_bit_identical_and_grouped(self):
        jobs = []
        expected = {}
        for i in range(6):
            jid = f"sa-{i}"
            jobs.append(job_request(
                jid, member(10 + i, 50 + i), method="sa", iterations=80,
                replicas=2, flips_per_iteration=2, seed=900 + i,
            ))
            expected[jid] = solve_ising(
                jobs[-1].model, method="sa", iterations=80, seed=900 + i,
                replicas=2, flips_per_iteration=2,
            )
        for i in range(3):
            jid = f"in-{i}"
            jobs.append(job_request(
                jid, member(9 + i, 70 + i), method="insitu", iterations=60,
                replicas=1, seed=300 + i,
            ))
            expected[jid] = solve_ising(
                jobs[-1].model, method="insitu", iterations=60, seed=300 + i,
                replicas=1,
            )
        jid = "sb-0"
        jobs.append(job_request(
            jid, member(12, 90), method="sb", iterations=40, replicas=2,
            seed=11,
        ))
        expected[jid] = solve_ising(
            jobs[-1].model, method="sb", iterations=40, seed=11, replicas=2,
        )

        async def run():
            config = service_config(gather_window=0.05)
            async with SolverService(config) as svc:
                results = await asyncio.gather(*(svc.submit(j) for j in jobs))
                return results, svc.stats()

        results, stats = asyncio.run(run())
        for job, res in zip(jobs, results):
            solo = expected[job.job_id]
            assert np.array_equal(solo.best_energies, res.best_energies)
            assert np.array_equal(solo.best_sigmas, res.best_sigmas)
            assert np.array_equal(solo.final_energies, res.final_energies)
            assert np.array_equal(solo.final_sigmas, res.final_sigmas)
            assert np.array_equal(solo.accepted, res.accepted)
        by_id = {r.job_id: r for r in results}
        # The six compatible SA jobs pack; so do the three insitu jobs;
        # SB always runs solo through the plan cache.
        assert all(by_id[f"sa-{i}"].packed for i in range(6))
        assert all(by_id[f"sa-{i}"].batch_size == 6 for i in range(6))
        assert all(by_id[f"in-{i}"].packed for i in range(3))
        assert not by_id["sb-0"].packed
        assert stats["jobs"] == len(jobs)
        assert stats["packed_jobs"] == 9
        assert stats["solo_jobs"] == 1
        assert stats["failed_jobs"] == 0

    def test_plan_cache_counters_surface_in_stats(self):
        m = member(10, 5)
        jobs = [
            job_request(f"rep-{i}", m, method="sb", iterations=20, seed=i)
            for i in range(3)
        ]

        async def run():
            async with SolverService() as svc:
                for job in jobs:
                    await svc.submit(job)
                return svc.stats()

        stats = asyncio.run(run())
        cache = stats["plan_cache"]
        assert cache["misses"] == 1
        assert cache["hits"] == 2
        assert cache["size"] == 1

    def test_warm_start_runs_solo_with_initial(self):
        """A warm-started job runs as one lane on its own backend, so it
        equals the engine's warm-started run — also on a dense model with
        non-dyadic couplings, which a sparse union would sum differently."""
        rng = ensure_rng(3)
        upper = np.triu(rng.normal(size=(24, 24)) * (rng.random((24, 24)) < 0.3), 1)
        dense = IsingModel(upper + upper.T, rng.normal(size=24), name="dense")
        initial = rng.choice(np.array([-1.0, 1.0]), size=(3, 24))
        jobs = [job_request(
            "warm", member(10, 6), method="sa", iterations=30, seed=4,
            initial=np.ones(10),
        )] + [
            job_request(
                f"{method}-{seed}", dense, method=method, iterations=300,
                replicas=3, flips_per_iteration=2, seed=seed, initial=initial,
            )
            for method in ("insitu", "sa") for seed in range(4)
        ]

        async def run():
            async with SolverService() as svc:
                return [await svc.submit(job) for job in jobs]

        results = asyncio.run(run())
        assert results[0].best_energies.shape == (1,)
        engines = {"insitu": BatchInSituAnnealer, "sa": BatchDirectEAnnealer}
        for job, res in zip(jobs, results):
            assert not res.packed
            solo = engines[job.method](
                job.model, replicas=job.replicas,
                flips_per_iteration=job.flips_per_iteration, seed=job.seed,
            ).run(job.iterations, initial=job.initial)
            assert np.array_equal(solo.best_energies, res.best_energies)
            assert np.array_equal(solo.best_sigmas, res.best_sigmas)
            assert np.array_equal(solo.final_energies, res.final_energies)
            assert np.array_equal(solo.final_sigmas, res.final_sigmas)
            assert np.array_equal(solo.accepted, res.accepted)

    def test_failed_stacked_run_reruns_each_job_alone(self, monkeypatch):
        """One failing stacked group no longer fails all its jobs: each
        reruns alone from a fresh lane, and only a job whose own run
        raises reports an error."""
        stacked = service_module.run_stacked

        def flaky(lanes):
            if len(lanes) > 1:
                raise RuntimeError("stacked run failed")
            if lanes[0].model.name == "m9s64":
                raise RuntimeError("this job's own run failed")
            return stacked(lanes)

        monkeypatch.setattr(service_module, "run_stacked", flaky)

        def serve(seeds):
            jobs = [
                job_request(
                    f"sa-{s}", member(9, s), method="sa", iterations=60,
                    replicas=2, seed=s,
                )
                for s in seeds
            ]

            async def run():
                async with SolverService(service_config(gather_window=0.05)) as svc:
                    out = await asyncio.gather(
                        *(svc.submit(j) for j in jobs), return_exceptions=True
                    )
                    return out, svc.stats()

            return jobs, *asyncio.run(run())

        jobs, results, stats = serve(range(60, 64))
        assert stats["failed_jobs"] == 0 and stats["batches"] == 1
        for job, res in zip(jobs, results):
            solo = solve_ising(
                job.model, method="sa", iterations=60, seed=job.seed, replicas=2
            )
            assert np.array_equal(solo.best_energies, res.best_energies)
            assert np.array_equal(solo.final_sigmas, res.final_sigmas)
            assert np.array_equal(solo.accepted, res.accepted)
            assert not res.packed and res.batch_size == 1

        jobs, results, stats = serve(range(62, 66))
        assert stats["failed_jobs"] == 1
        assert [type(r).__name__ for r in results] == [
            "JobResult", "JobResult", "RuntimeError", "JobResult"
        ]
        assert "own run failed" in str(results[2])

    def test_invalid_job_fails_its_future_only(self):
        good = job_request("fine", member(9, 7), method="sa", iterations=20,
                           seed=1)
        # Sneak an invalid flip rank past the boundary to prove per-job
        # failure isolation inside a batch (boundary normally rejects it).
        bad = job_request("doomed", member(9, 8), method="sa", iterations=20,
                          seed=2)
        object.__setattr__(bad, "flips_per_iteration", 20)

        async def run():
            async with SolverService(service_config(gather_window=0.05)) as svc:
                futs = await asyncio.gather(
                    svc.submit(good), svc.submit(bad), return_exceptions=True
                )
                return futs, svc.stats()

        (good_res, bad_res), stats = asyncio.run(run())
        assert good_res.job_id == "fine"
        assert isinstance(bad_res, ValueError)
        assert stats["failed_jobs"] == 1

    def test_submit_nowait_sheds_load_when_queue_full(self):
        jobs = [
            job_request(f"q-{i}", member(8, i), method="sa", iterations=10,
                        seed=i)
            for i in range(3)
        ]

        async def run():
            gate = threading.Event()
            config = service_config(max_queue=1, gather_window=0.0)
            svc = SolverService(config)
            solve_batch = svc._solve_batch
            svc._solve_batch = lambda batch: (gate.wait(5), solve_batch(batch))[1]
            async with svc:
                t1 = asyncio.ensure_future(svc.submit(jobs[0]))
                await asyncio.sleep(0.05)  # scheduler now blocked in the gate
                t2 = asyncio.ensure_future(svc.submit(jobs[1]))
                await asyncio.sleep(0.05)  # fills the depth-1 queue
                with pytest.raises(ServiceOverloadedError, match="job 'q-2'"):
                    await svc.submit_nowait(jobs[2])
                gate.set()
                await asyncio.gather(t1, t2)

        asyncio.run(run())

    def test_submit_outside_lifecycle_is_rejected(self):
        job = job_request("late", member(8, 1), iterations=10)

        async def run():
            svc = SolverService()
            with pytest.raises(RuntimeError, match="job 'late'"):
                await svc.submit(job)

        asyncio.run(run())


RESULT_FIELDS = (
    "best_energies", "best_sigmas", "final_energies", "final_sigmas", "accepted",
)


def assert_solo(job, res):
    """``res`` equals the job's solo ``solve_ising`` call bit for bit."""
    solo = solve_ising(
        job.model, method=job.method, iterations=job.iterations,
        seed=job.seed, replicas=job.replicas,
        flips_per_iteration=job.flips_per_iteration,
    )
    for name in RESULT_FIELDS:
        assert np.array_equal(getattr(solo, name), getattr(res, name)), (
            job.job_id, name,
        )


class _Gated:
    """A service whose worker waits at a gate before each run.

    Use as ``async with _Gated(config) as gated``: ``await
    gated.hold(job)`` submits ``job`` and returns its task once the
    worker holds it, so the jobs submitted next stay pending until
    :meth:`release` (or the block ends).  ``depths`` records the pending
    depth at each run.
    """

    def __init__(self, config) -> None:
        self.svc = SolverService(config)
        self.depths: list[int] = []
        self._entered = threading.Event()
        self._gate = threading.Event()
        solve_batch = self.svc._solve_batch

        def gated(jobs):
            self.depths.append(self.svc.stats()["queue_depth"])
            self._entered.set()
            self._gate.wait(10)
            return solve_batch(jobs)

        self.svc._solve_batch = gated

    async def hold(self, job):
        task = asyncio.ensure_future(self.svc.submit(job))
        while not self._entered.is_set():
            await asyncio.sleep(0.001)
        return task

    def release(self) -> None:
        self._gate.set()

    async def __aenter__(self) -> "_Gated":
        await self.svc.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        self.release()
        await self.svc.stop()


@pytest.fixture
def stacked_runs(monkeypatch):
    """The lane model names of each ``run_stacked`` call, in call order."""
    runs: list[list[str]] = []
    stacked = service_module.run_stacked

    def recording(lanes):
        runs.append([lane.model.name for lane in lanes])
        return stacked(lanes)

    monkeypatch.setattr(service_module, "run_stacked", recording)
    return runs


#: Three pack keys of small dyadic jobs.
KEYS = {
    "sa": {"method": "sa", "iterations": 40, "replicas": 2},
    "t1": {"method": "insitu", "iterations": 30, "replicas": 2},
    "t4": {
        "method": "insitu", "iterations": 30, "replicas": 2,
        "flips_per_iteration": 4,
    },
}


def keyed_job(key, i):
    """Job ``i`` of pack key ``key``: model ``m{9 + i % 3}s{seed}``."""
    seed = 100 * (1 + list(KEYS).index(key)) + i
    return job_request(
        f"{key}-{i}", member(9 + i % 3, seed), seed=seed, **KEYS[key]
    )


HEAD = job_request("head", member(8, 1), method="sa", iterations=10, seed=1)


class TestScheduling:
    """Pending jobs by pack key: one stacked run per key per round."""

    def test_three_keys_run_as_three_stacked_runs(self, stacked_runs):
        counts = {"sa": 2, "t1": 3, "t4": 4}
        jobs = [
            keyed_job(key, i) for i in range(4)
            for key in KEYS if i < counts[key]
        ]

        async def run():
            async with _Gated(service_config(gather_window=0.0)) as gated:
                svc = gated.svc
                head = await gated.hold(HEAD)
                tasks = [asyncio.ensure_future(svc.submit(j)) for j in jobs]
                await asyncio.sleep(0)
                assert svc.stats()["queue_depth"] == len(jobs)
                gated.release()
                return await asyncio.gather(head, *tasks), svc.stats()

        (_, *results), stats = asyncio.run(run())
        # The held job, then one stacked run per key, oldest key first.
        assert [len(names) for names in stacked_runs] == [1, 2, 3, 4]
        assert stacked_runs[1] == [j.model.name for j in jobs if j.method == "sa"]
        for job, res in zip(jobs, results):
            assert_solo(job, res)
            assert res.packed and res.batch_size == counts[job.job_id[:2]]
        assert stats["batches"] == 4
        assert stats["packed_jobs"] == 9 and stats["solo_jobs"] == 1
        assert stats["pack_keys"] == {
            "insitu iterations=30 replicas=2 flips=1": {
                "jobs": 3, "packed_jobs": 3, "runs": 1, "run_sizes": {3: 1},
            },
            "insitu iterations=30 replicas=2 flips=4": {
                "jobs": 4, "packed_jobs": 4, "runs": 1, "run_sizes": {4: 1},
            },
            "sa iterations=10 replicas=1 flips=1": {
                "jobs": 1, "packed_jobs": 0, "runs": 1, "run_sizes": {1: 1},
            },
            "sa iterations=40 replicas=2 flips=1": {
                "jobs": 2, "packed_jobs": 2, "runs": 1, "run_sizes": {2: 1},
            },
        }

    def test_max_batch_jobs_caps_one_stacked_run(self, stacked_runs):
        jobs = [keyed_job("t1", i) for i in range(10)]

        async def run():
            config = service_config(max_batch_jobs=4, gather_window=0.0)
            async with _Gated(config) as gated:
                svc = gated.svc
                head = await gated.hold(HEAD)
                tasks = [asyncio.ensure_future(svc.submit(j)) for j in jobs]
                await asyncio.sleep(0)
                gated.release()
                return await asyncio.gather(head, *tasks), svc.stats()

        (_, *results), stats = asyncio.run(run())
        assert [len(names) for names in stacked_runs] == [1, 4, 4, 2]
        # Admission order within the key: the first four run first.
        assert stacked_runs[1] == [j.model.name for j in jobs[:4]]
        assert [r.batch_size for r in results] == [4] * 8 + [2] * 2
        for job, res in zip(jobs, results):
            assert_solo(job, res)
        runs = stats["pack_keys"]["insitu iterations=30 replicas=2 flips=1"]
        assert runs["run_sizes"] == {2: 1, 4: 2} and runs["runs"] == 3

    @pytest.mark.parametrize("first", ["sa", "t4"])
    def test_the_key_with_the_oldest_job_runs_first(self, stacked_runs, first):
        """Also after a capped run leaves jobs of its key pending."""
        other = "t4" if first == "sa" else "sa"
        jobs = [
            keyed_job(first, 0), keyed_job(other, 0), keyed_job(first, 1),
            keyed_job(first, 2), keyed_job(other, 1),
        ]

        async def run():
            config = service_config(max_batch_jobs=2, gather_window=0.0)
            async with _Gated(config) as gated:
                svc = gated.svc
                head = await gated.hold(HEAD)
                tasks = [asyncio.ensure_future(svc.submit(j)) for j in jobs]
                await asyncio.sleep(0)
                gated.release()
                return await asyncio.gather(head, *tasks)

        _, *results = asyncio.run(run())
        a0, b0, a1, a2, b1 = (j.model.name for j in jobs)
        assert stacked_runs[1:] == [[a0, a1], [b0, b1], [a2]]
        for job, res in zip(jobs, results):
            assert_solo(job, res)

    def test_gather_window_lets_peers_join_the_oldest_job(self, stacked_runs):
        jobs = [keyed_job("sa", i) for i in range(2)]

        async def run():
            async with SolverService(service_config(gather_window=0.2)) as svc:
                first = asyncio.ensure_future(svc.submit(jobs[0]))
                await asyncio.sleep(0.02)
                second = asyncio.ensure_future(svc.submit(jobs[1]))
                return await asyncio.gather(first, second)

        results = asyncio.run(run())
        assert stacked_runs == [[j.model.name for j in jobs]]
        for job, res in zip(jobs, results):
            assert_solo(job, res)

    def test_pending_jobs_never_exceed_max_queue(self, stacked_runs):
        """``submit`` waits past ``max_queue`` pending jobs, in submit
        order, and ``submit_nowait`` raises at exactly that depth."""
        jobs = [keyed_job("sa", i) for i in range(7)]

        async def run():
            config = service_config(max_queue=3, max_batch_jobs=2, gather_window=0.0)
            async with _Gated(config) as gated:
                svc = gated.svc
                head = await gated.hold(HEAD)
                tasks = [asyncio.ensure_future(svc.submit(j)) for j in jobs[:2]]
                await asyncio.sleep(0)
                # One slot left: submit_nowait takes it, then sheds load.
                tasks.append(asyncio.ensure_future(svc.submit_nowait(jobs[2])))
                await asyncio.sleep(0)
                assert svc.stats()["queue_depth"] == 3
                with pytest.raises(ServiceOverloadedError, match="job 'shed'"):
                    await svc.submit_nowait(
                        job_request("shed", member(8, 2), method="sa", iterations=10)
                    )
                tasks += [asyncio.ensure_future(svc.submit(j)) for j in jobs[3:]]
                await asyncio.sleep(0.02)
                assert svc.stats()["queue_depth"] == 3
                assert not any(task.done() for task in tasks)
                gated.release()
                return await asyncio.gather(head, *tasks), gated.depths, svc.stats()

        (_, *results), depths, stats = asyncio.run(run())
        # Runs of two free two slots; waiting submits take them in order.
        assert depths == [0, 3, 3, 1, 0]
        names = [j.model.name for j in jobs]
        assert stacked_runs[1:] == [names[0:2], names[2:4], names[4:6], names[6:]]
        assert [r.batch_size for r in results] == [2, 2, 2, 2, 2, 2, 1]
        for job, res in zip(jobs, results):
            assert_solo(job, res)
        assert stats["jobs"] == 8 and stats["queue_depth"] == 0

    def test_waiting_jobs_of_the_running_key_join_its_run(self, stacked_runs):
        """Each slot a run frees admits a waiting job at once, so all
        four jobs of one key run together although two of them waited."""
        jobs = [keyed_job("t4", i) for i in range(4)]

        async def run():
            async with _Gated(service_config(max_queue=2, gather_window=0.0)) as gated:
                svc = gated.svc
                head = await gated.hold(HEAD)
                tasks = [asyncio.ensure_future(svc.submit(j)) for j in jobs]
                await asyncio.sleep(0)
                assert svc.stats()["queue_depth"] == 2
                gated.release()
                return await asyncio.gather(head, *tasks)

        _, *results = asyncio.run(run())
        assert stacked_runs[1:] == [[j.model.name for j in jobs]]
        for job, res in zip(jobs, results):
            assert_solo(job, res)

    def test_stop_runs_every_pending_job(self):
        jobs = [keyed_job("t1", i) for i in range(3)] + [keyed_job("sa", 0)]

        async def run():
            async with _Gated(service_config(max_queue=2, gather_window=0.0)) as gated:
                svc = gated.svc
                head = await gated.hold(HEAD)
                tasks = [asyncio.ensure_future(svc.submit(j)) for j in jobs]
                await asyncio.sleep(0)
                stopping = asyncio.ensure_future(svc.stop())
                await asyncio.sleep(0)
                with pytest.raises(RuntimeError, match="job 'late'"):
                    await svc.submit(
                        job_request("late", member(8, 3), method="sa", iterations=10)
                    )
                gated.release()
                await stopping
                return [t.result() for t in (head, *tasks)], svc.stats()

        (_, *results), stats = asyncio.run(run())
        for job, res in zip(jobs, results):
            assert_solo(job, res)
        assert stats["jobs"] == 5 and stats["queue_depth"] == 0

    def test_cancelled_job_is_dropped_before_compile(self, monkeypatch):
        compiled: list[str] = []
        compile_lane = service_module.compile_lane

        def recording(model, **knobs):
            compiled.append(model.name)
            return compile_lane(model, **knobs)

        monkeypatch.setattr(service_module, "compile_lane", recording)
        jobs = [keyed_job("sa", i) for i in range(3)]

        async def run():
            async with _Gated(service_config(gather_window=0.0)) as gated:
                svc = gated.svc
                head = await gated.hold(HEAD)
                tasks = [asyncio.ensure_future(svc.submit(j)) for j in jobs]
                await asyncio.sleep(0)
                tasks[1].cancel()
                gated.release()
                out = await asyncio.gather(head, *tasks, return_exceptions=True)
                return out, svc.stats()

        (_, first, cancelled, last), stats = asyncio.run(run())
        assert isinstance(cancelled, asyncio.CancelledError)
        assert jobs[1].model.name not in compiled
        assert compiled == [HEAD.model.name, jobs[0].model.name, jobs[2].model.name]
        for job, res in ((jobs[0], first), (jobs[2], last)):
            assert_solo(job, res)
            assert res.packed and res.batch_size == 2
        assert stats["cancelled_jobs"] == 1
        assert stats["jobs"] == 3 and stats["queue_depth"] == 0


#: Edge weights whose sums round differently in BLAS and CSR order.
INEXACT_WEIGHTS = np.array([0.3, -0.7, 1.1, 0.45])


def gset_models(kind):
    """Four dense G-set models of 40–43 spins and 120 edges: ``"pm1"``
    weights, or ``"inexact"`` ones drawn from :data:`INEXACT_WEIGHTS`."""
    models = []
    for i in range(4):
        base = generate_random(40 + i, 120, weighted=True, seed=20 + i)
        weights = base.weights if kind == "pm1" else INEXACT_WEIGHTS[
            ensure_rng(120 + i).integers(4, size=120)
        ]
        problem = MaxCutProblem(base.num_nodes, base.edges, weights, name=f"g{i}")
        models.append(problem.to_ising(backend="auto"))
    return models


class TestExactStacking:
    """A dense job whose sums a stacked run would round differently runs
    alone, as its own lane, so its result still equals its solo solve."""

    @staticmethod
    def serve(models, method, flips):
        jobs = [
            job_request(
                f"g{i}", m, method=method, iterations=200, replicas=4,
                flips_per_iteration=flips, seed=10 + i,
            )
            for i, m in enumerate(models)
        ]

        async def run():
            async with SolverService(service_config(gather_window=0.05)) as svc:
                return await asyncio.gather(*(svc.submit(j) for j in jobs))

        return jobs, asyncio.run(run())

    @pytest.mark.parametrize("method, flips", [("insitu", 1), ("sa", 1), ("insitu", 4)])
    def test_inexact_dense_jobs_run_alone_bit_identical(self, method, flips):
        models = gset_models("inexact")
        assert all(isinstance(m, IsingModel) for m in models)
        # Stacked, these four would differ from their solo solves.
        lanes = [
            compile_lane(m, method=method, iterations=200, replicas=4,
                         flips_per_iteration=flips, seed=10 + i)
            for i, m in enumerate(models)
        ]
        stacked = run_stacked(lanes)
        jobs, results = self.serve(models, method, flips)
        assert not any(job.packable for job in jobs)
        assert any(
            not np.array_equal(s.best_energies, r.best_energies)
            or not np.array_equal(s.final_energies, r.final_energies)
            for s, r in zip(stacked, results)
        )
        for job, res in zip(jobs, results):
            assert not res.packed
            assert_solo(job, res)

    def test_pm1_gset_jobs_still_pack(self):
        jobs, results = self.serve(gset_models("pm1"), "insitu", 4)
        assert all(job.packable for job in jobs)
        for job, res in zip(jobs, results):
            assert res.packed and res.batch_size == 4
            assert_solo(job, res)

    def test_packable_follows_the_backend_the_job_runs_on(self):
        dense = gset_models("inexact")[0]
        sparse = SparseIsingModel.from_ising(dense)
        assert not job_request("d", dense).packable
        assert job_request("d", dense, backend="sparse").packable
        # A sparse run sums in CSR order alone and stacked.
        assert job_request("s", sparse).packable
        # A 40-spin model may run dense under "auto".
        assert not job_request("s", sparse, backend="auto").packable
        assert not job_request("s", sparse, backend="dense").packable
        assert not job_request("sb", dense, method="sb").packable
        assert not job_request("sb", gset_models("pm1")[0], method="sb").packable

    def test_dyadic_values_must_also_sum_within_53_bits(self):
        J = np.zeros((3, 3))
        J[0, 1] = J[1, 0] = 2.0**60
        J[1, 2] = J[2, 1] = 1.0
        assert not job_request("wide", IsingModel(J)).packable
        J[0, 1] = J[1, 0] = 2.0**40
        assert job_request("narrow", IsingModel(J)).packable
        # Fields count too: 0.1 is not dyadic.
        assert not job_request("h", IsingModel(J, np.array([0.0, 0.1, 0.0]))).packable
        assert job_request("h", IsingModel(J, np.array([0.0, 0.375, 0.0]))).packable


class _ServerThread:
    """A live service + TCP endpoint on an ephemeral port, off-thread."""

    def __init__(self) -> None:
        self.port: int | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._ready.wait(10), "server thread did not come up"
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10)

    def _run(self) -> None:
        async def main_() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            async with SolverService() as service:
                server = await start_server(service, "127.0.0.1", 0)
                self.port = server.sockets[0].getsockname()[1]
                self._ready.set()
                async with server:
                    await self._stop.wait()

        asyncio.run(main_())


GSET_TEXT = "4 4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n"


class TestProtocolAndCli:
    def test_protocol_round_trip(self):
        with _ServerThread() as server:
            assert request({"op": "ping"}, port=server.port) == {"ok": True}
            solve = request({
                "op": "solve", "job_id": "wire", "gset": GSET_TEXT,
                "method": "sa", "iterations": 50, "replicas": 2, "seed": 9,
            }, port=server.port)
            assert solve["ok"] and solve["job_id"] == "wire"
            problem = parse_gset(GSET_TEXT)
            solo = solve_ising(
                problem.to_ising(backend="auto"), method="sa",
                iterations=50, seed=9, replicas=2,
            )
            best = int(np.argmin(solo.best_energies))
            assert solve["best_energy"] == float(solo.best_energies[best])
            assert solve["best_cut"] == float(
                problem.cut_from_energy(float(solo.best_energies[best]))
            )
            assert solve["best_sigma"] == [
                int(s) for s in solo.best_sigmas[best]
            ]
            stats = request({"op": "stats"}, port=server.port)
            assert stats["ok"] and stats["stats"]["jobs"] == 1
            bad = request({"op": "warp"}, port=server.port)
            assert not bad["ok"] and "unknown op" in bad["error"]
            invalid = request({
                "op": "solve", "job_id": "broken", "gset": GSET_TEXT,
                "iterations": 0,
            }, port=server.port)
            assert not invalid["ok"] and "job 'broken'" in invalid["error"]

    def test_negative_seed_rejected_at_submit(self):
        """The live service refuses ``seed: -1`` before queueing the job."""
        with _ServerThread() as server:
            neg = request({
                "op": "solve", "job_id": "neg", "gset": GSET_TEXT,
                "method": "sa", "iterations": 20, "seed": -1,
            }, port=server.port)
            assert not neg["ok"]
            assert neg["error"] == "job 'neg': seed must be >= 0, got -1"
            stats = request({"op": "stats"}, port=server.port)
            assert stats["stats"]["jobs"] == 0
            assert stats["stats"]["failed_jobs"] == 0

    def test_cli_submit_and_stats(self, tmp_path, capsys):
        path = tmp_path / "toy.gset"
        write_gset(generate_random(20, 60, seed=2), path)
        with _ServerThread() as server:
            rc = main([
                "submit", str(path), "--port", str(server.port),
                "--method", "sa", "--iterations", "100", "--seed", "3",
                "--replicas", "2", "--job-id", "cli-job",
            ])
            assert rc == 0
            out = capsys.readouterr().out
            assert "cli-job: best_cut=" in out
            assert main(["submit", "--stats", "--port", str(server.port)]) == 0
            out = capsys.readouterr().out
            assert "jobs: 1" in out
            assert "cancelled_jobs: 0" in out
            assert "plan_cache:" in out
            # Each pack key's runs on a line of its own.
            assert (
                "pack_keys:\n  sa iterations=100 replicas=2 flips=1: "
                "{'jobs': 1, 'packed_jobs': 0, 'runs': 1, 'run_sizes': {'1': 1}}"
            ) in out
            rc = main([
                "submit", str(path), "--port", str(server.port),
                "--iterations", "0",
            ])
            assert rc == 2

    def test_cli_submit_requires_instance_or_stats(self, capsys):
        assert main(["submit", "--port", "1"]) == 2
        assert "instance" in capsys.readouterr().err


def _exchange(port: int, lines: list[bytes], replies: int) -> list[dict]:
    """Send raw request lines on ONE connection and read ``replies`` lines."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        conn.sendall(b"".join(lines))
        with conn.makefile("rb") as stream:
            return [json.loads(stream.readline()) for _ in range(replies)]


def _line(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


class TestProtocolErrors:
    """Every failed solve gets exactly one answer that names its job."""

    @pytest.mark.parametrize(
        "fields, expected",
        [
            ({"gset": "3"}, "bad Gset header on line 1: '3'"),
            ({"gset": "3 1\n1 x 1"}, "bad edge line 2: '1 x 1'"),
            ({"gset": "3 1\n\n1 7 1"}, "bad edge line 3: '1 7 1' (endpoints must be"),
            ({"gset": "0 0"}, "num_nodes must be >= 1, got 0"),
            ({"gset": GSET_TEXT, "backend": "bogus"}, "unknown backend 'bogus'"),
            ({"gset": "2 1\n1 2 nan"}, "weights must be finite, got nan on edge 0"),
            ({"gset": "2 1\n1 2 inf"}, "weights must be finite, got inf on edge 0"),
            (
                {"gset": "3 3\n1 2 1\n2 3 1\n2 1 1"},
                "duplicate edges are not allowed: edge rows 0 and 2 both join "
                "nodes 0 and 1",
            ),
            ({"gset": ""}, "'gset' must carry the instance text"),
            # 10**15 × 64 draws exceed any address space: the admission
            # budget refuses the job before the worker allocates.
            (
                {"gset": GSET_TEXT, "iterations": 10**15, "replicas": 64},
                f"exceeds the per-job limit {MAX_JOB_PROPOSALS}",
            ),
        ],
    )
    def test_error_is_prefixed_with_the_job_id(self, fields, expected):
        async def run():
            async with SolverService() as svc:
                return await handle_request(
                    svc, {"op": "solve", "job_id": "bad", **fields}
                )

        response = asyncio.run(run())
        assert response["ok"] is False
        assert response["job_id"] == "bad"
        assert response["error"].startswith("job 'bad': ")
        assert response["error"].count("job 'bad'") == 1
        assert expected in response["error"]

    def test_unexpected_error_is_one_prefixed_answer(self, monkeypatch):
        async def out_of_memory(job):
            raise MemoryError("cannot allocate")

        async def run():
            async with SolverService() as svc:
                monkeypatch.setattr(svc, "submit", out_of_memory)
                return await handle_request(
                    svc, {"op": "solve", "job_id": "oom", "gset": GSET_TEXT}
                )

        response = asyncio.run(run())
        assert response == {
            "ok": False,
            "error": "job 'oom': internal error (MemoryError): cannot allocate",
            "job_id": "oom",
        }

    def test_cancellation_is_not_swallowed(self, monkeypatch):
        async def cancelled(job):
            raise asyncio.CancelledError

        async def run():
            async with SolverService() as svc:
                monkeypatch.setattr(svc, "submit", cancelled)
                with pytest.raises(asyncio.CancelledError):
                    await handle_request(
                        svc, {"op": "solve", "job_id": "c", "gset": GSET_TEXT}
                    )

        asyncio.run(run())

    def test_bad_request_then_ping_on_one_connection(self):
        bad = {"op": "solve", "job_id": "inf", "gset": "2 1\n1 2 inf"}
        with _ServerThread() as server:
            replies = _exchange(server.port, [_line(bad), _line({"op": "ping"})], 2)
        assert {"ok": True} in replies
        (error,) = [r for r in replies if not r["ok"]]
        assert error["error"].startswith("job 'inf': weights must be finite")


class TestRequestSizeLimit:
    def test_large_inline_gset_is_served(self):
        text = write_gset(generate_random(3000, 12_000, seed=5))
        payload = {"op": "solve", "job_id": "big", "gset": text, "iterations": 10}
        # Over the 64 KiB asyncio default that used to reset the connection.
        assert len(_line(payload)) > 140 * 1024
        with _ServerThread() as server:
            reply = request(payload, port=server.port)
        assert reply["ok"] is True
        assert reply["job_id"] == "big"
        assert len(reply["best_sigma"]) == 3000

    def test_oversized_line_gets_one_error_and_is_skipped(self):
        at_limit = b"x" * MAX_REQUEST_BYTES + b"\n"
        over = b"y" * (MAX_REQUEST_BYTES + 1) + b"\n"
        with _ServerThread() as server:
            replies = _exchange(
                server.port, [at_limit, over, _line({"op": "ping"})], 3
            )
        # A line of exactly the limit is read whole (and is not JSON).
        assert replies[0]["error"].startswith("invalid JSON line")
        assert replies[1]["ok"] is False
        assert f"exceeds the {MAX_REQUEST_BYTES}-byte limit" in replies[1]["error"]
        # The next reply is the ping's: no second error for the rest of
        # the oversized line, and the connection is still served.
        assert replies[2] == {"ok": True}


#: A 12-byte header declaring 10**9 spins (about 23 GB of model on the
#: ``auto`` backend) and a dense 60 000-spin request (a 29 GB matrix).
#: Both are refused on their declared size; never send them unguarded.
HOSTILE = (
    ({"job_id": "wide", "gset": "1000000000 0"}, "replicas × n = 1000000000 exceeds"),
    (
        {"job_id": "square", "gset": "60000 0", "backend": "dense"},
        f"n × n = 3600000000 exceeds the per-job limit {MAX_JOB_ENTRIES}",
    ),
)


def _refuse_build(problem, *args, **kwargs):
    raise RuntimeError(f"built a model of {problem.num_nodes} spins")


class TestAdmissionBeforeBuild:
    """The protocol checks the declared size before it builds the model."""

    def test_hostile_sizes_get_one_error_each(self, monkeypatch):
        # With model builds failing, a hostile size cannot allocate even
        # where admission runs after the build.
        monkeypatch.setattr(MaxCutProblem, "to_ising", _refuse_build)
        lines = [_line({"op": "solve", **fields}) for fields, _ in HOSTILE]
        with _ServerThread() as server:
            replies = _exchange(server.port, [*lines, _line({"op": "ping"})], 3)
            stats = request({"op": "stats"}, port=server.port)
        assert {"ok": True} in replies
        errors = {r["job_id"]: r["error"] for r in replies if not r["ok"]}
        for fields, expected in HOSTILE:
            message = errors.pop(fields["job_id"])
            assert message.startswith(f"job {fields['job_id']!r}: {expected}")
            assert message.count("job '") == 1
        assert not errors
        assert stats["stats"]["jobs"] == 0

    def test_paper_protocol_is_admitted_dense_too(self):
        assert check_admission(
            3000, iterations=100_000, replicas=64, flips_per_iteration=4,
            dense=True,
        ) == ("insitu", 100_000, 64, 4)

    def test_dense_storage_bound(self):
        side = int(MAX_JOB_ENTRIES**0.5)
        check_admission(side, dense=True)
        with pytest.raises(ValueError, match=r"^n × n = \d+ exceeds the per-job limit"):
            check_admission(side + 1, dense=True)
        # A sparse model asked to run dense is bounded as dense.
        wide = member(side + 1, 1)
        assert job_request("s", wide, iterations=1).backend is None
        with pytest.raises(ValueError, match=r"^job 'd': n × n = "):
            job_request("d", wide, iterations=1, backend="dense")

    def test_replica_state_bound(self):
        check_admission(MAX_JOB_ENTRIES // 4, iterations=1, replicas=4)
        with pytest.raises(ValueError, match=r"^replicas × n = \d+ exceeds"):
            check_admission(MAX_JOB_ENTRIES // 4 + 1, iterations=1, replicas=4)


_SOLVE_FIELDS = (
    "job_id", "gset", "method", "iterations", "replicas", "flips", "seed", "backend",
)

#: Values of the wrong type (or out of range) for any field; none of them
#: is an integer count that would admit a long job.
_WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0.5, -1.0, 1e300, float("nan"), float("inf"), -0.0]),
    st.integers(max_value=0),
    st.integers(min_value=2**63),
    st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


@st.composite
def _gset_texts(draw):
    """A tiny G-set instance, possibly cut short anywhere."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v} 1\n" for u, v in edges)
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@st.composite
def _solve_requests(draw):
    """A solve whose fields are each valid (and tiny) or of a wrong type."""
    valid = {
        "job_id": st.text(min_size=1, max_size=8),
        "gset": _gset_texts(),
        "method": st.sampled_from(["insitu", "sa", "sb"]),
        "iterations": st.integers(1, 50),
        "replicas": st.integers(1, 3),
        "flips": st.integers(1, 2),
        "seed": st.integers(0, 99),
        "backend": st.sampled_from(["auto", "dense", "sparse", "packed"]),
    }
    payload = {"op": "solve"}
    for name in _SOLVE_FIELDS:
        choice = draw(st.sampled_from(["valid", "wrong", "absent"]))
        if choice != "absent":
            payload[name] = draw(valid[name] if choice == "valid" else _WRONG)
    return json.dumps(payload).encode()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

#: One request line, without its newline; never blank (a blank line gets
#: no answer by design).
_LINES = st.one_of(
    _solve_requests(),
    _JSON.map(lambda value: json.dumps(value).encode()),
    st.binary(min_size=1, max_size=40),
).map(lambda line: line.replace(b"\n", b" ")).filter(lambda line: line.strip())

_OVERSIZED = b"[" * (MAX_REQUEST_BYTES + 1)


@pytest.fixture(scope="module")
def live_server():
    with _ServerThread() as server:
        yield server


class TestProtocolFuzz:
    """Random lines on one connection: one JSON answer each, then ping."""

    @settings(max_examples=30, deadline=None)
    @given(lines=st.lists(_LINES, min_size=1, max_size=6), last_newline=st.booleans())
    @example(lines=[b"[" * 100_000, b"\xff\xfe{}"], last_newline=True)
    @example(lines=[b'{"op": "ping"}', _OVERSIZED, b'{"op": "ping"}'], last_newline=False)
    @example(
        lines=[json.dumps({"op": "solve", **fields}).encode() for fields, _ in HOSTILE],
        last_newline=True,
    )
    def test_one_answer_per_line(self, live_server, lines, last_newline):
        with pytest.MonkeyPatch.context() as patch:
            if any(b"1000000000 0" in line or b"60000 0" in line for line in lines):
                patch.setattr(MaxCutProblem, "to_ising", _refuse_build)
            replies = _exchange_to_eof(live_server.port, lines, last_newline)
        assert len(replies) == len(lines)
        for reply in replies:
            assert isinstance(reply["ok"], bool)
            if "job_id" in reply and not reply["ok"]:
                job_id = reply["job_id"]
                name = None if job_id is None else str(job_id)
                assert reply["error"].startswith(f"job {name!r}: ")
        assert request({"op": "ping"}, port=live_server.port) == {"ok": True}


def _exchange_to_eof(port: int, lines: list[bytes], last_newline: bool) -> list[dict]:
    """Send ``lines`` on one connection, half-close, and read every answer."""
    payload = b"\n".join(lines) + (b"\n" if last_newline else b"")
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        conn.sendall(payload)
        conn.shutdown(socket.SHUT_WR)
        with conn.makefile("rb") as stream:
            return [json.loads(line) for line in stream]
