"""Tests for the parallel experiment runner and its result cache."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.codec.rate import RateControlConfig
from repro.codec.types import CodecConfig
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.export import load_trace
from repro.scenarios.pack import load_pack
from repro.service.wire import session_result_digest
from repro.sim.pipeline import SimulationConfig
from repro.sim.runner import (
    JobFailure,
    JobResult,
    JobSpec,
    MIN_PART_CELLS,
    RETRY_BACKOFF_FACTOR,
    RETRY_BACKOFF_S,
    RETRY_JITTER,
    ResultCache,
    RunnerOptions,
    build_grid,
    encode_content_hash,
    grid_manifest,
    load_manifest,
    retry_delay,
    run_grid,
    run_job,
    sequence_digest,
    stable_hash,
    _cut,
)
from repro.video.synthetic import SyntheticConfig

from tests.conftest import (
    SMALL_H,
    SMALL_W,
    runner_options,
    small_config,
    small_sequence,
)

#: A tiny declarative clip every job in this file shares (5 frames of
#: 64x48 keeps a full grid under a second per cell).
TINY_CLIP = SyntheticConfig(
    width=SMALL_W,
    height=SMALL_H,
    n_frames=5,
    texture_scale=30.0,
    object_radius=10,
    object_motion_amplitude=10.0,
    object_motion_period=8,
    seed=11,
)


def tiny_job(**overrides) -> JobSpec:
    defaults = dict(
        scheme="NO",
        plr=0.3,
        channel_seed=1,
        sequence="tiny",
        synthetic=TINY_CLIP,
        config=SimulationConfig(codec=small_config()),
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestStableHash:
    def test_deterministic(self):
        payload = {"a": 1, "b": [1.5, "x"], "c": None}
        assert stable_hash(payload) == stable_hash(payload)

    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_dataclasses_tagged_by_class(self):
        # Two different config classes must never collide, even if their
        # field names/values happened to line up.
        assert stable_hash(CodecConfig()) != stable_hash(SimulationConfig())

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash({"oops": object()})


#: Result-cache and stream-cache keys of representative specs, as the
#: on-disk caches have them.  A change here orphans every cached entry
#: of that kind, so it must come with a schema-version bump.
PINNED_KEYS = {
    "plain": (
        "0e84f6da7e3b6aed06681da4b143c7b1939d4c8c67ef59e701363ddb990ff61e",
        "f1eea5dbe5ec3696ebbdde25bd4aa8a565a716d70d9fccd9bd940f664e524116",
    ),
    "pbpair_kwargs": (
        "48ea9e0142a238a03de902394006b7ef4ee431fee8bbde2c5e0bb566339f8f4b",
        "56dc873eb5146b56648d1c9ad375132b20828dbf4f590fc3e4ed5edd6e01eb70",
    ),
    "scenario": (
        "c08a0ef0a8d971ef3d2da782c8815dee7a816d8a15496f6e86fdfc9fc4178c99",
        "88bc401e26276ad145274a03da893fb8f442771c2c83ba0d541ee512361f4906",
    ),
    "faults": (
        "cfddd93181a0c064fdeb5f7039cd2406a8986b7f8d8247df06b8306cdd5ebca2",
        "2552c955fbccabfb55626adacf613ddc53b8fc4b4cd9c3377c64e39d0da632f2",
    ),
    "synthetic": (
        "5957e6a45cb1b6137222400e24918b15a879bad51da49e1b7ad5b1191d0b4995",
        "8891ab2df0eedbd1ab41e46461c2e0838eb7798c5f14fbb8e2bd76cc2ffb767b",
    ),
    "rate": (
        "c27f4550fdc5c7cb4aba3409671bfebf0e8031d762ae516b2590a1beae84fdb5",
        "cab70773236defaac1d211205523a991034763947c770865fe28581f75590115",
    ),
}


def pinned_specs() -> dict[str, JobSpec]:
    return {
        "plain": JobSpec(scheme="NO", n_frames=4),
        "pbpair_kwargs": JobSpec(
            scheme="PBPAIR",
            plr=0.2,
            channel_seed=3,
            n_frames=4,
            pbpair_kwargs={"intra_th": 0.9, "max_refresh_per_frame": 5},
        ),
        "scenario": JobSpec(
            scheme="GOP-3",
            sequence="akiyo",
            n_frames=4,
            channel_seed=1,
            scenario=load_pack("bursty-wifi"),
        ),
        "faults": JobSpec(
            scheme="AIR-24",
            n_frames=4,
            faults=FaultPlan(
                faults=(
                    FaultSpec(kind="byteflip", probability=0.5, amount=2),
                    FaultSpec(
                        kind="encode_byteflip", probability=1.0, frames=(2,)
                    ),
                ),
                seed=5,
            ),
        ),
        "synthetic": JobSpec(
            scheme="PGOP-3",
            sequence="tiny",
            synthetic=dataclasses.replace(TINY_CLIP, n_frames=6),
            config=SimulationConfig(codec=small_config(), mtu=96),
        ),
        "rate": JobSpec(
            scheme="NO",
            sequence="akiyo",
            n_frames=4,
            rate=RateControlConfig(target_kbps=60.0),
        ),
    }


class TestPinnedCacheKeys:
    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_cache_keys_do_not_move(self, name):
        spec = pinned_specs()[name]
        assert (spec.content_hash(), encode_content_hash(spec)) == PINNED_KEYS[
            name
        ]


class TestJobSpec:
    def test_content_hash_stable_across_instances(self):
        assert tiny_job().content_hash() == tiny_job().content_hash()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(scheme="GOP-2"),
            dict(plr=0.31),
            dict(channel_seed=2),
            dict(granularity="packet"),
            dict(config=SimulationConfig(codec=small_config(quantizer=8))),
            dict(scheme="PBPAIR", pbpair_kwargs={"intra_th": 0.8}),
        ],
    )
    def test_any_parameter_changes_the_hash(self, overrides):
        assert tiny_job(**overrides).content_hash() != tiny_job().content_hash()

    def test_pbpair_kwargs_order_irrelevant(self):
        a = tiny_job(
            scheme="PBPAIR", pbpair_kwargs={"intra_th": 0.8, "plr": 0.2}
        )
        b = tiny_job(
            scheme="PBPAIR", pbpair_kwargs={"plr": 0.2, "intra_th": 0.8}
        )
        assert a.content_hash() == b.content_hash()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(scheme="NOPE"),
            dict(scheme="PBPAIR", pbpair_kwargs={"no_such_knob": 1}),
            dict(granularity="bit"),
        ],
        ids=["unknown-scheme", "unknown-pbpair-kwarg", "bad-granularity"],
    )
    def test_specs_that_cannot_run_are_refused(self, overrides):
        with pytest.raises((ValueError, TypeError)):
            tiny_job(**overrides)

    def test_picklable(self):
        spec = tiny_job(scheme="PBPAIR", pbpair_kwargs={"intra_th": 0.9})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_job(plr=1.5)
        with pytest.raises(ValueError):
            tiny_job(synthetic=None, sequence="no-such-clip")
        with pytest.raises(ValueError):
            JobSpec(scheme="NO", sequence="foreman", n_frames=0)

    def test_build_grid_order_and_size(self):
        jobs = build_grid(
            schemes=("NO", "GOP-3"),
            plrs=(0.1, 0.2),
            channel_seeds=(1, 2, 3),
            sequences=("foreman",),
            n_frames=4,
        )
        assert len(jobs) == 2 * 2 * 3
        assert jobs[0].scheme == "NO" and jobs[0].plr == 0.1
        assert [j.channel_seed for j in jobs[:3]] == [1, 2, 3]
        assert jobs[-1].scheme == "GOP-3" and jobs[-1].plr == 0.2


    def test_pbpair_kwargs_only_reach_pbpair(self):
        bare = tiny_job(scheme="NO")
        knobbed = tiny_job(scheme="NO", pbpair_kwargs={"intra_th": 0.8})
        assert knobbed.pbpair_kwargs == {}
        assert knobbed.content_hash() == bare.content_hash()
        pbpair = tiny_job(scheme="PBPAIR", pbpair_kwargs={"intra_th": 0.8})
        assert pbpair.pbpair_kwargs == {"intra_th": 0.8}

    def test_grids_differing_in_pbpair_kwargs_share_other_cells(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)

        def grid(intra_th):
            return build_grid(
                schemes=("NO", "GOP-3", "PBPAIR"),
                plrs=(0.1,),
                channel_seeds=(0,),
                sequences=("akiyo",),
                n_frames=2,
                pbpair_kwargs={"intra_th": intra_th},
            )

        run_grid(grid(0.5), runner_options(), cache=cache)
        second = run_grid(grid(0.9), runner_options(), cache=cache)
        assert [o.from_cache for o in second] == [True, True, False]


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"value": 42})
        assert cache.get("k1") == {"value": 42}
        assert "k1" in cache
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("bad").write_bytes(b"not a pickle")
        assert cache.get("bad") is None
        assert not cache.path_for("bad").exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_failed_put_leaves_no_temp_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(Exception):
            cache.put("bad", lambda: None)  # lambdas do not pickle
        assert list(tmp_path.iterdir()) == []
        assert "bad" not in cache

    def test_clear_removes_stray_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", 1)
        (tmp_path / "orphan.tmp.12345").write_bytes(b"half a pickle")
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []


class TestRunGrid:
    GRID = [
        tiny_job(scheme="NO"),
        tiny_job(scheme="GOP-2"),
        tiny_job(scheme="PBPAIR", pbpair_kwargs={"intra_th": 0.8}),
        tiny_job(scheme="NO", channel_seed=2),
    ]

    def test_serial_results_labelled_and_ordered(self):
        outcomes = run_grid(self.GRID, runner_options(jobs=1))
        assert all(isinstance(o, JobResult) for o in outcomes)
        assert [o.result.strategy_name for o in outcomes] == [
            "NO",
            "GOP-2",
            "PBPAIR",
            "NO",
        ]

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_grid(self.GRID, runner_options(jobs=1))
        parallel = run_grid(self.GRID, runner_options(jobs=2))
        for s, p in zip(serial, parallel):
            assert s.result.frames == p.result.frames
            assert s.result.counters == p.result.counters
            assert s.result.energy == p.result.energy
            assert s.result.size_stats == p.result.size_stats
            assert s.result.channel_log.lost_packets == (
                p.result.channel_log.lost_packets
            )

    def test_cache_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_grid(self.GRID[:2], runner_options(jobs=1), cache=cache)
        assert [o.from_cache for o in first] == [False, False]
        assert cache.misses == 2

        second = run_grid(self.GRID[:2], runner_options(jobs=1), cache=cache)
        assert [o.from_cache for o in second] == [True, True]
        assert cache.hits == 2
        for a, b in zip(first, second):
            assert a.result.frames == b.result.frames

    def test_each_spec_is_hashed_once_per_grid(self, tmp_path, monkeypatch):
        hashed = []
        content_hash = JobSpec.content_hash

        def counting(spec):
            hashed.append(spec)
            return content_hash(spec)

        monkeypatch.setattr(JobSpec, "content_hash", counting)
        cache = ResultCache(tmp_path)
        run_grid(self.GRID, runner_options(jobs=1), cache=cache)
        assert len(hashed) == len(self.GRID)

    def test_cache_only_covers_matching_specs(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid([self.GRID[0]], runner_options(jobs=1), cache=cache)
        changed = tiny_job(scheme="NO", plr=0.31)
        outcomes = run_grid(
            [self.GRID[0], changed], runner_options(jobs=1), cache=cache
        )
        assert outcomes[0].from_cache is True
        assert outcomes[1].from_cache is False

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_captured_not_raised(self, jobs):
        # Codec dimensions mismatch the 64x48 clip: simulate raises.
        bad = tiny_job(config=SimulationConfig(codec=CodecConfig()))
        outcomes = run_grid(
            [bad, self.GRID[0]], runner_options(jobs=jobs)
        )
        failure, success = outcomes
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "ValueError"
        assert "does not match" in failure.message
        assert not failure.ok
        assert isinstance(success, JobResult) and success.ok

    def test_failures_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = tiny_job(config=SimulationConfig(codec=CodecConfig()))
        run_grid([bad], runner_options(jobs=1), cache=cache)
        assert len(cache) == 0
        again = run_grid([bad], runner_options(jobs=1), cache=cache)
        assert isinstance(again[0], JobFailure)

    def test_max_workers_validation(self):
        with pytest.raises(ValueError):
            run_grid(self.GRID[:1], runner_options(jobs=-1))

    @pytest.mark.parametrize(
        "knobs",
        [{}, {"retries": 1}, {"job_timeout": 120.0}],
        ids=["clean", "retries", "timeout"],
    )
    def test_pooled_loop_matches_serial_digests(self, knobs):
        # Covers both units of the pooled loop: whole encode groups on a
        # clean run, one cell per chunk under retries or a timeout.
        serial = run_grid(self.GRID, runner_options(jobs=1, **knobs))
        pooled = run_grid(self.GRID, runner_options(jobs=2, **knobs))
        assert all(o.ok for o in serial + pooled)
        assert [session_result_digest(o.result) for o in pooled] == [
            session_result_digest(o.result) for o in serial
        ]

    def test_a_pool_with_fewer_groups_than_workers_cuts_them(self):
        # One group of eight cells on two workers runs as two parts of
        # four; a group too short for two parts stays whole.
        grid = [tiny_job(channel_seed=seed) for seed in range(1, 9)]
        serial = run_grid(grid, runner_options(jobs=1))
        pooled = run_grid(grid, runner_options(jobs=2))
        assert [session_result_digest(o.result) for o in pooled] == [
            session_result_digest(o.result) for o in serial
        ]
        assert _cut(list(range(8)), 2) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert _cut(list(range(9)), 4) == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]
        assert _cut(list(range(MIN_PART_CELLS + 3)), 2) == [
            list(range(MIN_PART_CELLS + 3))
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_group_is_encoded_once_at_any_worker_count(self, tmp_path, jobs):
        # Two schemes x three seeds at PLR 0: two groups of three cells.
        # Each group runs as one unit, so it is encoded once and its
        # later cells replay the first cell's lossless frames.
        grid = [
            tiny_job(scheme=scheme, plr=0.0, channel_seed=seed)
            for scheme in ("NO", "GOP-2")
            for seed in (1, 2, 3)
        ]
        outcomes = run_grid(grid, runner_options(jobs=jobs, trace_dir=tmp_path))
        assert all(outcome.ok for outcome in outcomes)
        trace = load_trace(tmp_path / "trace.jsonl")
        reused = [e for e in trace.events if e.name == "encode_reused"]
        counters = trace.metrics.snapshot()["counters"]
        assert len(grid) - len(reused) == 2
        assert counters["decoder.frames_replayed"] == 2 * 2 * TINY_CLIP.n_frames


def runner_plan(kind="worker_crash", times=1, seed=3, **knobs) -> FaultPlan:
    return FaultPlan(
        faults=(FaultSpec(kind=kind, times=times, **knobs),), seed=seed
    )


class TestRetryAndQuarantine:
    JOBS = [tiny_job(), tiny_job(channel_seed=2)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crash_retried_then_recovers(self, jobs):
        outcomes = run_grid(
            self.JOBS,
            runner_options(
                jobs=jobs, faults=runner_plan("worker_crash"), retries=1
            ),
        )
        for outcome in outcomes:
            assert isinstance(outcome, JobResult)
            assert outcome.attempts == 2
            assert "worker_crash@1" in outcome.injected_faults

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poison_job_quarantined(self, jobs):
        # times=None: the crash fires on *every* attempt, so the retry
        # budget runs out and the job must land in quarantine.
        outcomes = run_grid(
            self.JOBS,
            runner_options(
                jobs=jobs,
                faults=runner_plan("worker_crash", times=None),
                retries=1,
            ),
        )
        for outcome in outcomes:
            assert isinstance(outcome, JobFailure)
            assert outcome.quarantined
            assert outcome.attempts == 2
            assert outcome.error_type == "InjectedWorkerCrash"

    def test_in_process_retry_reuses_its_groups_parses(self, tmp_path):
        # Every cell crashes on attempt 1 and retries at once, inside its
        # group's scope: the group parses and replays exactly what a
        # clean run of the same grid does.
        grid = [tiny_job(channel_seed=seed) for seed in (1, 2, 3)]
        counters = []
        for name, knobs in (
            ("clean", {}),
            ("faulted", {"faults": runner_plan("worker_crash"), "retries": 1}),
        ):
            outcomes = run_grid(
                grid, runner_options(jobs=1, trace_dir=tmp_path / name, **knobs)
            )
            assert all(outcome.ok for outcome in outcomes)
            trace = load_trace(tmp_path / name / "trace.jsonl")
            counters.append(trace.metrics.snapshot()["counters"])
        clean, faulted = counters
        assert clean.get("decoder.fragments_reused", 0) > 0
        for counter in (
            "decoder.fragments_parsed",
            "decoder.fragments_reused",
            "decoder.frames_replayed",
        ):
            assert faulted.get(counter, 0) == clean.get(counter, 0)

    def test_no_retry_policy_keeps_single_attempt_semantics(self):
        outcomes = run_grid(
            self.JOBS[:1],
            runner_options(jobs=1, faults=runner_plan("worker_crash")),
        )
        assert isinstance(outcomes[0], JobFailure)
        assert outcomes[0].attempts == 1
        assert not outcomes[0].quarantined

    def test_hard_exit_rebuilds_pool_and_recovers(self):
        # worker_exit kills the worker process outright; the parent must
        # rebuild the broken pool and still finish every cell.
        outcomes = run_grid(
            self.JOBS,
            runner_options(jobs=2, faults=runner_plan("worker_exit"), retries=1),
        )
        for outcome in outcomes:
            assert isinstance(outcome, JobResult)
            assert outcome.attempts == 2
            assert "worker_exit@1" in outcome.injected_faults

    def test_hang_times_out_then_retry_recovers(self):
        # Job 0 hangs past the per-job timeout on its first attempt; the
        # retry runs on a worker freed by the clean job 1.
        hung = dataclasses.replace(
            self.JOBS[0],
            faults=runner_plan("worker_hang", hang_seconds=3.0),
        )
        outcomes = run_grid(
            [hung, self.JOBS[1]],
            runner_options(jobs=2, job_timeout=1.0, retries=1),
        )
        assert isinstance(outcomes[0], JobResult)
        assert outcomes[0].attempts == 2
        assert "worker_hang@1" in outcomes[0].injected_faults
        assert isinstance(outcomes[1], JobResult)

    def test_retry_delays_deterministic_and_bounded(self):
        for attempt in (1, 2, 3):
            base = RETRY_BACKOFF_S * RETRY_BACKOFF_FACTOR ** (attempt - 1)
            delay = retry_delay(attempt, key="job")
            assert delay == retry_delay(attempt, key="job")
            assert base <= delay <= base * (1.0 + RETRY_JITTER)
        assert retry_delay(1, key="a") != retry_delay(1, key="b")

    def test_retry_policy_validation(self):
        # ``retries`` is the one retry knob: extra attempts, never < 0.
        with pytest.raises(ValueError):
            RunnerOptions(retries=-1)
        assert RETRY_BACKOFF_S >= 0
        assert RETRY_BACKOFF_FACTOR >= 1
        assert RETRY_JITTER >= 0


class TestFaultedCaching:
    def test_failures_never_cached_under_fault_plans(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid(
            [tiny_job()],
            runner_options(
                jobs=1,
                faults=runner_plan("worker_crash", times=None),
                retries=1,
            ),
            cache=cache,
        )
        assert len(cache) == 0

    def test_poison_cache_recomputes_and_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = runner_plan("poison_cache")
        first = run_grid(
            [tiny_job()], runner_options(jobs=1, faults=plan), cache=cache
        )
        assert not first[0].from_cache
        assert len(cache) == 1
        # Second run: the plan rots the entry on disk before the cache
        # scan; the corrupt entry must read as a miss and recompute.
        second = run_grid(
            [tiny_job()], runner_options(jobs=1, faults=plan), cache=cache
        )
        assert isinstance(second[0], JobResult)
        assert not second[0].from_cache
        assert "poison_cache" in second[0].injected_faults
        assert second[0].result.frames == first[0].result.frames
        assert len(cache) == 1  # the recomputed result was re-stored

    def test_spec_level_plan_wins_over_run_level(self):
        spec = dataclasses.replace(tiny_job(), faults=FaultPlan())
        outcomes = run_grid(
            [spec],
            runner_options(jobs=1, faults=runner_plan("worker_crash", times=None)),
        )
        # The spec's own (empty) plan shields it from the run-level one.
        assert isinstance(outcomes[0], JobResult)


class TestGridManifest:
    def test_manifest_covers_every_job(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        good = tiny_job()
        bad = tiny_job(config=SimulationConfig(codec=CodecConfig()))
        run_grid([good], runner_options(jobs=1), cache=cache)  # warm one entry
        manifest_file = tmp_path / "manifest.json"
        outcomes = run_grid(
            [good, bad],
            runner_options(jobs=1, manifest_path=manifest_file),
            cache=cache,
        )
        manifest = load_manifest(manifest_file)
        assert manifest.n_jobs == 2
        assert not manifest.complete
        statuses = [entry.status for entry in manifest.entries]
        assert statuses == ["cached", "failed"]
        degraded = manifest.degraded
        assert len(degraded) == 1
        assert degraded[0].error_type == "ValueError"
        assert degraded[0].content_hash == bad.content_hash()
        assert manifest == grid_manifest(outcomes)

    def test_manifest_quarantine_and_faults_recorded(self, tmp_path):
        manifest_file = tmp_path / "manifest.json"
        run_grid(
            [tiny_job()],
            runner_options(
                jobs=1,
                faults=runner_plan("worker_crash", times=None),
                retries=1,
                manifest_path=manifest_file,
            ),
        )
        entry = load_manifest(manifest_file).entries[0]
        assert entry.status == "failed"
        assert entry.quarantined
        assert entry.attempts == 2
        assert "worker_crash@1" in entry.injected_faults
        assert "worker_crash@2" in entry.injected_faults

    def test_complete_manifest_written_on_success(self, tmp_path):
        manifest_file = tmp_path / "manifest.json"
        run_grid(
            [tiny_job()], runner_options(jobs=1, manifest_path=manifest_file)
        )
        manifest = load_manifest(manifest_file)
        assert manifest.complete
        assert manifest.entries[0].status == "ok"
        assert manifest.entries[0].attempts == 1

    def test_manifest_schema_rejected_on_mismatch(self, tmp_path):
        import json

        manifest_file = tmp_path / "manifest.json"
        run_grid(
            [tiny_job()], runner_options(jobs=1, manifest_path=manifest_file)
        )
        record = json.loads(manifest_file.read_text())
        record["schema_version"] = 99
        manifest_file.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="manifest schema"):
            load_manifest(manifest_file)


class TestRunJob:
    def test_pbpair_inherits_spec_plr(self):
        spec = tiny_job(scheme="PBPAIR", pbpair_kwargs={"intra_th": 0.8})
        result = run_job(spec)
        assert result.strategy_name == "PBPAIR"

    def test_registry_sequence_by_name(self):
        spec = JobSpec(scheme="NO", sequence="akiyo", n_frames=2, plr=0.0)
        result = run_job(spec)
        assert result.sequence_name == "akiyo"
        assert result.n_frames == 2


class TestSequenceDigest:
    def test_content_sensitive(self):
        a = small_sequence(n_frames=3, seed=1)
        b = small_sequence(n_frames=3, seed=2)
        assert sequence_digest(a) != sequence_digest(b)
        assert sequence_digest(a) == sequence_digest(
            small_sequence(n_frames=3, seed=1)
        )
