"""Round-trip and versioning tests for the service wire format."""

from __future__ import annotations

import json
import math

import pytest

from repro.codec.rate import RateControlConfig
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service.wire import (
    WIRE_SCHEMA_VERSION,
    ClassSummary,
    FleetSummary,
    JobStatus,
    JobSubmit,
    ServiceManifest,
    SessionResult,
    WireFormatError,
    check_schema,
    job_spec_from_json,
    job_spec_to_json,
    load_service_manifest,
    percentile,
    session_result_digest,
)
from repro.resilience.registry import build_strategy
from repro.scenarios.pack import load_pack
from repro.sim.pipeline import SimulationConfig, simulate
from repro.sim.runner import (
    GridManifest,
    JobSpec,
    load_manifest,
    run_grid,
)
from repro.video.synthetic import SyntheticConfig, generate_sequence

from tests.conftest import SMALL_H, SMALL_W, runner_options, small_config

TINY_CLIP = SyntheticConfig(
    width=SMALL_W, height=SMALL_H, n_frames=4, seed=11
)


def tiny_spec(**overrides) -> JobSpec:
    defaults = dict(
        scheme="NO",
        plr=0.2,
        channel_seed=3,
        sequence="tiny",
        synthetic=TINY_CLIP,
        config=SimulationConfig(codec=small_config()),
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestSchemaContract:
    def test_current_version_supported(self):
        record = {"schema_version": WIRE_SCHEMA_VERSION}
        assert check_schema(record, "JobStatus") == WIRE_SCHEMA_VERSION

    def test_previous_version_rejected(self):
        with pytest.raises(WireFormatError, match="JobSubmit"):
            check_schema(
                {"schema_version": WIRE_SCHEMA_VERSION - 1}, "JobSubmit"
            )

    def test_unknown_version_rejected_with_supported_set(self):
        with pytest.raises(WireFormatError) as excinfo:
            check_schema(
                {"schema_version": WIRE_SCHEMA_VERSION + 1}, "JobStatus"
            )
        message = str(excinfo.value)
        assert "JobStatus" in message
        assert str(WIRE_SCHEMA_VERSION) in message

    def test_missing_version_rejected(self):
        with pytest.raises(WireFormatError):
            check_schema({}, "JobSubmit")

    @pytest.mark.parametrize(
        "cls",
        [JobSubmit, JobStatus, SessionResult, FleetSummary, ServiceManifest],
    )
    def test_every_wire_type_stamps_and_checks_versions(self, cls):
        record = _example(cls).to_json()
        assert record["schema_version"] == WIRE_SCHEMA_VERSION
        record["schema_version"] = 99
        with pytest.raises(WireFormatError):
            cls.from_json(record)


def _example(cls):
    if cls is JobSubmit:
        return JobSubmit(spec=tiny_spec(), priority=2, session_class="bulk")
    if cls is JobStatus:
        return JobStatus(job_id="j1", state="ok", finished_at=2.0)
    if cls is SessionResult:
        return SessionResult(
            job_id="j1",
            session_class="bulk",
            scheme="NO",
            sequence="tiny",
            n_frames=4,
            psnr_db=30.0,
            bad_pixels=0,
            encoded_bytes=100,
            energy_joules=0.5,
            intra_fraction=1.0,
            packets_lost=0,
            packets_sent=8,
            result_digest="d" * 64,
        )
    if cls is FleetSummary:
        return FleetSummary(counts={"ok": 1})
    if cls is ServiceManifest:
        return ServiceManifest(
            jobs=(JobStatus(job_id="j1", state="ok", finished_at=2.0),),
            summary=FleetSummary(counts={"ok": 1}),
        )
    raise AssertionError(cls)


class TestJobSpecRoundTrip:
    def test_plain_spec(self):
        spec = tiny_spec()
        rebuilt = job_spec_from_json(job_spec_to_json(spec))
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_spec_with_faults_and_pbpair_kwargs(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind="truncate", probability=0.3),), seed=7
        )
        spec = tiny_spec(
            scheme="PBPAIR", pbpair_kwargs={"intra_th": 0.8}, faults=plan
        )
        rebuilt = job_spec_from_json(job_spec_to_json(spec))
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_registry_sequence_without_synthetic(self):
        spec = JobSpec(scheme="NO", sequence="akiyo", n_frames=3, plr=0.0)
        rebuilt = job_spec_from_json(job_spec_to_json(spec))
        assert rebuilt == spec

    def test_wire_rendering_is_json_serializable(self):
        text = json.dumps(job_spec_to_json(tiny_spec()))
        assert job_spec_from_json(json.loads(text)) == tiny_spec()

    def test_spec_with_rate_config(self):
        spec = tiny_spec(
            rate=RateControlConfig(target_kbps=200.0, sensitivity=0.5)
        )
        record = job_spec_to_json(spec)
        assert record["rate"]["target_kbps"] == 200.0
        rebuilt = job_spec_from_json(record)
        assert rebuilt == spec
        assert rebuilt.rate == spec.rate
        assert rebuilt.content_hash() == spec.content_hash()

    def test_v1_record_without_rate_still_parses(self):
        record = job_spec_to_json(tiny_spec())
        del record["rate"]  # a schema-1 sender never wrote the key
        record["schema"] = 1
        rebuilt = job_spec_from_json(record)
        assert rebuilt.rate is None
        assert rebuilt == tiny_spec()

    def test_spec_with_scenario(self):
        pack = load_pack("bursty-wifi")
        spec = tiny_spec(scenario=pack, plr=round(pack.nominal_loss_rate(), 4))
        record = job_spec_to_json(spec)
        assert record["scenario"]["name"] == "bursty-wifi"
        text = json.dumps(record)  # the pack nests plain JSON
        rebuilt = job_spec_from_json(json.loads(text))
        assert rebuilt == spec
        assert rebuilt.scenario == pack
        assert rebuilt.content_hash() == spec.content_hash()

    def test_scenario_changes_content_hash(self):
        spec = tiny_spec()
        with_pack = tiny_spec(scenario=load_pack("steady-uniform"))
        assert spec.content_hash() != with_pack.content_hash()

    def test_v2_record_without_scenario_still_parses(self):
        record = job_spec_to_json(tiny_spec())
        del record["scenario"]  # a schema-2 sender never wrote the key
        record["schema"] = 2
        rebuilt = job_spec_from_json(record)
        assert rebuilt.scenario is None
        assert rebuilt == tiny_spec()


class TestJobSubmitAndStatus:
    def test_submit_round_trip(self):
        submit = JobSubmit(
            spec=tiny_spec(), priority=-1, session_class="interactive"
        )
        assert JobSubmit.from_json(submit.to_json()) == submit

    def test_status_round_trip_with_error(self):
        status = JobStatus(
            job_id="deadbeef",
            state="quarantined",
            priority=3,
            session_class="bulk",
            attempts=4,
            fail_count=3,
            submitted_at=10.0,
            started_at=11.0,
            finished_at=12.5,
            error="ValueError: boom",
        )
        rebuilt = JobStatus.from_json(status.to_json())
        assert rebuilt == status
        assert rebuilt.latency_s == pytest.approx(2.5)
        assert rebuilt.terminal and not rebuilt.ok

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            JobStatus(job_id="x", state="exploded")


class TestSessionResult:
    def test_from_simulation_round_trips(self):
        result = simulate(
            generate_sequence(TINY_CLIP, name="tiny"),
            build_strategy("NO"),
            loss_model=None,
            config=SimulationConfig(codec=small_config()),
        )
        session = SessionResult.from_simulation(
            "job1", "standard", result, wall_time_s=0.1, latency_s=0.2
        )
        rebuilt = SessionResult.from_json(session.to_json())
        assert rebuilt == session
        assert rebuilt.result_digest == session_result_digest(result)

    def test_digest_matches_batch_run_grid(self):
        # The bit-identity contract: the digest of a simulation only
        # depends on the delivered values, so however a spec executes
        # (serial, pooled, behind the daemon) the digest is the same.
        spec = tiny_spec()
        options = runner_options(jobs=0)
        first = run_grid([spec], options)
        second = run_grid([spec, tiny_spec()], options)
        assert (
            session_result_digest(first[0].result)
            == session_result_digest(second[0].result)
        )

    def test_digest_sensitive_to_channel(self):
        out = run_grid(
            [tiny_spec(channel_seed=1), tiny_spec(channel_seed=2)],
            runner_options(jobs=0),
        )
        assert (
            session_result_digest(out[0].result)
            != session_result_digest(out[1].result)
        )


class TestPercentiles:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_singleton(self):
        assert percentile([7.0], 99) == 7.0

    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestFleetSummary:
    def test_build_groups_by_class(self):
        statuses = [
            JobStatus(
                job_id=f"j{i}",
                state="ok",
                session_class="interactive" if i % 2 else "bulk",
                submitted_at=0.0,
                finished_at=float(i + 1),
            )
            for i in range(4)
        ]
        results = {
            s.job_id: _example(SessionResult) for s in statuses
        }
        summary = FleetSummary.build(statuses, results, queue_depth=2)
        assert summary.sessions == 4
        assert summary.counts == {"ok": 4}
        assert [c.session_class for c in summary.classes] == [
            "bulk",
            "interactive",
        ]
        for cls in summary.classes:
            assert cls.ok == 2
            assert set(cls.latency_s) == {"p50", "p95", "p99"}
            assert cls.psnr_db["p50"] == pytest.approx(30.0)

    def test_round_trip(self):
        summary = FleetSummary.build(
            [JobStatus(job_id="a", state="failed", error="x")], {}
        )
        rebuilt = FleetSummary.from_json(
            json.loads(json.dumps(summary.to_json()))
        )
        assert rebuilt.counts == {"failed": 1}
        assert rebuilt.classes[0].failed == 1
        # NaN percentiles survive as NaN, not as a fabricated number.
        assert math.isnan(rebuilt.classes[0].psnr_db["p50"])


class TestServiceManifest:
    def _manifest(self) -> ServiceManifest:
        jobs = (
            JobStatus(job_id="a", state="ok", finished_at=1.0),
            JobStatus(job_id="b", state="cached", finished_at=1.0),
            JobStatus(job_id="c", state="quarantined", error="x"),
        )
        return ServiceManifest(
            jobs=jobs, summary=FleetSummary.build(list(jobs), {})
        )

    def test_counts_account_for_every_job(self):
        manifest = self._manifest()
        assert manifest.counts == {"ok": 1, "cached": 1, "quarantined": 1}
        assert not manifest.complete  # a quarantined job is not success

    def test_complete_only_when_everything_delivered(self):
        manifest = ServiceManifest(
            jobs=(
                JobStatus(job_id="a", state="ok", finished_at=1.0),
                JobStatus(job_id="b", state="cached", finished_at=1.0),
            ),
            summary=FleetSummary(),
        )
        assert manifest.complete

    def test_write_and_load(self, tmp_path):
        path = tmp_path / "sub" / "service_manifest.json"
        manifest = self._manifest()
        manifest.write(path)
        loaded = load_service_manifest(path)
        assert loaded.counts == manifest.counts
        assert [j.job_id for j in loaded.jobs] == ["a", "b", "c"]

    def test_load_rejects_future_schema(self, tmp_path):
        path = tmp_path / "m.json"
        record = self._manifest().to_json()
        record["schema_version"] = WIRE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        with pytest.raises(WireFormatError):
            load_service_manifest(path)


class TestGridManifestVersioning:
    """The runner manifest is read at its current schema only."""

    def test_v2_writes_schema_version_only(self, tmp_path):
        path = tmp_path / "m.json"
        run_grid([tiny_spec()], runner_options(manifest_path=path))
        record = json.loads(path.read_text())
        assert "schema" not in record
        assert record["schema_version"] == 2
        assert load_manifest(path).n_jobs == 1

    def test_loader_rejects_version_1(self, tmp_path):
        path = tmp_path / "m.json"
        run_grid([tiny_spec()], runner_options(manifest_path=path))
        record = json.loads(path.read_text())
        # A v1 file: only the old "schema" key, no "schema_version".
        record["schema"] = 1
        del record["schema_version"]
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="manifest schema"):
            load_manifest(path)
