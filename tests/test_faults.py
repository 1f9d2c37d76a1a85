"""Tests for repro.faults: plans, injection semantics, determinism.

The determinism contract is the heart of this layer: a fault plan is a
*seeded description* of failure, so the same plan must produce the same
injections, the same event log, and byte-identical downstream results —
in any process, at any worker count.  The tests here pin that contract
at every level: raw injector ops, the simulation pipeline, the grid
runner, and the obs trace the events land in.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.codec.encoder import Encoder
from repro.faults.inject import FaultInjector, inject_faults
from repro.faults.plan import (
    KIND_STAGES,
    STAGE_CHANNEL,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    load_fault_plan,
    parse_fault_plan,
    write_fault_plan,
)
from repro.network.packet import Packetizer
from repro.obs.export import load_trace, write_trace
from repro.obs.summary import trace_summary
from repro.obs.tracer import Tracer, use_tracer
from repro.resilience.none import NoResilience
from repro.sim.pipeline import SimulationConfig, simulate
from repro.sim.runner import JobSpec, run_grid
from repro.video.synthetic import SyntheticConfig

from tests.conftest import (
    SMALL_H,
    SMALL_W,
    runner_options,
    small_config,
    small_sequence,
)

CONFIG = small_config()


@pytest.fixture(scope="module")
def packets():
    encoder = Encoder(CONFIG, NoResilience())
    packetizer = Packetizer(CONFIG, mtu=160)
    ef = encoder.encode_frame(small_sequence(n_frames=1)[0])
    return packetizer.packetize(ef)


def plan_of(*specs, seed=7) -> FaultPlan:
    return FaultPlan(faults=tuple(specs), seed=seed)


class TestFaultSpec:
    def test_stage_autofilled_from_kind(self):
        for kind, stage in KIND_STAGES.items():
            assert FaultSpec(kind=kind).stage == stage

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike")

    def test_wrong_stage_rejected(self):
        with pytest.raises(ValueError, match="belongs to stage"):
            FaultSpec(kind="truncate", stage="runner")

    def test_validation_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="drop", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(kind="duplicate", amount=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="worker_crash", times=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="worker_hang", hang_seconds=-1)

    def test_frame_and_attempt_windows(self):
        spec = FaultSpec(kind="drop", frames=(1, 3))
        assert spec.applies_to_frame(1) and spec.applies_to_frame(3)
        assert not spec.applies_to_frame(2)
        bounded = FaultSpec(kind="worker_crash", times=2)
        assert bounded.applies_to_attempt(2)
        assert not bounded.applies_to_attempt(3)
        poison = FaultSpec(kind="worker_crash", times=None)
        assert poison.applies_to_attempt(99)


class TestPlanSerialization:
    PLAN = plan_of(
        FaultSpec(kind="truncate", probability=0.3, frames=(0, 2)),
        FaultSpec(kind="byteflip", probability=0.5, amount=4),
        FaultSpec(kind="worker_crash", times=None),
        seed=42,
    )

    def test_json_round_trip(self):
        assert FaultPlan.from_json(self.PLAN.to_json()) == self.PLAN

    def test_json_omits_defaults(self):
        record = FaultSpec(kind="drop").to_json()
        assert record == {"kind": "drop"}

    def test_file_round_trip(self, tmp_path):
        path = write_fault_plan(tmp_path / "plan.json", self.PLAN)
        assert load_fault_plan(path) == self.PLAN

    def test_parse_compact_tokens(self):
        plan = parse_fault_plan("truncate:0.3,byteflip,worker_crash", seed=9)
        assert plan.seed == 9
        assert [s.kind for s in plan.faults] == [
            "truncate", "byteflip", "worker_crash",
        ]
        assert plan.faults[0].probability == 0.3
        assert plan.faults[1].probability == 1.0

    def test_parse_inline_json(self):
        plan = parse_fault_plan(json.dumps(self.PLAN.to_json()))
        assert plan == self.PLAN

    def test_parse_file_path(self, tmp_path):
        path = write_fault_plan(tmp_path / "plan.json", self.PLAN)
        assert parse_fault_plan(str(path)) == self.PLAN

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fault_plan("")
        with pytest.raises(ValueError):
            parse_fault_plan("no_such_kind")

    def test_unknown_json_field_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_json({"kind": "drop", "zap": 1})

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert plan_of(FaultSpec(kind="drop"))


class TestInjectorSemantics:
    def test_truncate_shortens_payloads(self, packets):
        injector = FaultInjector(plan_of(FaultSpec(kind="truncate")))
        out = injector.apply_to_packets(packets, 0)
        assert len(out) == len(packets)
        assert all(
            len(o.payload) <= len(p.payload) for o, p in zip(out, packets)
        )
        assert all(e.kind == "truncate" for e in injector.events)
        assert len(injector.events) == len(packets)

    def test_byteflip_preserves_length(self, packets):
        injector = FaultInjector(plan_of(FaultSpec(kind="byteflip", amount=3)))
        out = injector.apply_to_packets(packets, 0)
        assert [len(o.payload) for o in out] == [
            len(p.payload) for p in packets
        ]
        assert any(
            o.payload != p.payload for o, p in zip(out, packets)
        )

    def test_duplicate_grows_stream(self, packets):
        injector = FaultInjector(
            plan_of(FaultSpec(kind="duplicate", amount=2))
        )
        out = injector.apply_to_packets(packets, 0)
        assert len(out) == 3 * len(packets)

    def test_drop_removes_packets(self, packets):
        injector = FaultInjector(plan_of(FaultSpec(kind="drop")))
        assert injector.apply_to_packets(packets, 0) == []

    def test_reorder_permutes_not_mutates(self, packets):
        injector = FaultInjector(plan_of(FaultSpec(kind="reorder")))
        out = injector.apply_to_packets(packets, 0)
        assert sorted(p.sequence_number for p in out) == sorted(
            p.sequence_number for p in packets
        )

    def test_max_per_frame_caps_hits(self, packets):
        injector = FaultInjector(
            plan_of(FaultSpec(kind="truncate", max_per_frame=1))
        )
        injector.apply_to_packets(packets, 0)
        assert len(injector.events) == 1

    def test_frame_window_respected(self, packets):
        injector = FaultInjector(
            plan_of(FaultSpec(kind="drop", frames=(5,)))
        )
        assert injector.apply_to_packets(packets, 0) == list(packets)
        assert injector.apply_to_packets(packets, 5) == []

    def test_fragment_faults(self, packets):
        fragments = [p.payload for p in packets]
        injector = FaultInjector(
            plan_of(FaultSpec(kind="corrupt_fragment", amount=2))
        )
        out = injector.apply_to_fragments(fragments, 0)
        assert [len(f) for f in out] == [len(f) for f in fragments]
        assert all(e.target.startswith("fragment:") for e in injector.events)

    def test_inject_faults_helper(self, packets):
        plan = plan_of(FaultSpec(kind="truncate", probability=0.5))
        faulted, events = inject_faults(packets, plan=plan)
        assert len(faulted) == len(packets)
        assert all(isinstance(e, FaultEvent) for e in events)

    def test_injection_is_deterministic(self, packets):
        plan = plan_of(
            FaultSpec(kind="truncate", probability=0.5),
            FaultSpec(kind="byteflip", probability=0.5, amount=2),
            FaultSpec(kind="reorder", probability=0.5),
        )
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            out = injector.apply_to_packets(packets, 0)
            runs.append(([p.payload for p in out], injector.events))
        assert runs[0] == runs[1]

    def test_rng_streams_structural_not_call_ordered(self):
        plan = plan_of(FaultSpec(kind="drop", probability=0.5))
        # Frame 3's draw must not depend on whether frames 0-2 were
        # visited first.
        a = plan.rng(STAGE_CHANNEL, 0, 3).random()
        for frame in range(3):
            plan.rng(STAGE_CHANNEL, 0, frame).random()
        assert plan.rng(STAGE_CHANNEL, 0, 3).random() == a


PIPELINE_PLAN = plan_of(
    FaultSpec(kind="truncate", probability=0.4),
    FaultSpec(kind="reorder", probability=0.5),
    FaultSpec(kind="corrupt_fragment", probability=0.4, amount=3),
    seed=13,
)


class TestPipelineFaults:
    def _run(self):
        return simulate(
            small_sequence(n_frames=4),
            NoResilience(),
            config=SimulationConfig(codec=CONFIG),
            faults=PIPELINE_PLAN,
        )

    def test_faults_recorded_and_contained(self):
        result = self._run()
        assert result.n_frames == 4
        assert result.fault_events
        kinds = {e.kind for e in result.fault_events}
        assert kinds <= {"truncate", "reorder", "corrupt_fragment"}
        assert result.total_damaged_fragments >= 0

    def test_pipeline_determinism(self):
        a, b = self._run(), self._run()
        assert a.frames == b.frames
        assert a.fault_events == b.fault_events

    def test_empty_plan_changes_nothing(self):
        clean = simulate(
            small_sequence(n_frames=3),
            NoResilience(),
            config=SimulationConfig(codec=CONFIG),
        )
        with_empty = simulate(
            small_sequence(n_frames=3),
            NoResilience(),
            config=SimulationConfig(codec=CONFIG),
            faults=FaultPlan(),
        )
        assert clean.frames == with_empty.frames
        assert with_empty.fault_events == ()


class TestGridDeterminism:
    CLIP = SyntheticConfig(width=SMALL_W, height=SMALL_H, n_frames=4, seed=11)

    def _jobs(self):
        return [
            JobSpec(
                scheme=scheme,
                plr=0.2,
                channel_seed=seed,
                sequence="tiny",
                synthetic=self.CLIP,
                config=SimulationConfig(codec=CONFIG),
                faults=PIPELINE_PLAN,
            )
            for scheme in ("NO", "GOP-2")
            for seed in (1, 2)
        ]

    def test_identical_results_across_worker_counts(self):
        serial = run_grid(self._jobs(), runner_options(jobs=1))
        pooled = run_grid(self._jobs(), runner_options(jobs=2))
        for s, p in zip(serial, pooled):
            assert s.ok and p.ok
            assert s.result.frames == p.result.frames
            assert s.result.fault_events == p.result.fault_events

    def test_identical_decoded_frame_hashes(self):
        # The strongest form of the contract: hash every decoded
        # frame's pixels.  FrameRecord equality could in principle hide
        # a pixel-level divergence behind equal summary metrics; a
        # digest of the concealed frames cannot.
        def digest_run():
            sha = hashlib.sha256()
            result = simulate(
                small_sequence(n_frames=4),
                NoResilience(),
                config=SimulationConfig(codec=CONFIG),
                faults=PIPELINE_PLAN,
            )
            for record in result.frames:
                sha.update(
                    json.dumps(
                        [record.psnr_decoder, record.bad_pixels],
                        sort_keys=True,
                    ).encode()
                )
            for event in result.fault_events:
                sha.update(json.dumps(event.to_json(), sort_keys=True).encode())
            return sha.hexdigest()

        assert digest_run() == digest_run()


class TestFaultEventsInTraces:
    def test_events_round_trip_through_trace_files(self, tmp_path):
        tracer = Tracer(trace_id="faulted-run")
        with use_tracer(tracer):
            simulate(
                small_sequence(n_frames=3),
                NoResilience(),
                config=SimulationConfig(codec=CONFIG),
                faults=PIPELINE_PLAN,
            )
        assert tracer.events
        path = write_trace(tmp_path / "trace.jsonl", tracer)
        loaded = load_trace(path)
        assert len(loaded.events) == len(tracer.events)
        first = loaded.events[0]
        assert first.name == "fault"
        assert first.fields["kind"] in KIND_STAGES
        summary = trace_summary(loaded)
        assert "events:" in summary and "fault:" in summary
