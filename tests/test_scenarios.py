"""Scenario packs: schema, shipped data files, channel, fleet sweep.

Covers the declarative layer (:mod:`repro.scenarios.pack` round-trips
and validation, explicit and property-based), the interpretation layer
(:class:`ScenarioChannel` segment routing, seeding, reset), the full
pack × scheme matrix on smoke clips, and the fleet report's
determinism pin (serial == pooled digests) and recovery metrics.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.network.channel import Channel
from repro.network.loss import ScriptedLoss
from repro.network.packet import Packet
from repro.scenarios.channel import ScenarioChannel, segment_seed
from repro.scenarios.fleet import FLEET_SCHEMES, fleet_jobs, recovery_summary, run_fleet
from repro.scenarios.pack import (
    SCENARIO_SCHEMA_VERSION,
    LossSpec,
    ResilienceSpec,
    ScenarioFormatError,
    ScenarioPack,
    ScenarioSegment,
    available_packs,
    load_pack,
    parse_scenario,
    write_pack,
)
from repro.sim.pipeline import SimulationConfig, simulate
from repro.sim.runner import JobSpec, RunnerOptions, run_grid, run_job
from repro.resilience.registry import build_strategy
from repro.video.synthetic import SyntheticConfig, foreman_like

from tests.conftest import SMALL_H, SMALL_W, small_config, small_sequence

#: Shared tiny clip: every scenario job in this file runs 64x48 frames.
TINY_CLIP = SyntheticConfig(
    width=SMALL_W,
    height=SMALL_H,
    n_frames=6,
    texture_scale=30.0,
    object_radius=10,
    object_motion_amplitude=10.0,
    object_motion_period=8,
    seed=11,
)


def tiny_job(scheme: str, pack: ScenarioPack, seed: int = 3) -> JobSpec:
    return JobSpec(
        scheme=scheme,
        plr=round(pack.nominal_loss_rate(), 4),
        channel_seed=seed,
        sequence="tiny",
        synthetic=TINY_CLIP,
        config=SimulationConfig(codec=small_config()),
        scenario=pack,
    )


def make_packet(frame_index: int, seq: int = 0, size: int = 40) -> Packet:
    return Packet(
        sequence_number=seq,
        frame_index=frame_index,
        fragment_index=0,
        fragments_in_frame=1,
        payload=bytes(size),
    )


# ---------------------------------------------------------------------------
# Pack schema: explicit round-trips and validation
# ---------------------------------------------------------------------------


class TestPackSchema:
    def test_round_trip_multi_segment(self):
        pack = ScenarioPack(
            name="rt",
            description="round trip",
            segments=(
                ScenarioSegment(
                    frames=10,
                    loss=LossSpec(kind="uniform", plr=0.2),
                    bandwidth_kbps=200.0,
                    label="a",
                ),
                ScenarioSegment(
                    frames=0,
                    loss=LossSpec(
                        kind="markov_burst",
                        p_enter=0.1,
                        escape=(0.5, 0.25),
                    ),
                    resilience=ResilienceSpec(fec_window=4, retx_limit=1),
                ),
            ),
        )
        record = pack.to_json()
        assert record["schema_version"] == SCENARIO_SCHEMA_VERSION
        assert ScenarioPack.from_json(record) == pack
        # JSON-serializable end to end (what write_pack persists).
        assert ScenarioPack.from_json(json.loads(json.dumps(record))) == pack

    def test_to_json_skips_defaults(self):
        record = ScenarioPack(
            name="d", segments=(ScenarioSegment(),)
        ).to_json()
        segment = record["segments"][0]
        assert set(segment) == {"frames", "loss"}
        assert segment["loss"] == {"kind": "uniform"}

    def test_rejects_unknown_schema_version(self):
        record = ScenarioPack(
            name="v", segments=(ScenarioSegment(),)
        ).to_json()
        record["schema_version"] = SCENARIO_SCHEMA_VERSION + 1
        with pytest.raises(ScenarioFormatError, match="schema"):
            ScenarioPack.from_json(record)

    def test_rejects_unknown_fields_at_every_level(self):
        base = ScenarioPack(
            name="u", segments=(ScenarioSegment(),)
        ).to_json()
        for mutate in (
            lambda r: r.update(surprise=1),
            lambda r: r["segments"][0].update(surprise=1),
            lambda r: r["segments"][0]["loss"].update(surprise=1),
        ):
            record = json.loads(json.dumps(base))
            mutate(record)
            with pytest.raises(ScenarioFormatError, match="unknown"):
                ScenarioPack.from_json(record)

    def test_open_ended_segment_only_final(self):
        with pytest.raises(ScenarioFormatError, match="final segment"):
            ScenarioPack(
                name="bad",
                segments=(
                    ScenarioSegment(frames=0),
                    ScenarioSegment(frames=5),
                ),
            )

    def test_needs_at_least_one_segment(self):
        with pytest.raises(ScenarioFormatError, match="at least one"):
            ScenarioPack(name="empty", segments=())

    def test_loss_spec_validation(self):
        with pytest.raises(ScenarioFormatError, match="unknown loss kind"):
            LossSpec(kind="rayleigh")
        with pytest.raises(ScenarioFormatError, match="plr"):
            LossSpec(plr=1.5)
        with pytest.raises(ScenarioFormatError, match="escape"):
            LossSpec(kind="markov_burst", escape=(0.0,))
        with pytest.raises(ScenarioFormatError, match="pattern"):
            LossSpec(kind="trace", pattern="..o")
        with pytest.raises(ScenarioFormatError, match="plr_series"):
            LossSpec(kind="plr_series", plr_series=())

    def test_resilience_spec_validation(self):
        with pytest.raises(ScenarioFormatError, match="fec_window"):
            ResilienceSpec(fec_window=1)
        with pytest.raises(ScenarioFormatError, match="omit the spec"):
            ResilienceSpec()
        assert ResilienceSpec(retx_limit=2).to_json() == {"retx_limit": 2}

    def test_parse_scenario_three_forms(self, tmp_path):
        by_name = parse_scenario("steady-uniform")
        assert by_name.name == "steady-uniform"
        path = write_pack(by_name, tmp_path / "copy.json")
        assert parse_scenario(str(path)) == by_name
        inline = json.dumps(by_name.to_json())
        assert parse_scenario(inline) == by_name
        with pytest.raises(ScenarioFormatError, match="no scenario pack"):
            parse_scenario("not-a-pack")
        with pytest.raises(ScenarioFormatError, match="not valid JSON"):
            parse_scenario("{broken")

    def test_nominal_loss_rate_closed_forms(self):
        assert LossSpec(kind="none").nominal_loss_rate() == 0.0
        assert LossSpec(kind="uniform", plr=0.25).nominal_loss_rate() == 0.25
        trace = LossSpec(kind="trace", pattern=".x.x")
        assert trace.nominal_loss_rate() == 0.5
        series = LossSpec(kind="plr_series", plr_series=(0.0, 0.5, 1.0))
        assert series.nominal_loss_rate() == 0.5
        ge = LossSpec(
            kind="gilbert_elliott", p_good_to_bad=0.1, p_bad_to_good=0.4
        )
        assert ge.nominal_loss_rate() == pytest.approx(0.2)

    def test_pack_nominal_rate_is_frame_weighted(self):
        pack = ScenarioPack(
            name="w",
            segments=(
                ScenarioSegment(
                    frames=30, loss=LossSpec(kind="uniform", plr=0.0)
                ),
                # Open-ended tail is weighted as one second (fps frames).
                ScenarioSegment(
                    frames=0, loss=LossSpec(kind="uniform", plr=0.3)
                ),
            ),
        )
        assert pack.nominal_loss_rate() == pytest.approx(0.15)


# ---------------------------------------------------------------------------
# Property-based round-trips
# ---------------------------------------------------------------------------

probabilities = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
escape_probs = st.floats(
    min_value=0.01, max_value=1.0, allow_nan=False, allow_infinity=False
)

loss_specs = st.one_of(
    st.builds(LossSpec, kind=st.just("none")),
    st.builds(
        LossSpec,
        kind=st.just("uniform"),
        plr=probabilities,
        granularity=st.sampled_from(["frame", "packet"]),
    ),
    st.builds(
        LossSpec,
        kind=st.just("gilbert_elliott"),
        p_good_to_bad=probabilities,
        p_bad_to_good=probabilities,
        good_loss=probabilities,
        bad_loss=probabilities,
    ),
    st.builds(
        LossSpec,
        kind=st.just("markov_burst"),
        p_enter=probabilities,
        escape=st.lists(escape_probs, min_size=1, max_size=4).map(tuple),
    ),
    st.builds(
        LossSpec,
        kind=st.just("trace"),
        pattern=st.text(alphabet=".x", min_size=1, max_size=40),
    ),
    st.builds(
        LossSpec,
        kind=st.just("plr_series"),
        plr_series=st.lists(
            probabilities, min_size=1, max_size=20
        ).map(tuple),
    ),
)

resilience_specs = st.one_of(
    st.none(),
    # Filter the raw knobs before constructing: ResilienceSpec rejects
    # the all-off combination in __post_init__.
    st.tuples(
        st.sampled_from([0, 2, 3, 4, 8]),
        st.integers(min_value=0, max_value=3),
    )
    .filter(lambda knobs: knobs[0] or knobs[1])
    .map(
        lambda knobs: ResilienceSpec(
            fec_window=knobs[0], retx_limit=knobs[1]
        )
    ),
)

closed_segments = st.builds(
    ScenarioSegment,
    frames=st.integers(min_value=1, max_value=300),
    loss=loss_specs,
    bandwidth_kbps=st.floats(
        min_value=0.0, max_value=5000.0, allow_nan=False
    ),
    playout_delay_s=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    resilience=resilience_specs,
    label=st.text(max_size=12),
)
open_segments = st.builds(
    ScenarioSegment, frames=st.just(0), loss=loss_specs
)

scenario_packs = st.builds(
    lambda name, body, tail, fps, description: ScenarioPack(
        name=name,
        segments=tuple(body) + ((tail,) if tail is not None else ()),
        fps=fps,
        description=description,
    ),
    name=st.text(min_size=1, max_size=20),
    body=st.lists(closed_segments, max_size=3),
    tail=st.one_of(open_segments, closed_segments),
    fps=st.sampled_from([15.0, 24.0, 30.0]),
    description=st.text(max_size=30),
)


class TestPackProperties:
    @given(pack=scenario_packs)
    def test_json_round_trip_identity(self, pack):
        rendered = json.dumps(pack.to_json())
        assert ScenarioPack.from_json(json.loads(rendered)) == pack

    @given(pack=scenario_packs)
    def test_nominal_rate_in_unit_interval(self, pack):
        assert 0.0 <= pack.nominal_loss_rate() <= 1.0

    @given(pack=scenario_packs, frame=st.integers(0, 2000))
    def test_timeline_routing_total_and_monotone(self, pack, frame):
        index = pack.segment_index_for_frame(frame)
        assert 0 <= index < len(pack.segments)
        # Routing matches a straightforward prefix-sum scan.
        start = 0
        expected = len(pack.segments) - 1
        for position, segment in enumerate(pack.segments):
            if segment.frames == 0 or frame < start + segment.frames:
                expected = position
                break
            start += segment.frames
        assert index == expected
        if frame >= sum(segment.frames for segment in pack.segments):
            assert index == len(pack.segments) - 1

    @given(pack=scenario_packs, seed=st.integers(0, 2**16))
    def test_every_spec_builds_a_model(self, pack, seed):
        for segment in pack.segments:
            model = segment.loss.build(seed)
            fate = model.survives(make_packet(1, seq=1))
            assert isinstance(fate, bool)


# ---------------------------------------------------------------------------
# Shipped packs
# ---------------------------------------------------------------------------


class TestShippedPacks:
    def test_at_least_six_packs_ship(self):
        assert len(available_packs()) >= 6

    @pytest.mark.parametrize("name", available_packs())
    def test_pack_loads_and_round_trips(self, name, tmp_path):
        pack = load_pack(name)
        assert pack.name == name
        assert 0.0 <= pack.nominal_loss_rate() <= 1.0
        rewritten = write_pack(pack, tmp_path / f"{name}.json")
        assert load_pack(rewritten) == pack

    def test_matrix_covers_every_loss_kind(self):
        kinds = {
            segment.loss.kind
            for name in available_packs()
            for segment in load_pack(name).segments
        }
        assert {
            "uniform",
            "gilbert_elliott",
            "markov_burst",
            "trace",
            "plr_series",
        } <= kinds

    def test_some_pack_exercises_each_protection(self):
        fec = retx = bandwidth = multi = False
        for name in available_packs():
            pack = load_pack(name)
            multi = multi or len(pack.segments) > 1
            for segment in pack.segments:
                bandwidth = bandwidth or segment.bandwidth_kbps > 0
                if segment.resilience is not None:
                    fec = fec or segment.resilience.fec_window >= 2
                    retx = retx or segment.resilience.retx_limit >= 1
        assert fec and retx and bandwidth and multi


# ---------------------------------------------------------------------------
# ScenarioChannel semantics
# ---------------------------------------------------------------------------


def handoff_pack() -> ScenarioPack:
    return ScenarioPack(
        name="h",
        segments=(
            ScenarioSegment(frames=4, loss=LossSpec(kind="none")),
            ScenarioSegment(
                frames=0,
                loss=LossSpec(kind="trace", pattern="xxxxxxxxxx"),
            ),
        ),
    )


class TestScenarioChannel:
    def test_segment_boundary_switches_model(self):
        channel = ScenarioChannel(handoff_pack(), seed=1)
        packets = [make_packet(i, seq=i) for i in range(8)]
        delivered = channel.transmit(packets)
        # Frames 0-3 ride the lossless segment; 4-7 hit the all-loss
        # trace (whose pattern is indexed by absolute frame index).
        assert [p.frame_index for p in delivered] == [0, 1, 2, 3]
        assert channel.log.sent == 8
        assert channel.log.delivered == 4
        assert sorted(channel.log.lost_frames) == [4, 5, 6, 7]

    def test_last_segment_persists_past_timeline(self):
        pack = handoff_pack()
        assert pack.segment_index_for_frame(10_000) == 1

    def test_reset_replays_identical_fates(self):
        pack = load_pack("deep-fade")
        channel = ScenarioChannel(pack, seed=9)
        packets = [make_packet(i, seq=i) for i in range(40)]
        first = [p.sequence_number for p in channel.transmit(packets)]
        channel.reset()
        assert channel.log.sent == 0  # the log restarted too
        second = [p.sequence_number for p in channel.transmit(packets)]
        assert first == second

    def test_seed_changes_realization(self):
        pack = load_pack("bursty-wifi")
        packets = [make_packet(i, seq=i) for i in range(200)]
        fates = {
            seed: tuple(
                p.sequence_number
                for p in ScenarioChannel(pack, seed=seed).transmit(packets)
            )
            for seed in (0, 1, 2, 3)
        }
        assert len(set(fates.values())) > 1

    def test_segment_seeds_are_independent(self):
        seeds = {segment_seed(7, index) for index in range(50)}
        assert len(seeds) == 50
        assert segment_seed(7, 3) == segment_seed(7, 3)

    def test_scenario_and_loss_model_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            simulate(
                small_sequence(n_frames=2),
                build_strategy("NO"),
                loss_model=ScriptedLoss([1]),
                config=SimulationConfig(codec=small_config()),
                scenario=handoff_pack(),
            )

    def test_no_scenario_matches_plain_channel(self):
        """scenario=None stays bit-identical to the classic pipeline."""
        sequence = small_sequence(n_frames=4)
        config = SimulationConfig(codec=small_config())
        with_default = simulate(
            sequence, build_strategy("GOP-2"), config=config
        )
        explicit = simulate(
            sequence,
            build_strategy("GOP-2"),
            config=config,
            scenario=None,
        )
        assert with_default.psnr_series() == explicit.psnr_series()
        assert isinstance(with_default.channel_log, type(Channel(None).log))


# ---------------------------------------------------------------------------
# The pack × scheme matrix
# ---------------------------------------------------------------------------


class TestScenarioMatrix:
    @pytest.mark.parametrize("name", available_packs())
    @pytest.mark.parametrize("scheme", FLEET_SCHEMES)
    def test_pack_times_scheme_smoke(self, scheme, name):
        result = run_job(tiny_job(scheme, load_pack(name)))
        assert result.n_frames == TINY_CLIP.n_frames
        assert result.average_psnr_decoder > 10.0
        assert result.channel_log.sent >= TINY_CLIP.n_frames

    def test_job_digest_stable_across_processes(self):
        pack = load_pack("handoff")
        jobs = [tiny_job(scheme, pack) for scheme in ("NO", "GOP-3")]
        serial = run_grid(jobs, options=RunnerOptions(jobs=1, use_cache=False))
        pooled = run_grid(jobs, options=RunnerOptions(jobs=2, use_cache=False))
        from repro.service.wire import session_result_digest

        assert [session_result_digest(o.result) for o in serial] == [
            session_result_digest(o.result) for o in pooled
        ]

    def test_scenario_joins_cache_key(self):
        pack_a = load_pack("steady-uniform")
        pack_b = load_pack("bursty-wifi")
        base = tiny_job("GOP-3", pack_a)
        assert base.content_hash() != tiny_job("GOP-3", pack_b).content_hash()
        assert base.content_hash() == tiny_job("GOP-3", pack_a).content_hash()


# ---------------------------------------------------------------------------
# Fleet report
# ---------------------------------------------------------------------------


class TestFleet:
    def test_fleet_jobs_shape_and_assumed_plr(self):
        packs = ("steady-uniform", "bursty-wifi")
        jobs = fleet_jobs(
            ("NO", "PBPAIR"), packs, replicas=2, synthetic=TINY_CLIP
        )
        assert len(jobs) == 8  # 2 packs x 2 schemes x 2 replicas
        by_pack = {job.scenario.name for job in jobs}
        assert by_pack == set(packs)
        for job in jobs:
            assert job.plr == round(job.scenario.nominal_loss_rate(), 4)

    def test_serial_equals_pooled_digest(self):
        kwargs = dict(
            schemes=("GOP-3", "PBPAIR"),
            packs=("handoff", "retx-lossy"),
            sequence="tiny",
            n_frames=TINY_CLIP.n_frames,
            replicas=1,
            config=SimulationConfig(codec=small_config()),
            synthetic=TINY_CLIP,
        )
        serial = run_fleet(
            **kwargs, options=RunnerOptions(jobs=1, use_cache=False)
        )
        pooled = run_fleet(
            **kwargs, options=RunnerOptions(jobs=2, use_cache=False)
        )
        replay = run_fleet(
            **kwargs, options=RunnerOptions(jobs=1, use_cache=False)
        )
        assert serial.digest == pooled.digest == replay.digest
        assert len(serial.cells) == 4
        for cell in serial.cells:
            assert cell.psnr_db["p50"] is None or cell.psnr_db["p50"] > 0
            assert 0.0 <= cell.loss_rate <= 1.0
        # The report renders one table row per cell.
        assert len(serial.rows()) == 4
        report = serial.to_json()
        assert report["digest"] == serial.digest
        assert json.loads(json.dumps(report)) == report

    def test_cell_lookup(self):
        report = run_fleet(
            schemes=("NO",),
            packs=("steady-uniform",),
            sequence="tiny",
            n_frames=TINY_CLIP.n_frames,
            replicas=1,
            config=SimulationConfig(codec=small_config()),
            synthetic=TINY_CLIP,
            options=RunnerOptions(jobs=1, use_cache=False),
        )
        assert report.cell("NO", "steady-uniform").scheme == "NO"
        with pytest.raises(KeyError):
            report.cell("NO", "nope")


# ---------------------------------------------------------------------------
# Error-propagation metrics (satellite: recovery length per loss event)
# ---------------------------------------------------------------------------


class TestRecoveryMetrics:
    @pytest.fixture(scope="class")
    def scripted_run(self):
        return simulate(
            foreman_like(24),
            build_strategy("GOP-3"),
            loss_model=ScriptedLoss([8]),
        )

    def test_single_event_recovery_pinned(self, scripted_run):
        times = scripted_run.recovery_times(2.0)
        assert len(times) == 1
        summary = recovery_summary([scripted_run])
        assert summary["events"] == 1
        assert summary["mean_frames"] == pytest.approx(times[0])
        assert summary["max_frames"] == times[0]
        # Pinned: GOP-3 on FOREMAN recovers this scripted event in
        # exactly 4 frames (deterministic clip, channel and codec).
        assert times == [4]

    def test_no_events_reports_none(self):
        clean = simulate(
            small_sequence(n_frames=3),
            build_strategy("NO"),
            config=SimulationConfig(codec=small_config()),
        )
        summary = recovery_summary([clean])
        assert summary == {
            "events": 0,
            "mean_frames": None,
            "p95_frames": None,
            "max_frames": None,
        }
