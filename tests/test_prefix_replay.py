"""Sender states: an intact frame at an in-sync decoder is served, not decoded.

A decoder is in sync when its state equals the encoder's reconstruction
of the previous frame: at the start, and again once a decoded frame
reproduces the encoder's state (a GOP I-frame, an AIR, PGOP or PBPAIR
refresh).  The decoder is a pure function of its state and the
fragments it gets, so an in-sync decoder that receives a frame exactly
as sent ends in the encoder's state for that frame.  The grid runner
gives the cells that replay one encoded stream a
:class:`~repro.sim.pipeline.GroupScope`, whose
:class:`~repro.sim.pipeline.SenderStates` the encode seeds; such a
frame is served from it.  These tests pin what that rests on:

* every cell of a grid, serial or pooled, over every shipped scenario
  pack and fault plans at the encode, channel and decoder-input stages,
  equals a cold :func:`~repro.sim.runner.run_job` (no stream cache, so
  no scope and nothing served): same digest, same encoder and decoder
  counters, same per-frame damage;
* so does every cell of one group at the pipeline level, with losses
  and resyncs, encode-stage faults, bit errors, each concealment, two
  bad-pixel thresholds, and a stream whose states the cells fill
  themselves (one loaded from a cache's disk tier);
* frames are served exactly where the rule says: the count equals the
  intact frames at an in-sync decoder, counted by an instrumented
  decode of every frame, and :func:`~repro.sim.pipeline.simulate`
  serves nothing;
* a group holds one uint8 array per plane, ``n_frames`` deep, freed
  with its scope;
* on a stream cache the caller keeps across grids, a group's scope is
  parked on its stream's entry: later grids serve the states earlier
  ones seeded, still equal to cold runs, also from concurrent threads;
  the parked memo keeps at most one parse per sent fragment, and
  evicting the entry frees the scope.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.decoder import Decoder
from repro.concealment.copy import CopyConcealment
from repro.concealment.motion import MotionRecoveryConcealment
from repro.concealment.spatial import SpatialConcealment
from repro.faults.plan import FaultPlan, FaultSpec
from repro.network.biterror import BitErrorChannel
from repro.network.loss import UniformLoss
from repro.obs.export import load_trace
from repro.obs.tracer import Tracer, use_tracer
from repro.resilience.registry import build_strategy
from repro.scenarios.pack import available_packs, load_pack
from repro.service.wire import session_result_digest
from repro.sim import runner
from repro.sim.pipeline import (
    GroupScope,
    SenderStates,
    SimulationConfig,
    encode_phase,
    simulate,
    transmit_phase,
)
from repro.sim.runner import EncodedStreamCache, JobSpec, run_grid, run_job
from repro.video.synthetic import SyntheticConfig

from tests.conftest import SMALL_H, SMALL_W, runner_options, small_config

CLIP = SyntheticConfig(
    width=SMALL_W,
    height=SMALL_H,
    n_frames=6,
    texture_scale=30.0,
    object_radius=10,
    object_motion_amplitude=10.0,
    object_motion_period=8,
    seed=11,
)
SIM = SimulationConfig(codec=small_config(), mtu=96)
SCHEMES = ("NO", "GOP-3", "AIR-24", "PGOP-3", "PBPAIR")
CONCEALMENTS = (CopyConcealment, SpatialConcealment, MotionRecoveryConcealment)

#: Fault specs at the three pipeline stages serving must see through.
FAULTS = (
    FaultSpec(kind="encode_byteflip", probability=1.0, frames=(2,)),
    FaultSpec(kind="byteflip", probability=0.3, amount=2),
    FaultSpec(kind="truncate", probability=0.2),
    FaultSpec(kind="duplicate", probability=0.3),
    FaultSpec(kind="reorder", probability=0.5),
    FaultSpec(kind="drop", probability=0.2),
    FaultSpec(kind="corrupt_fragment", probability=0.3, amount=2),
    FaultSpec(kind="truncate_fragment", probability=0.3),
)


def _spec(scheme="NO", pack=None, seed=0, faults=None, plr=0.1, config=SIM):
    return JobSpec(
        scheme=scheme,
        plr=plr,
        channel_seed=seed,
        sequence="tiny",
        synthetic=dataclasses.replace(CLIP, chroma=config.codec.chroma),
        config=config,
        scenario=load_pack(pack) if pack is not None else None,
        faults=faults,
    )


def _drop(*frames: int) -> FaultPlan:
    return FaultPlan(
        faults=(FaultSpec(kind="drop", probability=1.0, frames=frames),)
    )


def _fingerprint(result):
    return (
        session_result_digest(result),
        result.counters,
        result.decoder_counters,
        tuple(frame.damaged_fragments for frame in result.frames),
    )


@pytest.fixture
def scope_spy(monkeypatch):
    """Record the group scope :func:`run_job` gets for each executed cell."""
    seen: list = []
    original = runner.run_job

    def spy(spec, stream_cache=None, group=None):
        seen.append(group)
        return original(spec, stream_cache, group)

    monkeypatch.setattr(runner, "run_job", spy)
    return seen


def _replayed(trace_dir) -> float:
    counters = load_trace(trace_dir / "trace.jsonl").metrics.snapshot()["counters"]
    return counters.get("decoder.frames_replayed", 0)


def _served(trace_dir) -> list[int]:
    """The frames a one-cell grid's cell served, in frame order."""
    spans = [
        span
        for span in load_trace(trace_dir / "trace.jsonl").spans
        if span.name == "decode_frame"
    ]
    return [k for k, span in enumerate(spans) if span.counters.get("replayed")]


class TestServeEqualsColdRun:
    @given(
        scheme=st.sampled_from(SCHEMES),
        cells=st.lists(
            st.tuples(
                st.sampled_from(available_packs()),
                st.integers(0, 3),
                st.integers(0, 3),
            ),
            min_size=2,
            max_size=4,
            unique=True,
        ),
        faults=st.lists(st.sampled_from(FAULTS), max_size=2, unique=True),
        jobs=st.sampled_from((1, 2)),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_cell_equals_its_cold_twin(self, scheme, cells, faults, jobs):
        # Each cell draws its own fault seed.  Cells whose plans differ
        # only after the last encode-stage spec share one stream, so a
        # group's cells see different channel and decoder-input faults.
        grid = [
            _spec(
                scheme,
                pack,
                seed,
                FaultPlan(faults=tuple(faults), seed=fault_seed)
                if faults
                else None,
            )
            for pack, seed, fault_seed in cells
        ]
        outcomes = run_grid(grid, runner_options(jobs=jobs))
        assert all(outcome.ok for outcome in outcomes)
        for spec, outcome in zip(grid, outcomes):
            assert _fingerprint(outcome.result) == _fingerprint(run_job(spec))

    @given(
        scheme=st.sampled_from(SCHEMES),
        chroma=st.booleans(),
        encode_fault=st.booleans(),
        filled=st.booleans(),
        cells=st.lists(
            st.tuples(
                st.sampled_from((0.0, 0.2, 0.5)),  # plr
                st.sampled_from(("frame", "packet")),
                st.integers(0, 7),  # channel seed
                st.sampled_from((0.0, 1e-3)),  # bit error rate
                st.integers(0, len(CONCEALMENTS) - 1),
                st.sampled_from((0, 40)),  # bad-pixel threshold
            ),
            min_size=2,
            max_size=4,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_cell_of_a_group_equals_simulate(
        self, scheme, chroma, encode_fault, filled, cells
    ):
        config = dataclasses.replace(SIM, codec=small_config(chroma=chroma))
        sequence = runner._sequence_for(
            "tiny", CLIP.n_frames, dataclasses.replace(CLIP, chroma=chroma)
        )
        faults = FaultPlan(faults=(FAULTS[0],)) if encode_fault else None

        def strategy():
            return build_strategy(scheme, **({"plr": 0.2} if scheme == "PBPAIR" else {}))

        # ``filled``: the stream was encoded elsewhere (a cache's disk
        # tier), so the cells fill the states from their own decodes.
        group = GroupScope("key")
        stream = encode_phase(
            sequence,
            strategy(),
            config=config,
            faults=faults,
            parse_memo=group.parse_memo,
            states=None if filled else group.states,
        )
        for plr, granularity, seed, ber, concealment, threshold in cells:
            cell_config = dataclasses.replace(config, bad_pixel_threshold=threshold)

            def channel():
                return {
                    "loss_model": UniformLoss(
                        plr=plr, seed=seed, granularity=granularity
                    ),
                    "config": cell_config,
                    "concealment": CONCEALMENTS[concealment](),
                    "bit_errors": BitErrorChannel(ber, seed=seed) if ber else None,
                    "faults": faults,
                }

            served = transmit_phase(stream, sequence, group=group, **channel())
            cold = simulate(sequence, strategy(), **channel())
            assert _fingerprint(served) == _fingerprint(cold)
            assert served.decoder_energy == cold.decoder_energy
            assert served.frames == cold.frames


class TestServeRule:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lossless_cells_serve_every_frame(self, tmp_path, jobs):
        grid = [_spec(plr=0.0, seed=seed) for seed in range(3)]
        outcomes = run_grid(grid, runner_options(jobs=jobs, trace_dir=tmp_path))
        # The group's encode seeds every frame's state, so every cell,
        # the first included, serves all six frames at any worker count.
        assert _replayed(tmp_path) == 3 * CLIP.n_frames
        for spec, outcome in zip(grid, outcomes):
            assert _fingerprint(outcome.result) == _fingerprint(run_job(spec))

    @pytest.mark.parametrize(
        "scheme, lost, served",
        [
            # NO never refreshes: a loss ends the serving for good.
            ("NO", 3, [0, 1, 2]),
            # GOP-3's next I-frame (frame 4) is decoded and brings the
            # decoder back in sync, so frame 5 is served again.
            ("GOP-3", 1, [0, 5]),
            # AIR-24 refreshes every macroblock of this clip each frame.
            ("AIR-24", 2, [0, 1, 4, 5]),
        ],
    )
    def test_a_loss_puts_the_decoder_out_of_sync_until_a_refresh(
        self, tmp_path, scheme, lost, served
    ):
        spec = _spec(scheme, plr=0.0, faults=_drop(lost))
        (outcome,) = run_grid([spec], runner_options(jobs=1, trace_dir=tmp_path))
        assert outcome.result.frames[lost].packets_lost > 0
        assert _served(tmp_path) == served
        assert _fingerprint(outcome.result) == _fingerprint(run_job(spec))

    def test_a_corrupted_fragment_puts_the_decoder_out_of_sync(self, tmp_path):
        corrupted = _spec(
            plr=0.0,
            seed=1,
            faults=FaultPlan(
                faults=(
                    FaultSpec(
                        kind="corrupt_fragment", probability=1.0, frames=(2,)
                    ),
                )
            ),
        )
        # Every fragment arrives, so only the bytes tell frame 2 apart.
        (outcome,) = run_grid(
            [corrupted], runner_options(jobs=1, trace_dir=tmp_path)
        )
        assert _served(tmp_path) == [0, 1]
        assert outcome.result.fault_events
        assert _fingerprint(outcome.result) == _fingerprint(run_job(corrupted))

    def test_a_frame_an_encode_fault_altered_has_no_state(
        self, tmp_path, scope_spy
    ):
        spec = _spec(
            "GOP-3",
            plr=0.0,
            faults=FaultPlan(
                faults=(
                    FaultSpec(kind="encode_byteflip", probability=1.0, frames=(2,)),
                )
            ),
        )
        (outcome,) = run_grid([spec], runner_options(jobs=1, trace_dir=tmp_path))
        (scope,) = scope_spy
        assert [scope.states.get(k) is None for k in range(CLIP.n_frames)] == [
            k == 2 for k in range(CLIP.n_frames)
        ]
        # Frame 2 decodes; the decoder is out of sync until GOP-3's
        # I-frame at 4 resyncs it.
        assert _served(tmp_path) == [0, 1, 5]
        assert _fingerprint(outcome.result) == _fingerprint(run_job(spec))

    def test_served_frames_are_the_intact_frames_at_an_in_sync_decoder(
        self, tmp_path, monkeypatch
    ):
        clip = dataclasses.replace(CLIP, n_frames=16)
        spec = dataclasses.replace(
            _spec("GOP-3", plr=0.3, seed=5), synthetic=clip
        )
        sequence = runner._sequence_for(spec.sequence, spec.n_frames, clip)
        states = SenderStates()
        stream = encode_phase(
            sequence, build_strategy("GOP-3"), config=SIM, states=states
        )

        # An instrumented cold run: every frame decodes.
        calls: list = []
        decode = Decoder.decode_frame

        def spy(self, fragments, reference, *args, **kwargs):
            fragments = list(fragments)
            result = decode(self, fragments, reference, *args, **kwargs)
            calls.append((fragments, reference, result.frame))
            return result

        monkeypatch.setattr(Decoder, "decode_frame", spy)
        run_job(spec)
        monkeypatch.undo()
        assert len(calls) == clip.n_frames

        qualifying = []
        for k, ((fragments, reference, decoded), sent) in enumerate(
            zip(calls, stream.frames)
        ):
            in_sync = (
                reference is None
                if k == 0
                else np.array_equal(reference, states.get(k - 1)[0])
            )
            if in_sync and fragments == [p.payload for p in sent.packets]:
                qualifying.append(k)
                # The lossless decode is the encoder's reconstruction.
                np.testing.assert_array_equal(decoded, states.get(k)[0])
        # Losses, and a resync after at least one of them.
        assert 0 < len(qualifying) < clip.n_frames
        assert any(k - 1 not in qualifying for k in qualifying[1:])

        (outcome,) = run_grid([spec], runner_options(jobs=1, trace_dir=tmp_path))
        assert _served(tmp_path) == qualifying
        assert _fingerprint(outcome.result) == _fingerprint(run_job(spec))

    def test_simulate_serves_nothing(self, monkeypatch):
        decoded: list = []
        decode = Decoder.decode_frame

        def spy(self, *args, **kwargs):
            decoded.append(1)
            return decode(self, *args, **kwargs)

        monkeypatch.setattr(Decoder, "decode_frame", spy)
        tracer = Tracer()
        sequence = runner._sequence_for("tiny", CLIP.n_frames, CLIP)
        with use_tracer(tracer):
            simulate(sequence, build_strategy("NO"), config=SIM)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters.get("decoder.frames_replayed", 0) == 0
        assert len(decoded) == CLIP.n_frames

    def test_no_stream_sharing_means_no_scope_and_no_serving(
        self, scope_spy, tmp_path
    ):
        grid = [_spec(plr=0.0, seed=seed) for seed in range(2)]
        run_grid(
            grid,
            runner_options(jobs=1, share_streams=False, trace_dir=tmp_path),
        )
        assert scope_spy == [None, None]
        assert _replayed(tmp_path) == 0


def test_a_group_holds_one_array_per_plane_freed_with_its_scope(scope_spy):
    config = dataclasses.replace(SIM, codec=small_config(chroma=True))
    outcomes = run_grid(
        [_spec(plr=0.0, seed=seed, config=config) for seed in range(2)],
        runner_options(jobs=1),
    )
    assert all(outcome.ok for outcome in outcomes)
    scope = scope_spy[0]
    assert all(other is scope for other in scope_spy)
    plane = SMALL_W * SMALL_H
    assert scope.states.nbytes == CLIP.n_frames * (plane + 2 * plane // 4)
    state = scope.states.get(0)
    assert [view.shape for view in state] == [
        (SMALL_H, SMALL_W),
        (SMALL_H // 2, SMALL_W // 2),
        (SMALL_H // 2, SMALL_W // 2),
    ]
    # Every frame's plane is a view of that plane's one array.
    for k in range(CLIP.n_frames):
        assert all(
            view.base is first.base
            for view, first in zip(scope.states.get(k), state)
        )
    for view in state:
        assert view.base.dtype == np.uint8
        assert view.base.shape == (CLIP.n_frames,) + view.shape
    refs = [weakref.ref(scope)] + [weakref.ref(view.base) for view in state]
    del scope, state, view
    scope_spy.clear()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_cells_with_different_bad_pixel_thresholds_get_their_own_metrics(
    tmp_path,
):
    grid = [
        _spec(
            plr=0.0,
            seed=seed,
            config=dataclasses.replace(SIM, bad_pixel_threshold=threshold),
        )
        for seed, threshold in ((0, 0), (1, 0), (2, 40))
    ]
    assert len({runner.encode_content_hash(spec) for spec in grid}) == 1
    outcomes = run_grid(grid, runner_options(jobs=1, trace_dir=tmp_path))
    # Every cell serves every frame; the third measures at another
    # threshold, so it gets its own metrics.
    assert _replayed(tmp_path) == 3 * CLIP.n_frames
    bad = [outcome.result.total_bad_pixels for outcome in outcomes]
    assert bad[0] == bad[1] != bad[2]
    for spec, outcome in zip(grid, outcomes):
        assert _fingerprint(outcome.result) == _fingerprint(run_job(spec))


def test_a_disk_loaded_stream_fills_the_states_from_in_sync_decodes(tmp_path):
    directory = tmp_path / "streams"
    grid = [_spec(plr=0.0, seed=seed) for seed in range(3)]
    run_grid(
        grid[:1], runner_options(jobs=1), stream_cache=EncodedStreamCache(directory)
    )
    # A new cache over the same directory: the stream comes off disk,
    # and the scope made for it holds no states.
    stream_cache = EncodedStreamCache(directory)
    outcomes = run_grid(
        grid,
        runner_options(jobs=1, trace_dir=tmp_path / "trace"),
        stream_cache=stream_cache,
    )
    assert stream_cache.encodes == 0
    # The first cell decodes every frame and stores it; the others serve.
    assert _replayed(tmp_path / "trace") == 2 * CLIP.n_frames
    for spec, outcome in zip(grid, outcomes):
        assert _fingerprint(outcome.result) == _fingerprint(run_job(spec))


_COLD: dict = {}


def _cold_fingerprint(spec):
    """:func:`_fingerprint` of a cold :func:`run_job`, memoized by spec."""
    key = spec.content_hash()
    if key not in _COLD:
        _COLD[key] = _fingerprint(run_job(spec))
    return _COLD[key]


class TestParkedScopes:
    @given(
        scheme=st.sampled_from(SCHEMES),
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(available_packs()),
                    st.integers(0, 3),
                    st.integers(0, 2),
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=2,
            max_size=3,
        ),
        faults=st.lists(st.sampled_from(FAULTS), max_size=2, unique=True),
    )
    @settings(max_examples=20, deadline=None)
    def test_serial_grids_on_one_live_cache_equal_cold_runs(
        self, scheme, batches, faults
    ):
        # Channel byteflips always ride along, so parked memos meet
        # damaged bytes; the drawn specs add other stages' faults.
        faults = (FAULTS[1], *(f for f in faults if f is not FAULTS[1]))
        stream_cache = EncodedStreamCache()
        for batch in batches:
            grid = [
                _spec(
                    scheme,
                    pack,
                    seed,
                    FaultPlan(faults=faults, seed=fault_seed),
                )
                for pack, seed, fault_seed in batch
            ]
            outcomes = run_grid(
                grid, runner_options(jobs=1), stream_cache=stream_cache
            )
            assert all(outcome.ok for outcome in outcomes)
            for spec, outcome in zip(grid, outcomes):
                assert _fingerprint(outcome.result) == _cold_fingerprint(spec)

    def test_a_later_grid_serves_the_parked_states(self, scope_spy, tmp_path):
        stream_cache = EncodedStreamCache()
        grids = [[_spec(plr=0.0, seed=seed)] for seed in range(2)]
        for number, grid in enumerate(grids):
            trace_dir = tmp_path / str(number)
            run_grid(
                grid,
                runner_options(jobs=1, trace_dir=trace_dir),
                stream_cache=stream_cache,
            )
        # One scope for both grids: the first grid's encode seeded it,
        # and the second grid, which encodes nothing, serves from it.
        first, second = scope_spy
        assert first is second
        assert stream_cache.encodes == 1
        assert _replayed(tmp_path / "0") == CLIP.n_frames
        assert _replayed(tmp_path / "1") == CLIP.n_frames
        for grid in grids:
            assert _cold_fingerprint(grid[0]) == _fingerprint(
                run_grid(grid, runner_options(jobs=1))[0].result
            )

    def test_a_parked_memo_keeps_one_parse_per_sent_fragment(
        self, scope_spy, monkeypatch
    ):
        sizes: list[int] = []
        transmit = runner.transmit_phase

        def spy(*args, group=None, **kwargs):
            result = transmit(*args, group=group, **kwargs)
            sizes.append(len(group.parse_memo))
            return result

        monkeypatch.setattr(runner, "transmit_phase", spy)
        flips = (FaultSpec(kind="corrupt_fragment", probability=0.5, amount=2),)
        grid = [
            _spec(plr=0.0, seed=seed, faults=FaultPlan(faults=flips, seed=seed))
            for seed in range(3)
        ]
        stream_cache = EncodedStreamCache()
        outcomes = run_grid(
            grid, runner_options(jobs=1), stream_cache=stream_cache
        )
        assert all(outcome.ok for outcome in outcomes)
        scope = scope_spy[0]
        stream = stream_cache.get(scope.key)
        sent = sum(len(frame.packets) for frame in stream.frames)
        # Damaged parses joined the memo while the grid ran; the parked
        # memo keeps only the sent fragments' parses.
        assert max(sizes) > sent
        assert 0 < len(scope.parse_memo) <= sent

    def test_evicting_the_entry_frees_its_scope(self, scope_spy):
        stream_cache = EncodedStreamCache(max_entries=1)
        run_grid([_spec("NO")], runner_options(jobs=1), stream_cache=stream_cache)
        refs = [weakref.ref(scope_spy[0]), weakref.ref(scope_spy[0].parse_memo)]
        scope_spy.clear()
        gc.collect()
        assert all(ref() is not None for ref in refs)  # parked on its entry
        run_grid(
            [_spec("GOP-3")], runner_options(jobs=1), stream_cache=stream_cache
        )
        scope_spy.clear()
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_a_lent_scope_is_not_lent_twice(self):
        stream_cache = EncodedStreamCache()
        with stream_cache.lease("key") as scope:
            assert scope is not None
            with stream_cache.lease("key") as other:
                assert other is None
        with stream_cache.lease("key") as again:
            assert again is scope

    def test_concurrent_grids_on_one_cache_equal_cold_runs(self):
        # Four dispatcher-like threads replay one stream at once, with
        # thread switches forced often: a scope two grids filled at once
        # would hand some cell another cell's frames.
        grids = [
            [
                _spec(plr=0.0 if cell else 0.1, seed=4 * thread + cell)
                for cell in range(3)
            ]
            for thread in range(4)
        ]
        stream_cache = EncodedStreamCache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(
                        run_grid,
                        grid,
                        runner_options(jobs=1),
                        stream_cache=stream_cache,
                    )
                    for grid in grids
                ]
                outcomes = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for grid, results in zip(grids, outcomes):
            for spec, outcome in zip(grid, results):
                assert outcome.ok
                assert _fingerprint(outcome.result) == _cold_fingerprint(spec)
