"""Lossless-prefix replay: cells of one encode group decode each intact frame once.

After frame ``k`` a decoder's state depends only on the stream and on
the fragments delivered for frames ``0..k``.  The grid runner gives the
cells that replay one encoded stream a
:class:`~repro.sim.pipeline.GroupScope`, and a cell whose frames
``0..k`` all arrived exactly as sent replays frame ``k`` from the
group's :class:`~repro.sim.pipeline.LosslessPrefix` instead of decoding
it.  These tests pin what that rests on:

* every cell of a grid, serial or pooled, over every shipped scenario
  pack and fault plans at the encode, channel and decoder-input stages,
  equals a cold :func:`~repro.sim.runner.run_job` (no stream cache, so
  no scope and no replay): same digest, same encoder and decoder
  counters;
* replay happens where the rule says it may, and only there;
* a one-cell group allocates no store, and a group with several cells
  allocates one uint8 array per plane, ``n_frames`` deep;
* cells of one group that measure bad pixels at different thresholds
  each get their own metrics;
* on a stream cache the caller keeps across grids, a group's scope is
  parked on its stream's entry: later grids replay what earlier ones
  decoded, still equal to cold runs, also from concurrent threads; the
  parked memo keeps at most one parse per sent fragment, and evicting
  the entry frees the scope.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.export import load_trace
from repro.scenarios.pack import available_packs, load_pack
from repro.service.wire import session_result_digest
from repro.sim import runner
from repro.sim.pipeline import SimulationConfig
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

#: Fault specs at the three pipeline stages a replay must see through.
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


def _fingerprint(result):
    return (
        session_result_digest(result),
        result.counters,
        result.decoder_counters,
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


class TestReplayEqualsColdRun:
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


class TestReplayRule:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lossless_cells_replay_every_frame_after_the_first(
        self, tmp_path, jobs
    ):
        grid = [_spec(plr=0.0, seed=seed) for seed in range(3)]
        outcomes = run_grid(grid, runner_options(jobs=jobs, trace_dir=tmp_path))
        # The first cell decodes and stores all six frames; the other
        # two replay them, at any worker count: the group is one unit.
        assert _replayed(tmp_path) == 2 * CLIP.n_frames
        for spec, outcome in zip(grid, outcomes):
            assert _fingerprint(outcome.result) == _fingerprint(run_job(spec))

    def test_a_lost_frame_ends_the_prefix(self, tmp_path):
        lossy = _spec(
            seed=1,
            faults=FaultPlan(
                faults=(FaultSpec(kind="drop", probability=1.0, frames=(3,)),)
            ),
        )
        clean = dataclasses.replace(lossy, faults=None, plr=0.0)
        # Both cells share the clean stream (a drop is no encode fault),
        # so the lossy cell replays frames 0-2 and decodes the rest.
        grid = [clean, dataclasses.replace(lossy, plr=0.0)]
        assert len({runner.encode_content_hash(spec) for spec in grid}) == 1
        outcomes = run_grid(grid, runner_options(jobs=1, trace_dir=tmp_path))
        assert _replayed(tmp_path) == 3
        assert outcomes[1].result.frames[3].packets_lost > 0
        for spec, outcome in zip(grid, outcomes):
            assert _fingerprint(outcome.result) == _fingerprint(run_job(spec))

    def test_a_corrupted_fragment_ends_the_prefix(self, tmp_path):
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
        grid = [dataclasses.replace(corrupted, faults=None), corrupted]
        outcomes = run_grid(grid, runner_options(jobs=1, trace_dir=tmp_path))
        assert _replayed(tmp_path) == 2
        assert outcomes[1].result.fault_events
        assert session_result_digest(outcomes[0].result) != (
            session_result_digest(outcomes[1].result)
        )
        for spec, outcome in zip(grid, outcomes):
            assert _fingerprint(outcome.result) == _fingerprint(run_job(spec))

    def test_no_stream_sharing_means_no_scope_and_no_replay(
        self, scope_spy, tmp_path
    ):
        grid = [_spec(plr=0.0, seed=seed) for seed in range(2)]
        run_grid(
            grid,
            runner_options(jobs=1, share_streams=False, trace_dir=tmp_path),
        )
        assert scope_spy == [None, None]
        assert _replayed(tmp_path) == 0


class TestStoreMemory:
    def test_a_one_cell_group_allocates_no_store(self, scope_spy):
        outcomes = run_grid(
            [_spec(scheme) for scheme in ("NO", "GOP-3")],
            runner_options(jobs=1),
        )
        assert all(outcome.ok for outcome in outcomes)
        assert len({id(scope) for scope in scope_spy}) == 2
        for scope in scope_spy:
            assert not scope.stores
            assert scope.prefix.length == 0 and scope.prefix.nbytes == 0

    def test_a_group_stores_one_array_per_plane(self, scope_spy):
        config = dataclasses.replace(SIM, codec=small_config(chroma=True))
        grid = [_spec(plr=0.0, seed=seed, config=config) for seed in range(3)]
        outcomes = run_grid(grid, runner_options(jobs=1))
        assert all(outcome.ok for outcome in outcomes)
        scope = scope_spy[0]
        assert all(other is scope for other in scope_spy)
        assert not scope.stores  # the group's last cell is running
        assert scope.prefix.length == CLIP.n_frames
        plane = SMALL_W * SMALL_H
        assert scope.prefix.nbytes == CLIP.n_frames * (plane + 2 * plane // 4)


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
    # The second cell replays the first; the third measures at another
    # threshold, so it decodes and measures for itself.
    assert _replayed(tmp_path) == CLIP.n_frames
    bad = [outcome.result.total_bad_pixels for outcome in outcomes]
    assert bad[0] == bad[1] != bad[2]
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

    def test_a_later_grid_replays_the_parked_prefix(self, scope_spy, tmp_path):
        stream_cache = EncodedStreamCache()
        grids = [[_spec(plr=0.0, seed=seed)] for seed in range(2)]
        for number, grid in enumerate(grids):
            trace_dir = tmp_path / str(number)
            run_grid(
                grid,
                runner_options(jobs=1, trace_dir=trace_dir),
                stream_cache=stream_cache,
            )
        # One scope for both grids; the one-cell group stored its
        # frames because a later grid could replay them, and did.
        first, second = scope_spy
        assert first is second and first.stores
        assert first.prefix.length == CLIP.n_frames
        assert _replayed(tmp_path / "0") == 0
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
            assert scope is not None and scope.stores
            with stream_cache.lease("key") as other:
                assert other is None
        with stream_cache.lease("key") as again:
            assert again is scope

    def test_concurrent_grids_on_one_cache_equal_cold_runs(self):
        # Four dispatcher-like threads replay one stream at once, with
        # thread switches forced often: a prefix two grids extended at
        # once would hand some cell another cell's frames.
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
