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
  each get their own metrics.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.export import load_trace
from repro.scenarios.pack import available_packs, load_pack
from repro.service.wire import session_result_digest
from repro.sim import runner
from repro.sim.pipeline import SimulationConfig
from repro.sim.runner import JobSpec, run_grid, run_job
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
    def test_lossless_cells_replay_every_frame_after_the_first(self, tmp_path):
        grid = [_spec(plr=0.0, seed=seed) for seed in range(3)]
        outcomes = run_grid(grid, runner_options(jobs=1, trace_dir=tmp_path))
        # The first cell decodes and stores all six frames; the other
        # two replay them.
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
