"""Parse reuse: the batch VLD, its memo, and the grid scope around it.

The decoder's variable-length decode is a pure function of the fragment
bytes, so cells of a grid that replay one encoded stream share one
:class:`~repro.codec.syntax.ParseMemo`, and the encode that made the
stream seeds it with every fragment's parse.  These tests pin the
things that sharing rests on:

* the batch VLD equals the sequential per-macroblock reference on
  corrupted real payloads, with no memo, a cold memo and a warm memo —
  same salvaged macroblocks, same bit accounting, same exception;
* every seed equals the parse a cold decode stores under the same key,
  and no seed is stored for bytes an encode-stage fault altered;
* a grid gives identical results and decoder counters with stream
  sharing (and so parse reuse) on and off, serially and pooled;
* the runner gives every encode group its own scope and memo, seeded
  before the group's first decode, and none survives
  :func:`~repro.sim.runner.run_grid`.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.codec.bitstream import BitReader, BitWriter, BitstreamError
from repro.codec.encoder import Encoder
from repro.codec.entropy import write_ue
from repro.codec.reference import decode_macroblock, decode_macroblock_skippable
from repro.codec.syntax import (
    FragmentHeader,
    ParseMemo,
    decode_macroblock_layer,
    read_fragment_header,
    write_fragment_header,
)
from repro.codec.types import FrameType, MacroblockMode
from repro.faults.plan import FaultPlan, FaultSpec
from repro.network.packet import Packetizer
from repro.obs.export import load_trace
from repro.obs.summary import trace_summary
from repro.resilience.registry import build_strategy
from repro.scenarios.fleet import fleet_jobs
from repro.service.wire import session_result_digest
from repro.sim import runner
from repro.sim.pipeline import SimulationConfig, encode_phase
from repro.sim.runner import JobSpec, run_grid
from repro.video.synthetic import SyntheticConfig

from tests.conftest import (
    SMALL_H,
    SMALL_W,
    runner_options,
    small_config,
    small_sequence,
)

#: Codec variants whose payloads the VLD property runs over.
CONFIGS = (
    small_config(),
    small_config(allow_skip=True),
    small_config(half_pel=True, chroma=True, allow_skip=True),
)


@lru_cache(maxsize=None)
def real_payloads(config_index: int) -> tuple[bytes, ...]:
    """Fragments of a short clip, several per frame (small MTU)."""
    config = CONFIGS[config_index]
    encoder = Encoder(config, build_strategy("AIR-4"))
    packetizer = Packetizer(config, mtu=96)
    payloads = []
    for frame in small_sequence(n_frames=4, chroma=config.chroma):
        encoded = encoder.encode_frame(frame)
        payloads.extend(p.payload for p in packetizer.packetize(encoded))
    return tuple(payloads)


def _sequential(payload: bytes, config, allow_inter: bool):
    """Reference: one macroblock at a time, validating after each parse."""
    reader = BitReader(payload)
    header = read_fragment_header(reader)
    read_mb = (
        decode_macroblock_skippable if config.allow_skip else decode_macroblock
    )
    limit = config.mv_limit
    salvaged = []
    consumed = reader.bits_consumed
    for _ in range(header.mb_count):
        try:
            emb = read_mb(reader, header.frame_type, config.blocks_per_mb)
        except BitstreamError:
            break
        consumed = reader.bits_consumed
        if emb.mode is MacroblockMode.INTER and (
            not allow_inter or max(abs(emb.mv[0]), abs(emb.mv[1])) > limit
        ):
            break
        salvaged.append(emb)
    return salvaged, consumed


def _batch(payload: bytes, config, allow_inter: bool, memo=None):
    reader = BitReader(payload)
    header = read_fragment_header(reader)
    parse = decode_macroblock_layer(
        reader,
        header.frame_type,
        header.mb_count,
        config.blocks_per_mb,
        allow_skip=config.allow_skip,
        allow_inter=allow_inter,
        mv_limit=config.mv_limit,
        memo=memo,
    )
    return parse, reader.bits_consumed


def _macroblocks(parse, blocks_per_mb: int) -> list:
    """``(mode, mv, coefficients)`` per salvaged macroblock of a parse."""
    count = len(parse.meta)
    coefficients = np.zeros(count * blocks_per_mb * 64, dtype=np.int32)
    coefficients[parse.ev_index] = parse.ev_levels
    coefficients = coefficients.reshape(count, blocks_per_mb, 8, 8)
    return [
        (
            MacroblockMode.INTRA if intra else MacroblockMode.INTER,
            (int(mv_y), int(mv_x)),
            block,
        )
        for (intra, mv_y, mv_x), block in zip(parse.meta, coefficients)
    ]


def _outcome(decode, *args, **kwargs):
    """``(macroblocks, bits)``, or the exception type a decode raised."""
    try:
        return decode(*args, **kwargs)
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return type(error)


def _assert_same(outcome, expected):
    if isinstance(expected, type):
        assert outcome is expected
        return
    assert not isinstance(outcome, type), outcome
    (parse, bits), (want_mbs, want_bits) = outcome, expected
    assert bits == want_bits
    assert parse.end == bits
    for array in parse[1:]:
        assert not array.flags.writeable
    assert len(parse.meta) == len(want_mbs)
    if not want_mbs:
        return
    mbs = _macroblocks(parse, want_mbs[0].coefficients.shape[0])
    for (mode, mv, coefficients), want in zip(mbs, want_mbs):
        assert mode is want.mode
        assert mv == want.mv
        np.testing.assert_array_equal(coefficients, want.coefficients)


class TestBatchVldAgainstSequential:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_corrupted_payloads_match_with_and_without_memo(self, data):
        config_index = data.draw(st.integers(0, len(CONFIGS) - 1))
        config = CONFIGS[config_index]
        payloads = real_payloads(config_index)
        payload = bytearray(
            payloads[data.draw(st.integers(0, len(payloads) - 1))]
        )
        for _ in range(data.draw(st.integers(0, 6))):
            position = data.draw(st.integers(0, len(payload) * 8 - 1))
            payload[position // 8] ^= 1 << (position % 8)
        if data.draw(st.booleans()):
            del payload[data.draw(st.integers(0, len(payload))) :]
        payload = bytes(payload)
        try:
            read_fragment_header(BitReader(payload))
        except BitstreamError:
            assume(False)
        allow_inter = data.draw(st.booleans())

        expected = _outcome(_sequential, payload, config, allow_inter)
        _assert_same(_outcome(_batch, payload, config, allow_inter), expected)
        memo = ParseMemo()
        cold = _outcome(_batch, payload, config, allow_inter, memo)
        _assert_same(cold, expected)
        warm = _outcome(_batch, payload, config, allow_inter, memo)
        _assert_same(warm, expected)
        # A failed parse stores nothing; a successful one is kept.
        assert len(memo) == (0 if isinstance(expected, type) else 1)
        # The other validation mode is a different parse, never a replay.
        _assert_same(
            _outcome(_batch, payload, config, not allow_inter, memo),
            _outcome(_sequential, payload, config, not allow_inter),
        )
        if isinstance(expected, type):
            return
        # A replay is the stored record itself, read-only (checked by
        # _assert_same), so no caller can alter what the next one gets.
        assert warm[0] is cold[0]

    def test_overflowing_level_raises_and_is_not_stored(self):
        # One coded intra block whose single level does not fit int32.
        writer = BitWriter()
        write_fragment_header(
            writer, FragmentHeader(0, FrameType.I, 6, first_mb=0, mb_count=1)
        )
        writer.write_bit(1)  # block 0 coded
        write_ue(writer, 0)  # run
        write_ue(writer, (1 << 32) - 1)  # level +2**31, one past int32
        writer.write_bit(1)  # last
        for _ in range(3):
            writer.write_bit(0)  # blocks 1-3 empty
        payload = writer.getvalue()
        config = small_config()
        assert _outcome(_sequential, payload, config, True) is OverflowError
        memo = ParseMemo()
        for _ in range(2):
            assert _outcome(_batch, payload, config, True, memo) is OverflowError
            assert not memo


# ---------------------------------------------------------------------------
# Encoder seeds
# ---------------------------------------------------------------------------

SEED_SCHEMES = ("NO", "AIR-4", "GOP-3", "PBPAIR")


def _cold_parses(stream, config) -> ParseMemo:
    """Every fragment of ``stream`` parsed cold, keyed as a decoder keys it.

    Frame 0 is parsed like a decoder with no reference parses it
    (``allow_inter=False``), every later frame with a reference.
    """
    memo = ParseMemo()
    for position, frame in enumerate(stream.frames):
        for packet in frame.packets:
            _batch(packet.payload, config, position > 0, memo)
    return memo


class TestEncoderSeeds:
    @given(
        config_index=st.integers(0, len(CONFIGS) - 1),
        scheme=st.sampled_from(SEED_SCHEMES),
        clip_seed=st.integers(0, 2**16),
        n_frames=st.integers(1, 5),
        mtu=st.integers(64, 600),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_seed_equals_the_cold_parse(
        self, config_index, scheme, clip_seed, n_frames, mtu
    ):
        config = CONFIGS[config_index]
        sequence = small_sequence(
            n_frames=n_frames, seed=clip_seed, chroma=config.chroma
        )
        seeds = ParseMemo()
        stream = encode_phase(
            sequence,
            build_strategy(scheme),
            config=SimulationConfig(codec=config, mtu=mtu),
            parse_memo=seeds,
        )
        cold = _cold_parses(stream, config)
        assert len(seeds) == sum(len(f.packets) for f in stream.frames)
        assert seeds.keys() == cold.keys()
        for key, parse in cold.items():
            seed = seeds[key]
            assert seed.end == parse.end
            for got, want in zip(seed[1:], parse[1:]):
                assert got.dtype == want.dtype
                assert not got.flags.writeable
                np.testing.assert_array_equal(got, want)

    def test_no_seed_for_bytes_an_encode_fault_altered(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="encode_byteflip", probability=1.0, frames=(2,)),
            ),
            seed=3,
        )
        seeds = ParseMemo()
        stream = encode_phase(
            small_sequence(n_frames=4),
            build_strategy("AIR-4"),
            config=SimulationConfig(codec=CONFIGS[1], mtu=96),
            faults=plan,
            parse_memo=seeds,
        )
        assert [event.frame_index for event in stream.fault_events] == [2]
        seeded = {key[0] for key in seeds}
        for frame in stream.frames:
            payloads = {packet.payload for packet in frame.packets}
            if frame.frame_index == 2:
                assert not payloads & seeded
            else:
                assert payloads <= seeded


# ---------------------------------------------------------------------------
# Grid level
# ---------------------------------------------------------------------------

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
TINY_SIM = SimulationConfig(codec=small_config(), mtu=96)
FLEET_SCHEMES = ("NO", "GOP-3", "AIR-24", "PGOP-3", "PBPAIR")
FLEET_PACKS = ("bursty-wifi", "fec-burst", "retx-lossy")


def fleet_grid() -> list[JobSpec]:
    """5 schemes x 3 packs x 2 replicas, plus one corrupted-delivery cell."""
    jobs = fleet_jobs(
        FLEET_SCHEMES,
        FLEET_PACKS,
        sequence="tiny",
        n_frames=TINY_CLIP.n_frames,
        replicas=2,
        config=TINY_SIM,
        synthetic=TINY_CLIP,
    )
    corrupted = dataclasses.replace(
        jobs[0],
        faults=FaultPlan(
            faults=(
                FaultSpec(kind="byteflip", probability=0.5, amount=2),
                FaultSpec(kind="corrupt_fragment", probability=0.5, amount=2),
            ),
            seed=5,
        ),
    )
    return jobs + [corrupted]


@pytest.fixture(scope="module")
def fleet_outcomes():
    grid = fleet_grid()
    runs = {}
    for share in (True, False):
        for jobs in (1, 2):
            outcomes = run_grid(
                grid, runner_options(jobs=jobs, share_streams=share)
            )
            assert all(outcome.ok for outcome in outcomes)
            runs[share, jobs] = [outcome.result for outcome in outcomes]
    return runs


class TestGridParseReuse:
    def test_results_identical_with_reuse_on_and_off(self, fleet_outcomes):
        reference = fleet_outcomes[False, 1]
        digests = [session_result_digest(r) for r in reference]
        assert len(set(digests)) > 1
        for results in fleet_outcomes.values():
            assert [session_result_digest(r) for r in results] == digests

    def test_decoder_counters_identical(self, fleet_outcomes):
        reference = [r.decoder_counters for r in fleet_outcomes[False, 1]]
        for results in fleet_outcomes.values():
            assert [r.decoder_counters for r in results] == reference

    def test_corrupted_cell_differs_from_its_clean_twin(self, fleet_outcomes):
        results = fleet_outcomes[True, 1]
        assert session_result_digest(results[-1]) != session_result_digest(
            results[0]
        )
        assert results[-1].fault_events


@pytest.fixture
def memo_spy(monkeypatch):
    """Record the parse memo :func:`run_job` gets for each executed cell."""
    seen: list = []
    original = runner.run_job

    def spy(spec, stream_cache=None, group=None):
        seen.append((spec, group.parse_memo if group is not None else None))
        return original(spec, stream_cache, group)

    monkeypatch.setattr(runner, "run_job", spy)
    return seen


class TestMemoScope:
    def test_each_encode_key_gets_a_seeded_memo(self, memo_spy, monkeypatch):
        seeded_at_decode: list[int] = []
        transmit = runner.transmit_phase

        def spy(*args, group=None, **kwargs):
            seeded_at_decode.append(len(group.parse_memo))
            return transmit(*args, group=group, **kwargs)

        monkeypatch.setattr(runner, "transmit_phase", spy)
        grid = [
            JobSpec(
                scheme=scheme,
                channel_seed=3,
                sequence="tiny",
                synthetic=TINY_CLIP,
                config=TINY_SIM,
            )
            for scheme in ("NO", "GOP-3", "AIR-24")
        ]
        outcomes = run_grid(grid, runner_options(jobs=1))
        assert all(outcome.ok for outcome in outcomes)
        # All keys distinct: the grid's own order, one memo per cell,
        # each seeded by its cell's encode before the decode began.
        assert [spec for spec, _ in memo_spy] == grid
        memos = [memo for _, memo in memo_spy]
        assert all(isinstance(memo, ParseMemo) for memo in memos)
        assert len({id(memo) for memo in memos}) == 3
        assert len(seeded_at_decode) == 3 and all(seeded_at_decode)

    def test_group_shares_one_memo_and_none_outlives_the_grid(
        self, memo_spy
    ):
        grid = fleet_grid()[:12]  # bursty-wifi and fec-burst, pack-major
        outcomes = run_grid(grid, runner_options(jobs=1))
        assert all(outcome.ok for outcome in outcomes)
        keys = [runner.encode_content_hash(spec) for spec, _ in memo_spy]
        # Cells of one encode key ran back to back, in first-occurrence
        # order, each group on its own memo.
        first_seen = list(dict.fromkeys(keys))
        assert keys == sorted(keys, key=first_seen.index)
        memos = {}
        for key, (_, memo) in zip(keys, memo_spy):
            assert isinstance(memo, ParseMemo)
            assert memos.setdefault(key, memo) is memo
        assert len({id(memo) for memo in memos.values()}) == len(memos) > 1
        assert all(memo for memo in memos.values())  # each was seeded
        refs = [weakref.ref(memo) for memo in memos.values()]
        del memos, memo
        memo_spy.clear()
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_no_stream_sharing_means_no_memo(self, memo_spy):
        run_grid(fleet_grid()[:4], runner_options(jobs=1, share_streams=False))
        assert [memo for _, memo in memo_spy] == [None] * 4

    def test_pooled_chunk_groups_cells_in_the_worker(self, memo_spy):
        grid = fleet_grid()[:12]
        cells = [
            (spec, 1, spec.content_hash(), runner.encode_content_hash(spec))
            for spec in grid
        ]
        outcomes = runner._pooled_chunk(None, None, None, cells)
        assert all(ok for ok, _, _ in outcomes)
        # Outcomes stay aligned with the chunk's own order.
        digests = [session_result_digest(result) for _, result, _ in outcomes]
        serial = run_grid(grid, runner_options(jobs=1, share_streams=False))
        assert digests == [
            session_result_digest(outcome.result) for outcome in serial
        ]
        shared = [memo for _, memo in memo_spy[: len(grid)]]
        assert any(isinstance(memo, ParseMemo) for memo in shared)


def test_trace_counts_parsed_and_reused_fragments(tmp_path):
    grid = fleet_grid()
    clean = grid[:4]  # bursty-wifi: NO x2, GOP-3 x2
    outcomes = run_grid(
        clean, runner_options(jobs=1, trace_dir=tmp_path / "clean")
    )
    trace = load_trace(tmp_path / "clean" / "trace.jsonl")
    counters = trace.metrics.snapshot()["counters"]
    # Every fragment a clean grid delivers either replays its encoder
    # seed or belongs to a frame replayed from the group's lossless
    # prefix, which skips the decoder altogether.
    decoded = sum(
        frame.packets_sent - frame.packets_lost
        for outcome in outcomes
        for frame in outcome.result.frames
    )
    replayed = [
        span for span in trace.spans
        if span.name == "decode_frame" and span.counters.get("replayed")
    ]
    assert counters["decoder.frames_replayed"] == len(replayed) > 0
    assert counters.get("decoder.fragments_parsed", 0) == 0
    assert counters["decoder.fragments_reused"] + sum(
        span.counters["fragments"] for span in replayed
    ) == decoded > 0
    # Damaged fragments miss the seeds and are parsed for real.
    run_grid(
        grid[-1:], runner_options(jobs=1, trace_dir=tmp_path / "corrupted")
    )
    trace = load_trace(tmp_path / "corrupted" / "trace.jsonl")
    counters = trace.metrics.snapshot()["counters"]
    assert counters["decoder.fragments_parsed"] > 0
    assert counters["decoder.fragments_reused"] > 0
    summary = trace_summary(trace)
    assert "decoder.fragments_parsed" in summary
    assert "decoder.fragments_reused" in summary
