"""Scalar per-block reference implementations of the codec kernels.

The production kernels in :mod:`repro.codec.dct`, :mod:`repro.codec.quant`,
:mod:`repro.codec.motion` and :mod:`repro.codec.recon` are batched:
whole ``(n, 8, 8)`` stacks per transform call, whole search rounds per
SAD reduction, one gather per frame for prediction.  This module keeps
the obvious one-block-at-a-time formulation of the same arithmetic — a
Python loop over blocks (or macroblocks), each processed alone.

It also keeps the scalar twins of the entropy layer, the bitstream
syntax and the whole decoder:

* the per-macroblock syntax (:func:`encode_macroblock`,
  :func:`decode_macroblock` and their COD-bit ``_skippable`` variants,
  returning :class:`EncodedMacroblock`), the per-block run-level codec
  (:func:`encode_block`, :func:`encode_blocks`, :func:`decode_blocks`,
  :func:`decode_block`, :func:`run_level_events`) and the signed
  Exp-Golomb helpers :func:`write_se` / :func:`read_se`.  Production
  writes and parses a whole macroblock layer in one batch
  (:mod:`repro.codec.syntax`), so these sequential forms only serve as
  its oracle; the unsigned :func:`~repro.codec.entropy.write_ue` /
  :func:`~repro.codec.entropy.read_ue` stay in production for the
  fragment header;
* the per-macroblock prediction (:func:`predict_macroblock_scalar`,
  built on an edge-padded reference, :func:`fetch_block_half` and
  :func:`chroma_vector`), the oracle of
  :func:`repro.codec.recon.predict`;
* :func:`decode_frame_scalar`, which decodes a frame one fragment, one
  macroblock and one block at a time, as the paper's decoder does.

Production code never imports this module (``tests/test_import_hygiene.py``
checks it); only :mod:`repro.api`, the tests and the benchmarks do.
It exists for two reasons:

* **Differential oracle.**  ``tests/test_block_kernels.py`` checks the
  batched kernels against these functions over random stacks and full
  synthetic sequences: identical coefficients, identical motion vectors
  and identical operation counts.  The reference deliberately
  re-derives its own fixed-point basis from
  :func:`repro.codec.dct.dct_basis` and re-implements the rounding
  shift, so a bug in the production fast paths (e.g. the float64-exact
  BLAS route) cannot hide in a shared helper.
  ``tests/test_decoder_oracle.py`` checks the frame-batched decoder
  against :func:`decode_frame_scalar` under fragment loss, reordering,
  duplication and damage, and ``tests/test_encoder_oracle.py`` the
  encoder's reconstruction.
* **Benchmark baseline.**  ``benchmarks/bench_block_kernels.py`` times
  these loops as the "before" of the batched kernels; the ratio is what
  ``BENCH_blocks.json`` records and the CI perf gate guards.

Nothing here counts operations into the observability tracer: the
reference reports its counts in return values only, so differential
tests can compare them against what the batched kernels *did* record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter, BitstreamError
from repro.codec.blocks import BLK, MB
from repro.codec.dct import FIXED_POINT_BITS, dct_basis
from repro.codec.decoder import DecodeResult
from repro.codec.entropy import write_ue
from repro.codec.motion import MECostFunction, MotionField
from repro.codec.quant import (
    COEFF_MAX,
    COEFF_MIN,
    INTRA_DC_STEP,
    LEVEL_MAX,
)
from repro.codec.syntax import read_fragment_header
from repro.codec.types import CodecConfig, FrameType, MacroblockMode
from repro.codec.zigzag import inverse_zigzag_order, zigzag_order
from repro.energy.counters import OperationCounters

_LARGE_DIAMOND = (
    (-2, 0), (-1, -1), (-1, 1), (0, -2), (0, 2), (1, -1), (1, 1), (2, 0),
)
_SMALL_DIAMOND = ((-1, 0), (0, -1), (0, 1), (1, 0))


def _int_basis() -> np.ndarray:
    """13-bit fixed-point DCT basis, re-derived from the float basis."""
    return np.round(dct_basis() * (1 << FIXED_POINT_BITS)).astype(np.int64)


def _rounded_shift(values: np.ndarray, bits: int) -> np.ndarray:
    """Arithmetic right shift, round to nearest, ties away from zero."""
    half = 1 << (bits - 1)
    return np.where(
        values >= 0,
        (values + half) >> bits,
        -((-values + half) >> bits),
    )


def forward_dct_block(block: np.ndarray, fixed_point: bool = True) -> np.ndarray:
    """Forward DCT of a single 8x8 block."""
    if not fixed_point:
        basis = dct_basis()
        return basis @ np.asarray(block, dtype=np.float64) @ basis.T
    basis = _int_basis()
    block = np.rint(np.asarray(block)).astype(np.int64)
    stage1 = _rounded_shift(basis @ block, FIXED_POINT_BITS)
    return _rounded_shift(stage1 @ basis.T, FIXED_POINT_BITS)


def inverse_dct_block(
    coefficients: np.ndarray, fixed_point: bool = True
) -> np.ndarray:
    """Inverse DCT of a single 8x8 coefficient block."""
    if not fixed_point:
        basis = dct_basis()
        return basis.T @ np.asarray(coefficients, dtype=np.float64) @ basis
    basis = _int_basis()
    coefficients = np.rint(np.asarray(coefficients)).astype(np.int64)
    stage1 = _rounded_shift(basis.T @ coefficients, FIXED_POINT_BITS)
    return _rounded_shift(stage1 @ basis, FIXED_POINT_BITS)


def forward_dct_scalar(
    blocks: np.ndarray, fixed_point: bool = True
) -> np.ndarray:
    """One-block-at-a-time forward DCT of an ``(n, 8, 8)`` stack."""
    blocks = np.asarray(blocks)
    return np.stack(
        [forward_dct_block(block, fixed_point) for block in blocks]
    )


def inverse_dct_scalar(
    coefficients: np.ndarray, fixed_point: bool = True
) -> np.ndarray:
    """One-block-at-a-time inverse DCT of an ``(n, 8, 8)`` stack."""
    coefficients = np.asarray(coefficients)
    return np.stack(
        [inverse_dct_block(block, fixed_point) for block in coefficients]
    )


def quantize_block(block: np.ndarray, intra: bool, qp: int) -> np.ndarray:
    """H.263 quantization of a single 8x8 coefficient block."""
    if not 1 <= qp <= 31:
        raise ValueError(f"QP must be in [1, 31], got {qp}")
    block = np.clip(np.asarray(block), COEFF_MIN, COEFF_MAX)
    magnitude = np.abs(block.astype(np.int64))
    dead_zone = 0 if intra else qp // 2
    levels = np.maximum(magnitude - dead_zone, 0) // (2 * qp)
    levels = np.clip(levels, 0, LEVEL_MAX)
    levels = (np.sign(block) * levels).astype(np.int32)
    if intra:
        dc = int(np.rint(block[0, 0] / INTRA_DC_STEP))
        levels[0, 0] = min(max(dc, 1), 254)
    return levels


def dequantize_block(levels: np.ndarray, intra: bool, qp: int) -> np.ndarray:
    """H.263 reconstruction of a single quantized 8x8 block."""
    if not 1 <= qp <= 31:
        raise ValueError(f"QP must be in [1, 31], got {qp}")
    levels = np.asarray(levels, dtype=np.int64)
    magnitude = np.abs(levels)
    reconstructed = qp * (2 * magnitude + 1)
    if qp % 2 == 0:
        reconstructed -= 1
    reconstructed = np.where(magnitude == 0, 0, reconstructed)
    reconstructed = np.sign(levels) * reconstructed
    if intra:
        reconstructed[0, 0] = levels[0, 0] * INTRA_DC_STEP
    return np.clip(reconstructed, COEFF_MIN, COEFF_MAX).astype(np.int32)


def quantize_scalar(coefficients: np.ndarray, intra, qp: int) -> np.ndarray:
    """One-block-at-a-time quantization of an ``(n, 8, 8)`` stack.

    ``intra`` is a bool or a per-block boolean sequence.
    """
    coefficients = np.asarray(coefficients)
    lead = coefficients.shape[:-2]
    flags = np.broadcast_to(np.asarray(intra, dtype=bool), lead).reshape(-1)
    flat = coefficients.reshape(-1, 8, 8)
    out = np.stack(
        [
            quantize_block(block, bool(flag), qp)
            for block, flag in zip(flat, flags)
        ]
    )
    return out.reshape(lead + (8, 8))


def dequantize_scalar(levels: np.ndarray, intra, qp: int) -> np.ndarray:
    """One-block-at-a-time reconstruction of an ``(n, 8, 8)`` stack."""
    levels = np.asarray(levels)
    lead = levels.shape[:-2]
    flags = np.broadcast_to(np.asarray(intra, dtype=bool), lead).reshape(-1)
    flat = levels.reshape(-1, 8, 8)
    out = np.stack(
        [
            dequantize_block(block, bool(flag), qp)
            for block, flag in zip(flat, flags)
        ]
    )
    return out.reshape(lead + (8, 8))


def block_sad(current_mb: np.ndarray, candidate_mb: np.ndarray) -> int:
    """SAD of one 16x16 macroblock against one candidate block."""
    return int(
        np.abs(
            current_mb.astype(np.int64) - candidate_mb.astype(np.int64)
        ).sum()
    )


def _scalar_cost(
    cost_function: Optional[MECostFunction],
    sad: int,
    dy: int,
    dx: int,
    row: int,
    col: int,
) -> float:
    if cost_function is None:
        return float(sad)
    return float(
        cost_function(
            np.int64(sad), np.int64(dy), np.int64(dx),
            np.int64(row), np.int64(col),
        )
    )


def diamond_search_scalar(
    current: np.ndarray,
    reference: np.ndarray,
    search_range: int = 15,
    early_exit_sad: int = 1600,
    cost_function: Optional[MECostFunction] = None,
    active: Optional[np.ndarray] = None,
) -> MotionField:
    """Sequential per-macroblock diamond search.

    The plain-Python transliteration of
    :class:`repro.codec.motion.DiamondSearchMotionEstimator`: evaluate
    the center, early-exit below the SAD threshold, iterate the large
    diamond with the center moving *as soon as* an offset improves (the
    within-round drift the batched walk re-plays), then refine with the
    small diamond.  Counts are identical: every visited offset of every
    round is one evaluation, including the final non-improving round.
    """
    srange = search_range
    height, width = current.shape
    mb_rows, mb_cols = height // MB, width // MB
    if active is None:
        active = np.ones((mb_rows, mb_cols), dtype=bool)

    padded = np.pad(reference.astype(np.int64), srange, mode="edge")
    current_i = current.astype(np.int64)
    mvs = np.zeros((mb_rows, mb_cols, 2), dtype=np.int64)
    sads = np.zeros((mb_rows, mb_cols), dtype=np.int64)
    per_mb = np.zeros((mb_rows, mb_cols), dtype=np.int64)
    evaluated = 0

    for row in range(mb_rows):
        for col in range(mb_cols):
            if not active[row, col]:
                continue
            cur = current_i[row * MB : (row + 1) * MB, col * MB : (col + 1) * MB]
            oy = row * MB + srange
            ox = col * MB + srange

            def sad_at(dy: int, dx: int) -> int:
                cand = padded[oy + dy : oy + dy + MB, ox + dx : ox + dx + MB]
                return block_sad(cur, cand)

            best_dy, best_dx = 0, 0
            best_sad = sad_at(0, 0)
            best_cost = _scalar_cost(cost_function, best_sad, 0, 0, row, col)
            evals = 1

            if best_sad >= early_exit_sad:
                for _ in range(2 * srange):
                    improved = False
                    for off_y, off_x in _LARGE_DIAMOND:
                        dy = int(np.clip(best_dy + off_y, -srange, srange))
                        dx = int(np.clip(best_dx + off_x, -srange, srange))
                        sad = sad_at(dy, dx)
                        cost = _scalar_cost(
                            cost_function, sad, dy, dx, row, col
                        )
                        evals += 1
                        if cost < best_cost:
                            best_cost, best_sad = cost, sad
                            best_dy, best_dx = dy, dx
                            improved = True
                    if not improved:
                        break

            if best_sad >= early_exit_sad:
                for off_y, off_x in _SMALL_DIAMOND:
                    dy = int(np.clip(best_dy + off_y, -srange, srange))
                    dx = int(np.clip(best_dx + off_x, -srange, srange))
                    sad = sad_at(dy, dx)
                    cost = _scalar_cost(cost_function, sad, dy, dx, row, col)
                    evals += 1
                    if cost < best_cost:
                        best_cost, best_sad = cost, sad
                        best_dy, best_dx = dy, dx

            mvs[row, col] = (best_dy, best_dx)
            sads[row, col] = best_sad
            per_mb[row, col] = evals
            evaluated += evals

    return MotionField(mvs, sads, evaluated, per_mb)


def three_step_search_scalar(
    current: np.ndarray,
    reference: np.ndarray,
    search_range: int = 7,
    cost_function: Optional[MECostFunction] = None,
    active: Optional[np.ndarray] = None,
) -> MotionField:
    """Sequential per-macroblock three-step (logarithmic) search.

    Mirrors :class:`repro.codec.motion.ThreeStepMotionEstimator`: each
    round scores the 9-point (8 once seeded) neighbourhood of a fixed
    center under strict-< updates, then the center jumps to the round's
    best and the step halves.
    """
    srange = search_range
    height, width = current.shape
    mb_rows, mb_cols = height // MB, width // MB
    if active is None:
        active = np.ones((mb_rows, mb_cols), dtype=bool)

    padded = np.pad(reference.astype(np.int64), srange, mode="edge")
    current_i = current.astype(np.int64)
    mvs = np.zeros((mb_rows, mb_cols, 2), dtype=np.int64)
    sads = np.zeros((mb_rows, mb_cols), dtype=np.int64)
    per_mb = np.zeros((mb_rows, mb_cols), dtype=np.int64)
    evaluated = 0

    for row in range(mb_rows):
        for col in range(mb_cols):
            if not active[row, col]:
                continue
            cur = current_i[row * MB : (row + 1) * MB, col * MB : (col + 1) * MB]
            oy = row * MB + srange
            ox = col * MB + srange

            center_dy, center_dx = 0, 0
            best_cost = np.inf
            best_sad, best_dy, best_dx = 0, 0, 0
            evals = 0

            step = 1 << max(srange.bit_length() - 1, 0)
            seeded = False
            while step >= 1:
                for off_y in (-step, 0, step):
                    for off_x in (-step, 0, step):
                        if seeded and off_y == 0 and off_x == 0:
                            continue
                        dy = int(np.clip(center_dy + off_y, -srange, srange))
                        dx = int(np.clip(center_dx + off_x, -srange, srange))
                        cand = padded[
                            oy + dy : oy + dy + MB, ox + dx : ox + dx + MB
                        ]
                        sad = block_sad(cur, cand)
                        cost = _scalar_cost(
                            cost_function, sad, dy, dx, row, col
                        )
                        evals += 1
                        if cost < best_cost:
                            best_cost, best_sad = cost, sad
                            best_dy, best_dx = dy, dx
                center_dy, center_dx = best_dy, best_dx
                seeded = True
                step //= 2

            mvs[row, col] = (best_dy, best_dx)
            sads[row, col] = best_sad
            per_mb[row, col] = evals
            evaluated += evals

    return MotionField(mvs, sads, evaluated, per_mb)


def run_level_events(zigzagged: np.ndarray) -> List[Tuple[int, int, bool]]:
    """Convert a zigzag-scanned coefficient vector to (run, level, last).

    ``run`` counts the zeros preceding each nonzero ``level``; ``last``
    marks the final nonzero coefficient of the block.
    """
    nonzero_positions = np.flatnonzero(zigzagged)
    events: List[Tuple[int, int, bool]] = []
    previous = -1
    for order, position in enumerate(nonzero_positions):
        run = int(position - previous - 1)
        level = int(zigzagged[position])
        last = order == len(nonzero_positions) - 1
        events.append((run, level, last))
        previous = int(position)
    return events


def write_se(writer: BitWriter, value: int) -> None:
    """Write a signed Exp-Golomb codeword (H.264 mapping)."""
    mapped = 2 * value - 1 if value > 0 else -2 * value
    write_ue(writer, mapped)


def read_se(reader: BitReader) -> int:
    """Read a signed Exp-Golomb codeword."""
    mapped = reader.read_exp_golomb()
    magnitude = (mapped + 1) // 2
    return magnitude if mapped % 2 else -magnitude


def encode_block(writer: BitWriter, levels: np.ndarray) -> None:
    """Entropy-code one 8x8 block of quantized levels, field by field.

    Syntax: a coded-block flag, then (run, level, last) events — run as
    ue(v), level as se(v) (never zero), last as one bit.
    """
    levels = np.asarray(levels)
    if levels.shape != (8, 8):
        raise ValueError(f"expected an 8x8 block, got {levels.shape}")
    events = run_level_events(levels.reshape(64)[zigzag_order()])
    writer.write_bit(1 if events else 0)
    for run, level, last in events:
        write_ue(writer, run)
        write_se(writer, level)
        writer.write_bit(1 if last else 0)


def encode_blocks(writer: BitWriter, blocks: Iterable[np.ndarray]) -> None:
    """Entropy-code a sequence of 8x8 blocks, one after another."""
    for block in blocks:
        encode_block(writer, block)


def decode_blocks(reader: BitReader, count: int) -> np.ndarray:
    """Decode ``count`` 8x8 blocks into a ``(count, 8, 8)`` array.

    The VLC scan is sequential; the decoded (block, position, level)
    triples are scattered into the coefficient array in one batch at
    the end.
    """
    blocks: list[int] = []
    positions: list[int] = []
    levels: list[int] = []
    for block in range(count):
        if reader.read_bit() == 0:
            continue  # block entirely zero
        position = -1
        while True:
            run = reader.read_exp_golomb()
            mapped = reader.read_exp_golomb()
            if mapped == 0:
                raise BitstreamError("run-level event with zero level")
            magnitude = (mapped + 1) // 2
            level = magnitude if mapped & 1 else -magnitude
            last = reader.read_bit()
            position += run + 1
            if position >= 64:
                raise BitstreamError(
                    f"run-level overrun: position {position} >= 64"
                )
            blocks.append(block)
            positions.append(position)
            levels.append(level)
            if last:
                break
    out = np.zeros((count, 64), dtype=np.int32)
    if levels:
        out[blocks, positions] = levels
    return out[:, inverse_zigzag_order()].reshape(count, 8, 8)


def decode_block(reader: BitReader) -> np.ndarray:
    """Decode one 8x8 block of quantized levels (inverse of encode_block)."""
    return decode_blocks(reader, 1)[0]


@dataclass(frozen=True)
class EncodedMacroblock:
    """One macroblock's syntax elements, as the scalar readers return them.

    The sequential :func:`decode_macroblock` and the reference decoder
    use it; the frame-batched decoder keeps a fragment's parse as arrays
    instead.
    """

    mode: MacroblockMode
    mv: tuple[int, int]
    coefficients: np.ndarray  # (4 or 6, 8, 8) int32 quantized levels


def encode_macroblock(
    writer: BitWriter,
    frame_type: FrameType,
    mode: MacroblockMode,
    mv: tuple[int, int],
    blocks: np.ndarray,
) -> None:
    """Write one macroblock's syntax elements.

    ``blocks`` is the macroblock's quantized level array: ``(4, 8, 8)``
    luma-only or ``(6, 8, 8)`` with 4:2:0 chroma (Y Y Y Y Cb Cr, the
    H.263 block order).  I-frames carry no mode bit (every macroblock
    is intra) and no motion vector; P-frame inter macroblocks carry the
    motion vector as two signed Exp-Golomb codes.
    """
    if frame_type is FrameType.I and mode is not MacroblockMode.INTRA:
        raise ValueError("I-frames may only contain intra macroblocks")
    if frame_type is FrameType.P:
        writer.write_bit(1 if mode is MacroblockMode.INTRA else 0)
        if mode is MacroblockMode.INTER:
            write_se(writer, mv[0])
            write_se(writer, mv[1])
    encode_blocks(writer, blocks)


def encode_macroblock_skippable(
    writer: BitWriter,
    frame_type: FrameType,
    mode: MacroblockMode,
    mv: tuple[int, int],
    blocks: np.ndarray,
) -> None:
    """Macroblock syntax with H.263's COD bit (``allow_skip`` codecs).

    P-frame macroblocks lead with one bit: 1 = skipped (zero motion,
    zero residual, nothing else coded), 0 = coded, followed by the
    plain macroblock syntax.  I-frames never skip.
    """
    if frame_type is FrameType.P:
        skippable = (
            mode is MacroblockMode.INTER
            and mv == (0, 0)
            and not blocks.any()
        )
        writer.write_bit(1 if skippable else 0)
        if skippable:
            return
    encode_macroblock(writer, frame_type, mode, mv, blocks)


def decode_macroblock(
    reader: BitReader, frame_type: FrameType, blocks_per_mb: int = 4
) -> EncodedMacroblock:
    """Read one macroblock's syntax elements (inverse of encode).

    ``blocks_per_mb`` is 4 for luma-only streams, 6 with 4:2:0 chroma;
    it comes from the codec configuration shared out of band (like the
    picture dimensions).
    """
    if blocks_per_mb not in (4, 6):
        raise ValueError(f"blocks_per_mb must be 4 or 6, got {blocks_per_mb}")
    if frame_type is FrameType.I:
        mode = MacroblockMode.INTRA
        mv = (0, 0)
    else:
        mode = MacroblockMode.INTRA if reader.read_bit() else MacroblockMode.INTER
        if mode is MacroblockMode.INTER:
            mv = (read_se(reader), read_se(reader))
        else:
            mv = (0, 0)
    coefficients = decode_blocks(reader, blocks_per_mb)
    return EncodedMacroblock(mode=mode, mv=mv, coefficients=coefficients)


def decode_macroblock_skippable(
    reader: BitReader, frame_type: FrameType, blocks_per_mb: int = 4
) -> EncodedMacroblock:
    """Inverse of :func:`encode_macroblock_skippable`.

    A skipped macroblock comes back as INTER with zero motion and an
    all-zero coefficient array — semantically identical to decoding a
    fully coded-but-empty macroblock, just one bit on the wire.
    """
    if frame_type is FrameType.P and reader.read_bit():
        return EncodedMacroblock(
            mode=MacroblockMode.INTER,
            mv=(0, 0),
            coefficients=np.zeros((blocks_per_mb, 8, 8), dtype=np.int32),
        )
    return decode_macroblock(reader, frame_type, blocks_per_mb)


def _average_window(window: np.ndarray, fy: int, fx: int) -> np.ndarray:
    """H.263 bilinear from a ``(..., 16+fy, 16+fx)`` integer window."""
    if fy == 0 and fx == 0:
        return window
    if fy == 0:
        return (window[..., :, :-1] + window[..., :, 1:] + 1) >> 1
    if fx == 0:
        return (window[..., :-1, :] + window[..., 1:, :] + 1) >> 1
    return (
        window[..., :-1, :-1]
        + window[..., :-1, 1:]
        + window[..., 1:, :-1]
        + window[..., 1:, 1:]
        + 2
    ) >> 2


def fetch_block_half(
    padded: np.ndarray, pad: int, origin_y: int, origin_x: int, mv: tuple[int, int]
) -> np.ndarray:
    """Fetch one 16x16 prediction at a half-pel vector.

    ``padded`` is the edge-padded int64 reference; ``origin_y/x`` are the
    macroblock's pixel origin in the unpadded frame; ``mv`` is
    ``(dy, dx)`` in half-pel units.
    """
    iy, fy = divmod(int(mv[0]), 2)
    ix, fx = divmod(int(mv[1]), 2)
    y = origin_y + pad + iy
    x = origin_x + pad + ix
    window = padded[y : y + MB + fy, x : x + MB + fx]
    return _average_window(window, fy, fx)


def chroma_vector(component: int) -> int:
    """Map a luma motion-vector component to 4:2:0 chroma (divide by
    two, rounding half away from zero)."""
    magnitude = (abs(int(component)) + 1) // 2
    return magnitude if component >= 0 else -magnitude


def pad_references(
    reference: np.ndarray,
    reference_chroma: Optional[tuple[np.ndarray, np.ndarray]],
    pad: int,
) -> tuple[np.ndarray, Optional[list[np.ndarray]]]:
    """Edge-padded int64 copies of the reference planes, ``pad`` pixels
    on every side, for :func:`predict_macroblock_scalar`."""
    padded = np.pad(reference.astype(np.int64), pad, mode="edge")
    if reference_chroma is None:
        return padded, None
    return padded, [
        np.pad(plane.astype(np.int64), pad, mode="edge")
        for plane in reference_chroma
    ]


def predict_macroblock_scalar(
    padded: np.ndarray,
    padded_chroma: Optional[list[np.ndarray]],
    pad: int,
    row: int,
    col: int,
    mv: tuple[int, int],
    half_pel: bool,
) -> np.ndarray:
    """One inter macroblock's ``(blocks_per_mb, 8, 8)`` int64 prediction.

    The scalar twin of :func:`repro.codec.recon.predict`: the luma is a
    slice of the padded reference (or :func:`fetch_block_half` at half
    pel), and the chroma a slice at the whole-pixel luma vector (half
    pel truncated toward zero) mapped by :func:`chroma_vector`.  ``pad``
    must cover the vector (plus one for a half-pel window).
    """
    if half_pel:
        luma = fetch_block_half(padded, pad, row * MB, col * MB, mv)
        pixel_mv = [int(np.fix(v / 2.0)) for v in mv]
    else:
        y = row * MB + pad + mv[0]
        x = col * MB + pad + mv[1]
        luma = padded[y : y + MB, x : x + MB]
        pixel_mv = list(mv)
    blocks = [luma[:BLK, :BLK], luma[:BLK, BLK:], luma[BLK:, :BLK], luma[BLK:, BLK:]]
    if padded_chroma is not None:
        cdy, cdx = (chroma_vector(v) for v in pixel_mv)
        y, x = row * BLK + pad + cdy, col * BLK + pad + cdx
        blocks += [plane[y : y + BLK, x : x + BLK] for plane in padded_chroma]
    return np.stack(blocks).astype(np.int64)


def decode_frame_scalar(
    config: CodecConfig,
    fragments: Iterable[bytes],
    reference: Optional[np.ndarray],
    expected_index: int = 0,
    reference_chroma: Optional[tuple[np.ndarray, np.ndarray]] = None,
    counters: Optional[OperationCounters] = None,
) -> DecodeResult:
    """Cold per-fragment decode of one frame, one block at a time.

    The twin of :meth:`repro.codec.decoder.Decoder.decode_frame` with
    no batching and no memo: each fragment is read macroblock by
    macroblock with the sequential syntax readers, every block of every
    salvaged macroblock is dequantized and inverse-transformed alone
    (coded or not), and each macroblock is predicted and written onto
    the canvas before the next, so a later fragment overwrites an
    earlier one.  Salvage follows the decoder's contract: a macroblock
    that fails to parse, or an inter macroblock with no reference or a
    vector beyond ``config.mv_limit``, ends the fragment's prefix, and a
    fragment that raises anything else contributes nothing.  Work is
    billed into ``counters`` as the decoder bills it.
    """
    counters = counters if counters is not None else OperationCounters()
    if reference is None:
        canvas = np.full((config.height, config.width), 128, dtype=np.uint8)
    else:
        canvas = reference.copy()
    planes = None
    if config.chroma:
        half = (config.height // 2, config.width // 2)
        if reference_chroma is None:
            planes = tuple(np.full(half, 128, dtype=np.uint8) for _ in range(2))
        else:
            planes = tuple(plane.copy() for plane in reference_chroma)
    received = np.zeros((config.mb_rows, config.mb_cols), dtype=bool)
    modes = np.full((config.mb_rows, config.mb_cols), None, dtype=object)
    mvs_pixels = np.zeros((config.mb_rows, config.mb_cols, 2), dtype=np.int64)
    frame_index, frame_type, damaged = expected_index, FrameType.P, 0

    allow_inter = reference is not None and not (
        config.chroma and reference_chroma is None
    )
    # Wide enough for any vector within mv_limit, half-pel window too.
    pad = config.search_range + 2
    if allow_inter:
        padded, padded_chroma = pad_references(
            reference, reference_chroma if config.chroma else None, pad
        )
    read_mb = (
        decode_macroblock_skippable if config.allow_skip else decode_macroblock
    )
    fixed = config.use_fixed_point_dct

    for payload in fragments:
        reader = BitReader(payload)
        try:
            header = read_fragment_header(reader)
            if header.first_mb + header.mb_count > config.mb_count:
                damaged += 1
                continue
            salvaged = []
            consumed = reader.bits_consumed
            for _ in range(header.mb_count):
                try:
                    emb = read_mb(reader, header.frame_type, config.blocks_per_mb)
                except BitstreamError:
                    break
                consumed = reader.bits_consumed
                if emb.mode is MacroblockMode.INTER and (
                    not allow_inter
                    or max(abs(emb.mv[0]), abs(emb.mv[1])) > config.mv_limit
                ):
                    break
                salvaged.append(emb)
        except Exception:  # noqa: BLE001 - the decoder's containment contract
            damaged += 1
            continue
        counters.entropy_bits += consumed
        if len(salvaged) < header.mb_count:
            damaged += 1
        frame_index, frame_type = header.frame_index, header.frame_type

        for offset, emb in enumerate(salvaged):
            row, col = divmod(header.first_mb + offset, config.mb_cols)
            intra = emb.mode is MacroblockMode.INTRA
            pixels = np.stack(
                [
                    inverse_dct_block(dequantize_block(block, intra, header.qp), fixed)
                    for block in emb.coefficients
                ]
            )
            if not intra:
                pixels = pixels + predict_macroblock_scalar(
                    padded, padded_chroma, pad, row, col, emb.mv, config.half_pel
                )
            pixels = np.clip(pixels, 0, 255)
            canvas[row * MB : (row + 1) * MB, col * MB : (col + 1) * MB] = (
                np.block([[pixels[0], pixels[1]], [pixels[2], pixels[3]]])
            )
            if planes is not None:
                for component, plane in enumerate(planes):
                    plane[row * BLK : (row + 1) * BLK, col * BLK : (col + 1) * BLK] = (
                        pixels[4 + component]
                    )
            divisor = 2 if config.half_pel else 1
            received[row, col] = True
            modes[row, col] = emb.mode
            mvs_pixels[row, col] = [int(v / divisor) for v in emb.mv]
            counters.mode_decisions += 1
            counters.mc_blocks += 0 if intra else 1
            counters.dequant_blocks += config.blocks_per_mb
            counters.idct_blocks += config.blocks_per_mb

    return DecodeResult(
        frame_index=frame_index,
        frame_type=frame_type,
        frame=canvas,
        received=received,
        modes=modes,
        mvs_pixels=mvs_pixels,
        chroma=planes,
        damaged_fragments=damaged,
    )
