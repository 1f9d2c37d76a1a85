"""Half-pel motion compensation and search refinement (opt-in).

H.263's motion vectors have half-pixel precision: the predictor may sit
between reference pixels, computed by bilinear averaging with H.263's
rounding (``(a + b + 1) >> 1`` on one axis, ``(a + b + c + d + 2) >> 2``
diagonally).  Sub-pixel prediction is where a large share of real
codecs' coding gain on smooth motion comes from.

This module is enabled with ``CodecConfig(half_pel=True)``.  Motion
vector *units* then change from integer pixels to half-pixels
everywhere they are coded or compensated (``EncodedMacroblock.mv``,
``FrameDecisions.mv``, the bitstream); strategy feedback stays in
pixel units (``repro.core.correctness`` reasons about macroblock
overlap, a pixel-domain notion).

The search strategy is the classic two-stage one: the integer-pel
estimators find the best whole-pixel vector, then
:func:`refine_half_pel` scores the eight half-pel neighbours around it
(8 extra SAD candidates per searched macroblock, charged to the
counters like any other candidates).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.codec.blocks import MB


def halfpel_to_pixels(mvs_half: np.ndarray) -> np.ndarray:
    """Half-pel motion field -> integer-pixel field (truncate to zero).

    Used for strategy feedback and chroma derivation; truncation keeps
    the overlap reasoning (which macroblocks a reference touches)
    conservative and within the +/-15 range the correctness update
    assumes.
    """
    return np.fix(np.asarray(mvs_half) / 2.0).astype(np.int64)


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


def motion_compensate_half(
    reference: np.ndarray, mvs_half: np.ndarray
) -> np.ndarray:
    """Full-frame prediction from a half-pel motion field."""
    height, width = reference.shape
    mb_rows, mb_cols = height // MB, width // MB
    if mvs_half.shape != (mb_rows, mb_cols, 2):
        raise ValueError(f"motion field shape {mvs_half.shape} mismatches frame")
    pad = int(np.abs(mvs_half).max() // 2 + 2) if mvs_half.size else 2
    padded = np.pad(reference.astype(np.int64), pad, mode="edge")
    prediction = np.empty((height, width), dtype=np.int64)
    for row in range(mb_rows):
        for col in range(mb_cols):
            block = fetch_block_half(
                padded,
                pad,
                row * MB,
                col * MB,
                (int(mvs_half[row, col, 0]), int(mvs_half[row, col, 1])),
            )
            prediction[row * MB : (row + 1) * MB, col * MB : (col + 1) * MB] = (
                block
            )
    return prediction


def refine_half_pel(
    current: np.ndarray,
    reference: np.ndarray,
    mvs_int: np.ndarray,
    sads_int: np.ndarray,
    active: np.ndarray,
    search_range: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Refine an integer-pel field by scoring 8 half-pel neighbours.

    Args:
        current: frame being encoded.
        reference: reconstruction being predicted from.
        mvs_int: ``(rows, cols, 2)`` integer-pel field.
        sads_int: SADs of the integer-pel winners.
        active: macroblocks that were actually searched (skipped ones
            keep a zero vector and are not refined).
        search_range: integer-pel range; half-pel components are kept
            within ``2 * search_range`` so the decoder's bound check is
            a single comparison.

    Returns:
        ``(mvs_half, sads, candidates_evaluated)`` — the field in
        half-pel units (inactive macroblocks stay zero), refined SADs,
        and the number of extra SAD evaluations performed.
    """
    mb_rows, mb_cols = sads_int.shape
    rows_idx, cols_idx = np.nonzero(active)
    n = rows_idx.size
    mvs_half = 2 * mvs_int.astype(np.int64)
    sads = sads_int.astype(np.int64).copy()
    if n == 0:
        return mvs_half, sads, 0

    pad = search_range + 2
    padded = np.pad(reference.astype(np.int64), pad, mode="edge")
    current_i = current.astype(np.int64)
    current_mbs = np.stack(
        [
            current_i[r * MB : (r + 1) * MB, c * MB : (c + 1) * MB]
            for r, c in zip(rows_idx, cols_idx)
        ]
    )
    base_y = rows_idx * MB + pad
    base_x = cols_idx * MB + pad
    int_dy = mvs_int[rows_idx, cols_idx, 0].astype(np.int64)
    int_dx = mvs_int[rows_idx, cols_idx, 1].astype(np.int64)

    best_dy = 2 * int_dy
    best_dx = 2 * int_dx
    best_sad = sads[rows_idx, cols_idx].copy()
    limit = 2 * search_range
    evaluated = 0

    for oy in (-1, 0, 1):
        for ox in (-1, 0, 1):
            if oy == 0 and ox == 0:
                continue
            dyh = 2 * int_dy + oy
            dxh = 2 * int_dx + ox
            # Neighbours that would leave the coded range are scored
            # but never selected (the gather is safe: the padding
            # covers one half-pel beyond the range).
            valid = (np.abs(dyh) <= limit) & (np.abs(dxh) <= limit)
            # For a fixed neighbour offset the half-pel phase is the
            # same for every macroblock (2*int is even), so one
            # vectorized gather with one averaging pattern covers all.
            fy = oy & 1
            fx = ox & 1
            iy = (dyh - fy) // 2
            ix = (dxh - fx) // 2
            span_y = np.arange(MB + fy)
            span_x = np.arange(MB + fx)
            rows = (base_y + iy)[:, None, None] + span_y[None, :, None]
            cols = (base_x + ix)[:, None, None] + span_x[None, None, :]
            candidates = _average_window(padded[rows, cols], fy, fx)
            sad = np.abs(current_mbs - candidates).sum(axis=(1, 2))
            evaluated += n
            better = (sad < best_sad) & valid
            best_sad = np.where(better, sad, best_sad)
            best_dy = np.where(better, dyh, best_dy)
            best_dx = np.where(better, dxh, best_dx)

    mvs_half[rows_idx, cols_idx, 0] = best_dy
    mvs_half[rows_idx, cols_idx, 1] = best_dx
    sads[rows_idx, cols_idx] = best_sad
    return mvs_half, sads, evaluated
