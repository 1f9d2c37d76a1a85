"""Half-pel motion compensation and search refinement (opt-in).

H.263's motion vectors have half-pixel precision: the predictor may sit
between reference pixels, computed by bilinear averaging with H.263's
rounding (``(a + b + 1) >> 1`` on one axis, ``(a + b + c + d + 2) >> 2``
diagonally).  Sub-pixel prediction is where a large share of real
codecs' coding gain on smooth motion comes from.

This module is enabled with ``CodecConfig(half_pel=True)``.  Motion
vector *units* then change from integer pixels to half-pixels
everywhere they are coded or compensated (``FrameDecisions.mv``, the
bitstream, the decoder's parse); strategy feedback stays in pixel
units (``repro.core.correctness`` reasons about macroblock overlap, a
pixel-domain notion).

:func:`predict_half` is the one half-pel prediction kernel: the
encoder's and the decoder's :func:`repro.codec.recon.predict` and the
search refinement all call it.  The search strategy is the classic
two-stage one: the integer-pel estimators find the best whole-pixel
vector, then :func:`refine_half_pel` scores the eight half-pel
neighbours around it (8 extra SAD candidates per searched macroblock,
charged to the counters like any other candidates).
"""

from __future__ import annotations

import numpy as np

from repro.codec.blocks import MB, gather_blocks


def halfpel_to_pixels(mvs_half: np.ndarray) -> np.ndarray:
    """Half-pel motion field -> integer-pixel field (truncate to zero).

    Used for strategy feedback and chroma derivation; truncation keeps
    the overlap reasoning (which macroblocks a reference touches)
    conservative and within the +/-15 range the correctness update
    assumes.
    """
    return np.fix(np.asarray(mvs_half) / 2.0).astype(np.int64)


def predict_half(
    reference: np.ndarray, top: np.ndarray, left: np.ndarray, mv: np.ndarray
) -> np.ndarray:
    """The ``(n, 16, 16)`` int16 predictions of the macroblocks at pixel
    ``(top, left)`` displaced by the half-pel vectors ``mv`` (``(n, 2)``).

    One 17x17 window per macroblock is gathered, and its four 16x16
    sub-windows are averaged as ``(a + b + c + d + 2) >> 2``.  Where a
    fractional part is zero the shifted window is the unshifted one, so
    the same sum gives the two-tap ``(a + b + 1) >> 1`` and the plain
    pixel.  Coordinates past the frame clamp to its border, as edge
    padding does.
    """
    fy = (mv[:, 0] & 1).astype(bool)[:, None, None]
    fx = (mv[:, 1] & 1).astype(bool)[:, None, None]
    window = gather_blocks(
        reference, top + (mv[:, 0] >> 1), left + (mv[:, 1] >> 1), MB + 1
    ).astype(np.int16)
    pairs = window[:, :, :MB] + np.where(fx, window[:, :, 1:], window[:, :, :MB])
    quads = pairs[:, :MB] + np.where(fy, pairs[:, 1:], pairs[:, :MB])
    return (quads + 2) >> 2


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
    rows_idx, cols_idx = np.nonzero(active)
    mvs_half = 2 * mvs_int.astype(np.int64)
    sads = sads_int.astype(np.int64).copy()
    if rows_idx.size == 0:
        return mvs_half, sads, 0

    height, width = current.shape
    current_mbs = current.astype(np.int16).reshape(
        height // MB, MB, width // MB, MB
    ).transpose(0, 2, 1, 3)[rows_idx, cols_idx]
    top, left = rows_idx * MB, cols_idx * MB
    best = mvs_half[rows_idx, cols_idx]
    centre = best.copy()
    best_sad = sads[rows_idx, cols_idx]
    limit = 2 * search_range
    evaluated = 0

    for oy in (-1, 0, 1):
        for ox in (-1, 0, 1):
            if oy == 0 and ox == 0:
                continue
            candidate = centre + (oy, ox)
            # Neighbours that would leave the coded range are scored
            # but never selected.
            valid = (np.abs(candidate) <= limit).all(axis=1)
            diff = current_mbs - predict_half(reference, top, left, candidate)
            sad = np.abs(diff).sum(axis=(1, 2), dtype=np.int64)
            evaluated += rows_idx.size
            better = (sad < best_sad) & valid
            best_sad[better] = sad[better]
            best[better] = candidate[better]

    mvs_half[rows_idx, cols_idx] = best
    sads[rows_idx, cols_idx] = best_sad
    return mvs_half, sads, evaluated
