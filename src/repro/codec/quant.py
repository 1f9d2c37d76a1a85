"""H.263-style scalar quantization of DCT coefficients.

H.263 quantizes with a uniform step of ``2 * QP`` (QP in [1, 31]) and a
dead zone for inter blocks, and reconstructs mid-rise:
``|rec| = QP * (2 |level| + 1)`` (minus one when QP is even, to keep the
value odd — the standard's oddification).  The intra DC coefficient is
special-cased with a fixed step of 8, as in the standard.

:func:`quantize_blocks` / :func:`dequantize_blocks` take a *per-block*
intra flag (or one flag for the whole batch) and process a mixed
intra/inter ``(..., 8, 8)`` stack in a single vectorized pass, which is
how the encoder and decoder feed a whole frame at once without
boolean-mask gather/scatter round trips.  The quantizer maps each
clamped coefficient through a precomputed table (one row per block
mode) instead of dividing per coefficient; the intra DC special case is
selected per block with ``np.where``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Coefficient clamp range (H.263 reconstruction levels are 12-bit).
COEFF_MIN, COEFF_MAX = -2048, 2047
#: Quantized level clamp (H.263 levels are signed 8-bit, +/-127).
LEVEL_MIN, LEVEL_MAX = -127, 127
#: Fixed quantizer step for the intra DC coefficient.
INTRA_DC_STEP = 8


def _check_qp(qp) -> None:
    values = np.asarray(qp)
    if values.size and not (values.min() >= 1 and values.max() <= 31):
        raise ValueError(f"QP must be in [1, 31], got {qp}")


def _block_mask(intra, lead_shape: tuple[int, ...]) -> np.ndarray:
    """Broadcast a per-block intra flag to the batch's leading axes."""
    return np.broadcast_to(np.asarray(intra, dtype=bool), lead_shape)


@lru_cache(maxsize=None)
def _level_table(qp: int) -> np.ndarray:
    """The level of every clamped coefficient: intra row, then inter row.

    Intra blocks use ``level = coeff / (2 QP)``; inter blocks subtract a
    half-step dead zone first, which suppresses small residual noise.
    Indexed by ``coeff - COEFF_MIN`` (plus :data:`_INTER_ROW` for inter
    blocks), a lookup replaces the per-coefficient division.
    """
    coefficients = np.arange(COEFF_MIN, COEFF_MAX + 1)
    dead_zone = np.array([[0], [qp // 2]])
    levels = np.maximum(np.abs(coefficients) - dead_zone, 0) // (2 * qp)
    np.minimum(levels, LEVEL_MAX, out=levels)
    table = (np.sign(coefficients) * levels).astype(np.int32).reshape(-1)
    table.setflags(write=False)
    return table


#: Offset of the inter row in :func:`_level_table`.
_INTER_ROW = COEFF_MAX - COEFF_MIN + 1


def quantize_blocks(
    coefficients: np.ndarray, intra, qp: int
) -> np.ndarray:
    """Quantize a mixed intra/inter ``(..., 8, 8)`` stack in one pass.

    ``intra`` is a bool array broadcastable to the stack's leading axes
    (one flag per block).  Each coefficient, clamped to the 12-bit
    range (float coefficients truncated), is looked up in its block
    mode's row of :func:`_level_table`.  The intra DC term uses the
    fixed step :data:`INTRA_DC_STEP` and is kept strictly positive
    (H.263 codes it as an unsigned byte).
    """
    _check_qp(qp)
    # np.minimum/np.maximum, not np.clip: on integer arrays numpy 2's
    # clip builds two np.iinfo objects per call.
    coefficients = np.minimum(
        np.maximum(np.asarray(coefficients), COEFF_MIN), COEFF_MAX
    )
    intra = _block_mask(intra, coefficients.shape[:-2])
    dc = np.rint(coefficients[..., 0, 0] / INTRA_DC_STEP).astype(np.int32)
    np.maximum(dc, 1, out=dc)
    np.minimum(dc, 254, out=dc)
    # ``coefficients`` is this call's own copy, so it may become the index.
    index = coefficients.astype(np.int64, copy=False)
    index += np.where(intra, -COEFF_MIN, _INTER_ROW - COEFF_MIN)[..., None, None]
    levels = _level_table(int(qp))[index]
    levels[..., 0, 0] = np.where(intra, dc, levels[..., 0, 0])
    return levels


def dequantize_blocks(levels: np.ndarray, intra, qp) -> np.ndarray:
    """Reconstruct a mixed intra/inter stack of quantized levels.

    Inverse of :func:`quantize_blocks` up to quantization error:
    ``|rec| = QP (2|level| + 1)`` for nonzero levels, oddified for even
    QP, clamped to the 12-bit coefficient range; the intra DC term is
    rebuilt with its fixed step.  ``qp`` is one QP for the whole stack
    or, like ``intra``, one per block (a decoder batching fragments
    that each carry their own QP).
    """
    _check_qp(qp)
    levels = np.asarray(levels, dtype=np.int64)
    lead = levels.shape[:-2]
    intra = _block_mask(intra, lead)
    qp = np.asarray(qp, dtype=np.int64)
    if qp.ndim:
        qp = np.broadcast_to(qp, lead)[..., None, None]
    # sign() zeroes the zero levels, which reconstruct to 0.
    reconstructed = np.sign(levels) * (
        qp * (2 * np.abs(levels) + 1) - (1 - qp % 2)
    )
    reconstructed[..., 0, 0] = np.where(
        intra, levels[..., 0, 0] * INTRA_DC_STEP, reconstructed[..., 0, 0]
    )
    np.maximum(reconstructed, COEFF_MIN, out=reconstructed)
    np.minimum(reconstructed, COEFF_MAX, out=reconstructed)
    return reconstructed.astype(np.int32)

