"""Prediction and reconstruction: the one H.263 rule both sides apply.

The encoder predicts from its own decoded output (the paper's Fig. 1
closed loop), so it and the decoder must form every prediction and
every reconstructed pixel identically.  Both call the two kernels here,
and half-pel search scores its candidates with
:func:`~repro.codec.halfpel.predict_half`, the luma kernel
:func:`predict` uses at half pel:

* :func:`predict` gathers the inter macroblocks' predictions from the
  reference planes.  Luma is displaced by the coded vector (full or
  half pel); 4:2:0 chroma by the luma vector in whole pixels (half-pel
  vectors truncated toward zero), halved with rounding half away from
  zero.  Coordinates past the frame clamp to its border, as edge
  padding does.
* :func:`reconstruct` places the inverse-transformed coded blocks into
  an exact-zero residual, adds the prediction on the inter macroblocks
  and clips to 8 bits.

Neither kernel transforms or quantizes: each caller runs its one
dequantization and inverse DCT through its own module's bindings and
hands the transformed coded blocks over.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.codec.blocks import BLK, MB, gather_blocks, macroblocks_to_blocks
from repro.codec.halfpel import halfpel_to_pixels, predict_half


def predict(
    reference: np.ndarray,
    reference_chroma: Optional[tuple[np.ndarray, np.ndarray]],
    rows: np.ndarray,
    cols: np.ndarray,
    mv: np.ndarray,
    half_pel: bool,
) -> np.ndarray:
    """The ``(n, blocks_per_mb, 8, 8)`` int64 predictions of ``n`` inter
    macroblocks.

    ``rows``/``cols`` are the macroblocks' grid positions and ``mv`` their
    ``(n, 2)`` coded vectors (half-pel units when ``half_pel``).  Blocks
    follow H.263 order: four luma blocks, then Cb and Cr when
    ``reference_chroma`` is given.
    """
    top, left = rows * MB, cols * MB
    if half_pel:
        luma = predict_half(reference, top, left, mv)
    else:
        luma = gather_blocks(reference, top + mv[:, 0], left + mv[:, 1], MB)
    blocks = [macroblocks_to_blocks(luma)]
    if reference_chroma is not None:
        pixels = halfpel_to_pixels(mv) if half_pel else mv
        chroma_mv = np.sign(pixels) * ((np.abs(pixels) + 1) // 2)
        blocks += [
            gather_blocks(
                plane, rows * BLK + chroma_mv[:, 0], cols * BLK + chroma_mv[:, 1], BLK
            )[:, None]
            for plane in reference_chroma
        ]
    return np.concatenate(blocks, axis=1, dtype=np.int64)


def reconstruct(
    transformed: np.ndarray,
    coded: np.ndarray,
    shape: tuple[int, int],
    inter: np.ndarray,
    prediction: Optional[np.ndarray],
) -> np.ndarray:
    """The ``(n_mb, blocks_per_mb, 8, 8)`` uint8 reconstruction.

    ``transformed`` holds the inverse-transformed residuals of the blocks
    listed by flat index in ``coded``; every other block's residual is
    exactly zero, in the transform's own dtype (the float DCT stays float
    until the clip).  ``prediction`` (``predict``'s output for the
    macroblocks where the bool mask ``inter`` is set) is added there; it
    may be None when no macroblock is inter.
    """
    n_mb, blocks_per_mb = shape
    decoded = np.zeros((n_mb * blocks_per_mb, BLK, BLK), dtype=transformed.dtype)
    decoded[coded] = transformed
    decoded = decoded.reshape(n_mb, blocks_per_mb, BLK, BLK)
    if prediction is not None:
        decoded[inter] += prediction
    np.maximum(decoded, 0, out=decoded)
    np.minimum(decoded, 255, out=decoded)
    return decoded.astype(np.uint8)
