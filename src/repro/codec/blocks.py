"""Reshaping helpers between frames, 16x16 macroblocks and 8x8 blocks.

All routines are reshape/transpose operations or one gather of windows,
so the whole frame is processed as one numpy batch; nothing here copies
per macroblock in a Python loop.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MB = 16  # macroblock edge
BLK = 8  # transform block edge


def frame_to_macroblocks(frame: np.ndarray) -> np.ndarray:
    """``(H, W)`` frame -> ``(mb_rows, mb_cols, 16, 16)`` macroblock grid."""
    height, width = frame.shape
    if height % MB or width % MB:
        raise ValueError(f"frame {width}x{height} not divisible by {MB}")
    return (
        frame.reshape(height // MB, MB, width // MB, MB)
        .transpose(0, 2, 1, 3)
        .copy()
    )


def macroblocks_to_frame(macroblocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`frame_to_macroblocks`."""
    mb_rows, mb_cols = macroblocks.shape[:2]
    return (
        macroblocks.transpose(0, 2, 1, 3)
        .reshape(mb_rows * MB, mb_cols * MB)
        .copy()
    )


def macroblocks_to_blocks(macroblocks: np.ndarray) -> np.ndarray:
    """``(..., 16, 16)`` macroblocks -> ``(..., 4, 8, 8)`` transform blocks.

    Block order within a macroblock is top-left, top-right, bottom-left,
    bottom-right (H.263 luma block order).
    """
    lead = macroblocks.shape[:-2]
    reshaped = macroblocks.reshape(*lead, 2, BLK, 2, BLK)
    axes = tuple(range(len(lead))) + (
        len(lead),
        len(lead) + 2,
        len(lead) + 1,
        len(lead) + 3,
    )
    return reshaped.transpose(axes).reshape(*lead, 4, BLK, BLK).copy()


def blocks_to_macroblocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`macroblocks_to_blocks`."""
    lead = blocks.shape[:-3]
    reshaped = blocks.reshape(*lead, 2, 2, BLK, BLK)
    axes = tuple(range(len(lead))) + (
        len(lead),
        len(lead) + 2,
        len(lead) + 1,
        len(lead) + 3,
    )
    return reshaped.transpose(axes).reshape(*lead, MB, MB).copy()


def plane_to_blocks(plane: np.ndarray) -> np.ndarray:
    """``(H, W)`` plane -> ``(H/8, W/8, 8, 8)`` grid of transform blocks.

    For a 4:2:0 chroma plane this grid aligns one block per luma
    macroblock.
    """
    height, width = plane.shape
    if height % BLK or width % BLK:
        raise ValueError(f"plane {width}x{height} not divisible by {BLK}")
    return (
        plane.reshape(height // BLK, BLK, width // BLK, BLK)
        .transpose(0, 2, 1, 3)
        .copy()
    )


def blocks_to_plane(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`plane_to_blocks`."""
    rows, cols = blocks.shape[:2]
    return blocks.transpose(0, 2, 1, 3).reshape(rows * BLK, cols * BLK).copy()


def gather_blocks(
    plane: np.ndarray, top: np.ndarray, left: np.ndarray, size: int
) -> np.ndarray:
    """``(n, size, size)`` blocks of ``plane`` at ``(top, left)``.

    Coordinates outside the plane clamp to its border, which is what an
    edge-padded reference holds there.  The blocks are read from the
    windows of the plane edge-padded by ``size``, with each corner
    clamped to ``[-size, dim]``: a window lying wholly outside the plane
    reads only border pixels, wherever it lies.
    """
    height, width = plane.shape
    # Edge padding by hand: np.pad's own bookkeeping costs more than
    # these five copies, and the pad is most of a small gather's time.
    padded = np.empty((height + 2 * size, width + 2 * size), dtype=plane.dtype)
    inner = padded[size:-size]
    inner[:, size:-size] = plane
    inner[:, :size] = plane[:, :1]
    inner[:, -size:] = plane[:, -1:]
    padded[:size] = inner[0]
    padded[-size:] = inner[-1]
    windows = sliding_window_view(padded, (size, size))
    rows = np.minimum(np.maximum(top, -size), height) + size
    cols = np.minimum(np.maximum(left, -size), width) + size
    return windows[rows, cols]


def sad_self(frame: np.ndarray) -> np.ndarray:
    """The paper's ``SAD_self`` for every macroblock of a frame.

    ``SAD_self`` is the deviation of a macroblock from its own mean — the
    cost proxy for intra-coding it.  The inter/intra decision of Figure 4
    compares it against the motion-compensated SAD.
    Returns an ``(mb_rows, mb_cols)`` int64 array.
    """
    macroblocks = frame_to_macroblocks(frame.astype(np.int64))
    means = macroblocks.mean(axis=(2, 3), keepdims=True)
    return np.abs(macroblocks - np.rint(means)).sum(axis=(2, 3)).astype(np.int64)


def colocated_sad(current: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Per-macroblock SAD between colocated blocks of two frames.

    This is the zero-motion SAD — the content-activity signal that both
    AIR's ranking and PBPAIR's similarity factor are built on.
    """
    if current.shape != previous.shape:
        raise ValueError("frames must share dimensions")
    diff = np.abs(current.astype(np.int64) - previous.astype(np.int64))
    return frame_to_macroblocks(diff).sum(axis=(2, 3)).astype(np.int64)
