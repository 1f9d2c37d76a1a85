"""Spatial-interpolation concealment (extension).

Estimates each lost macroblock from the received macroblocks around it
— "making use of inherent correlation among spatially ... adjacent
samples" per the paper's survey citation.  Each lost macroblock becomes
a bilinear blend of its nearest received neighbours in the four
cardinal directions, falling back to copy concealment when it is fully
surrounded by losses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.concealment.base import ConcealmentStrategy
from repro.concealment.copy import CopyConcealment
from repro.obs.tracer import get_tracer


class SpatialConcealment(ConcealmentStrategy):
    """Bilinear interpolation from received neighbour macroblocks."""

    name = "spatial"

    def __init__(self) -> None:
        self._fallback = CopyConcealment()

    def conceal(
        self,
        frame: np.ndarray,
        received: np.ndarray,
        reference: Optional[np.ndarray],
        mvs_pixels: Optional[np.ndarray] = None,
        modes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        result = self._fallback.conceal(frame, received, reference)
        mb_rows, mb_cols = received.shape
        lost_rows, lost_cols = np.nonzero(~received)
        if lost_rows.size:
            get_tracer().metrics.inc(
                "conceal.spatial_mbs", int(lost_rows.size)
            )
        for row, col in zip(lost_rows, lost_cols):
            patches = []
            weights = []
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                nr, nc = row + dr, col + dc
                if 0 <= nr < mb_rows and 0 <= nc < mb_cols and received[nr, nc]:
                    y, x = nr * 16, nc * 16
                    patches.append(
                        result[y : y + 16, x : x + 16].astype(np.float64)
                    )
                    weights.append(1.0)
            if not patches:
                continue  # keep the copy fallback
            blended = np.average(np.stack(patches), axis=0, weights=weights)
            y, x = row * 16, col * 16
            result[y : y + 16, x : x + 16] = np.clip(blended, 0, 255).astype(
                np.uint8
            )
        return result
