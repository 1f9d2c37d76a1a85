"""Motion-vector-recovery concealment (extension).

Copy concealment assumes a lost macroblock didn't move; on panning or
fast content that assumption is exactly wrong.  The classic improvement
is *MV recovery*: estimate the lost macroblock's motion from the motion
vectors of its received neighbours (their per-component median — robust
to one outlier) and copy the motion-compensated block from the
reference instead of the colocated one.  On global motion every
neighbour agrees and the concealed block lands where the content
actually went.

This needs the decoded motion field, which
:class:`repro.codec.decoder.DecodeResult` exposes as ``mvs_pixels``;
the strategy falls back to plain copy when no field is available (e.g.
a totally lost frame).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.codec.types import MacroblockMode
from repro.concealment.base import ConcealmentStrategy
from repro.concealment.copy import CopyConcealment
from repro.obs.tracer import get_tracer


class MotionRecoveryConcealment(ConcealmentStrategy):
    """Conceal lost macroblocks at the median motion of their neighbours."""

    name = "motion-recovery"

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
        if reference is None or mvs_pixels is None or received.all():
            return result

        mb_rows, mb_cols = received.shape
        pad = int(np.abs(mvs_pixels).max(initial=0)) + 1
        padded = np.pad(reference, pad, mode="edge")

        lost_rows, lost_cols = np.nonzero(~received)
        recovered = 0
        for row, col in zip(lost_rows, lost_cols):
            neighbour_mvs = []
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                nr, nc = row + dr, col + dc
                if not (0 <= nr < mb_rows and 0 <= nc < mb_cols):
                    continue
                if not received[nr, nc]:
                    continue
                if modes is not None and modes[nr, nc] is MacroblockMode.INTRA:
                    continue  # an intra neighbour carries no motion
                neighbour_mvs.append(mvs_pixels[nr, nc])
            if not neighbour_mvs:
                continue  # keep the copy fallback
            stack = np.stack(neighbour_mvs)
            dy = int(np.median(stack[:, 0]))
            dx = int(np.median(stack[:, 1]))
            if dy == 0 and dx == 0:
                continue  # copy fallback already is the zero-MV guess
            y = row * 16 + pad + dy
            x = col * 16 + pad + dx
            result[row * 16 : (row + 1) * 16, col * 16 : (col + 1) * 16] = (
                padded[y : y + 16, x : x + 16]
            )
            recovered += 1
        if recovered:
            get_tracer().metrics.inc("conceal.mv_recovery_mbs", recovered)
        return result
