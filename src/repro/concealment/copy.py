"""Copy-from-previous concealment — the paper's scheme."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.concealment.base import ConcealmentStrategy
from repro.obs.tracer import get_tracer


class CopyConcealment(ConcealmentStrategy):
    """Replace each lost macroblock with its colocated predecessor.

    The decoder already seeds lost macroblocks from the reference frame,
    so this strategy only needs to handle the no-reference case (repair
    to mid-grey is the best it can do) and otherwise verify the seed.
    """

    name = "copy"

    def conceal(
        self,
        frame: np.ndarray,
        received: np.ndarray,
        reference: Optional[np.ndarray],
        mvs_pixels: Optional[np.ndarray] = None,
        modes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        result = frame.copy()
        lost_rows, lost_cols = np.nonzero(~received)
        if lost_rows.size:
            tracer = get_tracer()
            tracer.count(concealed_mbs=int(lost_rows.size))
            tracer.metrics.inc("conceal.copy_mbs", int(lost_rows.size))
        for row, col in zip(lost_rows, lost_cols):
            y, x = row * 16, col * 16
            if reference is not None:
                result[y : y + 16, x : x + 16] = reference[y : y + 16, x : x + 16]
            else:
                result[y : y + 16, x : x + 16] = 128
        return result
