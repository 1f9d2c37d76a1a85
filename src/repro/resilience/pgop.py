"""PGOP-N: progressive GOP — column-by-column intra refresh.

PGOP "refreshes intra-coded MBs on a column-by-column basis from left to
right": each P-frame intra-codes the next N macroblock columns of a
sweep, so after ``ceil(mb_cols / N)`` frames the whole frame has been
refreshed without ever paying an I-frame spike.  Refresh columns are
decided *before* motion estimation, so their ME is skipped (some energy
saving, unlike AIR).

**Stride-back** (the paper's footnote 2): errors can out-run the sweep —
a macroblock in an already-refreshed column whose motion vector
references not-yet-refreshed area re-imports possibly corrupt content
into the clean region.  PGOP traps these propagations by re-refreshing
the affected macroblocks; those *do* require their motion vectors, i.e.
their ME energy is spent and then discarded ("it still requires motion
estimation for stride back MBs — this overhead will be larger with a
small number of column refresh").
"""

from __future__ import annotations

import numpy as np

from repro.resilience.base import PostMEContext, PreMEContext, ResilienceStrategy


class PGOPStrategy(ResilienceStrategy):
    """Sweep N intra columns per frame, left to right, with stride-back."""

    post_label = "stride-back"

    def __init__(self, columns_per_frame: int) -> None:
        if columns_per_frame < 1:
            raise ValueError(
                f"PGOP needs >= 1 refresh column, got {columns_per_frame}"
            )
        self.columns_per_frame = columns_per_frame
        self.name = f"PGOP-{columns_per_frame}"
        self._next_col = 0
        self._clean: np.ndarray | None = None
        self._current_refresh: tuple[int, int] = (0, 0)

    def reset(self) -> None:
        self._next_col = 0
        self._clean = None
        self._current_refresh = (0, 0)

    def _ensure_state(self, mb_cols: int) -> None:
        if self._clean is None or self._clean.size != mb_cols:
            self._clean = np.zeros(mb_cols, dtype=bool)
            self._next_col = 0

    def pre_me_intra(self, context: PreMEContext) -> np.ndarray:
        self._ensure_state(context.mb_cols)
        start = self._next_col
        stop = min(start + self.columns_per_frame, context.mb_cols)
        self._current_refresh = (start, stop)
        mask = np.zeros((context.mb_rows, context.mb_cols), dtype=bool)
        mask[:, start:stop] = True
        return mask

    def post_me_intra(self, context: PostMEContext) -> np.ndarray:
        """Stride-back: trap motion that drags dirty content into the
        clean region.

        References point into the *previous* frame, so cleanliness is
        judged against the column state before this frame's refresh
        lands: a macroblock in an already-refreshed column whose motion
        vector overlaps a column the sweep has not reached yet would
        re-import possibly corrupt content, and is re-refreshed.
        """
        assert self._clean is not None
        clean_before = self._clean
        mask = np.zeros((context.mb_rows, context.mb_cols), dtype=bool)
        if clean_before.all() or not clean_before.any():
            return mask

        mvs = context.motion.mvs
        own_col = np.broadcast_to(
            np.arange(context.mb_cols)[None, :],
            (context.mb_rows, context.mb_cols),
        )
        dx_sign = np.sign(mvs[:, :, 1]).astype(np.int64)
        # A reference block (|dx| < 16) overlaps its own column and the
        # neighbour toward the horizontal displacement sign.
        neighbour = np.minimum(
            np.maximum(own_col + dx_sign, 0), context.mb_cols - 1
        )
        in_clean = clean_before[own_col]
        refs_dirty = ~clean_before[neighbour]
        return in_clean & refs_dirty & ~context.intra_mask

    def frame_done(self, feedback) -> None:
        if self._clean is None:
            return
        start, stop = self._current_refresh
        if feedback.frame_type.is_intra:
            # An intra frame (frame 0) refreshes everything; restart.
            self._clean[:] = False
            self._next_col = 0
            return
        self._clean[start:stop] = True
        self._next_col = stop
        if self._next_col >= self._clean.size:
            # Sweep complete: begin a new progressive GOP.
            self._next_col = 0
            self._clean[:] = False
