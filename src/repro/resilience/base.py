"""The strategy protocol between the encoder and resilience schemes.

The encoder drives every scheme through the same four hooks, in the
order the paper's Figure 2 prescribes:

1. :meth:`ResilienceStrategy.begin_frame` — pick the frame type (GOP's
   lever: periodic I-frames).
2. :meth:`ResilienceStrategy.pre_me_intra` — force macroblocks to intra
   *before* motion estimation.  Forced macroblocks skip the search
   entirely; this is where PBPAIR's probability threshold and PGOP's
   refresh columns save energy.
3. :meth:`ResilienceStrategy.me_cost_function` — optionally re-weight
   the ME search (PBPAIR's probability-aware motion vectors).
4. :meth:`ResilienceStrategy.post_me_intra` — force macroblocks to
   intra *after* motion estimation, with the motion field in hand
   (AIR's SAD ranking, PGOP's stride-back).

After encoding each frame the encoder reports back through
:meth:`ResilienceStrategy.frame_done` so stateful schemes (PBPAIR's
correctness matrix, PGOP's sweep position) can advance.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.codec.motion import MECostFunction, MotionField
from repro.codec.types import FrameType, MacroblockMode
from repro.energy.counters import OperationCounters


@dataclass(frozen=True)
class PreMEContext:
    """What a strategy may inspect before motion estimation.

    Attributes:
        frame_index: index of the frame being encoded.
        current: luma being encoded (uint8, read-only by convention).
        previous_reconstruction: the encoder's reconstruction of the
            previous frame (the ME reference), or None for the first
            frame.
        mb_rows, mb_cols: macroblock grid dimensions.
        counters: the encoder's work tally; a strategy that performs
            measurable analysis (e.g. PBPAIR's colocated SAD for the
            similarity factor) must charge it here.
    """

    frame_index: int
    current: np.ndarray
    previous_reconstruction: Optional[np.ndarray]
    mb_rows: int
    mb_cols: int
    counters: OperationCounters


@dataclass(frozen=True)
class PostMEContext:
    """Pre-ME context plus the motion-estimation results.

    Attributes:
        motion: the estimated motion field (SADs are zero for
            macroblocks whose search was skipped).
        sad_self: per-macroblock ``SAD_self`` map.
        intra_mask: macroblocks already committed to intra (pre-ME
            forcing plus the encoder's generic SAD test).
    """

    frame_index: int
    current: np.ndarray
    previous_reconstruction: Optional[np.ndarray]
    mb_rows: int
    mb_cols: int
    counters: OperationCounters
    motion: MotionField
    sad_self: np.ndarray
    intra_mask: np.ndarray


@dataclass(frozen=True)
class FrameFeedback:
    """Per-frame outcome reported back to the strategy.

    Attributes:
        frame_index: index of the frame just encoded.
        frame_type: I or P.
        modes: ``(mb_rows, mb_cols)`` array of final
            :class:`MacroblockMode` values.
        mvs: ``(mb_rows, mb_cols, 2)`` motion field actually coded
            (zeros for intra macroblocks).
        current: the source luma of the frame.
        previous_reconstruction: ME reference used, or None.
        bits: encoded size of the frame in bits.
        counters: the encoder's tally (strategies may charge update
            work, e.g. PBPAIR's probability updates).
    """

    frame_index: int
    frame_type: FrameType
    modes: np.ndarray
    mvs: np.ndarray
    current: np.ndarray
    previous_reconstruction: Optional[np.ndarray]
    bits: int
    counters: OperationCounters


class ResilienceStrategy(abc.ABC):
    """Base class for all error-resilience schemes.

    ``name`` identifies the scheme in reports; ``post_label`` is the
    reason recorded on macroblocks the scheme forces to intra after ME
    (one of :data:`repro.codec.types.FORCED_BY`, coded in
    :attr:`repro.codec.types.FrameDecisions.forced_by`).
    """

    name: str = "base"
    post_label: str = "strategy-post"

    def reset(self) -> None:
        """Return to the initial (sequence start) state."""

    def begin_frame(self, frame_index: int) -> FrameType:
        """Choose the frame type.  Frame 0 is always I (the paper's
        "start from error free image frame"); everything else defaults
        to P."""
        return FrameType.I if frame_index == 0 else FrameType.P

    def pre_me_intra(self, context: PreMEContext) -> np.ndarray:
        """Macroblocks to intra-code *without* running ME.

        Returns a ``(mb_rows, mb_cols)`` bool mask; default none.
        """
        return np.zeros((context.mb_rows, context.mb_cols), dtype=bool)

    def me_cost_function(self) -> Optional[MECostFunction]:
        """Optional ME cost re-weighting; default pure SAD."""
        return None

    def post_me_intra(self, context: PostMEContext) -> np.ndarray:
        """Additional macroblocks to force to intra after ME.

        Returns a ``(mb_rows, mb_cols)`` bool mask; default none.
        """
        return np.zeros((context.mb_rows, context.mb_cols), dtype=bool)

    def frame_done(self, feedback: FrameFeedback) -> None:
        """Advance internal state after a frame is fully encoded."""

    @staticmethod
    def intra_fraction(feedback: FrameFeedback) -> float:
        """Convenience: fraction of macroblocks intra-coded this frame."""
        total = feedback.modes.size
        intra = int(np.sum(feedback.modes == MacroblockMode.INTRA))
        return intra / total if total else 0.0
