"""Adapter wiring the PBPAIR controller into the encoder's hook pipeline.

The probabilistic machinery lives in :mod:`repro.core`; this class maps
it onto the :class:`repro.resilience.base.ResilienceStrategy` protocol:

* ``pre_me_intra`` — the ``sigma < Intra_Th`` threshold test (the early
  decision that skips motion estimation);
* ``me_cost_function`` — the probability-aware search cost;
* ``frame_done`` — the correctness-matrix update with the copy-
  concealment similarity factor, charged to the encoder's counters so
  PBPAIR pays honestly for its bookkeeping.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.codec.blocks import colocated_sad
from repro.codec.motion import MECostFunction
from repro.codec.types import MacroblockMode
from repro.core.pbpair import PBPAIRConfig, PBPAIRController
from repro.resilience.base import (
    FrameFeedback,
    PreMEContext,
    ResilienceStrategy,
)


class PBPAIRStrategy(ResilienceStrategy):
    """The paper's scheme, as a pluggable resilience strategy."""

    def __init__(self, config: Optional[PBPAIRConfig] = None) -> None:
        self.config = config if config is not None else PBPAIRConfig()
        self.name = "PBPAIR"
        self._controller: Optional[PBPAIRController] = None

    @property
    def controller(self) -> Optional[PBPAIRController]:
        """The live controller (None until the first frame is seen).

        Exposed so applications can adapt ``intra_th``/``plr`` mid-stream
        (the Section 3.2 power-awareness extension).
        """
        return self._controller

    def reset(self) -> None:
        if self._controller is not None:
            self._controller.reset()

    def _ensure_controller(self, mb_rows: int, mb_cols: int) -> PBPAIRController:
        if self._controller is None:
            self._controller = PBPAIRController(self.config, mb_rows, mb_cols)
        return self._controller

    def pre_me_intra(self, context: PreMEContext) -> np.ndarray:
        controller = self._ensure_controller(context.mb_rows, context.mb_cols)
        return controller.select_intra_macroblocks()

    def me_cost_function(self) -> Optional[MECostFunction]:
        if self._controller is None:
            return None
        if self.config.loss_penalty_per_pixel == 0:
            return None  # ablation: probability-aware ME disabled
        return self._controller.me_cost_function()

    def frame_done(self, feedback: FrameFeedback) -> None:
        mb_rows, mb_cols = feedback.modes.shape
        controller = self._ensure_controller(mb_rows, mb_cols)
        if feedback.previous_reconstruction is None:
            similarity_sad = np.zeros((mb_rows, mb_cols), dtype=np.int64)
        else:
            similarity_sad = colocated_sad(
                feedback.current, feedback.previous_reconstruction
            )
            # The similarity factor needs the zero-motion SAD of every
            # macroblock; the motion search already evaluated exactly
            # that block for each searched macroblock (its center
            # candidate), so only the intra (ME-skipped) macroblocks
            # cost a fresh evaluation.
            feedback.counters.sad_blocks += int(
                np.sum(feedback.modes == MacroblockMode.INTRA)
            )
        controller.update_after_frame(feedback.modes, feedback.mvs, similarity_sad)
        feedback.counters.probability_updates += mb_rows * mb_cols
