"""The PBPAIR controller: probability-driven encoding decisions.

Ties the correctness matrix to the two integration points the paper
describes (Section 3.1):

* **Encoding mode selection** (3.1.1): a macroblock whose probability of
  correctness has fallen below the user's ``Intra_Th`` is intra-coded
  *without running motion estimation* — the early decision that saves
  energy.
* **Probability-aware motion estimation** (3.1.2): among candidate
  reference blocks, prefer ones likely to survive transmission.  The
  exact formulation lives in the unavailable tech report [15]; we use
  the expected-distortion form it implies (DESIGN.md, substitution #5):
  if the reference area is lost (probability ``1 - sigma_min``) the
  decoder predicts from concealed data, so the candidate's cost is
  penalized in proportion to that risk::

      cost = SAD + loss_penalty_per_pixel * 256 * (1 - sigma_min)

  where ``sigma_min`` is the minimum correctness over the macroblocks
  the candidate block overlaps — exactly the "related MBs" term of
  update formula (1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.codec.motion import MECostFunction
from repro.core.correctness import (
    CorrectnessMatrix,
    DEFAULT_SIMILARITY_SCALE,
    similarity_from_sad,
)


@dataclass(frozen=True)
class PBPAIRConfig:
    """PBPAIR tuning knobs.

    Attributes:
        intra_th: the user-expectation threshold ``Intra_Th`` in [0, 1].
            0 disables resilience (pure compression efficiency); 1 makes
            every macroblock intra (maximum robustness) — the two
            extremes Section 4.3 calls out.
        plr: assumed network packet loss rate ``alpha`` in [0, 1].
        loss_penalty_per_pixel: weight of the probability term in the ME
            cost, in grey levels per pixel of equivalent SAD.  0 turns
            the probability-aware ME off (ablation lever).
        similarity_scale: grey-level scale of the similarity factor
            (see :func:`repro.core.correctness.similarity_from_sad`).
        max_refresh_per_frame: optional cap on intra refreshes per
            frame.  All sigmas start at 1 and similar content decays at
            similar rates, so threshold crossings arrive in *waves*;
            uncapped, those waves make burst frames that clog a
            rate-limited link exactly the way the paper criticizes
            GOP's I-frames for.  With a cap, the most-at-risk (lowest
            sigma) macroblocks refresh first and the rest wait a frame
            or two — same refresh budget, smooth bitstream.  None
            disables the cap (the paper's plain formulation).
    """

    intra_th: float = 0.3
    plr: float = 0.1
    loss_penalty_per_pixel: float = 8.0
    similarity_scale: float = DEFAULT_SIMILARITY_SCALE
    max_refresh_per_frame: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.intra_th <= 1.0:
            raise ValueError(f"Intra_Th must be in [0, 1], got {self.intra_th}")
        if not 0.0 <= self.plr <= 1.0:
            raise ValueError(f"PLR must be in [0, 1], got {self.plr}")
        if self.loss_penalty_per_pixel < 0:
            raise ValueError("loss_penalty_per_pixel must be >= 0")
        if self.similarity_scale <= 0:
            raise ValueError("similarity_scale must be > 0")
        if self.max_refresh_per_frame is not None and self.max_refresh_per_frame < 1:
            raise ValueError("max_refresh_per_frame must be >= 1")


class PBPAIRController:
    """Stateful PBPAIR decision engine for one encoding run.

    The controller is deliberately independent of the encoder: the
    resilience adapter
    (:class:`repro.resilience.pbpair_strategy.PBPAIRStrategy`) wires its
    three methods into the encoder's hook pipeline.
    """

    def __init__(self, config: PBPAIRConfig, mb_rows: int, mb_cols: int) -> None:
        self.config = config
        self.matrix = CorrectnessMatrix(mb_rows, mb_cols)
        self._plr = config.plr
        self._intra_th = config.intra_th

    @property
    def plr(self) -> float:
        """Currently assumed packet loss rate (adaptable at runtime)."""
        return self._plr

    @plr.setter
    def plr(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"PLR must be in [0, 1], got {value}")
        self._plr = value

    @property
    def intra_th(self) -> float:
        """Current ``Intra_Th`` (adaptable at runtime, Section 3.2)."""
        return self._intra_th

    @intra_th.setter
    def intra_th(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"Intra_Th must be in [0, 1], got {value}")
        self._intra_th = value

    def reset(self) -> None:
        """Restart from the error-free initial state."""
        self.matrix.reset()
        self._plr = self.config.plr
        self._intra_th = self.config.intra_th

    def select_intra_macroblocks(self) -> np.ndarray:
        """Figure 4's threshold test: ``sigma < Intra_Th`` => intra.

        Returns the bool mask of macroblocks to intra-code before ME.
        With ``max_refresh_per_frame`` set, only the lowest-sigma
        macroblocks up to the cap refresh now; the rest stay inter and
        cross the threshold again next frame (deferred, not dropped).
        """
        mask = self.matrix.sigma < self._intra_th
        cap = self.config.max_refresh_per_frame
        if cap is None or int(mask.sum()) <= cap:
            return mask
        sigma = self.matrix.sigma
        flat_candidates = np.flatnonzero(mask.reshape(-1))
        order = np.argsort(sigma.reshape(-1)[flat_candidates], kind="stable")
        keep = flat_candidates[order[:cap]]
        capped = np.zeros(sigma.size, dtype=bool)
        capped[keep] = True
        return capped.reshape(sigma.shape)

    def me_cost_function(self) -> MECostFunction:
        """Build the probability-aware ME cost for the current sigma.

        The returned callable matches
        :data:`repro.codec.motion.MECostFunction`; it is bound to a
        snapshot of the padded sigma so a whole frame's search sees one
        consistent state.
        """
        penalty = self.config.loss_penalty_per_pixel * 256.0
        padded = np.pad(self.matrix.sigma, 1, mode="edge")

        def cost(
            sad: np.ndarray,
            dy: np.ndarray,
            dx: np.ndarray,
            mb_row: np.ndarray,
            mb_col: np.ndarray,
        ) -> np.ndarray:
            rows = np.asarray(mb_row) + 1
            cols = np.asarray(mb_col) + 1
            dy_sign = np.sign(dy).astype(np.int64)
            dx_sign = np.sign(dx).astype(np.int64)
            sigma_min = padded[rows, cols]
            sigma_min = np.minimum(sigma_min, padded[rows + dy_sign, cols])
            sigma_min = np.minimum(sigma_min, padded[rows, cols + dx_sign])
            sigma_min = np.minimum(
                sigma_min, padded[rows + dy_sign, cols + dx_sign]
            )
            return sad + penalty * (1.0 - sigma_min)

        return cost

    def update_after_frame(
        self,
        modes: np.ndarray,
        mvs: np.ndarray,
        colocated_sad: np.ndarray,
    ) -> None:
        """Advance the correctness matrix after a frame is encoded.

        ``colocated_sad`` feeds the similarity factor for the paper's
        copy-concealment assumption.
        """
        similarity = similarity_from_sad(
            colocated_sad, scale=self.config.similarity_scale
        )
        self.matrix.update(self._plr, modes, mvs, similarity)
