"""Instrumentation for PBPAIR's internal state.

The correctness matrix is the paper's central object, but it lives
inside the encoding loop; these helpers expose its evolution for
analysis, debugging and visualization without touching the codec:

* :class:`InstrumentedPBPAIRStrategy` — a drop-in PBPAIR strategy that
  records a :class:`SigmaTrace` while encoding;
* :class:`SigmaTrace` — per-frame snapshots of sigma plus derived
  series (mean/min sigma, refresh counts, mean reference correctness);
* :func:`sigma_heatmap` — an ASCII rendering of one sigma snapshot,
  for terminals and logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.codec.types import FrameType, MacroblockMode
from repro.core.correctness import min_sigma_related
from repro.core.pbpair import PBPAIRConfig
from repro.resilience.base import FrameFeedback
from repro.resilience.pbpair_strategy import PBPAIRStrategy

#: Shade ramp for :func:`sigma_heatmap`, darkest = lowest correctness.
_SHADES = " .:-=+*#%@"


@dataclass(frozen=True)
class SigmaSnapshot:
    """PBPAIR state observed after encoding one frame.

    ``sigma_before`` is the matrix the frame's decisions were made
    against (what the threshold test saw); ``sigma_after`` includes the
    frame's own update.
    """

    frame_index: int
    frame_type: FrameType
    sigma_before: np.ndarray
    sigma_after: np.ndarray
    intra_mask: np.ndarray
    reference_sigma_mean: Optional[float]


@dataclass
class SigmaTrace:
    """The recorded evolution of the correctness matrix."""

    snapshots: list[SigmaSnapshot] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.snapshots)

    def mean_sigma_series(self) -> list[float]:
        """Per-frame mean correctness (after the update)."""
        return [float(s.sigma_after.mean()) for s in self.snapshots]

    def min_sigma_series(self) -> list[float]:
        """Per-frame worst-macroblock correctness."""
        return [float(s.sigma_after.min()) for s in self.snapshots]

    def refresh_intervals(self) -> np.ndarray:
        """Observed per-macroblock mean frames between refreshes.

        Returns an ``(mb_rows, mb_cols)`` array; macroblocks refreshed
        at most once report ``inf``.  Comparing this map against
        :func:`repro.core.correctness.refresh_interval` shows how far
        real content pulls the dynamics away from approximation (3).
        """
        if not self.snapshots:
            raise ValueError("empty trace")
        shape = self.snapshots[0].intra_mask.shape
        intervals = np.full(shape, np.inf)
        last_refresh = np.full(shape, -1.0)
        totals = np.zeros(shape)
        counts = np.zeros(shape)
        for snapshot in self.snapshots:
            hit = snapshot.intra_mask
            had_previous = hit & (last_refresh >= 0)
            totals[had_previous] += (
                snapshot.frame_index - last_refresh[had_previous]
            )
            counts[had_previous] += 1
            last_refresh[hit] = snapshot.frame_index
        with np.errstate(divide="ignore", invalid="ignore"):
            intervals = np.where(counts > 0, totals / np.maximum(counts, 1), np.inf)
        return intervals


class InstrumentedPBPAIRStrategy(PBPAIRStrategy):
    """PBPAIR strategy that records a :class:`SigmaTrace` as it encodes.

    Behaviourally identical to :class:`PBPAIRStrategy` (same decisions,
    same counter charges); it only observes.
    """

    def __init__(self, config: Optional[PBPAIRConfig] = None) -> None:
        super().__init__(config)
        self.trace = SigmaTrace()

    def reset(self) -> None:
        super().reset()
        self.trace = SigmaTrace()

    def frame_done(self, feedback: FrameFeedback) -> None:
        controller = self._ensure_controller(*feedback.modes.shape)
        sigma_before = controller.matrix.sigma.copy()
        intra_mask = feedback.modes == MacroblockMode.INTRA
        reference_mean: Optional[float] = None
        if feedback.frame_type is FrameType.P:
            inter = ~intra_mask
            if inter.any():
                sigmas = min_sigma_related(sigma_before, feedback.mvs)
                reference_mean = float(sigmas[inter].mean())
        super().frame_done(feedback)
        self.trace.snapshots.append(
            SigmaSnapshot(
                frame_index=feedback.frame_index,
                frame_type=feedback.frame_type,
                sigma_before=sigma_before,
                sigma_after=controller.matrix.sigma.copy(),
                intra_mask=np.asarray(intra_mask, dtype=bool),
                reference_sigma_mean=reference_mean,
            )
        )


def sigma_heatmap(sigma: np.ndarray, mark: Optional[np.ndarray] = None) -> str:
    """Render a sigma matrix as ASCII art.

    High correctness renders dense (``@``), low renders sparse; cells
    where ``mark`` is True (e.g. this frame's refreshes) render as
    ``R`` regardless of shade.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2:
        raise ValueError("sigma must be a 2-D matrix")
    if mark is not None and mark.shape != sigma.shape:
        raise ValueError("mark mask must match sigma's shape")
    lines = []
    levels = np.clip(
        (sigma * (len(_SHADES) - 1)).round().astype(int), 0, len(_SHADES) - 1
    )
    for r in range(sigma.shape[0]):
        row = []
        for c in range(sigma.shape[1]):
            if mark is not None and mark[r, c]:
                row.append("R")
            else:
                row.append(_SHADES[levels[r, c]])
        lines.append("".join(row))
    return "\n".join(lines)
