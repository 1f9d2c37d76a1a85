"""The probability-of-correctness matrix ``C^k`` and its update rules.

For each macroblock ``m[i,j]`` of frame ``k`` the matrix holds
``sigma[i,j] in [0, 1]``: the encoder's estimate of the probability that
the decoder's copy of that macroblock is correct, given the network
packet loss rate ``alpha`` (PLR) and the coding decisions made so far.

The paper's update rules (Section 3.1.3):

* inter macroblock (formula (1))::

      sigma_k = (1 - alpha) * min(sigma of related MBs)
                + alpha * similarity(m_k, m_{k-1}) * sigma_{k-1}

  "related MBs" are the macroblocks of the previous frame overlapped by
  the motion-compensated reference block; the first term is the
  error-free-transmission case (correctness inherited from the
  prediction chain), the second the loss case (the decoder conceals by
  copying, so correctness degrades by how *dissimilar* the colocated
  content is).

* intra macroblock (formula (2)): the first term's chain probability is
  replaced by 1 — an intra macroblock refreshes the chain::

      sigma_k = (1 - alpha) * 1 + alpha * similarity * sigma_{k-1}

* approximation (formula (3)), for no similarity and all-inter coding::

      sigma_k = (1 - alpha) ** k

The similarity factor is parameterized by the concealment scheme; for
the paper's copy-from-previous concealment we derive it from the
colocated SAD (see :func:`similarity_from_sad`).
"""

from __future__ import annotations

import numpy as np

from repro.codec.types import MacroblockMode

#: Default scale for :func:`similarity_from_sad`: a mean absolute
#: per-pixel difference of this many grey levels maps similarity to 0.
DEFAULT_SIMILARITY_SCALE = 64.0


def similarity_from_sad(
    colocated_sad: np.ndarray,
    mb_pixels: int = 256,
    scale: float = DEFAULT_SIMILARITY_SCALE,
) -> np.ndarray:
    """Similarity factor for copy concealment, from colocated SAD.

    The paper: "if we use a simple copy scheme ... we can calculate the
    similarity factor from SAD value between macro block m[k-1] and
    m[k]".  We map the mean absolute pixel difference linearly onto
    [0, 1]: identical blocks give 1, blocks differing by ``scale`` grey
    levels per pixel (or more) give 0.
    """
    if scale <= 0:
        raise ValueError("similarity scale must be positive")
    mad = np.asarray(colocated_sad, dtype=np.float64) / mb_pixels
    return np.minimum(np.maximum(1.0 - mad / scale, 0.0), 1.0)


def approximate_sigma(plr: float, k: int) -> float:
    """Formula (3): ``sigma_k = (1 - alpha)^k`` for an all-inter chain."""
    if not 0.0 <= plr <= 1.0:
        raise ValueError(f"PLR must be in [0, 1], got {plr}")
    if k < 0:
        raise ValueError("frame count must be >= 0")
    return (1.0 - plr) ** k


def refresh_interval(plr: float, intra_th: float) -> float:
    """Frames until ``sigma`` decays below ``Intra_Th`` under formula (3).

    The analytical refresh period of PBPAIR: solve
    ``(1 - alpha)^n = Intra_Th`` for n.  Returns ``inf`` when the chain
    never decays (PLR 0) and 0 when refresh is immediate
    (``Intra_Th >= 1``).
    """
    if not 0.0 <= plr <= 1.0:
        raise ValueError(f"PLR must be in [0, 1], got {plr}")
    if not 0.0 <= intra_th <= 1.0:
        raise ValueError(f"Intra_Th must be in [0, 1], got {intra_th}")
    if intra_th >= 1.0:
        return 0.0
    if plr == 0.0 or intra_th == 0.0:
        return float("inf")
    return float(np.log(intra_th) / np.log(1.0 - plr))


def min_sigma_related(sigma: np.ndarray, mvs: np.ndarray) -> np.ndarray:
    """Minimum previous-frame sigma over each reference block's overlap.

    A reference block displaced by ``(dy, dx)`` with ``|dy|, |dx| < 16``
    overlaps at most four macroblocks: the colocated one and its
    neighbours toward the displacement signs.  Out-of-frame overlap
    clamps to the edge macroblock (matching the codec's edge-padded
    motion compensation).

    Args:
        sigma: ``(mb_rows, mb_cols)`` previous-frame correctness.
        mvs: ``(mb_rows, mb_cols, 2)`` integer motion field.

    Returns:
        ``(mb_rows, mb_cols)`` array of minima.
    """
    mb_rows, mb_cols = sigma.shape
    if mvs.shape != (mb_rows, mb_cols, 2):
        raise ValueError(f"motion field shape {mvs.shape} mismatches sigma")
    if np.abs(mvs).max(initial=0) >= 16:
        raise ValueError("motion vectors must be within +/-15 pixels")
    padded = np.pad(sigma, 1, mode="edge")
    rows = np.arange(mb_rows)[:, None] + 1
    cols = np.arange(mb_cols)[None, :] + 1
    dy_sign = np.sign(mvs[:, :, 0]).astype(np.int64)
    dx_sign = np.sign(mvs[:, :, 1]).astype(np.int64)
    result = padded[rows, cols]
    result = np.minimum(result, padded[rows + dy_sign, cols])
    result = np.minimum(result, padded[rows, cols + dx_sign])
    result = np.minimum(result, padded[rows + dy_sign, cols + dx_sign])
    return result


class CorrectnessMatrix:
    """Mutable per-macroblock correctness state for one encoder run."""

    def __init__(self, mb_rows: int, mb_cols: int) -> None:
        if mb_rows < 1 or mb_cols < 1:
            raise ValueError("matrix dimensions must be >= 1")
        self.mb_rows = mb_rows
        self.mb_cols = mb_cols
        self._sigma = np.ones((mb_rows, mb_cols), dtype=np.float64)

    @property
    def sigma(self) -> np.ndarray:
        """Current correctness values (read-only view)."""
        view = self._sigma.view()
        view.setflags(write=False)
        return view

    def reset(self) -> None:
        """Back to the error-free start: every sigma is 1 (Figure 2)."""
        self._sigma.fill(1.0)

    def update(
        self,
        plr: float,
        modes: np.ndarray,
        mvs: np.ndarray,
        similarity: np.ndarray,
    ) -> None:
        """Advance ``C^{k-1}`` to ``C^k`` after encoding frame ``k``.

        Args:
            plr: network packet loss rate ``alpha`` assumed for frame k.
            modes: ``(mb_rows, mb_cols)`` final macroblock modes.
            mvs: ``(mb_rows, mb_cols, 2)`` coded motion field.
            similarity: ``(mb_rows, mb_cols)`` similarity factors in
                [0, 1] (see :func:`similarity_from_sad`).
        """
        if not 0.0 <= plr <= 1.0:
            raise ValueError(f"PLR must be in [0, 1], got {plr}")
        shape = (self.mb_rows, self.mb_cols)
        if modes.shape != shape or similarity.shape != shape:
            raise ValueError("modes/similarity shape mismatch")
        if np.any((similarity < 0) | (similarity > 1)):
            raise ValueError("similarity factors must lie in [0, 1]")

        intra = modes == MacroblockMode.INTRA
        chain = min_sigma_related(self._sigma, mvs)
        chain = np.where(intra, 1.0, chain)
        self._sigma = (1.0 - plr) * chain + plr * similarity * self._sigma
        # Floating-point guard: the convex combination of values in
        # [0, 1] stays in [0, 1], but keep it exact for comparisons.
        np.maximum(self._sigma, 0.0, out=self._sigma)
        np.minimum(self._sigma, 1.0, out=self._sigma)
