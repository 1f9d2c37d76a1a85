"""Packet loss models.

The paper generates its loss pattern from "a uniform distribution of
frame discard" and, in Figure 6, studies specific loss events e1..e7.
:class:`UniformLoss` and :class:`ScriptedLoss` implement exactly those;
:class:`GilbertElliottLoss` adds the classic two-state burst model for
wireless channels (an extension the paper's future work gestures at).

:class:`UniformLoss` defaults to frame granularity (the paper's
simplification "we use the frame loss rate to denote the network packet
loss rate"): all fragments of a dropped frame vanish together.  Packet
granularity is available for channel studies, and
:class:`GilbertElliottLoss` is inherently per-packet.
"""

from __future__ import annotations

import abc
import hashlib
import json
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.network.packet import Packet


def structural_rng(seed: int, *key) -> np.random.Generator:
    """RNG keyed by *what* is being decided, not *when*.

    Same pattern as :meth:`repro.faults.plan.FaultPlan.rng`: the seed and a
    structural key (frame index, draw counter, segment index, ...) are
    hashed into a generator, so a draw depends only on its identity —
    never on worker count, call order, or how many other draws happened
    first.  Models built on this replay exactly after ``reset()``.
    """
    material = json.dumps([seed, *key], separators=(",", ":"))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


class LossModel(abc.ABC):
    """Decides the fate of each packet."""

    @abc.abstractmethod
    def survives(self, packet: Packet) -> bool:
        """True when the packet is delivered."""

    def reset(self) -> None:
        """Restart the model's random/state sequence."""


class NoLoss(LossModel):
    """The ideal channel."""

    def survives(self, packet: Packet) -> bool:
        return True


class UniformLoss(LossModel):
    """I.i.d. drop with probability ``plr`` — the paper's model.

    The paper "use[s] a uniform distribution of frame discard" and
    equates frame loss rate with packet loss rate, so the default
    granularity is ``"frame"``: a dropped frame loses *all* its
    packets, and the loss probability is independent of how many
    packets a frame spans (schemes with larger frames are not
    penalized twice).  ``granularity="packet"`` gives the classic
    per-packet i.i.d. channel instead.
    """

    def __init__(
        self,
        plr: float,
        seed: int = 0,
        protect_first_frame: bool = True,
        granularity: str = "frame",
    ):
        """Args:
        plr: loss rate in [0, 1].
        seed: RNG seed; runs are reproducible.
        protect_first_frame: never drop frame 0 (the paper starts
            "from an error free image frame"; losing the very first
            intra frame would leave the decoder with no content at
            all, which no scheme can recover from).
        granularity: ``"frame"`` (paper) or ``"packet"``.
        """
        if not 0.0 <= plr <= 1.0:
            raise ValueError(f"PLR must be in [0, 1], got {plr}")
        if granularity not in ("frame", "packet"):
            raise ValueError(
                f"granularity must be 'frame' or 'packet', got {granularity!r}"
            )
        self.plr = plr
        self.seed = seed
        self.protect_first_frame = protect_first_frame
        self.granularity = granularity
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def _frame_survives(self, frame_index: int) -> bool:
        # Deterministic per frame and independent of packet order: all
        # fragments of a frame share one fate.
        draw = np.random.default_rng((self.seed, frame_index)).random()
        return bool(draw >= self.plr)

    def survives(self, packet: Packet) -> bool:
        if self.protect_first_frame and packet.frame_index == 0:
            return True
        if self.granularity == "frame":
            return self._frame_survives(packet.frame_index)
        return bool(self._rng.random() >= self.plr)


class ScriptedLoss(LossModel):
    """Deterministic loss of specific frames (Figure 6's e1..e7 events).

    Every packet belonging to a listed frame index is dropped.
    """

    def __init__(self, lost_frames: Iterable[int]) -> None:
        self.lost_frames = frozenset(int(f) for f in lost_frames)
        if any(f < 0 for f in self.lost_frames):
            raise ValueError("frame indices must be >= 0")

    def survives(self, packet: Packet) -> bool:
        return packet.frame_index not in self.lost_frames


class TraceLoss(LossModel):
    """Loss pattern replayed from an explicit recorded/scripted trace.

    Two granularities:

    * ``"frame"`` (default): ``trace[i]`` is the fate of frame ``i`` —
      stateless, every fragment of a frame shares one fate, and the
      model is trivially order-independent.
    * ``"packet"``: the trace is consumed one entry per ``survives``
      call through an internal cursor, replaying a recorded per-packet
      fate sequence exactly.  ``reset()`` rewinds the cursor so a
      replay reproduces the identical sequence.

    Entries beyond the trace use ``default_survives``.  Useful for
    replaying captured network traces and for exact A/B comparisons
    between schemes over one channel realization.
    """

    def __init__(
        self,
        trace,
        default_survives: bool = True,
        granularity: str = "frame",
    ) -> None:
        if granularity not in ("frame", "packet"):
            raise ValueError(
                f"granularity must be 'frame' or 'packet', got {granularity!r}"
            )
        self.trace = tuple(bool(v) for v in trace)
        self.default_survives = default_survives
        self.granularity = granularity
        self._cursor = 0

    @classmethod
    def from_loss_rate_pattern(cls, pattern: str) -> "TraceLoss":
        """Parse a compact string trace: '.' = delivered, 'x' = lost."""
        allowed = set(".x")
        if not pattern or set(pattern) - allowed:
            raise ValueError("pattern must be a non-empty string of '.' and 'x'")
        return cls(ch == "." for ch in pattern)

    @classmethod
    def from_plr_series(
        cls, series: Sequence[float], seed: int = 0
    ) -> "TraceLoss":
        """Realize a scripted per-frame PLR time series into a trace.

        ``series[i]`` is frame ``i``'s loss probability; the fate of
        each frame is drawn from :func:`structural_rng` keyed by
        ``(seed, i)``, so the realized trace depends only on the series
        and the seed — never on evaluation order or worker count.
        """
        fates = []
        for index, plr in enumerate(series):
            plr = float(plr)
            if not 0.0 <= plr <= 1.0:
                raise ValueError(f"PLR must be in [0, 1], got {plr}")
            draw = structural_rng(seed, "plr-series", index).random()
            fates.append(bool(draw >= plr))
        return cls(fates)

    @classmethod
    def record(cls, model: LossModel, packets: Iterable[Packet]) -> "TraceLoss":
        """Capture another model's per-packet fates as a replayable trace.

        The returned model has ``granularity="packet"``; replaying the
        same packet stream through it reproduces ``model``'s decisions
        exactly, without re-running (or even having) the original model.
        """
        return cls(
            (model.survives(p) for p in packets), granularity="packet"
        )

    def reset(self) -> None:
        self._cursor = 0

    def survives(self, packet: Packet) -> bool:
        if self.granularity == "packet":
            index = self._cursor
            self._cursor += 1
        else:
            index = packet.frame_index
        if index < len(self.trace):
            return self.trace[index]
        return self.default_survives


class GilbertElliottLoss(LossModel):
    """Two-state Markov (good/bad) burst-loss model.

    In the good state packets drop with ``good_loss`` probability, in
    the bad state with ``bad_loss``; transitions happen per packet with
    ``p_good_to_bad`` / ``p_bad_to_good``.  The steady-state loss rate is
    ``pi_bad * bad_loss + pi_good * good_loss`` with
    ``pi_bad = p_gb / (p_gb + p_bg)``.
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        good_loss: float = 0.0,
        bad_loss: float = 1.0,
        seed: int = 0,
        protect_first_frame: bool = True,
    ) -> None:
        for name, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self.seed = seed
        self.protect_first_frame = protect_first_frame
        self._rng = np.random.default_rng(seed)
        self._in_bad_state = False

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._in_bad_state = False

    @property
    def steady_state_loss_rate(self) -> float:
        total = self.p_good_to_bad + self.p_bad_to_good
        if total == 0:
            return self.good_loss
        pi_bad = self.p_good_to_bad / total
        return pi_bad * self.bad_loss + (1 - pi_bad) * self.good_loss

    def survives(self, packet: Packet) -> bool:
        if self._in_bad_state:
            if self._rng.random() < self.p_bad_to_good:
                self._in_bad_state = False
        else:
            if self._rng.random() < self.p_good_to_bad:
                self._in_bad_state = True
        loss = self.bad_loss if self._in_bad_state else self.good_loss
        if self.protect_first_frame and packet.frame_index == 0:
            return True
        return bool(self._rng.random() >= loss)


class MarkovBurstLoss(LossModel):
    """k-state Markov burst-erasure channel.

    Generalizes Gilbert-Elliott toward the burst-erasure channels of
    the streaming-over-burst-loss literature: state 0 is *good* (the
    packet is delivered); states ``1..k`` are *burst* states (the
    packet is erased).  From good, a packet enters the burst (state 1)
    with probability ``p_enter``; from burst depth ``i`` it escapes to
    good with probability ``escape[i-1]``, otherwise the burst deepens
    to ``min(i + 1, k)``.  Decreasing escape probabilities model the
    heavy-tailed outages of fading links that a two-state chain cannot:
    the longer a burst has lasted, the less likely it ends.

    With ``k = 1`` this is exactly Gilbert-Elliott with
    ``good_loss=0, bad_loss=1``.

    Every transition draw comes from :func:`structural_rng` keyed by
    ``(seed, draw_index)``, so ``reset()`` replays the identical
    packet-fate sequence and results are independent of worker count.
    """

    def __init__(
        self,
        p_enter: float,
        escape: Sequence[float] | float,
        seed: int = 0,
        protect_first_frame: bool = True,
    ) -> None:
        if isinstance(escape, (int, float)):
            escape = (float(escape),)
        self.escape = tuple(float(e) for e in escape)
        if not self.escape:
            raise ValueError("escape needs at least one burst state")
        if not 0.0 <= p_enter <= 1.0:
            raise ValueError(f"p_enter must be in [0, 1], got {p_enter}")
        for e in self.escape:
            if not 0.0 < e <= 1.0:
                raise ValueError(
                    f"escape probabilities must be in (0, 1], got {e}"
                )
        self.p_enter = float(p_enter)
        self.seed = seed
        self.protect_first_frame = protect_first_frame
        self._state = 0
        self._draws = 0

    @property
    def expected_burst_length(self) -> float:
        """Mean packets erased per burst, from the chain geometry.

        Backwards recursion over burst depths: the deepest state is
        geometric (``E_k = 1/escape[k-1]``), and each shallower state
        adds its own packet plus the deeper tail it fails to escape:
        ``E_i = 1 + (1 - escape[i-1]) * E_{i+1}``.
        """
        expected = 1.0 / self.escape[-1]
        for e in reversed(self.escape[:-1]):
            expected = 1.0 + (1.0 - e) * expected
        return expected

    @property
    def steady_state_loss_rate(self) -> float:
        """Long-run erased fraction: E[burst] / (E[good] + E[burst])."""
        if self.p_enter == 0.0:
            return 0.0
        burst = self.expected_burst_length
        return burst / (1.0 / self.p_enter + burst)

    def reset(self) -> None:
        self._state = 0
        self._draws = 0

    def _draw(self) -> float:
        value = structural_rng(self.seed, "markov-burst", self._draws).random()
        self._draws += 1
        return float(value)

    def survives(self, packet: Packet) -> bool:
        if self._state == 0:
            if self._draw() < self.p_enter:
                self._state = 1
        else:
            if self._draw() < self.escape[self._state - 1]:
                self._state = 0
            else:
                self._state = min(self._state + 1, len(self.escape))
        if self.protect_first_frame and packet.frame_index == 0:
            return True
        return self._state == 0
