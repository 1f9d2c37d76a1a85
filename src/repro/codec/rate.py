"""Frame-level rate control (extension; see the paper's conclusions).

The paper notes PBPAIR "is independent from any other encoder and/or
decoder side control mechanisms (i.e. rate control, channel coding,
etc.)" and leaves their cooperation as future work.  This module
provides that cooperation: :class:`ClosedLoopRateController`, the
controller the grid runner wires through
:func:`~repro.sim.pipeline.encode_phase` — a per-frame bit budget with
carry-over repayment, a QP<->bits table learned online from observed
frame sizes, and joint steering of PBPAIR's ``Intra_Th`` so refresh
intensity and quantizer chase one target bitrate together.  Its
declarative twin, :class:`RateControlConfig`, is what travels in
:class:`~repro.sim.runner.JobSpec` and over the service wire.

The controller drives the encoder through the per-frame QP, which
travels in each fragment header (the decoder needs no side channel),
and any resilience strategy runs unchanged underneath.

Control law: each frame's budget is the target minus a fraction of the
accumulated debt
(``budget_k = target - sensitivity * debt / recovery_frames``), and the
quantizer is the *smallest* QP whose predicted size fits that budget,
read off an online table of observed (QP, bits) pairs interpolated by
the first-order ``bits ~ C / QP`` model, then clamped to move at most
``max_qp_step`` per frame (the TMN-style smoothness constraint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.codec.types import EncodedFrame


@dataclass(frozen=True)
class RateControlConfig:
    """Declarative closed-loop rate control parameters.

    Flat (primitives-only) on purpose: the config hashes stably into
    the runner's cache keys, pickles to pool workers, and crosses the
    service wire through the same ``_flat_to_json`` helpers every
    other flat dataclass uses.

    Attributes:
        target_kbps: the bitrate the encoded stream should deliver.
        fps: frame rate the kbps target is divided by (the paper's
            clips are 30 fps).
        base_qp: quantizer of the first frame, before any observation
            exists to learn from.
        min_qp, max_qp: quantizer clamp range.
        sensitivity: fraction of the repayment term applied per frame;
            1.0 repays the accumulated debt over ``recovery_frames``,
            smaller values trade convergence speed for steadiness.
        recovery_frames: horizon (in frames) over which accumulated
            over/undershoot is paid back.  Short horizons chase the
            target hard (bursty QP); long horizons smooth QP but leave
            more residual bitrate error at the end of a clip.
        max_qp_step: largest per-frame QP change (TMN-style smoothness;
            also what keeps one outlier frame from derailing the
            QP<->bits table).
        model_smoothing: EMA weight of the newest observation in the
            QP<->bits table (1.0 = trust only the last frame).
        steer_intra: jointly steer PBPAIR's ``Intra_Th`` with the
            quantizer — over budget lowers the refresh threshold
            (fewer intra macroblocks), under budget raises it (spend
            the spare bits on resilience).  Ignored for schemes
            without a live PBPAIR controller.
        intra_gain: fractional ``Intra_Th`` swing at full budget
            pressure (0.25 = up to a quarter off/onto the configured
            threshold).
    """

    target_kbps: float
    fps: float = 30.0
    base_qp: int = 6
    min_qp: int = 1
    max_qp: int = 31
    sensitivity: float = 1.0
    recovery_frames: int = 6
    max_qp_step: int = 2
    model_smoothing: float = 0.5
    steer_intra: bool = True
    intra_gain: float = 0.25

    def __post_init__(self) -> None:
        if self.target_kbps <= 0:
            raise ValueError(
                f"target_kbps must be positive, got {self.target_kbps}"
            )
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if not 1 <= self.min_qp <= self.base_qp <= self.max_qp <= 31:
            raise ValueError("require 1 <= min_qp <= base_qp <= max_qp <= 31")
        if self.sensitivity <= 0:
            raise ValueError("sensitivity must be positive")
        if self.recovery_frames < 1:
            raise ValueError(
                f"recovery_frames must be >= 1, got {self.recovery_frames}"
            )
        if self.max_qp_step < 1:
            raise ValueError(
                f"max_qp_step must be >= 1, got {self.max_qp_step}"
            )
        if not 0.0 < self.model_smoothing <= 1.0:
            raise ValueError("model_smoothing must be in (0, 1]")
        if not 0.0 <= self.intra_gain <= 1.0:
            raise ValueError("intra_gain must be in [0, 1]")

    @property
    def target_bits_per_frame(self) -> float:
        """The per-frame bit budget the kbps target resolves to."""
        return self.target_kbps * 1000.0 / self.fps


class QPBitsModel:
    """Online QP<->bits model for one frame class.

    Predicts through the classic first-order law ``bits ~ C / QP``
    (quant step is ``2 * QP``, so frame size falls roughly inversely
    with the quantizer) where the complexity ``C`` is a recency-
    weighted mean of observed ``bits * qp`` products.  Predicting from
    a single fresh complexity — rather than interpolating between raw
    per-QP table entries — keeps the predicted curve monotone in QP
    and lets the model track content-complexity shifts immediately;
    a per-QP table of raw EMA observations is kept alongside for
    introspection (:attr:`observed_qps`, :meth:`observed_bits_at`).
    :meth:`select_qp` reads the smallest QP whose prediction fits a
    budget off that curve — the "bisect on an RC table" of the
    exemplar, over the monotone 31-entry QP axis.
    """

    def __init__(self, smoothing: float = 0.5) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        self._complexity: Optional[float] = None
        self._bits_at: dict[int, float] = {}

    @property
    def complexity(self) -> Optional[float]:
        """Recency-weighted ``bits * qp``; None before any observation."""
        return self._complexity

    @property
    def observed_qps(self) -> tuple[int, ...]:
        return tuple(sorted(self._bits_at))

    def observed_bits_at(self, qp: int) -> Optional[float]:
        """Raw EMA of frame sizes actually seen at ``qp`` (or None)."""
        return self._bits_at.get(qp)

    def update(self, qp: int, bits: int) -> None:
        """Fold one observed (QP, frame size) pair into the model."""
        if not 1 <= qp <= 31:
            raise ValueError(f"qp must be in [1, 31], got {qp}")
        if bits < 0:
            raise ValueError("bits must be >= 0")
        s = self.smoothing
        sample = float(bits) * qp
        if self._complexity is None:
            self._complexity = sample
        else:
            self._complexity = s * sample + (1.0 - s) * self._complexity
        previous = self._bits_at.get(qp)
        if previous is None:
            self._bits_at[qp] = float(bits)
        else:
            self._bits_at[qp] = s * float(bits) + (1.0 - s) * previous

    def predict(self, qp: int) -> Optional[float]:
        """Predicted frame bits at ``qp``; None before any observation."""
        if self._complexity is None:
            return None
        if not 1 <= qp <= 31:
            raise ValueError(f"qp must be in [1, 31], got {qp}")
        return self._complexity / qp

    def select_qp(
        self, budget: float, min_qp: int = 1, max_qp: int = 31
    ) -> Optional[int]:
        """Smallest QP in range whose predicted size fits ``budget``.

        ``max_qp`` when nothing fits (the coarsest the codec can go);
        None before any observation (no basis to choose yet).
        """
        if self._complexity is None:
            return None
        for qp in range(min_qp, max_qp + 1):
            if self._complexity / qp <= budget:
                return qp
        return max_qp

    def reset(self) -> None:
        self._complexity = None
        self._bits_at.clear()


class ClosedLoopRateController:
    """Closed-loop QP (and ``Intra_Th``) control toward a kbps target.

    The controller the grid runner builds per job from a
    :class:`RateControlConfig`.  Fully deterministic: its state is a
    pure function of the observed frame sequence, which is what lets
    rate-controlled encodes live in the content-addressed stream cache.

    The encode loop reads the ``quantizer`` property before each frame
    and calls two hooks around it:

    * :meth:`observe_frame` — learns from the full
      :class:`~repro.codec.types.EncodedFrame` (the QP actually used,
      the frame type and its bits);
    * :meth:`steer_strategy` — nudges a live PBPAIR controller's
      ``Intra_Th`` with the current budget pressure.
    """

    def __init__(self, config: RateControlConfig) -> None:
        self.config = config
        # Separate QP<->bits models per frame class: an I frame costs
        # many times a P frame at the same QP, and folding both into
        # one table poisons the prediction (an early expensive intra
        # observation blocks the QP descent forever).
        self.intra_model = QPBitsModel(smoothing=config.model_smoothing)
        self.inter_model = QPBitsModel(smoothing=config.model_smoothing)
        self._debt_bits = 0.0
        self._last_qp: Optional[int] = None
        self._frames = 0
        self._intra_frames = 0
        self._inter_frames = 0
        self._delivered_bits = 0
        self._base_intra_th: Optional[float] = None

    # -- budget -------------------------------------------------------

    @property
    def target_bits_per_frame(self) -> float:
        return self.config.target_bits_per_frame

    @property
    def debt_bits(self) -> float:
        """Accumulated overspend (negative = banked savings)."""
        return self._debt_bits

    @property
    def frames_observed(self) -> int:
        return self._frames

    @property
    def delivered_kbps(self) -> float:
        """Mean delivered bitrate so far, at the configured fps."""
        if self._frames == 0:
            return 0.0
        return (
            self._delivered_bits / self._frames * self.config.fps / 1000.0
        )

    @property
    def frame_budget(self) -> float:
        """The next frame's bit budget: target minus debt repayment.

        The repayment term spreads accumulated over/undershoot across
        ``recovery_frames`` instead of clamping it away, so the final
        bitrate error shrinks with clip length rather than plateauing
        at a fixed number of banked frames.
        """
        config = self.config
        target = config.target_bits_per_frame
        budget = target - (
            config.sensitivity * self._debt_bits / config.recovery_frames
        )
        return min(max(budget, 0.125 * target), 4.0 * target)

    # -- actuation ----------------------------------------------------

    def expected_bits(self, qp: int) -> Optional[float]:
        """Predicted next-frame cost at ``qp``: the I/P frequency mix.

        The frame type is the strategy's call, not the controller's, so
        the next frame is priced as the blend of both models weighted
        by the observed frame-type frequencies.  Pricing only P frames
        would bias intra-heavy schemes (GOP): every I frame overshoots
        its prediction, and holding the average at target then needs a
        permanent debt offset — a few percent of delivered bitrate.
        """
        intra = self.intra_model.predict(qp)
        inter = self.inter_model.predict(qp)
        if intra is None:
            return inter
        if inter is None:
            return intra
        total = self._intra_frames + self._inter_frames
        return (
            self._intra_frames * intra + self._inter_frames * inter
        ) / total

    @property
    def quantizer(self) -> int:
        """The QP the next frame should be encoded with."""
        config = self.config
        budget = self.frame_budget
        qp = None
        if self.expected_bits(config.min_qp) is not None:
            qp = config.max_qp  # coarsest fallback when nothing fits
            for candidate in range(config.min_qp, config.max_qp + 1):
                if self.expected_bits(candidate) <= budget:
                    qp = candidate
                    break
        if qp is None:
            qp = config.base_qp
        if self._last_qp is not None:
            step = config.max_qp_step
            qp = min(max(qp, self._last_qp - step), self._last_qp + step)
        return int(min(max(qp, config.min_qp), config.max_qp))

    def steer_strategy(self, strategy: object) -> None:
        """Jointly steer a PBPAIR strategy's ``Intra_Th`` (Section 3.2).

        Over budget (positive pressure) lowers the refresh threshold —
        fewer intra macroblocks, fewer bits; under budget raises it, so
        spare bits buy resilience instead of idling.  No-op for
        strategies without a live PBPAIR controller (baselines, or
        PBPAIR before its first frame) and when ``steer_intra`` is off.
        """
        if not self.config.steer_intra:
            return
        controller = getattr(strategy, "controller", None)
        if controller is None or not hasattr(controller, "intra_th"):
            return
        if self._base_intra_th is None:
            self._base_intra_th = float(controller.intra_th)
        pressure = self.budget_pressure
        th = self._base_intra_th * (1.0 - self.config.intra_gain * pressure)
        controller.intra_th = min(max(th, 0.0), 1.0)

    @property
    def budget_pressure(self) -> float:
        """Debt in recovery-horizon units, clipped to [-1, 1]."""
        horizon = (
            self.config.recovery_frames * self.config.target_bits_per_frame
        )
        return min(max(self._debt_bits / horizon, -1.0), 1.0)

    # -- observation --------------------------------------------------

    def observe(self, bits: int) -> int:
        """Account one frame's size; returns the next frame's QP.

        Without the full frame, the table learns against the QP the
        controller last asked for.  The encode loop calls
        :meth:`observe_frame`; this bits-only hook is the seam through
        which the unit tests drive the control law with synthetic frame
        sizes, without encoding a frame.
        """
        if bits < 0:
            raise ValueError("bits must be >= 0")
        qp = self._last_qp if self._last_qp is not None else self.quantizer
        self._account(qp, bits, intra=False)
        return self.quantizer

    def observe_frame(self, encoded: EncodedFrame) -> int:
        """Learn from a full encoded frame; returns the next frame's QP.

        Uses the QP the frame was *actually* coded with (``encoded.qp``
        is authoritative even if a caller overrode the controller).
        """
        self._account(
            int(encoded.qp),
            int(encoded.stats.bits),
            intra=encoded.frame_type.is_intra,
        )
        return self.quantizer

    def _account(self, qp: Optional[int], bits: int, *, intra: bool) -> None:
        if qp is not None:
            model = self.intra_model if intra else self.inter_model
            model.update(qp, bits)
            self._last_qp = qp
        if intra:
            self._intra_frames += 1
        else:
            self._inter_frames += 1
        self._debt_bits += bits - self.config.target_bits_per_frame
        self._delivered_bits += bits
        self._frames += 1

    def reset(self) -> None:
        self.intra_model.reset()
        self.inter_model.reset()
        self._debt_bits = 0.0
        self._last_qp = None
        self._frames = 0
        self._intra_frames = 0
        self._inter_frames = 0
        self._delivered_bits = 0
        self._base_intra_th = None


def build_rate_controller(
    config: Optional[RateControlConfig],
) -> Optional[ClosedLoopRateController]:
    """A fresh controller for one encode, or None when rate control is off.

    The runner calls this once per job so every cell starts from the
    same initial state — which is what makes rate-controlled encodes
    deterministic and therefore cacheable.
    """
    if config is None:
        return None
    return ClosedLoopRateController(config)
