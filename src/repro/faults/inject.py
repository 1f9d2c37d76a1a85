"""Fault injection: interpreting a :class:`FaultPlan` against the pipeline.

The :class:`FaultInjector` is the active half of :mod:`repro.faults`: it
holds a plan, applies the plan's channel-stage faults to packet streams
and its decoder-stage faults to fragment payloads, evaluates which
runner-stage faults fire for a worker attempt, and records every
injection as a structured :class:`FaultEvent` — both on its own
``events`` list (which rides :class:`repro.sim.pipeline.SimulationResult`
back to the caller) and, when tracing is on, as an event record in the
obs trace.

Everything here is purely functional over the plan's derived RNG
streams: the same plan applied to the same inputs produces the same
outputs and the same event log, in any process, at any worker count.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.faults.plan import (
    STAGE_CHANNEL,
    STAGE_DECODER_INPUT,
    STAGE_ENCODE,
    STAGE_RUNNER,
    WORKER_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultSpec,
)
from repro.network.packet import Packet
from repro.obs.tracer import get_tracer


class InjectedFault(RuntimeError):
    """Base class of failures raised *on purpose* by a fault plan."""


class InjectedWorkerCrash(InjectedFault):
    """A worker attempt that a plan decided should die."""


class FaultInjector:
    """Applies one :class:`FaultPlan`, recording every injection.

    One injector belongs to one run (its ``events`` list is the run's
    fault log); build a fresh one per simulation.  All methods are
    deterministic functions of ``(plan, inputs)``.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.events: list[FaultEvent] = []

    def _record(
        self,
        spec: FaultSpec,
        target: str,
        frame_index: Optional[int] = None,
        **detail: object,
    ) -> FaultEvent:
        event = FaultEvent(
            kind=spec.kind,
            stage=spec.stage,
            target=target,
            frame_index=frame_index,
            detail=detail,
        )
        self.events.append(event)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("fault", **event.to_json())
        return event

    # ------------------------------------------------------------------
    # Encode stage: sender-side bitstream corruption
    # ------------------------------------------------------------------

    def apply_to_payload(self, payload: bytes, frame_index: int) -> bytes:
        """Apply encode-stage faults to one frame's encoded bitstream.

        Models corruption in the sender's frame buffer *after* the
        encoder reconstructed the frame (the prediction loop stays
        clean) but *before* packetization — every fragment cut from the
        payload carries the rot.
        """
        for index, spec in self.plan.for_stage(STAGE_ENCODE):
            if not spec.applies_to_frame(frame_index) or not payload:
                continue
            rng = self.plan.rng(spec.stage, index, frame_index)
            if rng.random() >= spec.probability:
                continue
            payload, flipped = _flip_bytes(rng, payload, spec.amount)
            self._record(
                spec,
                target=f"payload:{frame_index}",
                frame_index=frame_index,
                flipped_bytes=flipped,
            )
        return payload

    # ------------------------------------------------------------------
    # Channel stage: packet-stream surgery
    # ------------------------------------------------------------------

    def apply_to_packets(
        self, packets: Sequence[Packet], frame_index: int
    ) -> list[Packet]:
        """Apply channel-stage faults to one frame's delivered packets.

        Faults apply in plan order, each over the previous fault's
        output (a duplicated packet can therefore be truncated by a
        later spec — exactly the composability a declarative plan
        promises).
        """
        out = list(packets)
        for index, spec in self.plan.for_stage(STAGE_CHANNEL):
            if not spec.applies_to_frame(frame_index) or not out:
                continue
            rng = self.plan.rng(spec.stage, index, frame_index)
            if spec.kind == "reorder":
                if len(out) > 1 and rng.random() < spec.probability:
                    order = rng.permutation(len(out))
                    out = [out[i] for i in order]
                    self._record(
                        spec,
                        target=f"frame:{frame_index}",
                        frame_index=frame_index,
                        n_packets=len(out),
                    )
                continue
            out = self._apply_per_packet(spec, rng, out, frame_index)
        return out

    def _apply_per_packet(
        self, spec: FaultSpec, rng, packets: list[Packet], frame_index: int
    ) -> list[Packet]:
        result: list[Packet] = []
        hits = 0
        for packet in packets:
            capped = (
                spec.max_per_frame is not None and hits >= spec.max_per_frame
            )
            if capped or rng.random() >= spec.probability:
                result.append(packet)
                continue
            hits += 1
            target = f"packet:{packet.sequence_number}"
            if spec.kind == "drop":
                self._record(spec, target, frame_index)
            elif spec.kind == "duplicate":
                result.append(packet)
                result.extend([packet] * spec.amount)
                self._record(spec, target, frame_index, copies=spec.amount)
            elif spec.kind == "truncate":
                cut = int(rng.integers(0, len(packet.payload) + 1))
                result.append(self._with_payload(packet, packet.payload[:cut]))
                self._record(
                    spec, target, frame_index,
                    kept_bytes=cut, cut_bytes=len(packet.payload) - cut,
                )
            elif spec.kind == "byteflip":
                payload, flipped = _flip_bytes(
                    rng, packet.payload, spec.amount
                )
                result.append(self._with_payload(packet, payload))
                self._record(spec, target, frame_index, flipped_bytes=flipped)
            else:  # pragma: no cover - KIND_STAGES keeps this unreachable
                result.append(packet)
        return result

    @staticmethod
    def _with_payload(packet: Packet, payload: bytes) -> Packet:
        return Packet(
            sequence_number=packet.sequence_number,
            frame_index=packet.frame_index,
            fragment_index=packet.fragment_index,
            fragments_in_frame=packet.fragments_in_frame,
            payload=payload,
        )

    # ------------------------------------------------------------------
    # Decoder-input stage: fragment payload corruption
    # ------------------------------------------------------------------

    def apply_to_fragments(
        self, fragments: Sequence[bytes], frame_index: int
    ) -> list[bytes]:
        """Apply decoder-input faults to one frame's fragment payloads."""
        out = list(fragments)
        for index, spec in self.plan.for_stage(STAGE_DECODER_INPUT):
            if not spec.applies_to_frame(frame_index) or not out:
                continue
            rng = self.plan.rng(spec.stage, index, frame_index)
            hits = 0
            for position, payload in enumerate(out):
                capped = (
                    spec.max_per_frame is not None
                    and hits >= spec.max_per_frame
                )
                if capped or rng.random() >= spec.probability:
                    continue
                hits += 1
                target = f"fragment:{position}"
                if spec.kind == "truncate_fragment":
                    cut = int(rng.integers(0, len(payload) + 1))
                    out[position] = payload[:cut]
                    self._record(
                        spec, target, frame_index,
                        kept_bytes=cut, cut_bytes=len(payload) - cut,
                    )
                else:  # corrupt_fragment
                    corrupted, flipped = _flip_bytes(rng, payload, spec.amount)
                    out[position] = corrupted
                    self._record(
                        spec, target, frame_index, flipped_bytes=flipped
                    )
        return out

    # ------------------------------------------------------------------
    # Runner stage: worker and cache faults
    # ------------------------------------------------------------------

    def worker_faults(self, job_key: str, attempt: int) -> list[FaultSpec]:
        """Runner faults that fire inside attempt ``attempt`` of a job.

        The probability draw depends on ``(plan, job_key)`` only — a
        job is either fault-afflicted or not — while ``times`` bounds
        how many attempts suffer, so bounded-retry runners recover
        deterministically once the budget is spent.
        """
        fired = []
        for index, spec in self.plan.for_stage(STAGE_RUNNER):
            if spec.kind not in WORKER_FAULT_KINDS:
                continue
            if not spec.applies_to_attempt(attempt):
                continue
            rng = self.plan.rng(spec.stage, index, job_key)
            if rng.random() < spec.probability:
                fired.append(spec)
        return fired

    def poison_cache_faults(self, job_key: str) -> list[FaultSpec]:
        """Poison-cache faults that fire for one job's cache entry."""
        fired = []
        for index, spec in self.plan.for_stage(STAGE_RUNNER):
            if spec.kind != "poison_cache":
                continue
            rng = self.plan.rng(spec.stage, index, job_key)
            if rng.random() < spec.probability:
                fired.append(spec)
        return fired

    def record_runner_fault(
        self, spec: FaultSpec, target: str, **detail: object
    ) -> FaultEvent:
        """Record a runner-stage injection (called by the grid parent)."""
        return self._record(spec, target, frame_index=None, **detail)


def _flip_bytes(rng, payload: bytes, amount: int) -> tuple[bytes, int]:
    """XOR ``amount`` random bytes of ``payload`` with nonzero masks."""
    if not payload:
        return payload, 0
    data = bytearray(payload)
    count = min(amount, len(data))
    positions = rng.choice(len(data), size=count, replace=False)
    for position in positions:
        data[int(position)] ^= int(rng.integers(1, 256))
    return bytes(data), count


def inject_faults(
    packets: Iterable[Packet],
    *,
    plan: FaultPlan,
    frame_index: int = 0,
    injector: Optional[FaultInjector] = None,
) -> tuple[list[Packet], list[FaultEvent]]:
    """One-shot helper: apply a plan's channel faults to a packet list.

    Returns ``(faulted_packets, events)``.  Pass an existing
    ``injector`` to accumulate events across several calls (one per
    frame); otherwise a fresh one is built and discarded.
    """
    injector = injector if injector is not None else FaultInjector(plan)
    before = len(injector.events)
    faulted = injector.apply_to_packets(list(packets), frame_index)
    return faulted, injector.events[before:]
