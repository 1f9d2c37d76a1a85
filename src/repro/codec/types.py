"""Shared codec types: configuration, frame/MB descriptors, statistics."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np


class FrameType(enum.Enum):
    """Coded frame type."""

    I = "I"  # noqa: E741 - the standard video-coding name
    P = "P"

    @property
    def is_intra(self) -> bool:
        return self is FrameType.I


class MacroblockMode(enum.Enum):
    """Coding mode of a single 16x16 macroblock."""

    INTRA = "intra"
    INTER = "inter"


@dataclass(frozen=True)
class CodecConfig:
    """Static configuration shared by encoder and decoder.

    Attributes:
        width, height: luma dimensions, multiples of 16.
        quantizer: H.263-style QP in [1, 31]; quant step is ``2 * QP``.
        search_range: ME search range in integer pixels, at most 15
            (the H.263 motion-vector range; the PBPAIR correctness
            update also assumes a reference block overlaps at most four
            macroblocks, i.e. displacements below 16).
        sad_threshold: the ``SAD_Th`` of the paper's Figure 4 pseudo code:
            a macroblock is inter coded only when
            ``SAD_mv - SAD_Th <= SAD_self``.
        use_fixed_point_dct: use the integer (fixed-point) DCT, matching
            the paper's FPU-less PDA implementation; the float DCT is the
            reference used in tests.
        motion_search: ``"diamond"`` (adaptive cost with early
            termination, the realistic default), ``"full"`` (exhaustive,
            fixed cost) or ``"three-step"`` (logarithmic, fixed cost).
        me_early_exit_sad: diamond search's zero-motion shortcut: a
            macroblock whose colocated SAD is below this accepts the
            zero vector after a single evaluation (what makes static
            content cheap to search).
        chroma: code 4:2:0 chroma (two extra 8x8 blocks per
            macroblock, H.263 block order Y Y Y Y Cb Cr).  Off by
            default: the paper's metrics and experiments are luma.
        half_pel: half-pixel motion precision (H.263).  Motion vectors
            are then coded and compensated in half-pel units; the
            integer search is refined with 8 extra candidates per
            macroblock.  Off by default to keep the paper experiments'
            integer-pel cost model.
        allow_skip: H.263's COD bit — a P-frame macroblock whose motion
            vector is zero and whose quantized residual is entirely zero
            costs a single bit (the decoder copies the colocated
            reference block).  Off by default to keep the paper
            experiments' rate model.
    """

    width: int = 176
    height: int = 144
    quantizer: int = 6
    search_range: int = 15
    sad_threshold: int = 500
    use_fixed_point_dct: bool = True
    motion_search: str = "diamond"
    me_early_exit_sad: int = 1600
    chroma: bool = False
    half_pel: bool = False
    allow_skip: bool = False

    def __post_init__(self) -> None:
        if self.width % 16 or self.height % 16:
            raise ValueError("codec dimensions must be multiples of 16")
        if not 1 <= self.quantizer <= 31:
            raise ValueError(f"quantizer must be in [1, 31], got {self.quantizer}")
        if not 1 <= self.search_range <= 15:
            raise ValueError("search_range must be in [1, 15]")
        if self.sad_threshold < 0:
            raise ValueError("sad_threshold must be >= 0")
        if self.me_early_exit_sad < 0:
            raise ValueError("me_early_exit_sad must be >= 0")
        if self.motion_search not in ("full", "three-step", "diamond"):
            raise ValueError(
                "motion_search must be 'diamond', 'full' or 'three-step', "
                f"got {self.motion_search!r}"
            )

    @property
    def mb_rows(self) -> int:
        return self.height // 16

    @property
    def mb_cols(self) -> int:
        return self.width // 16

    @property
    def mb_count(self) -> int:
        return self.mb_rows * self.mb_cols

    @property
    def blocks_per_mb(self) -> int:
        """Transform blocks per macroblock: 4 luma (+2 chroma)."""
        return 6 if self.chroma else 4

    @property
    def mv_limit(self) -> int:
        """Largest motion-vector component as coded (half-pel units
        when ``half_pel``); the decoder rejects anything beyond it."""
        return 2 * self.search_range if self.half_pel else self.search_range


#: Labels of the :attr:`FrameDecisions.forced_by` codes: the rule that
#: forced a macroblock to intra mode, or None (code 0) for a natural
#: inter decision.  ``"strategy-post"``, ``"air"`` and ``"stride-back"``
#: are the post-ME labels of the resilience strategies.
FORCED_BY = (
    None,
    "i-frame",
    "pre-me",
    "sad-test",
    "strategy-post",
    "air",
    "stride-back",
)


@dataclass(frozen=True)
class FrameDecisions:
    """The encoder's per-macroblock decisions for one frame, as grids.

    Every field is an ``(mb_rows, mb_cols)`` array in raster layout
    (``mv`` adds a trailing axis of 2).

    Attributes:
        mode: object grid of :class:`MacroblockMode`.
        mv: int64 motion vectors ``(dy, dx)`` as coded — integer-pel
            units, or half-pel units when the codec runs with
            ``half_pel``; ``(0, 0)`` for intra.
        sad_mv: SAD of the chosen reference block (0 for intra decided
            before ME).
        sad_self: deviation of each macroblock from its own mean (the
            paper's ``SAD_self``), used in the inter/intra test.
        me_skipped: True where the resilience strategy forced intra mode
            *before* motion estimation, i.e. no search was performed —
            this is PBPAIR's energy lever.
        forced_by: int8 codes into :data:`FORCED_BY`.
    """

    mode: np.ndarray
    mv: np.ndarray
    sad_mv: np.ndarray
    sad_self: np.ndarray
    me_skipped: np.ndarray
    forced_by: np.ndarray

    def forced(self, label: Optional[str]) -> np.ndarray:
        """Bool grid of the macroblocks whose ``forced_by`` is ``label``."""
        return self.forced_by == FORCED_BY.index(label)


@dataclass(frozen=True)
class FrameEncodeStats:
    """Per-frame statistics produced by the encoder.

    ``intra_mbs``/``inter_mbs`` count final modes; ``me_skipped_mbs``
    counts macroblocks whose motion search was skipped entirely (the
    quantity the energy model rewards); ``psnr_reconstructed`` is the
    encoder-side (loss-free) reconstruction quality.
    """

    frame_index: int
    frame_type: FrameType
    bits: int
    intra_mbs: int
    inter_mbs: int
    me_skipped_mbs: int
    psnr_reconstructed: float

    @property
    def bytes(self) -> int:
        return (self.bits + 7) // 8


class LayerSymbols(NamedTuple):
    """One frame's macroblock-layer symbols in the batch VLD's parse form.

    ``meta`` holds one ``(intra, mv_y, mv_x)`` row per macroblock in
    raster order (mv ``(0, 0)`` for intra and skipped macroblocks);
    ``ev_index`` and ``ev_levels`` list every coefficient event as
    (raster index into the frame's flattened ``(mb_count, n, 8, 8)``
    level array, level), ordered by block and then by zigzag position;
    macroblock ``i``'s events are ``ev_offsets[i]:ev_offsets[i + 1]``.
    """

    meta: np.ndarray
    ev_index: np.ndarray
    ev_levels: np.ndarray
    ev_offsets: np.ndarray


@dataclass(frozen=True)
class EncodedFrame:
    """An encoded frame: the bitstream payload plus encoder-side metadata.

    ``payload`` is the exact bitstream (decodable by ``Decoder``);
    ``decisions``, ``stats`` and ``symbols`` are encoder-side metadata
    that never travels over the network.
    """

    frame_index: int
    frame_type: FrameType
    payload: bytes
    decisions: FrameDecisions
    stats: FrameEncodeStats
    reconstruction: np.ndarray  # encoder-side reconstructed luma (uint8)
    #: Quantizer the frame was coded with (rate control may vary it per
    #: frame; the packetizer copies it into every fragment header).
    qp: int = 6
    #: Encoder-side reconstructed chroma ``(cb, cr)`` when the codec
    #: runs with 4:2:0 chroma; None for luma-only streams.
    reconstruction_chroma: Optional[tuple[np.ndarray, np.ndarray]] = None
    #: Bit offset of each macroblock within ``payload`` plus a final
    #: entry for the total bit length, so that
    #: ``mb_bit_offsets[i + 1] - mb_bit_offsets[i]`` is macroblock i's
    #: coded size and the packetizer can split at macroblock boundaries.
    mb_bit_offsets: tuple[int, ...] = ()
    #: The symbols ``payload`` codes, as the decoder's parse would
    #: recover them (see :func:`repro.codec.syntax.seed_parse_memo`).
    symbols: Optional[LayerSymbols] = None

    @property
    def size_bytes(self) -> int:
        return len(self.payload)
