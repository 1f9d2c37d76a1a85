"""H.263-style video codec substrate.

This package implements the full encoder/decoder pipeline of Figure 1 of
the paper: motion estimation (ME), DCT, quantization (Q) and variable
length coding (VLC) on the encode side; VLD, dequantization, IDCT and
motion compensation (MC) on the decode side, with the standard
reconstruction loop (the encoder predicts from its own decoded frames).

It is a self-contained, testable stand-in for the ITU H.263 reference
encoder the paper instruments (DESIGN.md, substitution #2): identical
architecture and macroblock geometry, H.263-style quantization, a
fixed-point integer DCT (the paper's PDAs had no FPU), and a real
bit-level entropy layer (run-level coding with Exp-Golomb codewords).
"""

from repro.codec.types import (
    CodecConfig,
    FrameType,
    MacroblockMode,
    MacroblockDecision,
    EncodedFrame,
    EncodedMacroblock,
    FrameEncodeStats,
)
from repro.codec.encoder import Encoder
from repro.codec.rate import (
    ClosedLoopRateController,
    RateControlConfig,
    build_rate_controller,
)
from repro.codec.decoder import Decoder, DecodeResult
from repro.codec.bitstream import BitReader, BitWriter, BitstreamError
from repro.codec.motion import (
    MotionEstimator,
    FullSearchMotionEstimator,
    ThreeStepMotionEstimator,
    DiamondSearchMotionEstimator,
    MotionField,
)
from repro.codec.halfpel import (
    halfpel_to_pixels,
    motion_compensate_half,
    refine_half_pel,
)

__all__ = [
    "CodecConfig",
    "FrameType",
    "MacroblockMode",
    "MacroblockDecision",
    "EncodedFrame",
    "EncodedMacroblock",
    "FrameEncodeStats",
    "Encoder",
    "RateControlConfig",
    "ClosedLoopRateController",
    "build_rate_controller",
    "Decoder",
    "DecodeResult",
    "BitReader",
    "BitWriter",
    "BitstreamError",
    "MotionEstimator",
    "FullSearchMotionEstimator",
    "ThreeStepMotionEstimator",
    "DiamondSearchMotionEstimator",
    "MotionField",
    "halfpel_to_pixels",
    "motion_compensate_half",
    "refine_half_pel",
]
