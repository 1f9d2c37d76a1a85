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
