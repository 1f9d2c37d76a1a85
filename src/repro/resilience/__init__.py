"""Error-resilience strategies.

This package implements the paper's four baselines and adapts PBPAIR
(whose probabilistic machinery lives in :mod:`repro.core`) to the same
interface:

* ``NoResilience`` — plain predictive coding ("NO" in the figures).
* ``GOPStrategy`` — periodic I-frames (GOP-N = one I per N P-frames).
* ``AIRStrategy`` — adaptive intra refresh: after motion estimation,
  force the N macroblocks with the highest SAD to intra mode.
* ``PGOPStrategy`` — progressive GOP: refresh N macroblock columns per
  frame, sweeping left to right, with stride-back refreshes that trap
  error propagation across the refreshed region.
* ``PBPAIRStrategy`` — the paper's contribution.

All strategies plug into :class:`repro.codec.encoder.Encoder` through the
hook protocol in :mod:`repro.resilience.base`.
"""
