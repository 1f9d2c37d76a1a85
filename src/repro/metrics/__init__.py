"""Quality and rate metrics used in the paper's evaluation.

* :mod:`repro.metrics.psnr` — peak signal-to-noise ratio (Figure 5a/6a).
* :mod:`repro.metrics.bad_pixels` — the paper's bad-pixel count, the
  metric it argues represents error resiliency better than PSNR
  (Figure 5b, Section 4.4).
* :mod:`repro.metrics.bitrate` — encoded size and frame-size-variation
  statistics (Figures 5c and 6b).
"""
