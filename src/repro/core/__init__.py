"""PBPAIR — Probability Based Power Aware Intra Refresh (the paper's core).

Three pieces:

* :mod:`repro.core.correctness` — the per-macroblock *probability of
  correctness* matrix ``C^k`` and its update rules (the paper's
  formulas (1), (2) and the approximation (3)).
* :mod:`repro.core.pbpair` — the controller that turns the matrix into
  encoding decisions: threshold mode selection against ``Intra_Th``
  (Section 3.1.1) and the probability-aware motion-estimation cost
  (Section 3.1.2).
* :mod:`repro.core.adaptation` — the power-awareness extension of
  Section 3.2: adapting ``Intra_Th`` to PLR changes, energy budgets and
  quality targets.

:mod:`repro.core.instrumentation` (sigma traces and heatmaps) builds on
the PBPAIR resilience strategy.
"""
