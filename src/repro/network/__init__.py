"""Network substrate: RTP-like packetization and lossy channels.

Implements the transmission path of the paper's Figure 1: encoded
frames are packetized (one packet per frame up to the MTU, fragmented at
macroblock boundaries beyond it — the paper's RTP setup), pushed through
a loss model, and depacketized into per-frame fragment sets for the
decoder.

Loss models (all in :mod:`repro.network.loss`): ``UniformLoss`` (the
paper's "uniform distribution of frame discard"), ``ScriptedLoss`` (the
deterministic e1..e7 events of Figure 6), and ``GilbertElliottLoss``
(bursty wireless loss, an extension).
"""
