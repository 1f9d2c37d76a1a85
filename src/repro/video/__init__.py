"""Video substrate: frame containers, raw I/O, and synthetic sequences.

The paper evaluates on the standard QCIF test clips FOREMAN, AKIYO and
GARDEN.  Those clips are not distributable here, so this package provides
seeded synthetic generators with the same *motion and texture profiles*
(see DESIGN.md, substitution #1) plus raw-YUV file I/O so that real clips
can be dropped in when available.
"""
