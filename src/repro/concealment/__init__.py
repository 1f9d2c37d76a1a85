"""Error concealment: decoder-side repair of lost macroblocks.

The paper assumes "a simple copy scheme ... for error concealment at
the decoding side" and notes other schemes slot in by changing the
similarity factor.  This package provides that copy scheme plus a
spatial-interpolation scheme as an extension, behind one interface.
"""
