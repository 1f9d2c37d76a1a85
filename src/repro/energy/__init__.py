"""Energy accounting substrate.

The paper measures encoder power physically (a DAQ board sampling the
voltage drop across a sense resistor on battery-less PDAs).  That
apparatus is replaced here by *operation counting*: the encoder counts
every energy-relevant operation it performs (SAD block evaluations, DCT/
IDCT blocks, quantization, motion compensation, entropy bits, probability
updates) and a device profile prices each operation class.  Relative
energy between schemes — the quantity the paper reports — is then a
function of how much work each scheme performs, exactly as on the real
devices.  See DESIGN.md, substitution #3.
"""
