"""8x8 DCT and IDCT, in float and fixed-point integer variants.

The paper implemented its codec "using fixed-point arithmetic since the
PDAs that we used do not have a floating point unit".  The fixed-point
transform here mirrors that: the orthonormal DCT-II basis is scaled to
13-bit integers and all arithmetic is integer with rounding shifts.  The
float transform is the mathematical reference; tests bound the integer
transform's round-trip error to +/-3 grey levels (the forward output
is rounded to whole coefficients, which alone costs up to ~2 grey
levels on adversarial blocks, plus the basis quantization).

Both variants are vectorized over a batch axis: inputs are
``(n, 8, 8)`` arrays and the whole batch is transformed with two matrix
multiplications.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Fixed-point fractional bits for the integer DCT basis.
FIXED_POINT_BITS = 13


@lru_cache(maxsize=1)
def dct_basis() -> np.ndarray:
    """The orthonormal 8x8 DCT-II basis matrix ``D``.

    Row ``k`` holds ``c(k) * cos((2n + 1) k pi / 16)`` so that the forward
    transform of block ``B`` is ``D @ B @ D.T``.
    """
    k = np.arange(8)[:, None].astype(np.float64)
    n = np.arange(8)[None, :].astype(np.float64)
    basis = np.cos((2 * n + 1) * k * np.pi / 16.0)
    basis[0, :] *= np.sqrt(1.0 / 2.0)
    basis *= np.sqrt(2.0 / 8.0)
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=1)
def _int_basis() -> np.ndarray:
    scaled = np.round(dct_basis() * (1 << FIXED_POINT_BITS)).astype(np.int64)
    scaled.setflags(write=False)
    return scaled


@lru_cache(maxsize=1)
def _int_basis_float() -> np.ndarray:
    scaled = _int_basis().astype(np.float64)
    scaled.setflags(write=False)
    return scaled


#: Inputs below this magnitude keep every product and partial sum of the
#: two transform stages under 2**53, so the float64 matmul path is exact
#: (integers in, the same integers out) and BLAS replaces the much
#: slower int64 einsum.  Quantizer output is clamped to 12 bits, so real
#: streams are always far below the limit.
_EXACT_FLOAT_LIMIT = 1 << 33


def _as_batch(blocks: np.ndarray) -> np.ndarray:
    if blocks.ndim == 2:
        blocks = blocks[None]
    if blocks.ndim != 3 or blocks.shape[1:] != (8, 8):
        raise ValueError(f"expected (n, 8, 8) blocks, got shape {blocks.shape}")
    return blocks


def forward_dct_float(blocks: np.ndarray) -> np.ndarray:
    """Float forward DCT of a batch of 8x8 blocks."""
    blocks = _as_batch(blocks).astype(np.float64)
    basis = dct_basis()
    return np.einsum("ij,njk,lk->nil", basis, blocks, basis, optimize=True)


def inverse_dct_float(coefficients: np.ndarray) -> np.ndarray:
    """Float inverse DCT of a batch of 8x8 coefficient blocks."""
    coefficients = _as_batch(coefficients).astype(np.float64)
    basis = dct_basis()
    return np.einsum("ji,njk,kl->nil", basis, coefficients, basis, optimize=True)


def _rounded_shift(values: np.ndarray, bits: int) -> np.ndarray:
    """Arithmetic right shift with round-to-nearest (ties away from zero)."""
    half = 1 << (bits - 1)
    return np.where(
        values >= 0,
        (values + half) >> bits,
        -((-values + half) >> bits),
    )


def _rounded_shift_exact_float(values: np.ndarray, bits: int) -> np.ndarray:
    """:func:`_rounded_shift` on a float64 array of exact integers.

    ``|values| + half`` must stay below 2**53 so every intermediate is
    exactly representable; then abs, add, scaling by a power of two,
    floor and sign transfer are all exact and the result equals the
    integer shift bit for bit.
    """
    half = float(1 << (bits - 1))
    scale = 2.0 ** -bits
    return np.copysign(np.floor((np.abs(values) + half) * scale), values)


def forward_dct_int(blocks: np.ndarray) -> np.ndarray:
    """Fixed-point forward DCT; integer in, integer out.

    Computes ``(Dq @ B @ Dq.T) >> 2s`` with a rounding shift after each
    multiplication stage, where ``Dq = round(D * 2^s)``.
    """
    blocks = _as_batch(blocks).astype(np.int64)
    if blocks.size and int(np.abs(blocks).max()) < _EXACT_FLOAT_LIMIT:
        basis = _int_basis_float()
        stage1 = _rounded_shift_exact_float(
            basis @ blocks.astype(np.float64), FIXED_POINT_BITS
        )
        return _rounded_shift_exact_float(
            stage1 @ basis.T, FIXED_POINT_BITS
        ).astype(np.int64)
    basis = _int_basis()
    stage1 = _rounded_shift(np.einsum("ij,njk->nik", basis, blocks), FIXED_POINT_BITS)
    stage2 = _rounded_shift(np.einsum("nik,lk->nil", stage1, basis), FIXED_POINT_BITS)
    return stage2


def inverse_dct_int(coefficients: np.ndarray) -> np.ndarray:
    """Fixed-point inverse DCT; integer in, integer out."""
    coefficients = _as_batch(coefficients).astype(np.int64)
    if coefficients.size and int(np.abs(coefficients).max()) < _EXACT_FLOAT_LIMIT:
        basis = _int_basis_float()
        stage1 = _rounded_shift_exact_float(
            basis.T @ coefficients.astype(np.float64), FIXED_POINT_BITS
        )
        return _rounded_shift_exact_float(
            stage1 @ basis, FIXED_POINT_BITS
        ).astype(np.int64)
    basis = _int_basis()
    stage1 = _rounded_shift(
        np.einsum("ji,njk->nik", basis, coefficients), FIXED_POINT_BITS
    )
    stage2 = _rounded_shift(np.einsum("nik,kl->nil", stage1, basis), FIXED_POINT_BITS)
    return stage2


def forward_dct_blocks(
    blocks: np.ndarray, fixed_point: bool = True
) -> np.ndarray:
    """Forward-transform a whole ``(n, 8, 8)`` stack in one call.

    The one entry point, dispatching on the arithmetic variant: the
    encoder gathers every residual block of a frame (luma and chroma)
    into one stack and transforms it with two matrix multiplications
    against the precomputed basis (``C @ X @ C.T`` over the stacked
    axis) — no per-block Python loop anywhere on the hot path.
    Bit-identical to transforming each block alone (the batch axis only
    changes the matmul shape, never the per-element arithmetic).
    """
    if fixed_point:
        return forward_dct_int(np.rint(blocks).astype(np.int64))
    return forward_dct_float(blocks)


def inverse_dct_blocks(
    coefficients: np.ndarray, fixed_point: bool = True
) -> np.ndarray:
    """Inverse-transform a whole ``(n, 8, 8)`` stack in one call."""
    if fixed_point:
        coefficients = np.asarray(coefficients)
        if not np.issubdtype(coefficients.dtype, np.integer):
            coefficients = np.rint(coefficients)
        return inverse_dct_int(coefficients)
    return inverse_dct_float(coefficients)
