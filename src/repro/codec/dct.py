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
def _scaled_basis() -> np.ndarray:
    """The integer basis times ``2**-13``, exact: a power-of-two scaling.

    Multiplying by it folds each stage's ``>> 13`` into the matmul, so
    only the rounding is left (:func:`_round_half_away`).
    """
    scaled = _int_basis() * 2.0**-FIXED_POINT_BITS
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


def _round_half_away(values: np.ndarray, scratch: np.ndarray) -> None:
    """Round a float64 stage output half away from zero, in place.

    A stage output is an integer times ``2**-13`` (the scaled basis
    times integers), below ``2**40`` in magnitude on the exact path, so
    ``values + copysign(0.5, values)`` is exact and truncating it
    equals :func:`_rounded_shift` of the unscaled integer bit for bit.
    ``scratch``, an array of the same shape, is overwritten.
    """
    np.copysign(0.5, values, out=scratch)
    values += scratch
    np.trunc(values, out=values)


def _exact_float_transform(
    values: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """``round(round(left @ values) @ right)`` on the exact float path.

    ``left`` and ``right`` are scaled bases (:func:`_scaled_basis`), so
    each product is already shifted and only the rounding is left.  The
    input's float copy is the first rounding's scratch and then takes
    the second stage, so no other stage-sized array is allocated: at
    QCIF each is ~200 KB, where every fresh allocation costs page
    faults.
    """
    first = values.astype(np.float64)
    second = left @ first
    _round_half_away(second, first)
    np.matmul(second, right, out=first)
    _round_half_away(first, second)
    return first.astype(np.int64)


def _exact_in_float(values: np.ndarray) -> bool:
    return bool(
        values.size
        and -_EXACT_FLOAT_LIMIT < values.min()
        and values.max() < _EXACT_FLOAT_LIMIT
    )


def forward_dct_int(blocks: np.ndarray) -> np.ndarray:
    """Fixed-point forward DCT; integer in, integer out.

    Computes ``(Dq @ B @ Dq.T) >> 2s`` with a rounding shift after each
    multiplication stage, where ``Dq = round(D * 2^s)``.
    """
    blocks = _as_batch(np.asarray(blocks)).astype(np.int64, copy=False)
    if _exact_in_float(blocks):
        basis = _scaled_basis()
        return _exact_float_transform(blocks, basis, basis.T)
    basis = _int_basis()
    stage1 = _rounded_shift(np.einsum("ij,njk->nik", basis, blocks), FIXED_POINT_BITS)
    stage2 = _rounded_shift(np.einsum("nik,lk->nil", stage1, basis), FIXED_POINT_BITS)
    return stage2


def inverse_dct_int(coefficients: np.ndarray) -> np.ndarray:
    """Fixed-point inverse DCT; integer in, integer out."""
    coefficients = _as_batch(np.asarray(coefficients)).astype(
        np.int64, copy=False
    )
    if _exact_in_float(coefficients):
        basis = _scaled_basis()
        return _exact_float_transform(coefficients, basis.T, basis)
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
        blocks = np.asarray(blocks)
        if not np.issubdtype(blocks.dtype, np.integer):
            blocks = np.rint(blocks)
        return forward_dct_int(blocks)
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
