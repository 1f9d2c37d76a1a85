"""Frame and sequence containers.

The codec in this repository works on 8-bit luma frames whose dimensions
are multiples of the macroblock size (16).  The paper's evaluation format
is QCIF (176x144), i.e. an 11x9 grid of 16x16 macroblocks; the constants
below name those numbers once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

#: QCIF luma width in pixels (the paper's evaluation format).
QCIF_WIDTH = 176
#: QCIF luma height in pixels.
QCIF_HEIGHT = 144
#: Macroblock edge length in pixels.
MB_SIZE = 16


@dataclass(frozen=True)
class Frame:
    """A single 8-bit frame: luma, with optional 4:2:0 chroma.

    Attributes:
        pixels: ``(height, width)`` ``uint8`` luma array.  Arrays are
            treated as immutable; helpers always return copies.
        index: position of the frame in its sequence (0-based).
        cb, cr: optional ``(height/2, width/2)`` ``uint8`` chroma
            planes (4:2:0 subsampling).  Either both or neither.
    """

    pixels: np.ndarray
    index: int = 0
    cb: Optional[np.ndarray] = None
    cr: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        pixels = self.pixels
        if pixels.ndim != 2:
            raise ValueError(f"frame must be 2-D luma, got shape {pixels.shape}")
        if pixels.dtype != np.uint8:
            raise TypeError(f"frame pixels must be uint8, got {pixels.dtype}")
        height, width = pixels.shape
        if height % MB_SIZE or width % MB_SIZE:
            raise ValueError(
                f"frame dimensions {width}x{height} are not multiples of "
                f"the macroblock size {MB_SIZE}"
            )
        if (self.cb is None) != (self.cr is None):
            raise ValueError("chroma requires both cb and cr planes")
        if self.cb is not None:
            expected = (height // 2, width // 2)
            for name, plane in (("cb", self.cb), ("cr", self.cr)):
                if plane.shape != expected:
                    raise ValueError(
                        f"{name} plane shape {plane.shape} is not the "
                        f"4:2:0 {expected}"
                    )
                if plane.dtype != np.uint8:
                    raise TypeError(f"{name} plane must be uint8")

    @property
    def has_chroma(self) -> bool:
        return self.cb is not None

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def mb_cols(self) -> int:
        """Number of macroblock columns (11 for QCIF)."""
        return self.width // MB_SIZE

    @property
    def mb_rows(self) -> int:
        """Number of macroblock rows (9 for QCIF)."""
        return self.height // MB_SIZE

    def macroblock(self, row: int, col: int) -> np.ndarray:
        """Return a copy of macroblock ``(row, col)`` as a 16x16 array."""
        if not (0 <= row < self.mb_rows and 0 <= col < self.mb_cols):
            raise IndexError(f"macroblock ({row}, {col}) out of range")
        y, x = row * MB_SIZE, col * MB_SIZE
        return self.pixels[y : y + MB_SIZE, x : x + MB_SIZE].copy()


def _validate_frames(frames: Sequence[Frame]) -> None:
    if not frames:
        raise ValueError("a video sequence needs at least one frame")
    width, height = frames[0].width, frames[0].height
    chroma = frames[0].has_chroma
    for frame in frames:
        if frame.width != width or frame.height != height:
            raise ValueError(
                "all frames in a sequence must share dimensions: "
                f"expected {width}x{height}, got {frame.width}x{frame.height}"
            )
        if frame.has_chroma != chroma:
            raise ValueError(
                "all frames in a sequence must agree on carrying chroma"
            )


@dataclass(frozen=True)
class VideoSequence:
    """An ordered collection of equally sized frames.

    Attributes:
        frames: the frames, in display order.
        name: human-readable identifier ("foreman", "akiyo", ...).
        fps: nominal frame rate; only used for reporting bitrates.
    """

    frames: tuple[Frame, ...]
    name: str = "unnamed"
    fps: float = 30.0

    def __post_init__(self) -> None:
        _validate_frames(self.frames)
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __getitem__(self, index: int) -> Frame:
        return self.frames[index]

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    @property
    def mb_rows(self) -> int:
        return self.frames[0].mb_rows

    @property
    def mb_cols(self) -> int:
        return self.frames[0].mb_cols

    @property
    def has_chroma(self) -> bool:
        return self.frames[0].has_chroma

    def clip(self, n_frames: int) -> "VideoSequence":
        """Return the first ``n_frames`` frames as a new sequence."""
        if n_frames < 1:
            raise ValueError("clip length must be >= 1")
        return VideoSequence(self.frames[:n_frames], name=self.name, fps=self.fps)
