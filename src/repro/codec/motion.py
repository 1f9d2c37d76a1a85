"""Motion estimation: diamond, three-step and exhaustive searches.

All estimators are vectorized across the entire frame: the full search
computes, for each of the ``(2R+1)^2`` displacements, the SAD of *every*
macroblock at once via a shifted-difference image and a block-sum
reshape; the per-macroblock searches (three-step, diamond) track
per-macroblock centers and score whole search rounds through
:func:`candidate_sads`, one strided-window gather and one
absolute-difference reduction per round rather than one per candidate
offset.  The batching never changes a decision: round winners are
recovered with a first-minimum ``argmin`` that reproduces the
sequential visit order, and the diamond walk re-plays its (rare)
within-round center moves exactly — streams stay byte-for-byte
identical to the scalar search.

The estimators accept an optional *cost function* so that PBPAIR can
bias the search toward reference blocks with high probability of
correctness (Section 3.1.2 of the paper) without the codec knowing
anything about probabilities: the cost function maps
``(sad, dy, dx, mb_row, mb_col)`` arrays to a cost array, and the
estimator minimizes cost while still reporting the true SAD of the
winner (the SAD is what the inter/intra decision needs).

Every estimator reports how many candidate blocks it evaluated; the
energy model prices those evaluations, which is how "skipping ME"
becomes an energy saving.  The same count is also attached to the
enclosing trace span (``sad_blocks`` payload via
:meth:`repro.obs.tracer.Tracer.count`) when tracing is enabled, so per-stage
breakdowns can attribute ME work without re-deriving it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.codec.blocks import MB
from repro.obs.tracer import get_tracer

#: Cost-function signature: arrays broadcastable to a common shape; must
#: return a float cost of the same broadcast shape.  ``dy``/``dx`` may be
#: scalars (full search evaluates one displacement for all macroblocks at
#: a time), per-macroblock ``(k,)`` arrays, or whole batched rounds of
#: shape ``(n_offsets, k)`` against ``(k,)`` ``mb_row``/``mb_col`` (the
#: three-step and diamond searches score every candidate of a round in
#: one call).
MECostFunction = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray
]


@dataclass(frozen=True)
class MotionField:
    """Result of motion estimation over one frame.

    Attributes:
        mvs: ``(mb_rows, mb_cols, 2)`` integer motion vectors ``(dy, dx)``
            pointing into the reference frame.
        sads: ``(mb_rows, mb_cols)`` SAD of each chosen reference block.
        candidates_evaluated: total candidate blocks whose SAD was
            computed (the energy-relevant operation count).
        candidates_per_mb: optional ``(mb_rows, mb_cols)`` breakdown of
            ``candidates_evaluated`` (zero for skipped macroblocks).
            Fixed-cost searches fill it uniformly; the diamond search
            records each macroblock's actual path length.
    """

    mvs: np.ndarray
    sads: np.ndarray
    candidates_evaluated: int
    candidates_per_mb: Optional[np.ndarray] = None

    def mv(self, row: int, col: int) -> tuple[int, int]:
        dy, dx = self.mvs[row, col]
        return int(dy), int(dx)


def _check_pair(current: np.ndarray, reference: np.ndarray) -> None:
    if current.shape != reference.shape:
        raise ValueError(
            f"current {current.shape} and reference {reference.shape} differ"
        )
    if current.ndim != 2 or current.shape[0] % MB or current.shape[1] % MB:
        raise ValueError(f"bad frame shape {current.shape}")


def _block_sums(diff: np.ndarray) -> np.ndarray:
    """Sum a per-pixel array over each 16x16 macroblock."""
    height, width = diff.shape
    return (
        diff.reshape(height // MB, MB, width // MB, MB)
        .sum(axis=(1, 3))
    )


def candidate_sads(
    current_mbs: np.ndarray,
    windows: np.ndarray,
    origin_y: np.ndarray,
    origin_x: np.ndarray,
    dy: np.ndarray,
    dx: np.ndarray,
) -> np.ndarray:
    """Batched SAD evaluator: every candidate of every macroblock at once.

    The workhorse of the per-macroblock searches.  ``windows`` is a
    ``sliding_window_view`` of the padded reference exposing every 16x16
    block as ``windows[y, x]`` without copying; ``origin_y``/``origin_x``
    are the ``(k,)`` padded-frame origins of the macroblocks being
    searched, and ``dy``/``dx`` are displacement arrays of shape ``(k,)``
    (one candidate per macroblock) or ``(n_offsets, k)`` (a whole search
    round — e.g. all 8 large-diamond neighbours of every macroblock).
    One advanced-indexing gather plus one absolute-difference reduction
    scores the entire round; returns int64 SADs shaped like ``dy``.

    The searches pass int16 pixels, which hold every difference of two
    8-bit pixels and its absolute value, so the gather moves a quarter
    of the bytes of an int64 one; the sums are taken in int64.  The
    gather already copies, so the difference and absolute value are
    computed in place inside that copy: allocating two further
    round-sized temporaries per call makes the allocator the bottleneck
    on whole-round ``(n_offsets, k, 16, 16)`` stacks.
    """
    candidates = windows[origin_y + dy, origin_x + dx]
    np.subtract(current_mbs, candidates, out=candidates)
    np.abs(candidates, out=candidates)
    return candidates.sum(axis=(-2, -1), dtype=np.int64)


def _search_operands(
    current: np.ndarray,
    reference: np.ndarray,
    srange: int,
    rows_idx: np.ndarray,
    cols_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """int16 operands of :func:`candidate_sads` for the searched blocks.

    Returns ``(current_mbs, windows, origins_y, origins_x)``: the
    searched macroblocks of ``current`` gathered in one reshape and
    fancy index, the 16x16 window view of the edge-padded reference,
    and the macroblocks' origins in the padded frame.
    """
    height, width = current.shape
    current_mbs = current.astype(np.int16).reshape(
        height // MB, MB, width // MB, MB
    ).transpose(0, 2, 1, 3)[rows_idx, cols_idx]
    padded = np.pad(reference.astype(np.int16), srange, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (MB, MB))
    return current_mbs, windows, rows_idx * MB + srange, cols_idx * MB + srange


def _clamp(values: np.ndarray, limit: int) -> np.ndarray:
    """Clamp a freshly computed integer array to ``[-limit, limit]``.

    In place, and without ``np.clip``, which builds two ``np.iinfo``
    objects per call on integer arrays (numpy 2); the searches clamp
    thousands of small candidate arrays per frame.
    """
    np.maximum(values, -limit, out=values)
    return np.minimum(values, limit, out=values)


class MotionEstimator(abc.ABC):
    """Interface shared by the search strategies."""

    @abc.abstractmethod
    def estimate(
        self,
        current: np.ndarray,
        reference: np.ndarray,
        cost_function: Optional[MECostFunction] = None,
        active: Optional[np.ndarray] = None,
    ) -> MotionField:
        """Find a motion vector for every macroblock of ``current``.

        Args:
            current: luma frame being encoded.
            reference: previous reconstructed luma frame.
            cost_function: optional re-weighting of SAD (PBPAIR).
            active: optional ``(mb_rows, mb_cols)`` bool mask; inactive
                macroblocks are skipped entirely (their ME was pre-empted
                by an intra decision) and contribute no candidate
                evaluations.  Their reported MV is ``(0, 0)`` and SAD 0.
        """


class FullSearchMotionEstimator(MotionEstimator):
    """Exhaustive integer-pel search over a ``+/-search_range`` window."""

    def __init__(self, search_range: int = 7) -> None:
        if not 1 <= search_range < MB:
            raise ValueError(
                f"search_range must be in [1, {MB - 1}], got {search_range}"
            )
        self.search_range = search_range

    def estimate(
        self,
        current: np.ndarray,
        reference: np.ndarray,
        cost_function: Optional[MECostFunction] = None,
        active: Optional[np.ndarray] = None,
    ) -> MotionField:
        _check_pair(current, reference)
        srange = self.search_range
        height, width = current.shape
        mb_rows, mb_cols = height // MB, width // MB
        current_i = current.astype(np.int64)
        padded = np.pad(reference.astype(np.int64), srange, mode="edge")

        if active is None:
            active = np.ones((mb_rows, mb_cols), dtype=bool)
        n_active = int(active.sum())

        row_grid, col_grid = np.meshgrid(
            np.arange(mb_rows), np.arange(mb_cols), indexing="ij"
        )

        best_cost = np.full((mb_rows, mb_cols), np.inf)
        best_sad = np.zeros((mb_rows, mb_cols), dtype=np.int64)
        best_mv = np.zeros((mb_rows, mb_cols, 2), dtype=np.int64)

        for dy in range(-srange, srange + 1):
            for dx in range(-srange, srange + 1):
                window = padded[
                    srange + dy : srange + dy + height,
                    srange + dx : srange + dx + width,
                ]
                sad_map = _block_sums(np.abs(current_i - window))
                if cost_function is None:
                    cost_map = sad_map.astype(np.float64)
                else:
                    cost_map = cost_function(
                        sad_map,
                        np.int64(dy),
                        np.int64(dx),
                        row_grid,
                        col_grid,
                    )
                better = active & (cost_map < best_cost)
                best_cost = np.where(better, cost_map, best_cost)
                best_sad = np.where(better, sad_map, best_sad)
                best_mv[better] = (dy, dx)

        n_displacements = (2 * srange + 1) ** 2
        per_mb = np.where(active, n_displacements, 0).astype(np.int64)
        get_tracer().count(sad_blocks=n_displacements * n_active)
        return MotionField(
            mvs=best_mv,
            sads=best_sad,
            candidates_evaluated=n_displacements * n_active,
            candidates_per_mb=per_mb,
        )


class ThreeStepMotionEstimator(MotionEstimator):
    """Classic three-step (logarithmic) search.

    Evaluates 9 candidates around a per-macroblock center, halving the
    step each round.  Roughly ``9 * ceil(log2 R)`` candidates per
    macroblock instead of ``(2R+1)^2`` — the low-energy search option.
    """

    def __init__(self, search_range: int = 7) -> None:
        if not 1 <= search_range < MB:
            raise ValueError(
                f"search_range must be in [1, {MB - 1}], got {search_range}"
            )
        self.search_range = search_range

    def estimate(
        self,
        current: np.ndarray,
        reference: np.ndarray,
        cost_function: Optional[MECostFunction] = None,
        active: Optional[np.ndarray] = None,
    ) -> MotionField:
        _check_pair(current, reference)
        srange = self.search_range
        height, width = current.shape
        mb_rows, mb_cols = height // MB, width // MB
        if active is None:
            active = np.ones((mb_rows, mb_cols), dtype=bool)

        mvs = np.zeros((mb_rows, mb_cols, 2), dtype=np.int64)
        sads = np.zeros((mb_rows, mb_cols), dtype=np.int64)
        rows_idx, cols_idx = np.nonzero(active)
        if rows_idx.size == 0:
            return MotionField(
                mvs, sads, 0, np.zeros((mb_rows, mb_cols), dtype=np.int64)
            )

        current_mbs, windows, origins_y, origins_x = _search_operands(
            current, reference, srange, rows_idx, cols_idx
        )

        center_dy = np.zeros(rows_idx.size, dtype=np.int64)
        center_dx = np.zeros(rows_idx.size, dtype=np.int64)
        best_cost = np.full(rows_idx.size, np.inf)
        best_sad = np.zeros(rows_idx.size, dtype=np.int64)
        best_dy = np.zeros(rows_idx.size, dtype=np.int64)
        best_dx = np.zeros(rows_idx.size, dtype=np.int64)
        lanes = np.arange(rows_idx.size)
        evaluated = 0

        step = 1 << max(srange.bit_length() - 1, 0)
        seeded = False
        while step >= 1:
            # The whole 9-point (8 once seeded) round is scored with one
            # batched gather; taking the *first* minimum per macroblock
            # (np.argmin) reproduces the sequential visit order exactly,
            # because under strict-< updates the first offset attaining
            # the round minimum is the one that ends up winning.
            offsets = np.array(
                [
                    (oy, ox)
                    for oy in (-step, 0, step)
                    for ox in (-step, 0, step)
                    if not (seeded and oy == 0 and ox == 0)
                ],
                dtype=np.int64,
            )
            dy = _clamp(center_dy + offsets[:, :1], srange)
            dx = _clamp(center_dx + offsets[:, 1:], srange)
            sad = candidate_sads(
                current_mbs, windows, origins_y, origins_x, dy, dx
            )
            evaluated += offsets.shape[0] * rows_idx.size
            if cost_function is None:
                cost = sad.astype(np.float64)
            else:
                cost = cost_function(sad, dy, dx, rows_idx, cols_idx)
            pick = np.argmin(cost, axis=0)
            round_cost = cost[pick, lanes]
            better = round_cost < best_cost
            best_cost = np.where(better, round_cost, best_cost)
            best_sad = np.where(better, sad[pick, lanes], best_sad)
            best_dy = np.where(better, dy[pick, lanes], best_dy)
            best_dx = np.where(better, dx[pick, lanes], best_dx)
            center_dy, center_dx = best_dy.copy(), best_dx.copy()
            seeded = True
            step //= 2

        mvs[rows_idx, cols_idx, 0] = best_dy
        mvs[rows_idx, cols_idx, 1] = best_dx
        sads[rows_idx, cols_idx] = best_sad
        per_mb = np.zeros((mb_rows, mb_cols), dtype=np.int64)
        per_mb[rows_idx, cols_idx] = evaluated // rows_idx.size
        get_tracer().count(sad_blocks=evaluated)
        return MotionField(mvs, sads, evaluated, per_mb)


class DiamondSearchMotionEstimator(MotionEstimator):
    """Diamond search with early termination — the adaptive-cost search.

    Real encoders (TMN H.263, MPEG-4 VM, x264) do not pay a fixed price
    per macroblock: an easy macroblock (static content, good predictor)
    terminates after a handful of SAD evaluations while a hard one
    (fast or complex motion) walks a long search path.  That cost
    asymmetry is what makes *which* macroblocks a scheme intra-codes
    matter for energy, not just how many: skipping the searches that
    would have been expensive (PBPAIR's content-driven refresh) saves
    far more than skipping average ones (PGOP's columns).

    Algorithm: evaluate the center; accept immediately if SAD is below
    ``early_exit_sad`` (zero-motion shortcut).  Otherwise iterate the
    large diamond (8 points, step 2) until the best stays at the
    center, then refine with the small diamond (4 points, step 1).
    """

    _LARGE_DIAMOND = (
        (-2, 0), (-1, -1), (-1, 1), (0, -2), (0, 2), (1, -1), (1, 1), (2, 0),
    )
    _SMALL_DIAMOND = ((-1, 0), (0, -1), (0, 1), (1, 0))

    def __init__(self, search_range: int = 15, early_exit_sad: int = 1600) -> None:
        if search_range < 1:
            raise ValueError(f"search_range must be >= 1, got {search_range}")
        if early_exit_sad < 0:
            raise ValueError("early_exit_sad must be >= 0")
        self.search_range = search_range
        self.early_exit_sad = early_exit_sad

    def estimate(
        self,
        current: np.ndarray,
        reference: np.ndarray,
        cost_function: Optional[MECostFunction] = None,
        active: Optional[np.ndarray] = None,
    ) -> MotionField:
        _check_pair(current, reference)
        srange = self.search_range
        height, width = current.shape
        mb_rows, mb_cols = height // MB, width // MB
        if active is None:
            active = np.ones((mb_rows, mb_cols), dtype=bool)

        mvs = np.zeros((mb_rows, mb_cols, 2), dtype=np.int64)
        sads = np.zeros((mb_rows, mb_cols), dtype=np.int64)
        rows_idx, cols_idx = np.nonzero(active)
        n = rows_idx.size
        if n == 0:
            return MotionField(
                mvs, sads, 0, np.zeros((mb_rows, mb_cols), dtype=np.int64)
            )

        current_mbs, windows, origins_y, origins_x = _search_operands(
            current, reference, srange, rows_idx, cols_idx
        )

        def score(
            sel: np.ndarray, sad: np.ndarray, dy: np.ndarray, dx: np.ndarray
        ) -> np.ndarray:
            if cost_function is None:
                return sad.astype(np.float64)
            return cost_function(sad, dy, dx, rows_idx[sel], cols_idx[sel])

        best_dy = np.zeros(n, dtype=np.int64)
        best_dx = np.zeros(n, dtype=np.int64)
        everyone = np.ones(n, dtype=bool)
        best_sad = candidate_sads(
            current_mbs, windows, origins_y, origins_x, best_dy, best_dx
        )
        best_cost = score(everyone, best_sad, best_dy, best_dx)
        evaluated = n
        evals_per_mb = np.ones(n, dtype=np.int64)

        def walk_round(offsets: np.ndarray, sel: np.ndarray) -> np.ndarray:
            """One drift-exact diamond round; returns the improved lanes.

            The sequential walk visits the round's offsets in order and
            *moves the center as soon as one improves*, so later offsets
            are relative to the already-updated position.  Phase 1 below
            scores the entire round against the fixed incoming center in
            one batched reduction — which is exact up to and including
            the first improving offset of each macroblock (nothing moved
            before it).  Macroblocks with no improving offset are fully
            decided by that single reduction; only the (typically few)
            movers re-play their remaining offsets in phase 2, one
            batched step per offset rank, reproducing the drift bit for
            bit.
            """
            n_off = offsets.shape[0]
            dy = _clamp(best_dy[sel] + offsets[:, :1], srange)
            dx = _clamp(best_dx[sel] + offsets[:, 1:], srange)
            sad = candidate_sads(
                current_mbs[sel], windows, origins_y[sel], origins_x[sel],
                dy, dx,
            )
            cost = score(sel, sad, dy, dx)
            improves = cost < best_cost[sel]
            lanes = np.nonzero(improves.any(axis=0))[0]
            if lanes.size == 0:
                return sel[:0]
            first = np.argmax(improves[:, lanes], axis=0)
            idx = sel[lanes]
            best_cost[idx] = cost[first, lanes]
            best_sad[idx] = sad[first, lanes]
            best_dy[idx] = dy[first, lanes]
            best_dx[idx] = dx[first, lanes]
            improved = idx
            # Phase 2: drifted lanes continue from the offset after their
            # first improvement, centers now live.
            ptr = first + 1
            live = ptr < n_off
            idx, ptr = idx[live], ptr[live]
            while idx.size:
                off = offsets[ptr]
                dy_c = _clamp(best_dy[idx] + off[:, 0], srange)
                dx_c = _clamp(best_dx[idx] + off[:, 1], srange)
                sad_c = candidate_sads(
                    current_mbs[idx], windows,
                    origins_y[idx], origins_x[idx], dy_c, dx_c,
                )
                cost_c = score(idx, sad_c, dy_c, dx_c)
                better = cost_c < best_cost[idx]
                moved = idx[better]
                best_cost[moved] = cost_c[better]
                best_sad[moved] = sad_c[better]
                best_dy[moved] = dy_c[better]
                best_dx[moved] = dx_c[better]
                ptr = ptr + 1
                live = ptr < n_off
                idx, ptr = idx[live], ptr[live]
            return improved

        large = np.asarray(self._LARGE_DIAMOND, dtype=np.int64)
        small = np.asarray(self._SMALL_DIAMOND, dtype=np.int64)

        searching = best_sad >= self.early_exit_sad  # zero-motion shortcut
        # Large-diamond walk: each round moves every still-searching
        # macroblock's center to its best neighbour; a macroblock whose
        # center survives the round graduates to the small-diamond pass.
        for _ in range(2 * srange):
            if not searching.any():
                break
            sel = np.nonzero(searching)[0]
            improved = walk_round(large, sel)
            evaluated += large.shape[0] * sel.size
            evals_per_mb[sel] += large.shape[0]
            searching = np.zeros(n, dtype=bool)
            searching[improved] = True

        # Small-diamond refinement for everything that actually searched.
        refine = best_sad >= self.early_exit_sad
        if refine.any():
            sel = np.nonzero(refine)[0]
            walk_round(small, sel)
            evaluated += small.shape[0] * sel.size
            evals_per_mb[sel] += small.shape[0]

        mvs[rows_idx, cols_idx, 0] = best_dy
        mvs[rows_idx, cols_idx, 1] = best_dx
        sads[rows_idx, cols_idx] = best_sad
        per_mb = np.zeros((mb_rows, mb_cols), dtype=np.int64)
        per_mb[rows_idx, cols_idx] = evals_per_mb
        get_tracer().count(sad_blocks=evaluated)
        return MotionField(mvs, sads, evaluated, per_mb)


def build_motion_estimator(
    kind: str, search_range: int, early_exit_sad: int = 1600
) -> MotionEstimator:
    """Factory used by the encoder: ``"full"``, ``"three-step"`` or
    ``"diamond"``."""
    if kind == "full":
        return FullSearchMotionEstimator(search_range)
    if kind == "three-step":
        return ThreeStepMotionEstimator(search_range)
    if kind == "diamond":
        return DiamondSearchMotionEstimator(search_range, early_exit_sad)
    raise ValueError(f"unknown motion search kind {kind!r}")

