"""Shared fixtures: small, fast sequences and codec configs.

Most tests run on a 64x48 (4x3 macroblock) synthetic clip — big enough
to exercise every code path (multiple MB rows/columns, motion, refresh
sweeps) and small enough to keep the suite fast.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.codec.types import CodecConfig
from repro.sim.runner import RunnerOptions
from repro.video.frame import Frame, VideoSequence
from repro.video.synthetic import SyntheticConfig, generate_sequence

# Hypothesis profiles: "dev" (default) explores with fresh entropy each
# run; "ci" derandomizes so a pipeline failure reproduces exactly from
# the log.  Select with HYPOTHESIS_PROFILE=ci.
hypothesis_settings.register_profile("dev", deadline=None)
hypothesis_settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

SMALL_W, SMALL_H = 64, 48


def small_config(**overrides) -> CodecConfig:
    defaults = dict(width=SMALL_W, height=SMALL_H, quantizer=6)
    defaults.update(overrides)
    return CodecConfig(**defaults)


def runner_options(**knobs) -> RunnerOptions:
    """Runner options without the default on-disk result cache.

    Tests that want caching pass a live ``ResultCache`` to ``run_grid``,
    so they can read its hit counters.
    """
    return RunnerOptions(use_cache=False, **knobs)


def small_sequence(n_frames: int = 8, seed: int = 11, **overrides) -> VideoSequence:
    defaults = dict(
        width=SMALL_W,
        height=SMALL_H,
        n_frames=n_frames,
        texture_scale=30.0,
        texture_smoothness=2,
        object_radius=10,
        object_motion_amplitude=10.0,
        object_motion_period=8,
        sensor_noise=0.8,
        texture_drift=3.0,
        texture_drift_period=10,
        seed=seed,
    )
    defaults.update(overrides)
    return generate_sequence(SyntheticConfig(**defaults), name="small")


@pytest.fixture(scope="session")
def codec_config() -> CodecConfig:
    return small_config()


@pytest.fixture(scope="session")
def sequence() -> VideoSequence:
    return small_sequence()


@pytest.fixture(scope="session")
def still_sequence() -> VideoSequence:
    """A sequence with no motion at all (pure noise-free repetition)."""
    rng = np.random.default_rng(5)
    base = rng.integers(0, 256, size=(SMALL_H, SMALL_W)).astype(np.uint8)
    frames = [Frame(base.copy(), i) for i in range(5)]
    return VideoSequence(tuple(frames), name="still")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
