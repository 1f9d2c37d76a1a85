"""repro — reproduction of "Probability Based Power Aware Error Resilient
Coding" (Kim, Oh, Dutt, Nicolau, Venkatasubramanian; ICDCS 2005).

The package implements PBPAIR (Probability Based Power Aware Intra
Refresh) together with everything the paper's evaluation needs: an
H.263-style codec, the NO/GOP/AIR/PGOP baselines, a lossy packet
network, error concealment, an operation-counting energy model with PDA
device profiles, quality metrics, and an end-to-end simulation harness.

The public surface is :mod:`repro.api`.  Quick start::

    from repro import api

    video = api.make_sequence("foreman", n_frames=60)
    strategy = api.make_strategy("PBPAIR", intra_th=0.35, plr=0.1)
    result = api.simulate(video, strategy=strategy, plr=0.1)
    print(result.average_psnr_decoder, result.energy_joules)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""


def _resolve_version() -> str:
    """The package version, single-sourced from packaging metadata.

    Installed (even ``pip install -e``): the version comes from
    ``importlib.metadata``, i.e. whatever ``pyproject.toml`` said at
    install time.  Running straight from a source checkout via
    ``PYTHONPATH=src``: fall back to reading ``pyproject.toml`` itself,
    so there is exactly one place the number is written.
    """
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        pass
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        import tomllib

        with pyproject.open("rb") as handle:
            return str(tomllib.load(handle)["project"]["version"])
    except (ImportError, OSError, KeyError, ValueError):
        return "0.0.0+unknown"


__version__ = _resolve_version()
