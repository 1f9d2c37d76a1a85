"""Atomic file replacement: the one write path of every on-disk store.

The result and stream caches, the job queue's records and claim
leases, the grid and service manifests and the trace files all replace
a file the same way: write a temp file beside it, then rename it over
the target.  A reader sees the old content or the new, never a torn
mix, and a writer that fails leaves no temp file behind.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import IO, Callable, Union


def write_atomic(
    path: Union[str, Path], write: Callable[[IO[bytes]], object]
) -> Path:
    """Replace ``path`` with whatever ``write`` writes into an open file.

    ``write`` receives the temp file opened for binary writing, so
    large values stream straight to disk (``pickle.dump``) without a
    whole-value copy in memory.  The temp file is named by process and
    thread id: concurrent writers of one path — processes or the
    threads of one process — never share a temp file.  On any failure, an interrupt included, the temp file
    is unlinked and the error re-raised; ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
