"""A smoke's working directory, kept when the smoke fails.

::

    with smoke_dir("store-crash-") as tmp_path:
        ...
        if broken:
            fail("what went wrong")  # exits 1; tmp_path stays

The directory is removed when the block ends normally or exits 0.  An
exception or a non-zero exit keeps it and prints its path: a failing
smoke's store, fault ledger and checkpoints are the evidence of what
went wrong.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterator, NoReturn


@contextlib.contextmanager
def smoke_dir(prefix: str) -> Iterator[Path]:
    """A fresh temporary directory, removed only if the block passes."""
    path = Path(tempfile.mkdtemp(prefix=prefix))
    passed = False
    try:
        yield path
        passed = True
    except SystemExit as exit_:
        passed = exit_.code in (None, 0)
        raise
    finally:
        if passed:
            shutil.rmtree(path, ignore_errors=True)
        else:
            print(f"kept {path} for inspection", file=sys.stderr,
                  flush=True)


def fail(message: str) -> NoReturn:
    """Report a violation and exit 1."""
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)
