"""Shared-memory leak gate: fail when transport segments survive.

CI runs ``python -m repro.transport.leakcheck`` after the test suite and
after the quick-mode benchmarks; any `/dev/shm` entry carrying the
transport prefix at that point is a segment some run created and never
released or swept — exactly the leak class the lifecycle tests guard
against.  Exit status 1 lists the survivors.
"""

from __future__ import annotations

import os
import sys

from repro.transport.frames import _SHM_DIR, session_segments


def main() -> int:
    if not os.path.isdir(_SHM_DIR):
        print(f"{_SHM_DIR} not available; nothing to check")
        return 0
    leaked = session_segments()
    if leaked:
        print(f"leaked shared-memory segments: {leaked}", file=sys.stderr)
        return 1
    print("no leaked shared-memory segments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
