"""Reachability hook: record every ``src/repro`` function that gets called.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one, so putting this directory first on ``PYTHONPATH``
installs the hook in every interpreter that inherits the environment:
pytest, its subprocesses, forked workers, ``perfbench/cold.py``.  Each
process appends ``<path under src/repro>:<first line>:<qualname>`` once per
code object, on its first call, to ``out/<pid>.txt`` beside this file;
``report.py`` reads the directory back.  Lines are written unbuffered-by-line,
so a worker that leaves through ``os._exit`` loses nothing.

Two things would silently switch the hook off, and both are handled here:
``pytest-benchmark`` clears ``sys.setprofile`` around every ``pedantic`` round
(``PauseInstrumentation``), so a request to clear it re-installs the hook;
and threads take their profile function from ``threading.setprofile``.
"""

import atexit
import os
import sys
import threading
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src" / "repro") + os.sep
_OUT = Path(__file__).resolve().parent / "out"
_seen: set = set()
_sink = [None, None]  # (pid, line-buffered file) of this process


def _record(code) -> None:
    if _sink[0] != os.getpid():  # first record, or a forked child
        _OUT.mkdir(exist_ok=True)
        _sink[:] = [os.getpid(), open(_OUT / f"{os.getpid()}.txt", "a", buffering=1)]
    name = code.co_filename[len(_SRC):]
    _sink[1].write(f"{name}:{code.co_firstlineno}:{code.co_qualname}\n")


def _hook(frame, event, arg) -> None:
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_SRC):
                _record(code)


@atexit.register
def _close() -> None:
    _setprofile(None)  # the last exit handler: nothing is recorded after it
    if _sink[0] == os.getpid():
        _sink[1].close()


_setprofile = sys.setprofile
sys.setprofile = lambda fn: _setprofile(fn or _hook)
threading.setprofile(_hook)
_setprofile(_hook)
