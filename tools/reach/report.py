"""Which ``src/repro`` functions a set of runs never called.

    python tools/reach/report.py RUN_DIR [TEST_DIR]

``RUN_DIR`` (and ``TEST_DIR``) hold the ``<pid>.txt`` files that
``sitecustomize.py`` wrote while the workloads (and the tier-1 tests) ran.
Prints every function, method and nested function defined under
``src/repro`` that no ``RUN_DIR`` process called, with its length in lines
and whether a ``TEST_DIR`` process called it, then the totals per package.
See CHANGES.md for the runs that make up an audit.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def defined() -> dict[str, int]:
    """``path:first line:qualname`` -> length in lines, for every named function."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        todo = [compile(path.read_text(), name, "exec")]
        while todo:
            for const in todo.pop().co_consts:
                if hasattr(const, "co_lines"):
                    todo.append(const)
                    if not const.co_name.startswith("<"):  # lambdas, comprehensions
                        last = max(line or 0 for *_, line in const.co_lines())
                        key = f"{name}:{const.co_firstlineno}:{const.co_qualname}"
                        out[key] = last - const.co_firstlineno + 1
    return out


def reached(directory: str) -> set[str]:
    return {line for f in Path(directory).glob("*.txt") for line in f.read_text().splitlines()}


def main(argv: list[str]) -> int:
    runs = reached(argv[0])
    tests = reached(argv[1]) if len(argv) > 1 else set()
    per_package: Counter = Counter()
    for key, length in sorted(defined().items(), key=lambda kv: kv[0].split(":")[:2]):
        if key in runs:
            continue
        path, line, qualname = key.split(":", 2)
        per_package[path.split("/")[0] if "/" in path else "."] += length
        print(f"{path}:{line:<5} {length:4d}  {'tests' if key in tests else 'never':5}  {qualname}")
    for package, lines in per_package.most_common():
        print(f"# {package:12s} {lines:5d} unreached lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
