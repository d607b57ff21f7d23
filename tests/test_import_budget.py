"""Importing ``repro`` costs what the caller uses (docs/backends.md, "What importing costs").

Three rules, each checked where it can break:

* a process that opens one executor loads that executor's modules — not the
  other two, the grid simulator, the planner or the stdlib they drag in
  (fresh interpreters: ``sys.modules`` is process-wide state);
* nothing is first-imported on the per-item path or inside a worker: after
  the first result a full stream adds no ``repro.*`` module, and a forked
  worker holds no ``repro.*`` module its parent did not hold at ``open()``;
* laziness hides no typo: every name a package exports resolves, and each
  name of the by-name executor table loads the one module that defines its
  executor (``"asyncio"`` and ``"threads"`` name one module).
"""

import importlib
import json
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
PACKAGES = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg
)
EXECUTOR_MODULES = {
    "repro.backend.distributed.coordinator",
    "repro.backend.process_backend",
    "repro.backend.thread_backend",
}
BUILTIN_MODULES = {
    "asyncio": "repro.backend.thread_backend",
    "distributed": "repro.backend.distributed.coordinator",
    "processes": "repro.backend.process_backend",
    "threads": "repro.backend.thread_backend",
}
BUILTIN_BACKENDS = sorted(BUILTIN_MODULES)


def fresh(script: str):
    """Run ``script`` in a new interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=120, cwd=SRC,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_thread_pipeline_loads_the_thread_executor_and_nothing_else():
    loaded = set(fresh(
        """
        import json, sys
        from repro import open_pipeline
        session = open_pipeline([lambda x: x + 1, lambda x: x * 2], backend="threads")
        session.submit(1)
        assert session.drain() == [4]
        session.close()
        print(json.dumps(sorted(sys.modules)))
        """
    ))
    unwanted = {
        "asyncio", "multiprocessing", "socket",
        "repro.gridsim", "repro.transport", "repro.core.adaptive",
        "repro.core.executor_sim", "repro.backend.runner",
    } | (EXECUTOR_MODULES - {"repro.backend.thread_backend"})
    assert not loaded & unwanted
    assert "repro.backend.thread_backend" in loaded


def test_a_journaled_thread_pipeline_loads_the_lane_but_no_socket(tmp_path):
    # The journal writes through the lane's Outbox; only a socket's outbox
    # needs the socket module.
    loaded = set(fresh(
        f"""
        import json, sys
        from repro import open_pipeline
        session = open_pipeline([lambda x: x + 1], backend="threads",
                                telemetry={str(tmp_path / "j.jsonl")!r})
        session.submit(1)
        assert session.drain() == [2]
        session.close()
        print(json.dumps(sorted(sys.modules)))
        """
    ))
    assert "repro.transport.lane" in loaded
    assert not loaded & {"asyncio", "multiprocessing", "socket"}


def test_plain_stages_opened_as_asyncio_load_no_event_loop():
    # "asyncio" is the thread fabric: without a coroutine stage, no loop.
    loaded = set(fresh(
        """
        import json, sys
        from repro import open_pipeline
        session = open_pipeline([lambda x: x + 1, lambda x: x * 2], backend="asyncio")
        session.submit(1)
        assert session.drain() == [4]
        session.close()
        print(json.dumps(sorted(sys.modules)))
        """
    ))
    assert not loaded & {"asyncio", "concurrent.futures", "repro.runtime.coroutines"}
    assert "repro.backend.thread_backend" in loaded


def test_an_external_worker_loads_no_simulator_planner_or_coordinator():
    loaded = set(fresh(
        """
        import json, sys
        import repro.backend.distributed.worker
        print(json.dumps(sorted(sys.modules)))
        """
    ))
    assert not loaded & {
        "asyncio", "repro.gridsim", "repro.core.adaptive",
        "repro.backend.distributed.coordinator",
    }


@pytest.mark.parametrize(
    "backend, kwargs",
    [
        ("threads", {}),
        ("asyncio", {}),
        ("processes", {}),
        ("distributed", {"spawn_workers": 1}),
    ],
)
def test_nothing_is_imported_on_the_item_path_or_inside_a_worker(backend, kwargs):
    report = fresh(
        f"""
        import json, sys

        def ours():
            return sorted(m for m in sys.modules if m.startswith("repro"))

        def probe(x):  # runs wherever the executor runs its stages
            return ours() if x == 0 else x

        if __name__ == "__main__":
            from repro import open_pipeline
            session = open_pipeline([probe, probe], backend={backend!r}, **{kwargs!r})
            at_open = ours()
            session.submit(0)
            (in_worker,) = session.drain()
            after_first = ours()
            for x in range(1, 200):
                session.submit(x)
            assert session.drain() == list(range(1, 200))
            after_stream = ours()
            session.close()
            print(json.dumps([at_open, in_worker, after_first, after_stream]))
        """
    )
    at_open, in_worker, after_first, after_stream = map(set, report)
    assert after_stream == after_first  # the item path imports nothing
    assert in_worker <= at_open  # a worker imports nothing its parent had not


def test_each_executor_name_loads_the_one_module_that_defines_it():
    names, loaded_at_start, loads, homes = fresh(
        f"""
        import json, sys
        from repro.backend import base
        from repro.core.pipeline import PipelineSpec
        from repro.core.stage import StageSpec

        def executors():
            return {{m for m in {sorted(EXECUTOR_MODULES)!r} if m in sys.modules}}

        names, loaded, loads, homes = base.available_backends(), sorted(executors()), {{}}, {{}}
        pipeline = PipelineSpec((StageSpec(name="abs", fn=abs),))
        for name in names:
            before = executors()
            backend = base.make_backend(name, pipeline)
            loads[name] = sorted(executors() - before)
            homes[name] = type(backend).__module__
            backend.close()
        print(json.dumps([names, loaded, loads, homes]))
        """
    )
    assert names == BUILTIN_BACKENDS
    assert loaded_at_start == []  # knowing a name costs no import
    assert homes == BUILTIN_MODULES  # each name builds its own module's executor
    # Each loads its module and no other; "threads" finds "asyncio"'s loaded.
    assert loads == {
        name: [module] if name != "threads" else [] for name, module in BUILTIN_MODULES.items()
    }


def test_the_package_walk_reaches_nested_packages():
    assert {"repro.backend.distributed", "repro.transport"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_resolve_list_and_refuse(package):
    pkg = importlib.import_module(package)
    assert pkg.__all__ and len(set(pkg.__all__)) == len(pkg.__all__)
    assert set(pkg.__all__) <= set(dir(pkg))
    for name in pkg.__all__:
        value = getattr(pkg, name)  # a typo in a table fails here
        assert vars(pkg)[name] is value  # cached: the hook runs once per name
    with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
        pkg.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")
