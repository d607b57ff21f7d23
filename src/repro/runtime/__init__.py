"""Local (real) execution of pipelines with threads.

This runtime executes the *same* :class:`~repro.core.pipeline.PipelineSpec`
API on the local machine using worker threads and bounded queues.  It exists
for API parity, correctness testing and I/O-bound or GIL-releasing (numpy)
stages.

**GIL honesty** (see DESIGN.md): pure-Python CPU-bound stages do not run in
parallel under CPython threads, so this runtime makes *no* performance
claims for them — all performance experiments use the simulator.  Stage
functions that release the GIL (numpy, I/O) do pipeline in parallel.
"""

from repro.runtime.threads import ThreadPipeline, ThreadRunStats

__all__ = ["ThreadPipeline", "ThreadRunStats"]
