"""The size of every package is a tracked number (ROADMAP aim 2).

``src/repro/backend`` + ``src/repro/runtime`` may only shrink: a simplicity
PR lowers ``CEILING`` to its result (rounded up to the next 10); nothing
raises it silently.  Every other package has a ceiling of its own in
``PACKAGE_CEILINGS``, kept by the same rule.  Moving code to another package
to get under the line is not a reduction — say where the lines went in
CHANGES.md.
"""

import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
# PR 13: 6,223 -> 5,789; PR 14: -> 5,768; PR 16: -> 5,724;
# PR 19 (the port owns in/out/fail/shape/run): -> 5,528
# PR 23 raises it by 75, the shortfall exactly (5,530 -> 5,605): the
# worker-written pipe queue and the router's poll/wake/sentinel wait live
# beside the lane that uses them (process_backend.py +89 lines) and bought
# x1.45 items_per_s on tiny_processes (10 alternating pairs, CHANGES.md);
# the death scan, the entered/left census, the tolerant unpacking and the
# second item.submit emit they made unnecessary paid 11 back.
# Raised by 4, the shortfall exactly (5,605 -> 5,609), for one in-flight
# bound: the window-derived lane depth (Session._lane_depth, the named
# window ceiling, the given-capacity flag, the process pools' re-warm for a
# new depth, each backend's capacity docstring) and the notifies that let
# distributed's dispatch wait untimed came to +23; distributed's two
# replica censuses reading replica_placement() and Ticket.wait's two wait
# branches becoming one paid 11 back.
# Raised by 32, the shortfall exactly (5,609 -> 5,641), for the session port's
# bells.  The wake-all primitive lives in util/handoff.py (Bell, beside
# Credits and Handoff, outside this count).  What stays in base.py: the tuple
# Ticket (+14: its equality, hash, repr and docstring, with wait() 5 lines
# shorter), the rings at each event, the parked-only rings on the per-item
# sites and the begun check (+8), the two bells and two imports (+4), the
# docstrings saying what the lock guards and what rings (+9); results()' two
# early returns becoming one paid 3 back.  Bought x1.52 items_per_s on
# batched_threads and x1.19 on tiny_threads (10/10 pairs each, CHANGES.md).
# Raised by 13, the shortfall exactly (5,641 -> 5,654), for distributed's
# drain-time placement under the window: the finish-time score, the cold
# exception and the re-probe in _reserve_slot (+3 over the count key it
# replaced) with the docstring that states the rule (+8), the drain estimate
# in _accept and its two replica fields (+7), the cached link term (+2), the
# session's depth, the welcome's inbox and the capacity docstring (+4) came
# to +24; the WorkerAgent(capacity=) knob (-5), the sliced registration wait
# becoming one wait_for (-4) and the retired flag that only mirrored
# `not active` (-2) paid 11 back.  Bought x1.32 items_per_s on
# tiny_distributed (10/10 pairs, CHANGES.md) and about twice the old
# default's items/s on E16's slow-link shape.
# Lowered to the count, rounded up (5,654 -> 5,430), by deleting what no
# workload, experiment or example reached: the auto admission window, the
# bottleneck-growth policy, live replica moves and the per-worker link-model
# copy (CHANGES.md has the audit).
# Lowered to the count, rounded up (5,430 -> 5,410), by giving every item one
# number below the port: the per-stream rebase and the second batch counter
# went (CHANGES.md).
# Raised by 53, the shortfall exactly (5,410 -> 5,463), for distributed's
# one outbox writer and one buffered reader per connection: protocol.py went
# 142 -> 207 (the Outbox class and its writer, 49; the preamble; the framing
# split into encode_frame / read_frame with the reader's one-read fast path;
# its docstring).  The coordinator's handshake moved onto each connection's
# own thread (_register, the pending set that close() wakes).  What the
# outbox made redundant paid back: send_frame's lock= parameter, the two
# _send_lock send paths (_WorkerConn.send with its locked slot counter, the
# worker's _send) and close()'s per-socket close, so coordinator.py went
# 1,245 -> 1,239 and worker.py 490 -> 485.  Bought x1.23 items_per_s and
# -18 % cpu_us_per_item on tiny_distributed (11/11 pairs, CHANGES.md).
# Lowered to the count, rounded up (5,463 -> 5,300), by deleting worker-side
# tracing: the worker's bus, trace buffer, trace toggle and four emits went
# (worker.py 485 -> 385), and the coordinator lost its trace toggles and
# re-emitter, derives the wk.* points from the result's stamps, and hands
# each frame to the router as sent (coordinator.py 1,239 -> 1,178).  The
# calibrate_transport= option left both backends.  Nothing moved elsewhere.
# Lowered to the count, rounded up (5,300 -> 5,240), by one framed byte lane
# under both heavy executors: the framing, read_frame and Outbox moved out of
# protocol.py (203 -> 91) into transport/lane.py, which also holds the new
# FrameReader and the socket/pipe outbox constructors (transport 1,032 ->
# 1,256, its ceiling raised to 1,260).  process_backend.py went 485 -> 535:
# mp.Queue, the timed _put and the timed pipe put went; the outbox feed, the
# abort-woken send, the stop-pill post, the forwarded park token and the
# router's frame-whole read came.  Net over backend/ + runtime/ +
# transport/: +165 (CHANGES.md).
# Lowered to the count, rounded up (5,240 -> 5,170), by keeping each fact of
# the distributed lane in one record: the per-stage in-flight table and the
# per-replica counter became each replica's own tasks, the reject bounce
# went (a retire now follows its slot's last task), the per-stream epoch and
# its stream-begin reclaim became one epoch per session, and the backend's
# copies of the session's abort flag, result queues, depth and running flag
# went (coordinator.py 1,180 -> 1,115, worker.py 386 -> 383).  Nothing moved.
# Raised by 230, the shortfall exactly (5,170 -> 5,400), for distributed
# routes: workers pass a segment's items along a route the coordinator plans,
# over token-checked peer links, and only boundaries report back.  The route
# record, the segment reservation and its rollback, the per-hop trail replay
# in _accept (clock-mapped wire, drain and link samples), the ping/pong clock
# feed and the registration-only link errors took coordinator.py 1,115 ->
# 1,200; the peer listener, dialing, the token check, forwarding (an inbox put
# on the same worker), dialing beside the serve loop, the release of a frame
# a stale route strands and the placement ack took worker.py 383 -> 520; protocol.py's version-4 table 92 ->
# 102.  What routes made unnecessary paid back: the per-stage conditions (one
# lock now records a route on all its replicas), the worker's heartbeat
# thread, place_failed (folded into placed), the process lane's own copy of
# the boundary rule (routed.boundaries, process_backend.py 535 -> 530).  The
# growth, +233, is over the +160 that change allowed itself, and it bought
# less than it claimed: x1.10-1.16 items_per_s on tiny_distributed over
# three sets of pairs, not x1.2 (CHANGES.md).
# Lowered to the count, rounded up (5,400 -> 5,313 -> 5,320), paying those 73
# back by one worker step and one hop record for both heavy lanes: run_stage
# (beside dump_error) replaced each lane's decode/apply/encode and its failure
# paths;
# the boundary's hop rides in the trail, so routed.Hop, _send_result and the
# result's four loose stamps went and _route_inner records every hop in one
# loop; the boundary rule became RoutedSession's default (both overrides
# went); the port's per-stream begin barrier and _begin_stream went; and
# DistributedBackend lost register_timeout=, worker_cores= and
# heartbeat_timeout= (nothing set them).  Nothing moved.
# Raised by 22 to the count (5,320 -> 5,342), +29 net over 5,313, for the
# boundary router taking a burst per wake on both heavy lanes: _poll returns
# every result the lane holds and _accept takes them in one pass (one lane
# lock, one replica table and one notify on distributed; one queued() read
# per stage on processes), _route_inner records each stage's hops in one
# stage-lock round and hands the in-order run to the port's new
# _complete_run, whose lock round a batched delivery then shared (_deliver_run).
# What the burst made unnecessary paid back: the per-hop _record, the
# per-frame _record_bytes_in and _accept's per-result bus.active guard.
# Bought x1.22 items_per_s on tiny_distributed (10/10 pairs) and the router
# thread 28 -> 16 us/item (CHANGES.md).  The bulk record itself lives in
# monitor/ (StageMetrics.record_hops) and util/ (the batch merges).
# Lowered to the count, rounded up (5,342 -> 5,271 -> 5,280), by running the
# live runner's control loop on the one adaptation Controller the simulator
# drives too: runner.py went 479 -> 408 (-71).  That is mostly a move, not a
# reduction: the loop's state, its verdict and rollback and the adapt.*
# records now live in core/policy.py (200 -> 321, +121 for Controller and
# resolve_policy), which also replaced the simulator's copy (adaptive.py
# 321 -> 244, executor_sim.py's per-stage adapt.act 402 -> 395).  Deleted
# outright over the four files: 34 lines (1,402 -> 1,368); core/ rose by 37.
# Lowered to the count (5,275 -> 5,180), by giving the
# asyncio lane the thread fabric's shape: worker coroutines on trails and one
# shared egress step (Session._collect_burst) replaced the resizable
# semaphore, the per-stage dispatchers, the task per item, the per-item
# records under the stage lock and the sentinel cascade (async_backend.py
# 407 -> 320), and with no per-item caller left Session._complete and
# Session._deliver went (base.py 1,248 -> 1,245, thread_backend.py 200 ->
# 196).  Nothing moved.
# Held at the count, rounded up (5,173 -> 5,180), by keeping only what is
# read: the routed lanes' hops lost their transfer_s and _route_inner its
# per-stage bytes-in map (stage k+1's input is stage k's output), and
# Session._telemetry went.  Nothing moved.
# Lowered to the count, rounded up (5,180 -> 5,040), by making coroutine
# stages a stage kind of the thread fabric: async_backend.py (320) went with
# its ingress pump, its offload pool and its own collector;
# runtime/coroutines.py (132: the loop wake, the worker coroutine, the outlet
# for a full queue) and the fabric's loop lifecycle came in, and the one
# collector took back Session._collect_burst.  fetch_asyncio's
# cpu_us_per_item fell 37 %.
# Lowered to the count (5,040 -> 5,017) by deriving one span.phases per
# distributed hop and nothing else: _HOP_KINDS and the four wk.* emits left
# _trace_hop (coordinator.py 1,192 -> 1,178).  Nothing moved.
# Lowered to the count (5,017 -> 5,016) by making the codec's output the
# wire form: to_wire/from_wire and every call site went, and no lane
# rebuilds a Frame around an inline stream.  The lanes now size a wire with
# transport.wire_nbytes and annotate it as transport.Wire.  Nothing moved.
# Lowered to the count (5,016 -> 4,957) by making micro-batching one number
# decided at open: the port delivers a burst's batches as one run
# (_deliver_batch went), a submitter that finds the window full submits its
# own partial batch (the flush queue, the busy flag and drain()'s wait on
# them went), batch.encode left the routed encode, and neither heavy
# backend probes the transport at warm-up.  Nothing moved.
# Raised by 40, the shortfall exactly (4,957 -> 4,997), for the process
# lane's trains: a frame carries a list of tasks, so a worker pays one read,
# one unpickle, one pickle and one write per train (process_backend.py
# 503 -> 543).  What came: _Train (the one cut rule: the item cap, the byte
# cap, when a train's first task was ready), the outbox writer's _pack with
# its dealt-out share, the worker's put that writes the tasks holding
# permits before it waits for the next, the per-task loop with its linger
# and a failure's flush, and the router's per-task permits.  What went:
# _StagePool.queued (folded into qsize) and the per-message put; the rest
# of the offset is a shorter module docstring, not code.  Bought x1.80
# items_per_s and -45 % cpu_us_per_item on tiny_processes (11/11 pairs,
# CHANGES.md).
# Lowered to the count (4,997 -> 4,968) by making stage.service a hop's one
# record: _trace_hop and the item.dispatch emit left the coordinator, whose
# _accept builds a traced hop's phases into the hop it records.  Nothing
# moved.
# Lowered to the count (4,968 -> 4,964) by the second reachability audit:
# RuntimeAdaptiveRunner(n_virtual_procs=) became the size it always took and
# SimBackend.service_means_from_spec folded into its one caller (-13); the
# coordinator's back-to-back clock pings, which register a worker once its
# clock fit holds four samples, came in (+9).  Nothing moved.
# Lowered to the count (4,964 -> 4,692) by taking the simulator off the
# session port: sim_backend.py (161) went with the "sim" name, and so did
# what the port carried only for it: Session.produces_outputs and
# .supports_batching, Backend.executes_callables and
# .supports_live_reconfigure, BackendCapabilityError and capability_error
# with the refusals in reconfigure() and the runner, the _end_stream and
# _finalize_stream hooks, _deliver_items (folded into _complete_run) and
# the opt-in _instrument() with its None guards.  The plug-in registry
# (register_backend, each module's self-registration) became one closed
# table of names.  Nothing moved.
# Lowered to the count (4,692 -> 4,673) by closing transport's seams:
# SessionStats.pool, RoutedSession.stats() and the frame.encode emit's
# recycled went, both heavy backends take a codec name only, the runner
# counts the items of its own run (and the unread
# Session.last_stream_items went), and the coordinator prices an
# unmeasured link at the estimator's own prior bandwidth.  Nothing moved.
# Lowered to the count (4,673 -> 4,619) by closing the port's last seams:
# the adaptive runner takes the backend it drives and runs Backend.run (its
# own submit loop, result fields, build-by-name path and policy= went), the
# distributed shm probe is a slot frame (the SharedMemory probe, its name
# and its untracking went), Backend._open_session folded into open() and
# the AsyncioBackend alias went.  Nothing moved.
# Held at the count (4,619): the session's state that restated other state
# went (items_total, streams_completed and the last drained stream are read
# off the stream and admission counts, a batch's first seq and gseq off the
# buffer's length, and a new stream no longer resets what drain() already
# left empty; base.py -15), and paid for the distributed coordinator
# releasing a late result's payload (an earlier epoch's in the receive
# loop, a closed session's at shutdown or by the receiver that finds the
# routers stopped; coordinator.py +15).  Nothing moved.
# Lowered to the count (4,619 -> 4,591): batching= takes None or a positive
# int (the declared-work hint and the auto sizer's call went from
# Session.__init__), RuntimeAdaptiveRunner lost close() and its context
# manager (it builds no backend, so it closes none), ProcessPoolBackend
# lost start_method=, and the thread fabric's close joins one snapshot of
# its threads instead of re-listing them every 0.5 s.  Nothing moved.
# Lowered to the count (4,591 -> 4,496): live adaptation has one way in,
# the session's own controller, so RuntimeAdaptiveRunner takes the session
# and lost attach(), detach(), run(), RuntimeRunResult, its events log, its
# policy seam and rollback= (runner.py 349 -> 254); a loop that raises
# poisons the session through Session._fail, which may now name no stage.
# Nothing moved.
# Lowered to the count, rounded up (4,496 -> 4,420): the session is the one
# stream port, so Backend.run, BackendResult, _run_lock, _current_session
# and the backend's snapshots/items_completed/recent_throughput forwards
# went; the live controller reads its own session.  Nothing moved.
CEILING = 4420

#: Every other package (``"."``: the top-level modules), set at its count
#: after the reachability audit, rounded up to the next 10, and lowered the
#: same way since.
PACKAGE_CEILINGS = {
    # Lowered to the count (110 -> 102), which it already was; SimBackend and
    # register_backend left the lazy exports in place.  Nothing moved.
    # Lowered to the count (102 -> 101): RuntimeRunResult left the exports.
    ".": 101,
    # 1,392 -> 1,429: the live loop's state moved into core/policy.py (see CEILING).
    # Lowered to the count (1,430 -> 1,410) by the second reachability audit:
    # PipelineSpec.total_work and RunResult.mean_latency, which nothing read,
    # went, and AdaptivePipeline(monitor_period=) and
    # SimPipelineEngine(arrival_period=, instrument_window=), which nothing
    # passed, became the values they always took.  Nothing moved.
    # Lowered to the count (1,410 -> 1,404): ReactivePolicy(trigger=), which
    # nothing passed, became the constant TRIGGER, and the simulator's link
    # transfer stopped passing a time no link reads.  Nothing moved.
    # Lowered to the count (1,404 -> 1,393): StageSpec.work_declared and the
    # sentinel default it compared against went with auto batch sizing.
    # Nothing moved.
    # Held at the count (1,393): Controller lost rollback= (a
    # rollback_tolerance of 0 takes no verdict), and its docstring says so.
    "core": 1393,
    # Lowered to the count, rounded up (1,430 -> 1,380), by the same audit:
    # TraceLoad, GridSnapshot.link_params, Processor.service_time,
    # Channel.occupancy and the simulator's callback cancellation (_Handle)
    # went.  Nothing moved.
    # Lowered to the count (1,380 -> 1,361): Link(quality=) and
    # MarkovOnOffLoad(start_busy=), which nothing passed, went; a link's
    # bandwidth is its bandwidth (no effective_bandwidth), and transfer_time
    # takes no time.  Nothing moved.
    # Lowered to the count (1,361 -> 1,360): two_site_grid(local_load=,
    # remote_load=), which nothing passed, became the dedicated load they
    # always were.  Nothing moved.
    "gridsim": 1360,
    # Lowered to the count, rounded up (800 -> 790): PipelinePrediction.makespan
    # went.  Nothing moved.
    # Lowered to the count (790 -> 784): dp_contiguous_mapping(orders=),
    # which nothing passed, tries its two orders always, and
    # local_search(max_iters=) became the module's guard _MAX_ITERS.
    # Nothing moved.
    "model": 784,
    # +42: StageMetrics.record_hops, the routed lanes' bulk record; +16: its
    # lone-hop path and one-pass gather, so a short burst costs no more than
    # its per-hop records (the thread lane's bursts are mostly short).
    # Lowered to the count (1,029 -> 896): StageMetrics lost its queue and
    # transfer windows, byte histograms and totals, and StageSnapshot its
    # service_cv, transfer_time and queue_length; the simulated
    # ResourceMonitor's MeasurementStreams went with monitor/samples.py.
    # Each of those facts was unread or already recorded once elsewhere
    # (the event stream, the link fit).  Nothing moved.
    # Lowered to the count (896 -> 880) by the second reachability audit:
    # PipelineInstrumentation.bottleneck and ResourceMonitor.samples_taken
    # went, and the monitor's period= and pairs= became what they always
    # were.  Nothing moved.
    # Lowered to the count (880 -> 876): StageMetrics.items_processed, which
    # restated total.n, went.  Nothing moved.
    # Lowered to the count (876 -> 868): HostLoadSampler's cores, alpha,
    # min_interval and floor, which only tests set, became module constants
    # without their range checks, and load_to_speed lost floor=.  Nothing moved.
    "monitor": 868,
    # Lowered to the count (2,100 -> 2,049): Telemetry kept journal= and
    # prometheus= (its span store, kinds filter and rotation knobs went),
    # JsonlJournal its inline write path, and obs.top folds through the
    # MetricsRecorder instead of its own copy.  Nothing moved.
    # Raised by 11, the shortfall exactly (2,049 -> 2,060), for two
    # corrections.  top's rate divides by the span its window covers: the
    # journal's first wall and the close's wall, +8.  profile tiles an
    # in-process stage's input wait as that stage's worker_queue, with its
    # per-stage share on ItemProfile.queued, +3 net.
    # Lowered to the count (2,060 -> 2,058): batch.encode and batch.split
    # left SCHEMA.  Nothing moved.
    # Lowered to the count (2,058 -> 1,995): span.phases and item.dispatch
    # left SCHEMA, Span.dispatches went, profile tiles every executor's
    # stage.service in one loop, and ClockFit/ClockSync.to_local went with
    # their last caller.  Nothing moved.
    # Lowered to the count, rounded up (1,995 -> 1,980) by the second
    # reachability audit: EventBus.active and .unsubscribe and Gauge.inc and
    # .dec went, and MetricsRecorder builds its own registry.  Nothing moved.
    # Lowered to the count (1,980 -> 1,849): obs/spans.py (Span,
    # SpanCollector, spans_from_journal) and Telemetry.registry went; the
    # profiler joins a journal's records per item itself, in the one pass
    # that also reads the session's metadata.  Nothing moved.
    # Lowered to the count (1,849 -> 1,845): frame.encode's schema line lost
    # recycled.  Nothing moved.
    # Lowered to the count (1,845 -> 1,809): JsonlJournal writes through the
    # lane's Outbox (repro.transport.lane), so its own queue, condition,
    # writer loop, io lock and flush() went.  Nothing moved: lane.py kept its
    # length (the socket import moved into socket_outbox).
    "obs": 1809,
    "reporting": 170,
    # Lowered to the count (360 -> 321): the "sim" branches, the refusal of
    # adaptive= and the no-outputs check left skel/api.py.  Nothing moved.
    # Raised by 2, the shortfall exactly (321 -> 323): pipeline_1for1 and
    # farm with adaptive= detach their controller when they return (on a
    # caller's backend it stayed attached, and a second call added a second
    # controller to the same session).
    # Lowered to the count (323 -> 204): pipeline_1for1 is one bounded stream
    # on open_pipeline, so _run_on_backend went and _backend_for and
    # _live_controller folded into open_pipeline, their one caller; farm
    # (pipeline_1for1 with replicas=[n]) and simulate_farm (simulate_pipeline
    # with a one-stage mapping) went too.  Nothing moved.
    # Lowered to the count (204 -> 203): open_pipeline builds the session's
    # controller in one call (no attach, no detach callback).  Nothing moved.
    "skel": 203,
    # Lowered to the count (1,260 -> 1,257): to_wire and from_wire went
    # (-15); wire_nbytes, the Wire alias, decode's one-loads path for a
    # bytes wire and the docstrings of the wire-form port came in.
    # Lowered to the count (1,257 -> 1,254): AUTO_THRESHOLD's fallback note
    # and the probe's docstring shrank once no backend calls the probe.
    # Raised by 25, the shortfall exactly (1,254 -> 1,279): lane.Outbox takes
    # a pack (its writer frames what senders queued, the close marker that
    # is no longer None, pipe_outbox passing it on: +11), and the shm
    # codec's leaf path (the _LEAVES set, encode's early return and its
    # method callback instead of a closure: +14), which brings auto's encode
    # of a small int to about 1.15x pickle's, from about 1.9x.
    # Lowered to the count (1,279 -> 1,275; rounding up would raise it):
    # SizeStratifiedLinkEstimator.n_samples went.  Nothing moved.
    # Lowered to the count (1,275 -> 1,157) by closing the package's seams:
    # registry.py went (the three codecs are one closed table in codecs.py
    # beside spec_of/from_spec), so did the pool footprint scan, the
    # recycled share, Frame.inline, new_session, sweep_session (folded into
    # Codec.sweep), materialize(release=), the Codec.encode stub, the link
    # estimator's three one-value options and Outbox(bounded=).  Nothing
    # moved.
    # Lowered to the count (1,157 -> 1,125): untrack, Codec.track and the
    # adopted-name set went with the SharedMemory probe (the coordinator's
    # probe is a frame in a slot, swept through its pool's names like any
    # other), and with them frames.py's multiprocessing.shared_memory
    # import.  Nothing moved.
    "transport": 1125,
    # +10: OnlineStats.extend; +9: Handoff.get_all, the thread collector's burst.
    # Lowered to the count (829 -> 794): OnlineStats' min, max and cv and
    # SlidingWindow's std, last and percentile, which nothing read.  Nothing moved.
    # Lowered to the count (794 -> 694): util/batching.py lost the host probe
    # and its cache, BatchingConfig and the dict form.  Nothing moved.
    # Lowered to the count (694 -> 690): SequenceReorderer.drain went.
    # Lowered to the count (690 -> 659): batching= is None or a positive int,
    # so normalize_batching and its auto size _AUTO_ITEMS went.  Nothing moved.
    "util": 659,
    # Lowered to the count, rounded up (830 -> 630) by the second
    # reachability audit: five of the six cost models, flash_crowd, the
    # random-walk and diurnal load factories and the text pipeline went.
    # Nothing moved.
    # Lowered to the count (630 -> 611): sim_scale= left the image, fetch,
    # kmer and array pipelines (nothing passed it; each work unit is what
    # scale 1.0 gave).  Nothing moved.
    "workloads": 611,
}


def _lines(files) -> int:
    return sum(len(f.read_text().splitlines()) for f in files)


def _sources():
    files = [*SRC.glob("backend/**/*.py"), *SRC.glob("runtime/**/*.py")]
    assert files, f"no sources found under {SRC}"
    return files


def test_backend_and_runtime_stay_under_the_ceiling():
    total = _lines(_sources())
    assert total <= CEILING, (
        f"backend/ + runtime/ is {total} lines, over the {CEILING} ceiling: "
        "delete before you add, or justify raising CEILING in this PR"
    )


def test_every_package_has_a_ceiling():
    packages = {p.name for p in SRC.iterdir() if (p / "__init__.py").is_file()}
    assert packages == PACKAGE_CEILINGS.keys() - {"."} | {"backend", "runtime"}


@pytest.mark.parametrize("package, ceiling", sorted(PACKAGE_CEILINGS.items()))
def test_each_package_stays_under_its_ceiling(package, ceiling):
    files = list(SRC.glob("*.py") if package == "." else SRC.glob(f"{package}/**/*.py"))
    assert files, f"no sources found for {package!r}"
    total = _lines(files)
    assert total <= ceiling, (
        f"src/repro/{package} is {total} lines, over its {ceiling} ceiling: "
        "delete before you add, or justify raising it in the same change"
    )


def test_no_python_level_queue_or_semaphore_on_the_execution_layer():
    """Threads hand items over through ``repro.util.handoff`` and nothing else.

    ``queue.Queue`` and ``threading.(Bounded)Semaphore`` take a Python-level
    lock per operation; the hand-off they were replaced by stays in C.  (The
    process lane's ``ctx.Semaphore``s are OS semaphores between processes,
    not this.)
    """
    banned = ("queue.Queue(", "threading.Semaphore(", "BoundedSemaphore(")
    hits = [
        f"{f.relative_to(SRC)}:{n}: {line.strip()}"
        for f in _sources()
        for n, line in enumerate(f.read_text().splitlines(), 1)
        for call in banned
        if call in line and "ctx." + call not in line
    ]
    assert not hits, "use repro.util.handoff (Handoff / Credits):\n" + "\n".join(hits)


def test_no_stage_is_offloaded_to_an_executor_pool():
    """A plain stage runs on thread workers and a coroutine stage on the loop:
    no per-item ``run_in_executor`` round trip, no ``ThreadPoolExecutor``."""
    banned = ("run_in_executor(", "ThreadPoolExecutor(")
    hits = [
        f"{f.relative_to(SRC)}:{n}: {line.strip()}"
        for f in _sources()
        for n, line in enumerate(f.read_text().splitlines(), 1)
        if any(call in line for call in banned)
    ]
    assert not hits, "\n".join(hits)


def test_the_session_port_neither_polls_nor_takes_a_condition():
    """``base.py`` waits on ``Bell``s under one plain lock, never on a clock."""
    text = (SRC / "backend" / "base.py").read_text()
    assert "threading.Condition(" not in text
    assert ".wait(0." not in text, "a port wait must wake on an event, not poll"
