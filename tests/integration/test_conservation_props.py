"""Property-based end-to-end invariants of the simulated pipeline.

The 1-for-1 contract under adversarial conditions: random pipelines, random
grids, random mid-run reconfigurations — every input item must come out
exactly once, in order, no matter what the control plane does.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor_sim import SimPipelineEngine
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.gridsim.engine import Simulator
from repro.gridsim.spec import heterogeneous_grid
from repro.model.mapping import Mapping, random_mapping
from repro.util.rng import derive_rng
from repro.workloads.cost_models import LogNormalWork


@settings(deadline=None, max_examples=25)
@given(
    n_stages=st.integers(min_value=1, max_value=4),
    n_procs=st.integers(min_value=1, max_value=4),
    n_items=st.integers(min_value=1, max_value=60),
    capacity=st.integers(min_value=1, max_value=6),
    stochastic=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_static_run_conserves_items(
    n_stages, n_procs, n_items, capacity, stochastic, seed
):
    rng = derive_rng(seed, "prop")
    speeds = [float(rng.uniform(0.5, 4.0)) for _ in range(n_procs)]
    grid = heterogeneous_grid(speeds)
    stages = tuple(
        StageSpec(
            name=f"s{i}",
            work=LogNormalWork(0.05, cv=1.0) if stochastic else 0.05,
            out_bytes=float(rng.choice([0.0, 1e4])),
        )
        for i in range(n_stages)
    )
    pipe = PipelineSpec(stages)
    mapping = random_mapping(n_stages, grid.pids, rng)
    sim = Simulator()
    eng = SimPipelineEngine(
        sim, grid, pipe, mapping, n_items=n_items, buffer_capacity=capacity, seed=seed
    )
    sim.run()
    assert eng.items_completed == n_items
    assert eng.output_seqs() == list(range(n_items))


@settings(deadline=None, max_examples=25)
@given(
    n_items=st.integers(min_value=20, max_value=120),
    n_reconfigs=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    migration=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
def test_random_reconfigurations_conserve_items(n_items, n_reconfigs, seed, migration):
    """Remaps and replication changes at random times lose nothing."""
    rng = derive_rng(seed, "reconf")
    grid = heterogeneous_grid([1.0, 2.0, 0.5, 1.5])
    pipe = PipelineSpec(
        tuple(StageSpec(name=f"s{i}", work=0.05) for i in range(3))
    )
    sim = Simulator()
    eng = SimPipelineEngine(
        sim,
        grid,
        pipe,
        Mapping.single([0, 1, 2]),
        n_items=n_items,
        seed=seed,
    )
    horizon = n_items * 0.05 * 3  # generous estimate of run length
    for _ in range(n_reconfigs):
        at = float(rng.uniform(0.1, max(0.2, horizon)))
        if rng.random() < 0.5:
            new = random_mapping(3, grid.pids, rng)
        else:
            # Random replication of a random stage over 2-3 processors.
            stage = int(rng.integers(0, 3))
            k = int(rng.integers(2, 4))
            procs = [int(p) for p in rng.choice(grid.pids, size=k, replace=False)]
            new = Mapping.single([0, 1, 2]).with_stage(stage, procs)
        sim.schedule(at, eng.reconfigure, new, migration)
    sim.run()
    assert eng.items_completed == n_items
    assert eng.output_seqs() == list(range(n_items))


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_adaptive_runs_conserve_items_under_noise(seed):
    """Full adaptive stack with monitor noise keeps the contract."""
    from repro.core.adaptive import AdaptivePipeline
    from repro.core.policy import AdaptationConfig
    from repro.gridsim.spec import uniform_grid
    from repro.workloads.scenarios import load_step

    grid = uniform_grid(4)
    load_step(1, at=5.0, availability=0.15).apply(grid)
    pipe = PipelineSpec(tuple(StageSpec(name=f"s{i}", work=0.08) for i in range(3)))
    res = AdaptivePipeline(
        pipe,
        grid,
        config=AdaptationConfig(interval=2.0, cooldown=3.0),
        initial_mapping=Mapping.single([0, 1, 2]),
        monitor_noise=0.05,
        seed=seed,
    ).run(150)
    assert res.completed_all
    assert res.in_order()
